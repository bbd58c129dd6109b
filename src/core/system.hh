/**
 * @file
 * Top-level system assembly: cores with persist engines, the
 * coherent cache hierarchy, PM and DRAM controllers, the lock table,
 * and the event queue — configured per Table I of the paper.
 *
 * A System executes one op stream per core, supports running to
 * completion or to an arbitrary crash point, and records the persist
 * trace (ADR admissions) for order validation.
 */

#ifndef CORE_SYSTEM_HH
#define CORE_SYSTEM_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/observer.hh"
#include "cpu/core.hh"
#include "persist/design.hh"
#include "runtime/layout.hh"

namespace strand
{

/** Whole-system configuration. */
struct SystemConfig
{
    unsigned numCores = 8;
    HwDesign design = HwDesign::StrandWeaver;
    EngineConfig engine;
    CoreParams core;
    HierarchyParams caches;
    /**
     * Install preloaded data and the undo-log buffers into the L2
     * before the run, modeling the steady-state residency a long
     * (50K-op) run reaches; short replays would otherwise be
     * dominated by one-time cold misses.
     */
    bool warmCaches = true;
    /** Log/heap geometry; governs the warm-cache prewarm range. */
    LogLayout layout;
    MemControllerParams pm;
    MemControllerParams dram = dramControllerParams();
    /**
     * Fuzzing hook (non-owning; must outlive the System). Copied
     * into the engine and cache configs at construction so every
     * legal-reordering site consults the same adversary.
     */
    DrainAdversary *adversary = nullptr;
};

/**
 * Run bookkeeping: the persist trace, per-core finish ticks and the
 * run's progress flags. System derives from it privately (DESIGN.md
 * §6).
 */
struct SystemRunState
{
    std::vector<PersistRecord> persists;
    /** Per core, the tick it finished at (0 while it runs). */
    std::vector<Tick> coreFinish;
    bool streamsLoaded = false;
    bool coresStarted = false;
};

/**
 * One capture of a whole machine, taken by System::snapshot() and
 * valid only for System::restore() on the same System (DESIGN.md §6).
 */
struct SimSnapshot
{
    EventQueue::Snapshot eq;
    MemoryImage image;
    std::unordered_map<std::uint32_t, LockTable::Lock> locks;
    SystemRunState run;
    MemControllerState pm;
    MemControllerState dram;
    Hierarchy::Snapshot caches;
    /** One entry per core, and one per core's persist engine. */
    std::vector<CoreState> cores;
    std::vector<PersistEngine::Snapshot> engines;
    stats::StatGroup::StatValues stats;
};

/**
 * A complete simulated machine.
 */
class System : public stats::StatGroup, private SystemRunState
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    MemoryImage &memory() { return image; }
    EventQueue &eventQueue() { return eq; }
    Hierarchy &hierarchy() { return *caches; }
    Core &core(CoreId id) { return *cores.at(id); }
    unsigned numCores() const { return cores.size(); }
    const SystemConfig &config() const { return cfg; }

    /** Seed words as already-durable initial state. */
    void seedImage(
        const std::unordered_map<Addr, std::uint64_t> &words);

    /** Install one op stream per core (size must match). */
    void loadStreams(std::vector<OpStream> streams);

    /**
     * Run to completion.
     * @return the tick at which the last core finished.
     */
    Tick run();

    /**
     * Run until @p limit or completion, whichever is first. Calls
     * are resumable: a later call with a larger limit continues the
     * same execution, so a harness can advance a run crash point by
     * crash point, snapshotting between segments.
     * @return true if all cores finished.
     */
    bool runUntil(Tick limit);

    /**
     * Attach a persist-event observer (non-owning; must outlive the
     * System, and must be detached before destruction if it is
     * shorter-lived than the run). Observers are notified in
     * registration order on every event — multiple subscribers
     * coexist, unlike the old single-slot setPersistHook.
     */
    void addObserver(PersistObserver *obs) { hub.add(obs); }

    /** Detach a previously attached observer. */
    void removeObserver(PersistObserver *obs) { hub.remove(obs); }

    /** Simulate a failure: freeze PM, discard volatile state. */
    void crash() { image.crash(); }

    bool
    finishedAll() const
    {
        for (const auto &core : cores)
            if (!core->finished())
                return false;
        return true;
    }

    /** Persist trace (in ADR admission order). */
    const std::vector<PersistRecord> &persistTrace() const
    {
        return persists;
    }

    /** Aggregate CLWBs issued by all cores' engines (CKC metric). */
    double totalClwbs() const;

    /** Aggregate persist-induced stall cycles (Figure 8 metric). */
    double totalPersistStalls() const;

    /** Total active cycles summed over cores. */
    double totalCycles() const;

    /** Total ops committed over cores (host-throughput metric). */
    double totalCommitted() const;

    /** Kernel events serviced by this system's queue so far. */
    std::uint64_t eventsServiced() const { return eq.serviced(); }

    /** The tick at which the last core finished. */
    Tick finishTick() const { return std::ranges::max(coreFinish); }

    /** The tick at which core @p id finished (0 if still running). */
    Tick
    finishTickOf(CoreId id) const
    {
        return coreFinish.at(id);
    }

    /** @name Full-machine mid-run snapshot @{ */

    /**
     * Capture the whole machine: the event-queue kernel state, the
     * memory image, the lock table, run bookkeeping, every component
     * (controllers, hierarchy, cores and their persist engines), and
     * all statistics. The capture is only valid for restore() on this
     * same System instance — in-flight callbacks reference the live
     * objects.
     */
    SimSnapshot snapshot() const;

    /**
     * Rewind the machine to @p snap. Determinism contract: restoring
     * a mid-run capture and re-running reproduces the uninterrupted
     * run bit-identically (same persist trace, finish ticks, and
     * stats) at fixed seeds.
     */
    void restore(const SimSnapshot &snap);

    /** @} */

  private:
    /** Start the cores exactly once across run()/runUntil() calls. */
    void startCores();

    /**
     * The internal persist-trace recorder is itself an observer —
     * registered first, so persistTrace() is complete by the time any
     * user-attached observer sees the same admission.
     */
    struct TraceRecorder final : PersistObserver
    {
        explicit TraceRecorder(std::vector<PersistRecord> &out)
            : out(out)
        {}

        void
        onPersistAdmitted(const PersistRecord &rec) override
        {
            out.push_back(rec);
        }

        std::vector<PersistRecord> &out;
    };

    SystemConfig cfg;
    EventQueue eq;
    MemoryImage image;
    std::unique_ptr<MemController> pmCtrl;
    std::unique_ptr<MemController> dramCtrl;
    std::unique_ptr<Hierarchy> caches;
    LockTable locks;
    std::vector<std::unique_ptr<Core>> cores;
    ObserverHub hub;
    TraceRecorder traceRecorder{persists};
};

} // namespace strand

#endif // CORE_SYSTEM_HH
