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
#include <deque>
#include <functional>
#include <memory>
#include <string>
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
 * What System::seedImage() reads besides the words it installs: two
 * machines whose configs agree on these fields are left with the same
 * image and the same L2 tags by the same words.
 */
struct SeedKey
{
    LogLayout layout;
    std::uint64_t l2Size = 0;
    unsigned l2Ways = 0;
    bool warmCaches = true;

    /** The key of a machine built with @p cfg. */
    static SeedKey of(const SystemConfig &cfg);

    bool operator==(const SeedKey &) const = default;
};

/**
 * What System::seedImage() leaves in a fresh machine with a given
 * key: the seeded image and the L2 tags it warmed (DESIGN.md §2 item
 * 7). Built once per recording and key (RecordedWorkload::seeds);
 * every machine built from the recording adopts it.
 */
struct MachineSeed
{
    SeedKey key;
    MemoryImage image;
    CacheArray::State l2;
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

    /**
     * Build what seedImage(@p words) leaves in a fresh machine whose
     * config has @p key, by seeding a one-core machine with that key.
     */
    static std::shared_ptr<const MachineSeed>
    makeSeed(const SeedKey &key,
             const std::unordered_map<Addr, std::uint64_t> &words);

    /**
     * Start from @p seed, in the state seedImage() of its words would
     * leave: the image is copied, and the L2 shares the seed's tag
     * blocks, copying each one on its first write (DESIGN.md §6 rule
     * 5). The machine holds @p seed for life, so a seed block never
     * has a single owner that could adopt it in place while machines
     * on other threads still read it. Panics unless this machine has
     * the seed's key and has not started.
     */
    void adoptSeed(std::shared_ptr<const MachineSeed> seed);

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

    SystemConfig cfg;
    EventQueue eq;
    MemoryImage image;
    std::unique_ptr<MemController> pmCtrl;
    std::unique_ptr<MemController> dramCtrl;
    std::unique_ptr<Hierarchy> caches;
    LockTable locks;
    std::vector<std::unique_ptr<Core>> cores;
    ObserverHub hub;
    /** The seed this machine adopted, if any (see adoptSeed()). */
    std::shared_ptr<const MachineSeed> seed;
};

/**
 * The mid-run capture ring of every consumer that forks a machine
 * from inside its run (DESIGN.md §6 rule 3). The consumer calls
 * count() once per event it counts (a PM admission, an adversary
 * query). Counts 1, 2, 4, ... schedule a one-shot at the current
 * tick and Stat priority; the one-shot captures the System and the
 * consumer's @p Extra state. Only the last two captures are kept, so
 * older() leaves a non-trivial tail to re-execute. The extra events
 * shift kernel seq numbers uniformly, which cannot reorder dispatch,
 * so the counted run is unperturbed.
 */
template <typename Extra>
class MidrunCaptures
{
  public:
    struct Capture
    {
        Tick when = 0;
        SimSnapshot snap;
        Extra extra;
    };

    /**
     * @param label Names the consumer in the "<label> capture @<tick>"
     *              log line.
     * @param extra Captures the consumer's state beside the machine.
     */
    MidrunCaptures(System &sys, std::string label,
                   std::function<Extra()> extra)
        : sys(sys), label(std::move(label)), extra(std::move(extra))
    {}

    /** Scheduled captures hold this object's address. */
    MidrunCaptures(const MidrunCaptures &) = delete;
    MidrunCaptures &operator=(const MidrunCaptures &) = delete;

    void
    count()
    {
        ++counted;
        if (!capturing || (counted & (counted - 1)) != 0)
            return;
        EventQueue &eq = sys.eventQueue();
        eq.schedule(eq.curTick(), [this] { capture(); },
                    EventPriority::Stat);
    }

    /**
     * End capturing. Captures still pending in the event queue (or in
     * a restored queue) become no-ops.
     */
    void stop() { capturing = false; }

    bool empty() const { return ring.empty(); }

    /** The older of the (at most two) kept captures. */
    const Capture &older() const { return ring.front(); }

  private:
    void
    capture()
    {
        if (!capturing)
            return;
        Capture cap{sys.eventQueue().curTick(), sys.snapshot(),
                    extra()};
        inform("{} capture @{}", label, cap.when);
        ring.push_back(std::move(cap));
        if (ring.size() > 2)
            ring.pop_front();
    }

    System &sys;
    std::string label;
    std::function<Extra()> extra;
    std::deque<Capture> ring;
    std::uint64_t counted = 0;
    bool capturing = true;
};

} // namespace strand

#endif // CORE_SYSTEM_HH
