/**
 * @file
 * Experiment driver: records workloads once, lowers them per
 * (hardware design x persistency model), replays them on the full
 * timing stack, and reports the metrics the paper's tables and
 * figures are built from (execution time, CLWB counts / CKC,
 * persist-induced stall cycles, speedups).
 */

#ifndef CORE_EXPERIMENT_HH
#define CORE_EXPERIMENT_HH

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.hh"
#include "runtime/instrumentor.hh"
#include "workloads/workload.hh"

namespace strand
{

/**
 * The machine seeds of one recording, one per SeedKey. Sweep workers
 * building from one recording share its seeds, so lookups lock. A
 * copied or assigned-to cache starts empty: its seeds would belong to
 * another recording's preload.
 */
class SeedCache
{
  public:
    SeedCache() = default;
    SeedCache(const SeedCache &) {}
    SeedCache &
    operator=(const SeedCache &)
    {
        clear();
        return *this;
    }

    /**
     * @return the seed for @p key, built from @p words by
     * System::makeSeed() on the first request for that key.
     */
    std::shared_ptr<const MachineSeed>
    get(const SeedKey &key,
        const std::unordered_map<Addr, std::uint64_t> &words);

    /** Drop every seed; machines built from one keep theirs. */
    void clear();

    /** @return how many seeds are held. */
    std::size_t size() const;

  private:
    mutable std::mutex mutex;
    std::vector<std::shared_ptr<const MachineSeed>> seeds;
};

/** A workload recorded once and reusable across designs/models. */
struct RecordedWorkload
{
    WorkloadKind kind = WorkloadKind::Queue;
    WorkloadParams params;
    RegionTrace trace;
    /** Fixed once recorded: machine seeds are built from it. */
    std::unordered_map<Addr, std::uint64_t> preload;
    /** Kept for invariant checks against run results. */
    std::shared_ptr<Workload> workload;
    /**
     * The preload seeded per SeedKey, built by the first buildSystem()
     * that needs each key. runSweep drops them after the recording's
     * last cell.
     */
    mutable SeedCache seeds;
};

/** Metrics from one timing run. */
struct RunMetrics
{
    /** Wall-clock of the run: tick at which the last core finished. */
    Tick runTicks = 0;
    /** Sum of active cycles over all cores. */
    double totalCycles = 0;
    /** CLWBs that reached the cache hierarchy. */
    double clwbs = 0;
    /** Persist-induced dispatch stalls (Figure 8 metric). */
    double persistStalls = 0;
    /** All dispatch stall cycles. */
    double allStalls = 0;
    /** Stalls from the §IV write-back/snoop persist interlocks. */
    double snoopStalls = 0;
    /** CLWBs per 1000 cycles (Table II metric). */
    double ckc = 0;
    LoweringStats lowering;

    /**
     * @name Host-throughput observability
     * Deterministic simulation-side denominators for the schema-2
     * `host` block: kernel events serviced and simulated ops
     * committed by the run. NOT part of the `metrics` JSON block,
     * which stays byte-identical to schema 1.
     * @{
     */
    std::uint64_t hostEvents = 0;
    std::uint64_t simOps = 0;
    /** @} */

    /**
     * @name Observer-side observability
     * ADR admissions (the length of the persist trace), and PMO-san
     * results when the sanitizer was attached (SW_PMOSAN). Not part
     * of the `metrics` JSON block — cells stay byte-identical with
     * the sanitizer off.
     * @{
     */
    std::uint64_t pmAdmissions = 0;
    std::uint64_t pmosanViolations = 0;
    std::uint64_t pmosanChecked = 0;
    /** @} */

    /** Speedup of this run relative to @p baseline. */
    double
    speedupOver(const RunMetrics &baseline) const
    {
        return runTicks == 0
                   ? 0.0
                   : static_cast<double>(baseline.runTicks) /
                         static_cast<double>(runTicks);
    }
};

/** Experiment-wide knobs. */
struct ExperimentConfig
{
    EngineConfig engine;
    SystemConfig baseSystem; ///< numCores overridden per workload
    /** Write-ahead logging style the lowering emits (redo: TXN only). */
    LogStyle logStyle = LogStyle::Undo;
    /**
     * Attach the PMO-san online persist-order checker to the run and
     * panic on violations (except under NON-ATOMIC, where they are
     * expected and only counted). Unset defers to SW_PMOSAN.
     */
    std::optional<bool> pmosan;
};

/** A recorded workload lowered for one (design, model, log style). */
struct LoweredWorkload
{
    /** The lowering's inputs, with the log layout it emitted for. */
    InstrumentorParams params;
    /** One stream per program thread, plus SFR/ATLAS's pruner. */
    std::vector<OpStream> streams;
    LoweringStats stats;
    /** Region -> log-entry map (the crash oracle's input). */
    std::vector<RegionLogInfo> regionLog;
};

/** Record @p kind once with @p params. */
RecordedWorkload recordWorkload(WorkloadKind kind,
                                const WorkloadParams &params);

/** Lower @p recorded for (design, model) with @p logStyle logging. */
LoweredWorkload lowerWorkload(const RecordedWorkload &recorded,
                              HwDesign design, PersistencyModel model,
                              LogStyle logStyle);

/**
 * Build the machine every harness runs @p lowered on: the config's
 * base system and engine, one core per stream, the lowering's design
 * and log layout, and @p adversary at every legal-reordering site.
 * The machine adopts the recording's seed for its key (the preload
 * seeded, with the L2 warmed when the base system asks for it) and
 * the streams are loaded, so it is ready to run. Timing cells, crash
 * cells, fuzz trials and simperf all build here, so they replay the
 * same machine.
 */
std::unique_ptr<System> buildSystem(const RecordedWorkload &recorded,
                                    const LoweredWorkload &lowered,
                                    const ExperimentConfig &config,
                                    DrainAdversary *adversary = nullptr);

/**
 * Lower @p recorded for (design, model) and replay it.
 * @param validate When true, panic if post-run invariants fail.
 */
RunMetrics runExperiment(const RecordedWorkload &recorded,
                         HwDesign design, PersistencyModel model,
                         const ExperimentConfig &config = {},
                         bool validate = true);

/**
 * Default op count per thread, overridable via env SW_OPS (validated
 * by the env_config module: malformed values die loudly).
 */
unsigned benchOpsPerThread(unsigned fallback = 220);

/** Default thread count, overridable via env SW_THREADS. */
unsigned benchThreads(unsigned fallback = 8);

/**
 * Crash points to inject per crash cell, overridable via env
 * SW_CRASH_POINTS: the point budget crash_matrix gives its Crash
 * cells (see crash/crash_harness.hh). Timing runs never inject.
 */
unsigned benchCrashPoints(unsigned fallback = 0);

/**
 * Seed for random crash-tick selection, overridable via env
 * SW_CRASH_SEED (decimal or 0x-hex). Used everywhere a
 * CrashHarnessConfig is built, so one knob reseeds every harness.
 */
std::uint64_t benchCrashSeed(std::uint64_t fallback = 0xc4a54);

/**
 * Fuzz trials per campaign cell, overridable via env SW_FUZZ_TRIALS
 * (0 skips fuzz cells entirely).
 */
unsigned benchFuzzTrials(unsigned fallback = 8);

/** Fuzz campaign seed, overridable via env SW_FUZZ_SEED. */
std::uint64_t benchFuzzSeed(std::uint64_t fallback = 0xf022);

/**
 * Whether to attach the PMO-san online persist-order checker,
 * overridable via env SW_PMOSAN (default off).
 */
bool benchPmosan(bool fallback = false);

} // namespace strand

#endif // CORE_EXPERIMENT_HH
