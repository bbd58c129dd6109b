/**
 * @file
 * One fuzz trial: a workload run under an adversarial drain schedule
 * with crash-recovery checking at every PM admission.
 *
 * A trial derives three sub-seeds from its trial seed (workload op
 * mix, adversary schedule, torn-word selection), then runs twice:
 *
 *  1. A recording run executes the cell under a recording
 *     DrainAdversary, producing the decision log and a hash of the
 *     persist trace.
 *  2. A replay run applies that exact log through a replaying
 *     adversary and, at every ADR admission (plus the completed
 *     run), snapshots the persisted image — torn at the trial's
 *     word mask — recovers it with the Figure 6 protocol and
 *     validates it against the CrashOracle and the workload's
 *     structural invariants. The persist-trace hash of the replay
 *     must equal the recording run's: any divergence is itself
 *     reported as a trial failure (it would mean the trial is not
 *     replayable from (seed, log), breaking shrinking).
 *
 * replayDecisions() is the shrinker's predicate: because the
 * adversary treats queries without a log entry as "proceed", any
 * sub-log is a legal schedule and can be replayed unchanged.
 */

#ifndef FUZZ_FUZZ_TRIAL_HH
#define FUZZ_FUZZ_TRIAL_HH

#include <optional>

#include "core/experiment.hh"
#include "crash/media_faults.hh"
#include "fuzz/adversary.hh"

namespace strand
{

/** Everything defining one fuzz trial. */
struct FuzzTrialSpec
{
    WorkloadKind kind = WorkloadKind::Queue;
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Txn;
    LogStyle logStyle = LogStyle::Undo;
    unsigned numThreads = 2;
    unsigned opsPerThread = 12;
    /** Engine/system knobs (hopsEpochInterlock travels in here). */
    ExperimentConfig experiment;
    /** Recording-mode knobs; the seed is overwritten per trial. */
    AdversaryParams adversary;
    /** Master seed; workload/adversary/torn seeds derive from it. */
    std::uint64_t seed = 1;
    /**
     * Attach the PMO-san online persist-order checker to the replay
     * run; its violations fail the trial through the same shrinkable
     * path as recovery violations. Unset defers to SW_PMOSAN.
     */
    std::optional<bool> pmosan;
    /**
     * Forked-trial fast path: run the recording pass WITH injection
     * attached (the observers are pure, so the schedule is the one a
     * recording-only run produces) and the cheap paged recovery
     * scan, skipping the replay for passing trials. A failing trial
     * falls back to the classic record+replay pair — faithful scan,
     * divergence check — so campaign failures remain replayable from
     * (seed, log) and shrinkable exactly as in classic mode. The
     * trade-off: passing trials skip the replay-divergence check.
     * Unset defers to SW_CRASH_FORK.
     */
    std::optional<bool> fork;
    /**
     * Media-fault fuzzing: per-crash-point maxima for the three
     * fault classes. Unlike the crash harness's seeded applier, the
     * fuzzer decides each fault opportunity through the adversary's
     * decision log (sites media-poison / media-flip / media-drop), so
     * fault sets shrink with ddmin like schedules. config.seed is
     * unused here — entropy rides in the decisions. Any non-zero
     * class forces the forked trial path: the classic recording run
     * has no injection attached, so it would never see (and thus
     * never log) a media opportunity.
     */
    MediaFaultConfig media;
    /**
     * Verify per-entry checksums during recovery. Off replays the
     * pre-checksum layout's behavior — the regression mode proving
     * silent corruption slips through unchecksummed recovery.
     */
    bool verifyChecksums = true;
    /**
     * Forked schedule branching (needs fork): snapshot the whole
     * machine at adversary decision sites during the recording run,
     * then explore this many extra schedule suffixes from the warm
     * prefix, each under a reseeded adversary. A failing branch is
     * confirmed by replaying its full decision log from tick zero —
     * the exact predicate the shrinker uses — so branch failures
     * shrink like main-schedule failures. Unset defers to
     * SW_FUZZ_FORK_BRANCH.
     */
    std::optional<unsigned> forkBranches;
};

/** A trial spec with its derived seeds and recorded workload. */
struct FuzzTrialContext
{
    FuzzTrialSpec spec;
    std::uint64_t workloadSeed = 0;
    std::uint64_t adversarySeed = 0;
    std::uint64_t tornSeed = 0;
    RecordedWorkload recorded;
};

/** Outcome of replaying one decision log with injection. */
struct FuzzReplayOutcome
{
    bool failed = false;
    /** First violation message (empty when passed). */
    std::string violation;
    /** Tick of the first failing injection. */
    Tick crashTick = 0;
    unsigned pointsChecked = 0;
    unsigned pointsFailed = 0;
    /** FNV-1a hash of the persist trace (replay-divergence check). */
    std::uint64_t traceHash = 0;
    Tick endTick = 0;
    /** Kernel events serviced by the replay run (host observability). */
    std::uint64_t hostEvents = 0;
    /** Ops committed by the replay run (host observability). */
    std::uint64_t simOps = 0;
};

/** Outcome of a full trial. */
struct FuzzTrialResult
{
    bool failed = false;
    std::string violation;
    Tick crashTick = 0;
    /** Words admitted of each injection's final line (8 = whole). */
    unsigned tornWords = 8;
    unsigned pointsChecked = 0;
    unsigned pointsFailed = 0;
    /** The recorded adversarial schedule (replay input). */
    DecisionLog decisions;
    /** consider() queries the recording run answered. */
    std::uint64_t queries = 0;
    std::uint64_t workloadSeed = 0;
    std::uint64_t adversarySeed = 0;
    std::uint64_t traceHash = 0;
    /** True when record and replay persist traces diverged. */
    bool replayDiverged = false;
    /** Extra schedule suffixes explored from mid-run snapshots. */
    unsigned branchesExplored = 0;
    /** 0 = the main schedule; else the 1-based failing branch. */
    unsigned failingBranch = 0;
    /** Kernel events over record + replay runs (host observability). */
    std::uint64_t hostEvents = 0;
    /** Ops committed over record + replay runs (host observability). */
    std::uint64_t simOps = 0;
};

/** Record the workload and derive sub-seeds (once per trial). */
FuzzTrialContext makeTrialContext(const FuzzTrialSpec &spec);

/**
 * Replay @p log against @p ctx, injecting a (possibly torn)
 * crash-recovery check at every PM admission and after completion.
 * Deterministic in (ctx, log, tornWords).
 */
FuzzReplayOutcome replayDecisions(const FuzzTrialContext &ctx,
                                  const DecisionLog &log,
                                  unsigned tornWords);

/** Run one complete trial (record, then replay with injection). */
FuzzTrialResult runFuzzTrial(const FuzzTrialSpec &spec);

} // namespace strand

#endif // FUZZ_FUZZ_TRIAL_HH
