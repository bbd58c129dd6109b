/**
 * @file
 * Crash-point fault-injection harness.
 *
 * For one (hardware design, persistency model, workload) cell the
 * harness evaluates the Figure 6 recovery protocol at a planned set
 * of crash points, in one of two modes:
 *
 * Two-run mode (the oracle, default):
 *
 *  1. A reference run enumerates injectable crash points: every PM
 *     admission (the persist trace), every persist-engine flush
 *     completion, and a configurable number of random ticks drawn
 *     from the deterministic Rng. Between admissions the persisted
 *     image cannot change, so admission points cover every distinct
 *     post-crash state; completion and random points exercise the
 *     same states through an independent path.
 *  2. An injection run re-executes the identical schedule and, at
 *     each selected crash point, snapshots the persisted image (the
 *     state a real power failure would leave), runs recovery on the
 *     snapshot, and validates the result against the CrashOracle
 *     plus the workload's own structural invariants. The snapshot is
 *     discarded afterwards, so the run itself is never perturbed.
 *
 * Forked mode (SW_CRASH_FORK=1 / CrashHarnessConfig::fork): ONE warm
 * run both enumerates the points and captures the pre-image of every
 * ADR admission (MemoryImage::AdmissionUndo). The harness then forks
 * the final image and rewinds it admission by admission, newest
 * first, evaluating each planned point on the reconstructed persisted
 * state — so only recovery re-executes per point:
 * O(run + points x recovery) instead of O(points x run). A crash
 * point "at tick T" means the persisted state after every admission
 * with when <= T in both modes (injection runs at EventPriority::Stat,
 * admissions at MemoryResponse), and the point plan is shared, so
 * verdicts are bit-identical between the modes at a fixed seed; the
 * two-run mode is retained as the slow trusted oracle (CI diffs the
 * two JSON outputs).
 *
 * The NON-ATOMIC design is expected to fail these checks (it omits
 * the log/update persist ordering); the harness records its
 * violations without treating them as errors, so the matrix doubles
 * as evidence that the oracle has teeth.
 */

#ifndef CRASH_CRASH_HARNESS_HH
#define CRASH_CRASH_HARNESS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "crash/crash_oracle.hh"
#include "crash/media_faults.hh"
#include "sim/stats.hh"

namespace strand
{

/** Harness knobs. */
struct CrashHarnessConfig
{
    /**
     * Target number of injected crash points per cell. Enumerated
     * points (admissions + completions) are sampled evenly down to
     * this budget, always keeping the first and last; additional
     * random ticks are drawn from the Rng and deduplicated against
     * the selection (see planCrashPoints()). 0 disables injection
     * entirely.
     */
    unsigned pointBudget = 32;
    /** Seed for random crash-tick selection. */
    std::uint64_t seed = 0xc4a54;
    /** Undo or redo logging (redo is TXN-only). */
    LogStyle logStyle = LogStyle::Undo;
    /**
     * Torn-cacheline injection: at each crash point, admit only the
     * first tornWords written 8-byte words of the final flushed line
     * (PM write granularity sits below ADR line atomicity). Values
     * >= wordsPerLine leave the admission whole. Wired to
     * SW_TORN_WORDS by the benches.
     */
    unsigned tornWords = wordsPerLine;
    /** Forwarded to the systems built for both runs. */
    ExperimentConfig experiment;
    /**
     * Attach the PMO-san online persist-order checker to the
     * injection run; violations are recorded as an extra failing
     * point. Unset defers to SW_PMOSAN.
     */
    std::optional<bool> pmosan;
    /**
     * Forked-snapshot exploration: rewind one warm run's final image
     * instead of re-simulating per point (see the file comment).
     * Unset defers to SW_CRASH_FORK; the default is two-run mode.
     */
    std::optional<bool> fork;
    /**
     * Media-fault injection applied to every crash-point snapshot
     * (poisoned lines, bit flips, partial ADR drain — see
     * media_faults.hh). Faults are a pure function of (media.seed,
     * crash tick), so forked and two-run verdicts stay
     * bit-identical. All-zero (the default) disables the model and
     * preserves the historical behavior exactly.
     */
    MediaFaultConfig media;
    /**
     * Verify log-entry checksums during recovery. Off reproduces
     * the un-checksummed layout (see RecoveryOptions); the crash
     * oracle then catches recovery trusting flipped entries.
     */
    bool verifyChecksums = true;
    /**
     * In forked mode, additionally take full-machine snapshots at
     * power-of-two admission counts during the warm run, then
     * restore the older of the last two and re-run the tail,
     * panicking unless finish tick and persist trace are
     * bit-identical to the uninterrupted run (the mid-run fork
     * determinism self-check, DESIGN.md §6). Costs roughly one
     * extra run tail per cell; timing probes that only measure the
     * forked-snapshot payoff turn it off.
     */
    bool verifyMidrunFork = true;
};

/**
 * The crash points selected for one cell, shared by both harness
 * modes so their injections are identical by construction.
 */
struct CrashPointPlan
{
    /**
     * Sorted, distinct injection ticks. The end-of-run state is
     * always evaluated in addition to these.
     */
    std::vector<Tick> points;
    /** The budget the caller asked for (pointBudget). */
    unsigned requested = 0;
    /** Distinct enumerated candidates before sampling. */
    std::size_t enumerated = 0;
};

/**
 * Select the injected crash points for one cell from the enumerated
 * candidate ticks (admissions + completions, duplicates allowed).
 *
 * Enumerated points beyond the budget are sampled evenly, always
 * retaining the first AND last enumerated points — the fully
 * committed end-of-enumeration state must never be skipped. Random
 * top-up ticks (budget/4 + 1) probe the same states through an
 * independent path; they are drawn only when enumeration found
 * anything at all, and deduplicated against the selected points so
 * every tick in the plan is a distinct injection.
 */
CrashPointPlan planCrashPoints(std::vector<Tick> enumerated,
                               Tick endTick,
                               const CrashHarnessConfig &config);

/** What one crash-point check found. */
struct CrashPointCheck
{
    RecoveryReport report;
    std::string violation; ///< empty when the recovery passed
};

/**
 * The crash-point check that crash cells and fuzz trials share, with
 * the parts that stay fixed for a whole cell or trial.
 */
struct CrashPointChecker
{
    const CrashOracle &oracle;
    RecoveryManager recovery;
    unsigned programThreads = 0;
    RecoveryScan scan = RecoveryScan::Faithful;
    RecoveryOptions options;
    /** Structural invariants held to FULL recoveries; may be null. */
    const Workload *workload = nullptr;

    /**
     * Fail the power with @p machine's persisted state. The check
     * clones that state, tearing the newest admission down to its
     * first @p tornWords written words when tornWords < wordsPerLine,
     * and lets @p strike apply media faults to the clone. Then the
     * oracle classifies regions, recovery runs on the clone, and the
     * result must pass the oracle and, for a FULL verdict, the
     * workload's invariants. @p machine is never written.
     */
    CrashPointCheck
    check(const MemoryImage &machine, unsigned tornWords,
          const std::function<void(MemoryImage &)> &strike) const;
};

/** Outcome of one injected crash point. */
struct CrashPointResult
{
    Tick when = 0;
    bool passed = false;
    std::uint64_t entriesRolledBack = 0;
    std::uint64_t redoEntriesReplayed = 0;
    std::string violation; ///< empty when passed
};

/** Outcome of one (design, model, workload) cell. */
struct CrashCellResult
{
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Txn;
    std::string workload;
    unsigned pointsTested = 0;
    unsigned pointsPassed = 0;
    /** The crash-point budget the cell was asked for (pointBudget). */
    unsigned pointsRequested = 0;
    /**
     * Distinct injections actually performed: the planned points
     * plus the end-of-run check. Can sit below pointsRequested when
     * enumeration found fewer states or random top-ups collided with
     * enumerated ticks (they are deduplicated, not silently
     * double-counted).
     */
    unsigned pointsInjected = 0;
    /** Violations observed (all points kept; messages capped). */
    std::vector<CrashPointResult> failures;
    std::uint64_t totalRolledBack = 0;
    std::uint64_t totalReplayed = 0;
    /** Torn entries dropped by the publication gate, all points. */
    std::uint64_t totalTornSkipped = 0;
    /** Checksum-failing / structurally impossible entries
     * quarantined, all points. */
    std::uint64_t totalCorruptQuarantined = 0;
    /** Poisoned log lines quarantined, all points. */
    std::uint64_t totalPoisonedQuarantined = 0;
    /** Residual unreadable heap words reported, all points. */
    std::uint64_t totalQuarantinedAddrs = 0;
    /** Per-point RecoveryVerdict tallies (injected points only). */
    unsigned verdictFull = 0;
    unsigned verdictDegraded = 0;
    unsigned verdictFailed = 0;
    /** Kernel events serviced over both runs (host observability). */
    std::uint64_t hostEvents = 0;
    /** Ops committed over both runs (host observability). */
    std::uint64_t simOps = 0;

    bool allPassed() const { return pointsTested == pointsPassed; }
};

/**
 * Per-cell stats, attachable to a StatGroup tree so crash results
 * print alongside the timing stats.
 */
class CrashStats : public stats::StatGroup
{
  public:
    CrashStats(std::string name, stats::StatGroup *parent = nullptr)
        : stats::StatGroup(std::move(name), parent),
          pointsTested(this, "crash_points_tested",
                       "crash points injected"),
          pointsPassed(this, "crash_points_passed",
                       "crash points that recovered consistently"),
          violations(this, "crash_violations",
                     "crash points with recovery violations"),
          rolledBack(this, "recovery_rolled_back",
                     "undo entries rolled back per recovery"),
          replayed(this, "recovery_redo_replayed",
                   "redo entries replayed per recovery")
    {
    }

    void
    record(const CrashCellResult &result)
    {
        pointsTested += result.pointsTested;
        pointsPassed += result.pointsPassed;
        violations += result.pointsTested - result.pointsPassed;
    }

    stats::Scalar pointsTested;
    stats::Scalar pointsPassed;
    stats::Scalar violations;
    stats::Histogram rolledBack;
    stats::Histogram replayed;
};

/**
 * Run crash injection for one cell.
 * @param stats Optional sink for per-point recovery stats.
 */
CrashCellResult runCrashCell(const RecordedWorkload &recorded,
                             HwDesign design, PersistencyModel model,
                             const CrashHarnessConfig &config = {},
                             CrashStats *stats = nullptr);

} // namespace strand

#endif // CRASH_CRASH_HARNESS_HH
