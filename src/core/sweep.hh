/**
 * @file
 * Sweep orchestration: declarative experiment matrices executed on a
 * worker-thread pool.
 *
 * Every figure/table bench reproduces one paper artifact by running a
 * matrix of (workload x hardware design x persistency model) cells.
 * A SweepSpec enumerates those cells declaratively — workload,
 * design, model, per-cell ExperimentConfig overrides, an optional
 * baseline cell for speedup columns — and runSweep() executes them.
 *
 * Cells are embarrassingly parallel: each one builds a
 * self-contained simulation (its own EventQueue, System, Rng, and
 * stats tree) from the shared RecordedWorkload. What cells share
 * through a recording besides reading it are its machine seeds
 * (RecordedWorkload::seeds): the seeded image and warm L2 tags, built
 * by the first cell that needs them and adopted copy-on-write by
 * every machine after it. So execution is grouped by recording: the
 * scheduler hands out the cells of one recording back to back
 * (groups in the order of their first cell, spec order within a
 * group) to SW_JOBS worker threads (default: hardware concurrency; 1
 * runs every cell on the main thread), and drops a recording's seeds
 * after its last cell. Results land in spec order regardless of
 * execution order, so table and JSON output are byte-identical
 * across SW_JOBS values.
 *
 * A cell that panics does not wedge the pool: the panic is caught,
 * tagged with the cell's label, and recorded on its CellResult; the
 * remaining cells still run.
 */

#ifndef CORE_SWEEP_HH
#define CORE_SWEEP_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "crash/crash_harness.hh"
#include "fuzz/campaign.hh"

namespace strand
{

/** What a sweep cell runs. */
enum class CellKind
{
    Timing, ///< runExperiment: the timing stack, RunMetrics out.
    Crash,  ///< runCrashCell: crash-point fault injection.
    Fuzz,   ///< runFuzzCell: seeded adversarial-schedule fuzzing.
};

/** One cell of an experiment matrix. */
struct SweepCell
{
    CellKind kind = CellKind::Timing;
    /** Shared across cells and recorded once per workload; cells
     * only read it, apart from its machine seeds. */
    std::shared_ptr<const RecordedWorkload> recorded;
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Sfr;
    /** Per-cell overrides (engine geometry, caches, log style...). */
    ExperimentConfig config;
    /** Timing cells: panic on post-run invariant violations. */
    bool validate = true;
    /** Crash cells: injected crash-point budget. */
    unsigned crashPoints = 16;
    /** Crash cells: torn-line injection (see CrashHarnessConfig). */
    unsigned tornWords = wordsPerLine;
    /**
     * Crash cells: media-fault injection at every crash point
     * (poison, bit flips, partial ADR drain — see media_faults.hh).
     * All-zero (the default) disables the fault model.
     */
    MediaFaultConfig media;
    /**
     * Crash cells: pin the harness mode (forked vs two-run)
     * regardless of SW_CRASH_FORK; unset defers to the knob. Used by
     * the crash_matrix fork-speedup probe cells, which must compare
     * the two modes inside one sweep.
     */
    std::optional<bool> crashFork;
    /**
     * Crash cells: run the forked mode's mid-run snapshot
     * determinism self-check (see CrashHarnessConfig). On by
     * default; the fork-speedup probe turns it off so its timing
     * measures only the forked-snapshot payoff.
     */
    bool crashVerifyMidrunFork = true;
    /**
     * Fuzz cells: the campaign configuration. The workload comes
     * from fuzz.base.kind (fuzz trials record their own workload per
     * trial seed, so `recorded` stays null); the effective campaign
     * seed is fuzz.seed remixed with the cell key, keeping sibling
     * cells' schedules independent while the whole sweep remains a
     * pure function of one seed.
     */
    FuzzCellConfig fuzz;
    /**
     * Extra coordinate distinguishing cells that share (workload,
     * design, model) — e.g. "4x4" strand-buffer geometry, "redo",
     * "no-interlocks". Empty for plain cells.
     */
    std::string variant;
    /**
     * key() of the cell this one is normalized to for speedup
     * columns; empty means no baseline. A cell may name itself
     * (speedup 1.0), which benches use for baseline columns.
     */
    std::string baseline;
    /** Label override for synthetic traces; defaults to the
     * recorded workload's registered name. */
    std::string workloadLabel;

    /** The workload coordinate as printed and keyed. */
    std::string workload() const;

    /** Unique cell coordinates: workload/design/model[/variant]. */
    std::string key() const;
};

/** Outcome of one cell, coordinates included. */
struct CellResult
{
    CellKind kind = CellKind::Timing;
    std::string workload;
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Sfr;
    LogStyle logStyle = LogStyle::Undo;
    std::string variant;
    std::string key;
    std::string baseline;
    /** False when the cell panicked; error holds the message. */
    bool ok = false;
    std::string error;
    /** Timing cells. */
    RunMetrics metrics;
    /** runTicks of baseline over this cell; 0 without a baseline. */
    double speedup = 0.0;
    /** Crash cells. */
    CrashCellResult crash;
    /** Crash cells: torn-word setting (>= wordsPerLine: whole lines). */
    unsigned tornWords = wordsPerLine;
    /** Crash cells: the media-fault configuration (any() false: off). */
    MediaFaultConfig media;
    /** Fuzz cells. */
    FuzzCellResult fuzz;

    /**
     * Host-side throughput observability (the schema-2 `host`
     * block). wallMs is measured and therefore nondeterministic;
     * events and simOps are simulation-side counts and identical for
     * identical seeds.
     */
    struct Host
    {
        double wallMs = 0;
        std::uint64_t events = 0;
        std::uint64_t simOps = 0;
    };
    Host host;
};

/** A declarative experiment matrix. */
struct SweepSpec
{
    /** Bench name; the JSON sink writes <outDir>/<name>.json. */
    std::string name;
    std::vector<SweepCell> cells;
    /** Worker threads; 0 defers to SW_JOBS / hardware concurrency. */
    unsigned jobs = 0;

    /** Append a cell; returns it for further tweaking. */
    SweepCell &
    add(SweepCell cell)
    {
        cells.push_back(std::move(cell));
        return cells.back();
    }

    /** Append a Timing cell with the common coordinates. */
    SweepCell &addTiming(std::shared_ptr<const RecordedWorkload> rec,
                         HwDesign design, PersistencyModel model,
                         std::string baseline = "");

    /** Append a Crash cell with the common coordinates. */
    SweepCell &addCrash(std::shared_ptr<const RecordedWorkload> rec,
                        HwDesign design, PersistencyModel model,
                        unsigned crashPoints);

    /** Append a Fuzz cell; @p campaign.base carries the coordinates. */
    SweepCell &addFuzz(const FuzzCellConfig &campaign);
};

/** All cell outcomes, in spec order. */
struct SweepResult
{
    std::string name;
    /** Worker threads actually used (not part of the JSON output). */
    unsigned jobs = 1;
    std::vector<CellResult> cells;

    /** @return the cell with coordinates @p key, or nullptr. */
    const CellResult *find(const std::string &key) const;

    /** @return true when every cell completed without panicking. */
    bool allOk() const;

    /** Keys of cells that panicked. */
    std::vector<std::string> failedKeys() const;
};

/**
 * Execute every cell of @p spec and resolve baseline speedups.
 * Deterministic: the result (and any JSON rendered from it) is
 * byte-identical for every jobs count.
 */
SweepResult runSweep(const SweepSpec &spec);

/** Record a workload for cell sharing (shared_ptr-wrapped). */
std::shared_ptr<const RecordedWorkload>
recordShared(WorkloadKind kind, const WorkloadParams &params);

} // namespace strand

#endif // CORE_SWEEP_HH
