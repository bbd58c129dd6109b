/**
 * @file
 * The traced twin: re-drives every cell of a sweep one step below the
 * harness, through the simulator's public calls, with a span around
 * each call into a layer.
 *
 *  - Timing cells: recordWorkload -> Instrumentor::lower -> System
 *    ctor/seedImage/loadStreams -> run -> checkInvariants, as
 *    runExperiment does.
 *  - Crash cells: the forked harness loop of runCrashCell — one warm
 *    run with admission pre-images and the mid-run snapshot/restore
 *    self-check, then rewind -> clone -> CrashOracle ->
 *    RecoveryManager::recover (paged) -> checkInvariants per point.
 *  - Fuzz cells: the classic trial of runFuzzTrial — a recording run,
 *    then a replay whose admission observer does clone -> CrashOracle
 *    -> recover (faithful) -> checkInvariants — and shrinkDecisions
 *    for failing trials, as runFuzzCell does.
 *
 * The twin rebuilds each cell's result, so its `.cells` rendering can
 * be compared byte for byte with the untraced sweep: if they differ,
 * the traced run measured a different program.
 */

#ifndef PERFBENCH_TWIN_HH
#define PERFBENCH_TWIN_HH

#include <cstdint>
#include <vector>

#include "core/sweep.hh"
#include "layers.hh"
#include "trace.hh"

namespace perfbench
{

/** What the traced twin produced. */
struct TwinOutput
{
    /** Cells in spec order, results recomputed by the twin. */
    strand::SweepResult result;
    /** Fuzz: persist-trace hash of each trial's replay, cell order. */
    std::vector<std::uint64_t> trialHashes;
    /** Simulated counters of every System the twin ran. */
    SimCounters sim;
    /** Recovery verdicts over every recover() call. */
    std::uint64_t verdictFull = 0;
    std::uint64_t verdictDegraded = 0;
    std::uint64_t verdictFailed = 0;
    /** Replays spent by shrinkDecisions. */
    std::uint64_t shrinkReplays = 0;
    /** Persists PMO-san checked. */
    std::uint64_t persistsChecked = 0;
};

/**
 * Run every cell of @p spec through the twin, recording spans in
 * @p tracer. Throws std::invalid_argument for a cell configuration
 * the twin does not model (two-run crash cells, forked or media fuzz
 * trials, timing cells with crash injection).
 */
TwinOutput runTwin(const strand::SweepSpec &spec, Tracer &tracer);

/**
 * The persist-trace hash of every fuzz trial of @p spec, cell order,
 * from the simulator's own runFuzzTrial.
 */
std::vector<std::uint64_t>
referenceTrialHashes(const strand::SweepSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_TWIN_HH
