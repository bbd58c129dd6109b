/**
 * @file
 * The benchmark's workloads: the sweep each one runs, the inputs it
 * generates from the seed, the output checks, and the end-to-end
 * quantities derived from a finished sweep.
 *
 * Every workload is one SweepSpec executed by the simulator's own
 * sweep runner (runSweep) on one worker, exactly as the bench
 * binaries run their matrices. Only the sizes and the seed come from
 * the benchmark.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace perfbench
{

enum class WorkloadId
{
    /** Figure 7 timing matrix, 8 workloads x 5 designs x 3 models. */
    TimingFig7,
    /** crash_matrix-shaped cells under the forked harness + PMO-san. */
    CrashForked,
    /** Classic record+replay fuzz cells, shrinking included. */
    FuzzTrials,
};

std::optional<WorkloadId> parseWorkload(const std::string &name);
const char *workloadIdName(WorkloadId id);

/**
 * The simulator reads SW_* knobs once per process. Drop whatever the
 * caller's environment holds so only the benchmark's inputs reach the
 * program: one sweep worker, and PMO-san on for crash cells (the
 * harness attaches it from SW_PMOSAN; timing and fuzz cells pin it off
 * in their specs). Call before anything reads a knob.
 */
void pinEnvironment();

/** Input sizes. The benchmark runs the defaults; tests shrink them. */
struct Sizes
{
    unsigned fig7Threads = 8;
    unsigned fig7Ops = 10;
    unsigned crashThreads = 2;
    unsigned crashOps = 40;
    unsigned crashPoints = 16;
    unsigned fuzzThreads = 2;
    unsigned fuzzOps = 10;
    unsigned fuzzTrials = 2;
};

/**
 * Set-up: record every workload the sweep needs from @p seed and
 * declare its cells. For fuzz_trials, whose trials record their own
 * workloads inside the campaign, set-up records each trial's inputs
 * once and checks them, so set-up time counts recording there too.
 */
strand::SweepSpec buildInputs(WorkloadId id, std::uint64_t seed,
                              const Sizes &sizes);

/**
 * The seed of fuzz trial @p trial of @p cell: the campaign seed
 * remixed with the cell key, as runSweep does, then per trial.
 */
std::uint64_t trialSeed(const strand::SweepCell &cell, unsigned trial);

/** One output check; a miss is reported by name. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/**
 * The expectations on a finished sweep: every recoverable cell
 * passes its invariants and the crash oracle, NON-ATOMIC is flagged
 * somewhere in crash and fuzz sweeps, and no fuzz replay diverged.
 */
std::vector<Check> checkCells(WorkloadId id,
                              const strand::SweepResult &result);

/** FNV-1a of the deterministic `.cells` JSON rendering. */
std::uint64_t digestOf(const strand::SweepResult &result);

/** Summed simulated runTicks of the timing cells. */
double simTicks(const strand::SweepResult &result);

/**
 * Mean |measured/paper - 1| in percent over Figure 7's five headline
 * aggregates (StrandWeaver over Intel x86 avg and max, over HOPS avg
 * and max, NO-PERSIST-QUEUE over Intel x86 avg). 0 without timing
 * cells.
 */
double paperErrPct(const strand::SweepResult &result);

/** Simulated ops committed by the sweep's runs. */
std::uint64_t simOps(const strand::SweepResult &result);

/**
 * Output states validated: the end state of every validated timing
 * cell, every injected crash point, every fuzz recovery check. Fixed
 * by the seed and the persist trace.
 */
std::uint64_t statesValidated(const strand::SweepResult &result);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
