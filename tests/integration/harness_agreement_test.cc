/**
 * @file
 * Every harness replays the same machine. A timing run
 * (runExperiment), a forked crash cell's warm run (runCrashCell) and
 * a fuzz replay of the empty decision log (replayDecisions) all build
 * their System through buildSystem, so on one recording they service
 * the same kernel events and commit the same ops.
 *
 * The base system's log layout is deliberately not the lowering's: a
 * harness that prewarmed the L2 from the base system's layout instead
 * of the lowering's would service a different number of events.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "crash/crash_harness.hh"
#include "fuzz/fuzz_trial.hh"

namespace strand
{
namespace
{

using Cell = std::tuple<WorkloadKind, HwDesign, PersistencyModel>;

class HarnessAgreement : public ::testing::TestWithParam<Cell>
{};

TEST_P(HarnessAgreement, EveryHarnessBuildsTheSameMachine)
{
    const auto [kind, design, model] = GetParam();
    FuzzTrialSpec spec;
    spec.kind = kind;
    spec.design = design;
    spec.model = model;
    spec.numThreads = 2;
    spec.opsPerThread = 12;
    spec.seed = 7;
    spec.pmosan = false;
    spec.experiment.engine.pqEntries = 8;
    spec.experiment.baseSystem.layout.entriesPerThread = 64;
    spec.experiment.pmosan = false;
    const FuzzTrialContext ctx = makeTrialContext(spec);

    const RunMetrics timing = runExperiment(
        ctx.recorded, design, model, spec.experiment, false);

    CrashHarnessConfig crashCfg;
    crashCfg.pointBudget = 4;
    crashCfg.logStyle = spec.logStyle;
    crashCfg.experiment = spec.experiment;
    crashCfg.pmosan = false;
    crashCfg.fork = true;
    crashCfg.verifyMidrunFork = false;
    const CrashCellResult crash =
        runCrashCell(ctx.recorded, design, model, crashCfg);

    const FuzzReplayOutcome fuzz = replayDecisions(ctx, {}, wordsPerLine);

    EXPECT_GT(timing.hostEvents, 0u);
    EXPECT_EQ(crash.hostEvents, timing.hostEvents);
    EXPECT_EQ(fuzz.hostEvents, timing.hostEvents);
    EXPECT_GT(timing.simOps, 0u);
    EXPECT_EQ(crash.simOps, timing.simOps);
    EXPECT_EQ(fuzz.simOps, timing.simOps);
}

INSTANTIATE_TEST_SUITE_P(
    AllHarnesses, HarnessAgreement,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::Queue, WorkloadKind::Hashmap),
        ::testing::ValuesIn(allDesigns), ::testing::ValuesIn(allModels)),
    [](const ::testing::TestParamInfo<Cell> &info) {
        std::string name = workloadName(std::get<0>(info.param));
        name += "_";
        name += hwDesignName(std::get<1>(info.param));
        name += "_";
        name += persistencyModelName(std::get<2>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace strand
