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
 *
 * Every harness recovers with the paged log scan. Each case also
 * holds it to the per-slot Faithful reference on that machine's real
 * crash images, whole and torn, at every ADR admission: undo logging
 * (plus redo under TXN), on the lowering's own log layout and on a
 * 100-entry log whose threads start mid-page, where the paged run is
 * clamped at each log's end.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/observer_util.hh"
#include "crash/crash_harness.hh"
#include "fuzz/fuzz_trial.hh"
#include "support/recovery_scans.hh"

namespace strand
{
namespace
{

using Cell = std::tuple<WorkloadKind, HwDesign, PersistencyModel>;

/**
 * Lower @p recorded with @p style onto a log of @p entriesPerThread
 * entries, run it on the harnesses' machine, and recover clones of
 * its persisted image at every ADR admission, whole and with the
 * newest admission torn to its first written word, with both scans.
 */
void
expectScansAgreeAtEveryAdmission(const RecordedWorkload &recorded,
                                 HwDesign design, PersistencyModel model,
                                 LogStyle style,
                                 std::uint64_t entriesPerThread,
                                 const ExperimentConfig &config)
{
    LoweredWorkload lowered;
    lowered.params.design = design;
    lowered.params.model = model;
    lowered.params.logStyle = style;
    lowered.params.layout.entriesPerThread = entriesPerThread;
    Instrumentor instr(lowered.params);
    lowered.streams = instr.lower(recorded.trace);

    auto sys = buildSystem(recorded, lowered, config);
    const RecoveryManager mgr{lowered.params.layout};
    const unsigned threads = recorded.params.numThreads;
    unsigned admissions = 0;
    AdmissionCallback check([&](const PersistRecord &rec) {
        SCOPED_TRACE("admission " + std::to_string(admissions) +
                     " at tick " + std::to_string(rec.when));
        const MemoryImage &image = sys->memory();
        const std::uint8_t written = image.lastAdmissionMask();
        recoverWithBothScans(mgr, image.clonePersisted(), threads);
        recoverWithBothScans(
            mgr,
            image.clonePersistedTorn(
                static_cast<std::uint8_t>(written & -written)),
            threads);
        ++admissions;
    });
    sys->addObserver(&check);
    sys->run();
    EXPECT_GT(admissions, 0u);
}

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

    std::vector<LogStyle> styles = {LogStyle::Undo};
    if (model == PersistencyModel::Txn)
        styles.push_back(LogStyle::Redo);
    for (LogStyle style : styles) {
        for (std::uint64_t entries :
             {LogLayout{}.entriesPerThread, std::uint64_t{100}}) {
            SCOPED_TRACE(std::string(style == LogStyle::Redo ? "redo"
                                                             : "undo") +
                         ", " + std::to_string(entries) +
                         "-entry log");
            expectScansAgreeAtEveryAdmission(ctx.recorded, design,
                                             model, style, entries,
                                             spec.experiment);
        }
    }
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
