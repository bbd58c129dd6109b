/**
 * @file
 * Full-matrix smoke and invariant tests: every Table II workload on
 * every hardware design (SFR model). Checks that hold universally:
 *
 *  - the run completes and the persisted data structure satisfies
 *    its structural invariants,
 *  - the CLWB count is identical across designs (the same region
 *    trace lowers to the same flush set; only ordering primitives
 *    differ),
 *  - per workload, the Intel baseline is never faster than
 *    StrandWeaver, and the NON-ATOMIC bound is never slower (sanity
 *    of the evaluation's directionality at test sizes).
 */

#include <gtest/gtest.h>

#include <map>

#include "core/strandweaver.hh"

namespace strand
{
namespace
{

RecordedWorkload &
recorded(WorkloadKind kind)
{
    static std::map<WorkloadKind, RecordedWorkload> cache;
    auto it = cache.find(kind);
    if (it == cache.end()) {
        WorkloadParams params;
        params.numThreads = 3;
        params.opsPerThread = 12;
        params.seed = 17;
        it = cache.emplace(kind, recordWorkload(kind, params)).first;
    }
    return it->second;
}

/** The workload's Intel x86 baseline run, simulated once. */
const RunMetrics &
intelRun(WorkloadKind kind)
{
    static std::map<WorkloadKind, RunMetrics> cache;
    auto it = cache.find(kind);
    if (it == cache.end()) {
        RunMetrics intel = runExperiment(
            recorded(kind), HwDesign::IntelX86, PersistencyModel::Sfr);
        it = cache.emplace(kind, intel).first;
    }
    return it->second;
}

std::string
testName(std::string name)
{
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

using Cell = std::tuple<WorkloadKind, HwDesign>;

class DesignMatrix : public ::testing::TestWithParam<Cell>
{
};

TEST_P(DesignMatrix, RunsCleanAndPersistsEverything)
{
    auto [kind, design] = GetParam();

    // runExperiment validates invariants itself (panics otherwise).
    RunMetrics metrics =
        runExperiment(recorded(kind), design, PersistencyModel::Sfr);
    EXPECT_GT(metrics.runTicks, 0u);
    EXPECT_GT(metrics.clwbs, 0.0);

    // CLWB counts match the Intel baseline exactly: same trace, same
    // flush set, different ordering primitives only.
    EXPECT_EQ(metrics.lowering.clwbs, intelRun(kind).lowering.clwbs);
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, DesignMatrix,
    ::testing::Combine(::testing::ValuesIn(allWorkloads),
                       ::testing::ValuesIn(allDesigns)),
    [](const ::testing::TestParamInfo<Cell> &info) {
        WorkloadKind kind = std::get<0>(info.param);
        HwDesign design = std::get<1>(info.param);
        return testName(std::string(workloadName(kind)) + "_" +
                        hwDesignName(design));
    });

class WorkloadDirection : public ::testing::TestWithParam<WorkloadKind>
{
};

TEST_P(WorkloadDirection, DirectionalSanity)
{
    WorkloadKind kind = GetParam();
    RecordedWorkload &workload = recorded(kind);

    const RunMetrics &intel = intelRun(kind);
    RunMetrics sw = runExperiment(workload, HwDesign::StrandWeaver,
                                  PersistencyModel::Sfr);
    RunMetrics na = runExperiment(workload, HwDesign::NonAtomic,
                                  PersistencyModel::Sfr);
    // Allow 5% noise at these tiny sizes.
    EXPECT_LE(sw.runTicks, intel.runTicks * 21 / 20)
        << workloadName(kind);
    EXPECT_LE(na.runTicks, sw.runTicks * 21 / 20)
        << workloadName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDirection, ::testing::ValuesIn(allWorkloads),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        return testName(workloadName(info.param));
    });

} // namespace
} // namespace strand
