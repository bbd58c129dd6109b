/**
 * @file
 * The benchmark's own tests: the self-time arithmetic on a synthetic
 * span tree, and exact repetition of the digest, the deterministic
 * end-to-end metrics and the simulated layer counters across two runs
 * (at reduced sizes), plus the traced-twin self-check.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_tests
 *   .bench_build/perfbench/perfbench_tests
 */

#include <gtest/gtest.h>

#include "report.hh"
#include "trace.hh"
#include "twin.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

Span
span(const char *name, int parent, double start, double duration)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.startNs = start;
    s.durationNs = duration;
    return s;
}

/**
 * cell [0,100) holds run [10,50) and clone [60,80); run holds
 * recover [20,35) and 5 ns of aggregated sanitizer calls.
 */
std::vector<Span>
syntheticTree()
{
    return {
        span("bench.cell", -1, 0, 100),
        span("core.run", 0, 10, 40),
        span("runtime.recover.paged", 1, 20, 15),
        span("sanitizer.observe", 1, 10, 5),
        span("mem.clone", 0, 60, 20),
    };
}

} // namespace

TEST(SelfTime, SubtractsDirectChildrenOnly)
{
    const auto totals = spanTotals(syntheticTree());
    EXPECT_DOUBLE_EQ(totals.at("bench.cell").selfNs, 100 - 40 - 20);
    EXPECT_EQ(totals.at("bench.cell").count, 1u);
    EXPECT_DOUBLE_EQ(totals.at("core.run").selfNs, 40 - 15 - 5);
    EXPECT_DOUBLE_EQ(totals.at("runtime.recover.paged").selfNs, 15);
    EXPECT_DOUBLE_EQ(totals.at("sanitizer.observe").selfNs, 5);
    EXPECT_DOUBLE_EQ(totals.at("mem.clone").selfNs, 20);
}

TEST(SelfTime, LayersPartitionTheRootSpan)
{
    std::vector<Span> spans = syntheticTree();
    // A second span of an existing name sums into the same totals.
    spans.push_back(span("core.run", 0, 85, 10));
    spans[0].durationNs = 110;
    const auto layers = layerSelfNs(spanTotals(spans));
    EXPECT_DOUBLE_EQ(layers.at("bench"), 110 - 40 - 20 - 10);
    EXPECT_DOUBLE_EQ(layers.at("core"), 20 + 10);
    EXPECT_DOUBLE_EQ(layers.at("runtime"), 15);
    EXPECT_DOUBLE_EQ(layers.at("sanitizer"), 5);
    EXPECT_DOUBLE_EQ(layers.at("mem"), 20);
    double sum = 0;
    for (const auto &[layer, ns] : layers)
        sum += ns;
    EXPECT_DOUBLE_EQ(sum, spans[0].durationNs);
}

TEST(SelfTime, RejectsADanglingParent)
{
    EXPECT_THROW(spanTotals({span("core.run", 3, 0, 1)}),
                 std::out_of_range);
}

TEST(Tracer, RecordsParentsCellsAndAggregates)
{
    Tracer tracer;
    {
        auto cell = tracer.open("bench.cell", 7);
        {
            auto run = tracer.open("core.run");
            tracer.addAggregate("sanitizer.observe", 3);
        }
        auto clone = tracer.open("mem.clone");
    }
    const std::vector<Span> &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[3].parent, 0);
    for (const Span &s : spans)
        EXPECT_EQ(s.cell, 7);
    EXPECT_DOUBLE_EQ(spans[2].durationNs, 3);
    EXPECT_GE(spans[0].durationNs,
              spans[1].durationNs + spans[3].durationNs);
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> values = {5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(percentile(values, 50), 3);
    EXPECT_DOUBLE_EQ(percentile(values, 99), 5);
    EXPECT_DOUBLE_EQ(percentile(values, 1), 1);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

namespace
{

Sizes
smallSizes()
{
    Sizes sizes;
    sizes.fig7Threads = 2;
    sizes.fig7Ops = 3;
    sizes.crashOps = 8;
    sizes.crashPoints = 4;
    sizes.fuzzOps = 4;
    sizes.fuzzTrials = 1;
    return sizes;
}

/** Everything a run reports that must repeat exactly. */
struct Deterministic
{
    std::uint64_t digest = 0;
    double simTicks = 0;
    double paperErr = 0;
    std::uint64_t twinDigest = 0;
    std::map<std::string, double> counters;
};

Deterministic
runOnce(WorkloadId id, std::uint64_t seed)
{
    const strand::SweepSpec spec = buildInputs(id, seed, smallSizes());
    const strand::SweepResult result = strand::runSweep(spec);
    for (const Check &check : checkCells(id, result))
        EXPECT_TRUE(check.ok) << check.name << ": " << check.detail;

    Tracer tracer;
    const TwinOutput twin = runTwin(spec, tracer);
    EXPECT_EQ(twin.trialHashes, referenceTrialHashes(spec));

    Deterministic d;
    d.digest = digestOf(result);
    d.simTicks = simTicks(result);
    d.paperErr = paperErrPct(result);
    d.twinDigest = digestOf(twin.result);
    d.counters = twin.sim.metrics();
    return d;
}

class Repeats : public ::testing::TestWithParam<WorkloadId>
{
  protected:
    static void SetUpTestSuite() { pinEnvironment(); }
};

} // namespace

TEST_P(Repeats, DigestMetricsAndCountersRepeatExactly)
{
    const Deterministic first = runOnce(GetParam(), 3);
    const Deterministic second = runOnce(GetParam(), 3);
    EXPECT_EQ(first.digest, second.digest);
    EXPECT_EQ(first.simTicks, second.simTicks);
    EXPECT_EQ(first.paperErr, second.paperErr);
    EXPECT_EQ(first.counters, second.counters);
    // The traced twin reproduces the untraced sweep's .cells.
    EXPECT_EQ(first.twinDigest, first.digest);
    if (GetParam() == WorkloadId::TimingFig7) {
        EXPECT_GT(first.simTicks, 0);
        EXPECT_GT(first.paperErr, 0);
    }
    EXPECT_GT(first.counters.at("sim.events"), 0);
}

TEST_P(Repeats, SeedChangesTheInputs)
{
    auto digest = [this](std::uint64_t seed) {
        return digestOf(strand::runSweep(
            buildInputs(GetParam(), seed, smallSizes())));
    };
    EXPECT_NE(digest(3), digest(4));
}

INSTANTIATE_TEST_SUITE_P(Workloads, Repeats,
                         ::testing::Values(WorkloadId::TimingFig7,
                                           WorkloadId::CrashForked,
                                           WorkloadId::FuzzTrials),
                         [](const auto &info) {
                             return std::string(workloadIdName(info.param));
                         });
