/**
 * Forked-snapshot crash exploration tests.
 *
 * Two families:
 *  - planCrashPoints() regressions for the two sampler bugs: the
 *    even down-sampler used to skip the final enumerated point (the
 *    fully committed end-of-enumeration state was never tested), and
 *    the random top-up drew ticks even for empty enumerations and
 *    silently double-counted collisions.
 *  - The differential suite: forked-mode verdicts must be
 *    byte-identical to the two-run oracle across every design and
 *    model at a fixed seed, whole and torn.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "crash/crash_harness.hh"

namespace strand
{
namespace
{

CrashHarnessConfig
budgeted(unsigned budget)
{
    CrashHarnessConfig cfg;
    cfg.pointBudget = budget;
    return cfg;
}

TEST(CrashPointPlan, KeepsFirstAndLastEnumeratedUnderBudget)
{
    // 97 enumerated ticks, budget 12: the old sampler's stride
    // i*N/B never reached index N-1, so tick 970 — the state after
    // the final admission — was silently dropped. Both endpoints
    // must survive sampling.
    std::vector<Tick> enumerated;
    for (Tick t = 1; t <= 97; ++t)
        enumerated.push_back(t * 10);
    ASSERT_GT(enumerated.size(), 12u);

    CrashPointPlan plan =
        planCrashPoints(enumerated, 1000, budgeted(12));
    EXPECT_EQ(plan.requested, 12u);
    EXPECT_EQ(plan.enumerated, 97u);
    EXPECT_TRUE(std::count(plan.points.begin(), plan.points.end(),
                           Tick{10}))
        << "first enumerated point must be retained";
    EXPECT_TRUE(std::count(plan.points.begin(), plan.points.end(),
                           Tick{970}))
        << "last enumerated point must be retained";
    // Sampling is still a down-sample plus bounded top-up.
    EXPECT_GE(plan.points.size(), 12u);
    EXPECT_LE(plan.points.size(), 12u + 12u / 4 + 1);
}

TEST(CrashPointPlan, EverySampledBudgetKeepsTheLastPoint)
{
    // The acceptance property, swept: for every budget below the
    // enumeration size, the final enumerated crash point is in the
    // plan.
    std::vector<Tick> enumerated;
    for (Tick t = 1; t <= 64; ++t)
        enumerated.push_back(t * 3);
    for (unsigned budget = 1; budget < 64; ++budget) {
        CrashPointPlan plan =
            planCrashPoints(enumerated, 500, budgeted(budget));
        EXPECT_TRUE(std::count(plan.points.begin(),
                               plan.points.end(), Tick{192}))
            << "budget " << budget
            << " dropped the last enumerated point";
    }
}

TEST(CrashPointPlan, SampledTicksAreDistinctAndSorted)
{
    std::vector<Tick> enumerated;
    for (Tick t = 1; t <= 200; ++t)
        enumerated.push_back(t * 7);
    CrashPointPlan plan =
        planCrashPoints(enumerated, 2000, budgeted(16));
    EXPECT_TRUE(std::is_sorted(plan.points.begin(),
                               plan.points.end()));
    EXPECT_EQ(std::adjacent_find(plan.points.begin(),
                                 plan.points.end()),
              plan.points.end())
        << "plan must not inject the same tick twice";
}

TEST(CrashPointPlan, UnderBudgetEnumerationIsKeptWhole)
{
    std::vector<Tick> enumerated = {30, 10, 20, 10}; // dups, unsorted
    CrashPointPlan plan =
        planCrashPoints(enumerated, 100, budgeted(16));
    EXPECT_EQ(plan.enumerated, 3u);
    for (Tick t : {Tick{10}, Tick{20}, Tick{30}})
        EXPECT_TRUE(std::count(plan.points.begin(),
                               plan.points.end(), t));
}

TEST(CrashPointPlan, EmptyEnumerationDrawsNoRandomTicks)
{
    // The old top-up drew budget/4 + 1 random ticks even when the
    // run persisted nothing — pure noise against an empty image.
    CrashPointPlan plan = planCrashPoints({}, 5000, budgeted(16));
    EXPECT_EQ(plan.enumerated, 0u);
    EXPECT_TRUE(plan.points.empty());
}

TEST(CrashPointPlan, RandomTopUpsNeverDuplicateEnumeratedTicks)
{
    // endTick == 1 forces every random draw onto tick 1, which is
    // already enumerated: the old code pushed the duplicates anyway
    // (unique'd them away later, shrinking the effective budget
    // silently); now collisions are redrawn/bounded and the plan
    // stays duplicate-free.
    CrashPointPlan plan = planCrashPoints({1}, 1, budgeted(8));
    EXPECT_EQ(plan.points, std::vector<Tick>{1});
}

TEST(CrashPointPlan, ZeroBudgetPlansNothing)
{
    CrashPointPlan plan =
        planCrashPoints({10, 20, 30}, 100, budgeted(0));
    EXPECT_TRUE(plan.points.empty());
    EXPECT_EQ(plan.requested, 0u);
}

RecordedWorkload
record(WorkloadKind kind, unsigned threads = 2, unsigned ops = 24)
{
    WorkloadParams params;
    params.numThreads = threads;
    params.opsPerThread = ops;
    return recordWorkload(kind, params);
}

/** Assert two cell results are identical, field by field. */
void
expectIdentical(const CrashCellResult &fork,
                const CrashCellResult &tworun, const char *label)
{
    EXPECT_EQ(fork.pointsTested, tworun.pointsTested) << label;
    EXPECT_EQ(fork.pointsPassed, tworun.pointsPassed) << label;
    EXPECT_EQ(fork.pointsRequested, tworun.pointsRequested) << label;
    EXPECT_EQ(fork.pointsInjected, tworun.pointsInjected) << label;
    EXPECT_EQ(fork.totalRolledBack, tworun.totalRolledBack) << label;
    EXPECT_EQ(fork.totalReplayed, tworun.totalReplayed) << label;
    ASSERT_EQ(fork.failures.size(), tworun.failures.size()) << label;
    for (std::size_t i = 0; i < fork.failures.size(); ++i) {
        EXPECT_EQ(fork.failures[i].when, tworun.failures[i].when)
            << label << " failure " << i;
        EXPECT_EQ(fork.failures[i].entriesRolledBack,
                  tworun.failures[i].entriesRolledBack)
            << label << " failure " << i;
        EXPECT_EQ(fork.failures[i].redoEntriesReplayed,
                  tworun.failures[i].redoEntriesReplayed)
            << label << " failure " << i;
        EXPECT_EQ(fork.failures[i].violation,
                  tworun.failures[i].violation)
            << label << " failure " << i;
    }
}

TEST(CrashForkDifferential, VerdictsMatchTwoRunAcrossAllCells)
{
    // The acceptance gate in-process: 5 designs x 3 models, fixed
    // seed, same budget — forked and two-run modes must agree on
    // every verdict, including NON-ATOMIC's expected violations.
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    for (HwDesign design : allDesigns) {
        for (PersistencyModel model : allModels) {
            CrashHarnessConfig cfg = budgeted(12);
            cfg.fork = false;
            CrashCellResult tworun =
                runCrashCell(recorded, design, model, cfg);
            cfg.fork = true;
            CrashCellResult fork =
                runCrashCell(recorded, design, model, cfg);
            std::string label =
                std::string(hwDesignName(design)) + "/" +
                persistencyModelName(model);
            expectIdentical(fork, tworun, label.c_str());
            EXPECT_GT(fork.pointsTested, 0u) << label;
        }
    }
}

TEST(CrashForkDifferential, TornVerdictsMatchTwoRun)
{
    // Torn clones depend on the rewound image's newest admission-ring
    // entry being the right one at every point — the part of the
    // backward reconstruction most worth cross-checking.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    for (unsigned tornWords : {1u, 7u}) {
        CrashHarnessConfig cfg = budgeted(24);
        cfg.tornWords = tornWords;
        cfg.fork = false;
        CrashCellResult tworun = runCrashCell(
            recorded, HwDesign::StrandWeaver,
            PersistencyModel::Sfr, cfg);
        cfg.fork = true;
        CrashCellResult fork = runCrashCell(
            recorded, HwDesign::StrandWeaver,
            PersistencyModel::Sfr, cfg);
        std::string label =
            "tornWords=" + std::to_string(tornWords);
        expectIdentical(fork, tworun, label.c_str());
    }
}

TEST(CrashForkDifferential, RedoLoggingMatchesTwoRun)
{
    // Redo replay exercises the committed-marker path of recovery;
    // keep it covered under the paged scan as well.
    RecordedWorkload recorded = record(WorkloadKind::Hashmap);
    CrashHarnessConfig cfg = budgeted(24);
    cfg.logStyle = LogStyle::Redo;
    cfg.fork = false;
    CrashCellResult tworun =
        runCrashCell(recorded, HwDesign::StrandWeaver,
                     PersistencyModel::Txn, cfg);
    cfg.fork = true;
    CrashCellResult fork =
        runCrashCell(recorded, HwDesign::StrandWeaver,
                     PersistencyModel::Txn, cfg);
    expectIdentical(fork, tworun, "redo");
    EXPECT_GT(fork.totalReplayed, 0u);
}

TEST(CrashForkDifferential, RequestedVersusInjectedIsReported)
{
    RecordedWorkload recorded = record(WorkloadKind::Queue, 1, 8);
    CrashHarnessConfig cfg = budgeted(500); // far above enumeration
    cfg.fork = true;
    CrashCellResult cell = runCrashCell(
        recorded, HwDesign::StrandWeaver, PersistencyModel::Txn,
        cfg);
    EXPECT_EQ(cell.pointsRequested, 500u);
    EXPECT_GT(cell.pointsInjected, 0u);
    EXPECT_LT(cell.pointsInjected, cell.pointsRequested)
        << "a tiny run cannot fill a 500-point budget; the gap must "
           "be visible instead of silently shrunk";
    // Every injection is tested exactly once (pmosan off).
    EXPECT_EQ(cell.pointsInjected, cell.pointsTested);
}

TEST(CrashForkDifferential, ForkedCellPassesAndRollsBack)
{
    // A forked cell on its own, not against the two-run reference:
    // every point recovers, and recovery has undo work to do.
    RecordedWorkload recorded = record(WorkloadKind::Queue);
    CrashHarnessConfig cfg = budgeted(12);
    cfg.fork = true;
    CrashCellResult cell = runCrashCell(
        recorded, HwDesign::StrandWeaver, PersistencyModel::Sfr, cfg);
    EXPECT_TRUE(cell.allPassed());
    EXPECT_GT(cell.totalRolledBack, 0u);
}

} // namespace
} // namespace strand
