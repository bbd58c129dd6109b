/**
 * @file
 * Full-machine mid-run snapshot determinism.
 *
 * The contract under test: capture the whole component graph mid-run
 * (from a settled inter-event boundary), let the run finish, restore
 * the capture into the same System, and re-run — the re-run must be
 * bit-identical to the uninterrupted execution. Persist traces,
 * finish ticks, every stat in the machine's tree, and PMO-san
 * counters all have to match exactly, across every hardware design
 * with the undo-logging lowering and the sanitizer attached.
 *
 * A second System without the capture observer runs alongside to show
 * the capture machinery itself does not perturb the schedule.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/observer_util.hh"
#include "runtime/instrumentor.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace strand
{
namespace
{

/** Streams and a system factory for one (workload, design, model). */
struct Rig
{
    RecordedWorkload recorded;
    InstrumentorParams ip;
    std::vector<OpStream> streams;
    /** Everything but the design, core count and layout. */
    SystemConfig base;

    Rig(HwDesign design, PersistencyModel model,
        unsigned opsPerThread = 12)
    {
        WorkloadParams params;
        params.numThreads = 3;
        params.opsPerThread = opsPerThread;
        params.seed = 29;
        recorded = recordWorkload(WorkloadKind::Hashmap, params);
        ip.design = design;
        ip.model = model;
        ip.logStyle = LogStyle::Undo;
        Instrumentor instr(ip);
        streams = instr.lower(recorded.trace);
    }

    std::unique_ptr<System>
    buildSystem()
    {
        SystemConfig cfg = base;
        cfg.numCores = static_cast<unsigned>(streams.size());
        cfg.design = ip.design;
        cfg.layout = ip.layout;
        auto sys = std::make_unique<System>(cfg);
        sys->seedImage(recorded.preload);
        auto copies = streams;
        sys->loadStreams(std::move(copies));
        return sys;
    }
};

/** Everything we require to be bit-identical across executions. */
struct Fingerprint
{
    std::vector<PersistRecord> trace;
    Tick finish = 0;
    std::vector<Tick> coreFinish;
    /** Every stat in the machine's tree, by full dotted name. */
    std::map<std::string, std::vector<double>> stats;
    std::uint64_t sanChecked = 0;
    std::uint64_t sanViolations = 0;

    static Fingerprint
    of(System &sys, PmoSanitizer &san)
    {
        Fingerprint fp;
        fp.trace = sys.persistTrace();
        fp.finish = sys.finishTick();
        for (CoreId i = 0; i < sys.numCores(); ++i)
            fp.coreFinish.push_back(sys.finishTickOf(i));
        sys.visitStats([&fp](const std::string &name,
                             const stats::StatBase &stat) {
            fp.stats[name] = stat.snapshotValues();
        });
        fp.sanChecked = san.snapshotState().checkedCount;
        fp.sanViolations = san.snapshotState().totalViolations;
        return fp;
    }

    void
    expectEqual(const Fingerprint &other, const std::string &label) const
    {
        EXPECT_EQ(trace == other.trace, true)
            << label << ": persist traces differ ("
            << trace.size() << " vs " << other.trace.size()
            << " records)";
        EXPECT_EQ(finish, other.finish) << label;
        EXPECT_EQ(coreFinish, other.coreFinish) << label;
        EXPECT_EQ(stats.size(), other.stats.size()) << label;
        for (const auto &[name, values] : stats) {
            auto it = other.stats.find(name);
            if (it == other.stats.end()) {
                ADD_FAILURE() << label << ": no stat " << name;
                continue;
            }
            EXPECT_EQ(values, it->second) << label << ": " << name;
        }
        EXPECT_EQ(sanChecked, other.sanChecked) << label;
        EXPECT_EQ(sanViolations, other.sanViolations) << label;
    }
};

/**
 * One machine with PMO-san attached, run to completion while a
 * whole-machine capture is taken at its @p at-th ADR admission, from
 * a Stat-priority one-shot so every same-tick action has settled
 * first. The capture observer comes off before the run returns: its
 * closures count admissions of the original run only.
 */
struct CapturedRun
{
    std::unique_ptr<System> sys;
    PmoSanitizer san;
    SimSnapshot snap;
    PmoSanitizer::State sanAtCapture;
    bool captured = false;
    Tick captureTick = 0;
    Fingerprint uninterrupted;

    CapturedRun(Rig &rig, unsigned at) : sys(rig.buildSystem())
    {
        sys->addObserver(&san);
        unsigned admissions = 0;
        AdmissionCallback capturer([&](const PersistRecord &rec) {
            if (++admissions != at)
                return;
            sys->eventQueue().schedule(
                rec.when,
                [this] {
                    captureTick = sys->eventQueue().curTick();
                    snap = sys->snapshot();
                    sanAtCapture = san.snapshotState();
                    captured = true;
                },
                EventPriority::Stat);
        });
        sys->addObserver(&capturer);
        sys->run();
        sys->removeObserver(&capturer);
        uninterrupted = Fingerprint::of(*sys, san);
    }

    /** Rewind machine and sanitizer to the capture. */
    void
    rewind()
    {
        sys->restore(snap);
        san.restoreState(sanAtCapture);
    }

    /** Rewind, then re-run the tail to completion. */
    Fingerprint
    rerun()
    {
        rewind();
        sys->run();
        return Fingerprint::of(*sys, san);
    }
};

/** The same machine with no capture machinery attached. */
Fingerprint
plainRun(Rig &rig)
{
    auto sys = rig.buildSystem();
    PmoSanitizer san;
    sys->addObserver(&san);
    sys->run();
    return Fingerprint::of(*sys, san);
}

std::string
designParamName(HwDesign design)
{
    std::string name = hwDesignName(design);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

class SnapshotRestore : public ::testing::TestWithParam<HwDesign>
{
};

TEST_P(SnapshotRestore, MidRunRestoreReplaysBitIdentically)
{
    Rig rig(GetParam(), PersistencyModel::Sfr);

    // Reference: an identical machine with no capture machinery.
    const Fingerprint plain = plainRun(rig);
    ASSERT_GT(plain.trace.size(), 8u)
        << "workload too small to capture mid-run";

    CapturedRun run(rig, 8);

    // Taking a capture must not perturb the schedule.
    run.uninterrupted.expectEqual(plain, "capture-perturbation");
    ASSERT_TRUE(run.captured) << "capture event never fired";
    ASSERT_GT(run.captureTick, 0u);
    ASSERT_LT(run.captureTick, run.uninterrupted.finish)
        << "capture must be mid-run, not at completion";

    // Restore into the same graph and re-run the tail.
    run.rewind();
    EXPECT_EQ(run.sys->eventQueue().curTick(), run.captureTick)
        << "restore must rewind the clock to the capture point";
    EXPECT_LT(run.sys->persistTrace().size(),
              run.uninterrupted.trace.size())
        << "restore must rewind the persist trace";
    run.sys->run();
    Fingerprint::of(*run.sys, run.san)
        .expectEqual(run.uninterrupted, "restore-rerun");
}

TEST_P(SnapshotRestore, RestoreIsRepeatable)
{
    // Restoring the same capture twice must replay the same tail
    // twice — a single snapshot supports many forks.
    Rig rig(GetParam(), PersistencyModel::Sfr);
    CapturedRun run(rig, 4);
    ASSERT_TRUE(run.captured);
    for (int fork = 0; fork < 2; ++fork)
        run.rerun().expectEqual(run.uninterrupted, "repeated-restore");
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, SnapshotRestore, ::testing::ValuesIn(allDesigns),
    [](const ::testing::TestParamInfo<HwDesign> &info) {
        return designParamName(info.param);
    });

TEST(SnapshotRestoreRedo, RedoLoweringRoundTrips)
{
    // The redo log style takes a different lowering path; one design
    // suffices to keep it under the same determinism contract.
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Txn);
    InstrumentorParams redoIp = rig.ip;
    redoIp.logStyle = LogStyle::Redo;
    Instrumentor instr(redoIp);
    rig.streams = instr.lower(rig.recorded.trace);

    CapturedRun run(rig, 8);
    ASSERT_TRUE(run.captured);
    run.rerun().expectEqual(run.uninterrupted, "redo-restore-rerun");
}

/** A cache geometry and the admissions at which to capture it. */
struct Geometry
{
    std::string name;
    bool warmCaches = true;
    HierarchyParams caches;
    std::vector<unsigned> captures;
};

/**
 * Geometries whose captures catch the hierarchy's transient state.
 * At the warm Table I geometry, per-line flush queues are busy. A
 * cold 512 B L1 under a 4 KiB 2-way L2 keeps L1 write-backs in
 * flight. A cold 256 B L1 under a 2 KiB 4-way L2 with two eviction
 * slots has dirty L2 evictions queued and in the mail, and parked
 * transactions (HOPS at its 23rd and 220th admissions).
 */
std::vector<Geometry>
geometries()
{
    Geometry small{"small", false, {}, {1, 8, 40}};
    small.caches.l1Size = 512;
    small.caches.l2Size = 4 * 1024;
    small.caches.l2Ways = 2;
    Geometry tiny{"tiny", false, {}, {20, 23, 85, 220}};
    tiny.caches.l1Size = 256;
    tiny.caches.l2Size = 2 * 1024;
    tiny.caches.l2Ways = 4;
    tiny.caches.l2EvictEntries = 2;
    return {{"table1", true, {}, {1, 8, 40}}, small, tiny};
}

class SnapshotInFlight
    : public ::testing::TestWithParam<std::tuple<HwDesign, std::size_t>>
{
};

TEST_P(SnapshotInFlight, EveryStatReplaysFromEachCapture)
{
    const auto [design, index] = GetParam();
    const Geometry geometry = geometries().at(index);
    Rig rig(design, PersistencyModel::Sfr, 60);
    rig.base.warmCaches = geometry.warmCaches;
    rig.base.caches = geometry.caches;
    const Fingerprint plain = plainRun(rig);
    for (unsigned at : geometry.captures) {
        const std::string label = "capture at admission " +
                                  std::to_string(at);
        CapturedRun run(rig, at);
        ASSERT_TRUE(run.captured) << label;
        run.uninterrupted.expectEqual(plain, label + ", perturbation");
        run.rerun().expectEqual(run.uninterrupted, label + ", rerun");
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, SnapshotInFlight,
    ::testing::Combine(::testing::ValuesIn(allDesigns),
                       ::testing::Range<std::size_t>(
                           0, geometries().size())),
    [](const ::testing::TestParamInfo<std::tuple<HwDesign, std::size_t>>
           &info) {
        return designParamName(std::get<0>(info.param)) + "_" +
               geometries().at(std::get<1>(info.param)).name;
    });

} // namespace
} // namespace strand
