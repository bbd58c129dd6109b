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
 *
 * Machine seeds share tag blocks the same way captures do, so the
 * seeded-build tests live here too: a machine that adopts its
 * recording's seed must start, and run, exactly as one seeded by
 * System::seedImage().
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hh"
#include "core/observer_util.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace strand
{
namespace
{

/** A lowered workload and a system factory for one (design, model). */
struct Rig
{
    RecordedWorkload recorded;
    LoweredWorkload lowered;
    ExperimentConfig config;

    Rig(HwDesign design, PersistencyModel model,
        unsigned opsPerThread = 12,
        LogStyle logStyle = LogStyle::Undo)
    {
        WorkloadParams params;
        params.numThreads = 3;
        params.opsPerThread = opsPerThread;
        params.seed = 29;
        recorded = recordWorkload(WorkloadKind::Hashmap, params);
        lowered = lowerWorkload(recorded, design, model, logStyle);
    }

    std::unique_ptr<System>
    buildSystem()
    {
        return strand::buildSystem(recorded, lowered, config);
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
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Txn, 12,
            LogStyle::Redo);

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
    rig.config.baseSystem.warmCaches = geometry.warmCaches;
    rig.config.baseSystem.caches = geometry.caches;
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

/** Expect two L2 tag states to hold the same lines, states, LRU
 * stamps and use clock. */
void
expectSameTags(const CacheArray::State &a, const CacheArray::State &b)
{
    ASSERT_EQ(a.sets, b.sets);
    ASSERT_EQ(a.ways, b.ways);
    EXPECT_EQ(a.useClock, b.useClock);
    std::size_t differing = 0;
    for (unsigned set = 0; set < a.sets; ++set) {
        const std::size_t block = set / CacheArray::setsPerBlock;
        const std::size_t first =
            (set % CacheArray::setsPerBlock) * a.ways;
        for (unsigned way = 0; way < a.ways; ++way) {
            const CacheLineInfo &x = a.blocks[block][first + way];
            const CacheLineInfo &y = b.blocks[block][first + way];
            differing += x.lineAddr != y.lineAddr ||
                         x.state != y.state || x.lastUse != y.lastUse;
        }
    }
    EXPECT_EQ(differing, 0u) << "L2 lines differ";
}

class SeededBuild
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>>
{
};

TEST_P(SeededBuild, EqualsASeedImageBuild)
{
    // Every cache geometry, warm and cold. On the warm small and tiny
    // L2s the prewarm meets full sets and skips lines, so install
    // order decides what the seed holds.
    const auto [index, warm] = GetParam();
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Sfr, 60);
    rig.config.baseSystem.warmCaches = warm;
    rig.config.baseSystem.caches = geometries().at(index).caches;

    // The first build makes the recording's seed; this one is served
    // from it.
    rig.buildSystem();
    std::unique_ptr<System> served = rig.buildSystem();
    EXPECT_EQ(rig.recorded.seeds.size(), 1u);

    System reference(served->config());
    reference.seedImage(rig.recorded.preload);
    reference.loadStreams(rig.lowered.streams);

    const MemoryImage &a = served->memory();
    const MemoryImage &b = reference.memory();
    EXPECT_EQ(a.archWords(), b.archWords());
    EXPECT_EQ(a.persistedWords(), b.persistedWords());
    for (const auto &[addr, value] : rig.recorded.preload) {
        EXPECT_EQ(a.readArch(addr), b.readArch(addr)) << addr;
        EXPECT_EQ(a.readPersisted(addr), b.readPersisted(addr)) << addr;
    }
    expectSameTags(served->hierarchy().saveState().l2Tags,
                   reference.hierarchy().saveState().l2Tags);

    PmoSanitizer servedSan;
    served->addObserver(&servedSan);
    served->run();
    PmoSanitizer referenceSan;
    reference.addObserver(&referenceSan);
    reference.run();
    Fingerprint::of(*served, servedSan)
        .expectEqual(Fingerprint::of(reference, referenceSan),
                     "served from the seed");
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, SeededBuild,
    ::testing::Combine(::testing::Range<std::size_t>(0,
                                                     geometries().size()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, bool>>
           &info) {
        return geometries().at(std::get<0>(info.param)).name +
               (std::get<1>(info.param) ? "_warm" : "_cold");
    });

TEST(SeededBuildKeys, EachL2GeometryGetsItsOwnSeed)
{
    const HierarchyParams table1Caches;
    const HierarchyParams smallCaches = geometries().at(1).caches;
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Sfr);
    const SeedKey table1 = SeedKey::of(rig.buildSystem()->config());
    rig.config.baseSystem.caches = smallCaches;
    const SeedKey small = SeedKey::of(rig.buildSystem()->config());
    rig.buildSystem();
    EXPECT_EQ(rig.recorded.seeds.size(), 2u);

    const auto &preload = rig.recorded.preload;
    const auto table1Seed = rig.recorded.seeds.get(table1, preload);
    const auto smallSeed = rig.recorded.seeds.get(small, preload);
    EXPECT_NE(table1Seed, smallSeed);
    EXPECT_EQ(table1Seed, rig.recorded.seeds.get(table1, preload));
    EXPECT_EQ(table1Seed->l2.sets,
              table1Caches.l2Size / lineBytes / table1Caches.l2Ways);
    EXPECT_EQ(smallSeed->l2.sets,
              smallCaches.l2Size / lineBytes / smallCaches.l2Ways);
}

TEST(SeededBuildKeys, MachineOutlivesItsRecording)
{
    // simperf's fork machine is built from a recording that is gone
    // before the machine runs; the machine keeps its seed.
    Rig rig(HwDesign::StrandWeaver, PersistencyModel::Sfr, 60);
    const Fingerprint reference = plainRun(rig);
    std::unique_ptr<System> orphan;
    {
        RecordedWorkload recorded = rig.recorded;
        EXPECT_EQ(recorded.seeds.size(), 0u)
            << "a copied recording starts without seeds";
        orphan = strand::buildSystem(recorded, rig.lowered, rig.config);
    }
    PmoSanitizer san;
    orphan->addObserver(&san);
    orphan->run();
    Fingerprint::of(*orphan, san).expectEqual(reference, "orphan");
}

} // namespace
} // namespace strand
