/**
 * @file
 * Unit tests for the persist engines: the StrandWeaver persist
 * queue, the Intel x86 SFENCE baseline, the HOPS variant, and the
 * NO-PERSIST-QUEUE coupling. These tests pin down the ordering
 * semantics the paper's performance claims rest on — in particular
 * that a persist barrier releases younger stores at CLWB *issue*
 * while SFENCE holds them to CLWB *completion*.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "persist/design.hh"
#include "persist/intel_engine.hh"
#include "persist/strand_engine.hh"

namespace strand
{
namespace
{

constexpr Addr lineA = pmBase + 0x000;
constexpr Addr lineB = pmBase + 0x400;

/** Controllable stand-in for the core's store queue. */
struct FakeStoreQueue
{
    std::set<SeqNum> pendingIssue;    ///< dispatched, not yet issued
    std::set<SeqNum> pendingComplete; ///< issued, not yet complete

    void
    addStore(SeqNum seq)
    {
        pendingIssue.insert(seq);
        pendingComplete.insert(seq);
    }

    void issue(SeqNum seq) { pendingIssue.erase(seq); }
    void complete(SeqNum seq)
    {
        pendingIssue.erase(seq);
        pendingComplete.erase(seq);
    }

    StoreQueueView
    view()
    {
        StoreQueueView v;
        v.completed = [this](SeqNum seq) {
            return !pendingComplete.contains(seq);
        };
        v.allCompletedBefore = [this](SeqNum seq) {
            return pendingComplete.empty() ||
                   *pendingComplete.begin() >= seq;
        };
        v.allIssuedBefore = [this](SeqNum seq) {
            return pendingIssue.empty() || *pendingIssue.begin() >= seq;
        };
        return v;
    }
};

class EngineFixture : public ::testing::Test
{
  protected:
    void
    build(HwDesign design, EngineConfig config = EngineConfig{})
    {
        pm = std::make_unique<MemController>("pm", eq, img,
                                             MemControllerParams{}, true);
        dram = std::make_unique<MemController>(
            "dram", eq, img, dramControllerParams(), false);
        hier = std::make_unique<Hierarchy>("caches", eq, img, 1,
                                           HierarchyParams{}, *pm, *dram);
        engine = makePersistEngine(design, "engine", eq, 0, *hier,
                                   config);
        engine->setStoreView(sqFake.view());
        storePort = std::make_unique<MemPort>();
        storePort->init(eq, "test.storePort");
        storePort->bind(*hier);
        storePort->setResponseHandler([this](const MemResponse &resp) {
            if (resp.kind == MemResponseKind::Nack)
                storeNacked = true;
            else if (resp.kind == MemResponseKind::Done)
                storeDone = true;
        });
    }

    void
    dirty(Addr addr, std::uint64_t value)
    {
        for (;;) {
            storeNacked = false;
            storeDone = false;
            MemRequest req;
            req.kind = MemRequestKind::Store;
            req.core = 0;
            req.addr = addr;
            req.value = value;
            storePort->send(std::move(req));
            while (!storeDone && !storeNacked) {
                const Tick next = eq.nextLiveTick();
                ASSERT_NE(next, maxTick);
                eq.runUntil(next);
            }
            if (storeDone)
                return;
        }
    }

    void
    dispatch(Op op, SeqNum seq, SeqNum elder = 0)
    {
        ASSERT_TRUE(engine->canAccept());
        engine->dispatch(op, seq, elder);
    }

    /**
     * Alternate engine evaluation and event servicing until both
     * settle (the role a ticking core plays in a full system).
     */
    void
    pump(unsigned rounds = 8)
    {
        for (unsigned i = 0; i < rounds; ++i) {
            engine->evaluate();
            eq.run();
        }
    }

    EventQueue eq;
    MemoryImage img;
    FakeStoreQueue sqFake;
    std::unique_ptr<MemPort> storePort;
    bool storeDone = false;
    bool storeNacked = false;
    std::unique_ptr<MemController> pm;
    std::unique_ptr<MemController> dram;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<PersistEngine> engine;
};

// --- StrandWeaver ---------------------------------------------------

TEST_F(EngineFixture, SwClwbFlowsThroughAndDrains)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 7);
    dispatch(Op::clwb(lineA), 10);
    EXPECT_EQ(engine->queueOccupancy(), 1u);
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
    EXPECT_EQ(img.readPersisted(lineA), 7u);
}

TEST_F(EngineFixture, SwBarrierReleasesStoresAtIssueNotCompletion)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::persistBarrier(), 11);
    engine->evaluate();
    // The CLWB issues and performs its cache read within the L1
    // lookup latency (2 ns) — far before its PM ack (~100 ns). The
    // younger store is released at that point, while the engine is
    // still not drained. Advance just past the cache read:
    eq.runUntil(eq.curTick() + nsToTicks(5));
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
    EXPECT_FALSE(engine->drained()); // flush still in flight
    pump();
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, SwBarrierWaitsForPriorStoresToComplete)
{
    build(HwDesign::StrandWeaver);
    sqFake.addStore(9); // pending store before the barrier
    engine->setStoreView(sqFake.view());
    dispatch(Op::persistBarrier(), 10);
    dispatch(Op::clwb(lineA), 11);
    engine->evaluate();
    eq.run();
    // The barrier cannot issue, so the CLWB behind it stays queued.
    EXPECT_FALSE(engine->drained());

    sqFake.complete(9);
    engine->evaluate();
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, SwClwbWaitsForElderSameLineStore)
{
    build(HwDesign::StrandWeaver);
    sqFake.addStore(9);
    engine->setStoreView(sqFake.view());
    dispatch(Op::clwb(lineA), 10, /*elder=*/9);
    engine->evaluate();
    eq.run();
    EXPECT_FALSE(engine->drained());

    sqFake.complete(9);
    engine->evaluate();
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, SwBarrierHoldsStoresUntilOlderClwbReadsTheCache)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    sqFake.addStore(9);
    sqFake.issue(9);
    engine->setStoreView(sqFake.view());
    // The CLWB leaves the persist queue, but its flush waits in the
    // strand buffer for the elder store to write the L1.
    dispatch(Op::clwb(lineA), 10, /*elder=*/9);
    dispatch(Op::persistBarrier(), 11);
    engine->evaluate();
    EXPECT_FALSE(engine->storeMayIssue(12));
    sqFake.complete(9);
    pump();
    EXPECT_TRUE(engine->storeMayIssue(12));
}

TEST_F(EngineFixture, SwNewStrandLiftsEarlierStrandsBarrierHold)
{
    // The same CLWB, but the barrier belongs to a later strand: it
    // orders only that strand's CLWBs before the store (Eq. 1), so
    // the store need not wait for the earlier strand's flush.
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    sqFake.addStore(9);
    sqFake.issue(9);
    engine->setStoreView(sqFake.view());
    dispatch(Op::clwb(lineA), 10, /*elder=*/9);
    dispatch(Op::newStrand(), 11);
    dispatch(Op::persistBarrier(), 12);
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(13));
    EXPECT_FALSE(engine->drained()); // the flush is still held
    sqFake.complete(9);
    pump();
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, SwJoinStrandGatesStoresUntilClwbsComplete)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::joinStrand(), 11);
    engine->evaluate();
    EXPECT_FALSE(engine->storeMayIssue(12));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, SwJoinStrandAlsoWaitsForPriorStores)
{
    build(HwDesign::StrandWeaver);
    sqFake.addStore(9);
    engine->setStoreView(sqFake.view());
    dispatch(Op::joinStrand(), 10);
    engine->evaluate();
    eq.run();
    EXPECT_FALSE(engine->storeMayIssue(11));
    sqFake.complete(9);
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(11));
}

TEST_F(EngineFixture, SwNewStrandEnablesConcurrentFlushes)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    dirty(lineB, 2);
    Tick lastPersist = 0;
    std::size_t persists = 0;
    pm->setPersistObserver([&](const Packet &, Tick when) {
        lastPersist = when;
        ++persists;
    });

    Tick begin = eq.curTick();
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::newStrand(), 11);
    dispatch(Op::clwb(lineB), 12);
    engine->evaluate();
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
    EXPECT_EQ(persists, 2u);
    // Concurrent: both persist within ~one flush latency.
    EXPECT_LT(lastPersist - begin, nsToTicks(96) + nsToTicks(50));
}

TEST_F(EngineFixture, SwCapacityIsBounded)
{
    EngineConfig config;
    config.pqEntries = 2;
    build(HwDesign::StrandWeaver, config);
    sqFake.addStore(1);
    engine->setStoreView(sqFake.view());
    // Block issue via an elder store so entries stay queued.
    dispatch(Op::clwb(lineA), 10, 1);
    dispatch(Op::clwb(lineB), 11, 1);
    EXPECT_FALSE(engine->canAccept());
    sqFake.complete(1);
    engine->evaluate();
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->canAccept());
}

// --- Intel x86 -------------------------------------------------------

TEST_F(EngineFixture, IntelSfenceHoldsStoresUntilClwbCompletes)
{
    build(HwDesign::IntelX86);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::sfence(), 11);
    engine->evaluate();
    // The key contrast with StrandWeaver: even after the CLWB has
    // issued, the store remains blocked until it completes.
    EXPECT_FALSE(engine->storeMayIssue(12));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, IntelSfenceWaitsForPriorStores)
{
    build(HwDesign::IntelX86);
    sqFake.addStore(9);
    engine->setStoreView(sqFake.view());
    dispatch(Op::sfence(), 10);
    engine->evaluate();
    EXPECT_FALSE(engine->storeMayIssue(11));
    sqFake.complete(9);
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(11));
}

TEST_F(EngineFixture, IntelClwbsWithinEpochFlushConcurrently)
{
    build(HwDesign::IntelX86);
    dirty(lineA, 1);
    dirty(lineB, 2);
    Tick lastPersist = 0;
    pm->setPersistObserver(
        [&](const Packet &, Tick when) { lastPersist = when; });
    Tick begin = eq.curTick();
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::clwb(lineB), 11);
    engine->evaluate();
    eq.run();
    EXPECT_TRUE(engine->drained());
    EXPECT_LT(lastPersist - begin, nsToTicks(96) + nsToTicks(50));
}

TEST_F(EngineFixture, IntelClwbsAcrossSfenceSerialize)
{
    build(HwDesign::IntelX86);
    dirty(lineA, 1);
    dirty(lineB, 2);
    std::vector<Addr> order;
    pm->setPersistObserver([&](const Packet &pkt, Tick) {
        order.push_back(pkt.data.lineAddr);
    });
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::sfence(), 11);
    dispatch(Op::clwb(lineB), 12);
    engine->evaluate();
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], lineA);
    EXPECT_EQ(order[1], lineB);
}

TEST_F(EngineFixture, IntelMapsStrongPrimitivesToSfence)
{
    build(HwDesign::IntelX86);
    dispatch(Op::joinStrand(), 10);
    dispatch(Op::newStrand(), 11); // dropped
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
    EXPECT_TRUE(engine->drained());
}

// --- HOPS ------------------------------------------------------------

TEST_F(EngineFixture, HopsOfenceDoesNotGateStores)
{
    build(HwDesign::Hops);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::ofence(), 11);
    // Delegated ordering: the store proceeds immediately.
    EXPECT_TRUE(engine->storeMayIssue(12));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
}

TEST_F(EngineFixture, HopsOfenceOrdersEpochsInPersistBuffer)
{
    build(HwDesign::Hops);
    dirty(lineA, 1);
    dirty(lineB, 2);
    std::vector<Addr> order;
    pm->setPersistObserver([&](const Packet &pkt, Tick) {
        order.push_back(pkt.data.lineAddr);
    });
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::ofence(), 11);
    dispatch(Op::clwb(lineB), 12);
    engine->evaluate();
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], lineA);
    EXPECT_EQ(order[1], lineB);
}

TEST_F(EngineFixture, HopsStrictAdmissionGatesStoresAcrossOfence)
{
    // The strict-admission knob closes the tolerated modeling gap:
    // a store guarded by a delegated ofence may not even enter the
    // cache until every pre-ofence CLWB has *completed* — so the log
    // entry's ADR admission strictly precedes the update's and no
    // amplified media drop can cut one without the other.
    EngineConfig config;
    config.hopsStrictAdmission = true;
    build(HwDesign::Hops, config);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::ofence(), 11);
    EXPECT_FALSE(engine->storeMayIssue(12));
    engine->evaluate();
    // Issue alone (the interlock's release point) is not enough.
    EXPECT_FALSE(engine->storeMayIssue(12));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
}

TEST_F(EngineFixture, HopsStrictAdmissionCoversDrainPoints)
{
    // Strict admission implies the interlock's persist-queue
    // coverage at write-back drain points.
    EngineConfig config;
    config.hopsStrictAdmission = true;
    build(HwDesign::Hops, config);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    engine->evaluate();
    const DrainPoint point = engine->recordDrainPoint();
    EXPECT_EQ(point.queued, 10u);
    EXPECT_FALSE(engine->drainedPast(point));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drainedPast(point));
}

TEST_F(EngineFixture, HopsDfenceEnforcesDurability)
{
    build(HwDesign::Hops);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::dfence(), 11);
    engine->evaluate();
    EXPECT_FALSE(engine->storeMayIssue(12));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->storeMayIssue(12));
}

// --- NO-PERSIST-QUEUE -----------------------------------------------

TEST_F(EngineFixture, NoPqSharesTheStoreQueue)
{
    build(HwDesign::NoPersistQueue);
    EXPECT_TRUE(engine->sharesStoreQueue());
    build(HwDesign::StrandWeaver);
    EXPECT_FALSE(engine->sharesStoreQueue());
}

TEST_F(EngineFixture, NoPqUnissuedClwbBlocksYoungerStores)
{
    EngineConfig config;
    config.strandBuffers = 1;
    config.entriesPerBuffer = 1;
    build(HwDesign::NoPersistQueue, config);
    dirty(lineA, 1);
    dirty(lineB, 2);
    // Fill the single strand-buffer slot so the second CLWB cannot
    // issue; in the shared-queue design it then blocks stores.
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::clwb(lineB), 11);
    engine->evaluate();
    EXPECT_FALSE(engine->storeMayIssue(12));
    pump();
    EXPECT_TRUE(engine->storeMayIssue(12));
}

TEST_F(EngineFixture, SwStoresPassUnissuedClwbs)
{
    EngineConfig config;
    config.strandBuffers = 1;
    config.entriesPerBuffer = 1;
    build(HwDesign::StrandWeaver, config);
    dirty(lineA, 1);
    dirty(lineB, 2);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::clwb(lineB), 11);
    engine->evaluate();
    // The separate persist queue lets stores flow past queued CLWBs.
    EXPECT_TRUE(engine->storeMayIssue(12));
    eq.run();
}

TEST_F(EngineFixture, NoPqClwbWaitsForAllElderStoreIssue)
{
    build(HwDesign::NoPersistQueue);
    sqFake.addStore(9); // an elder store to an unrelated line
    engine->setStoreView(sqFake.view());
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    engine->evaluate();
    eq.run();
    EXPECT_FALSE(engine->drained()); // FIFO coupling holds it back

    sqFake.issue(9);
    sqFake.complete(9);
    engine->evaluate();
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drained());
}

// --- Drain points ----------------------------------------------------

TEST_F(EngineFixture, DrainPointCoversInFlightClwbs)
{
    build(HwDesign::StrandWeaver);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    engine->evaluate();
    // Without the HOPS interlocks the point covers the strand
    // buffers alone.
    const DrainPoint point = engine->recordDrainPoint();
    EXPECT_NE(point.buffered, 0u);
    EXPECT_EQ(point.queued, 0u);
    EXPECT_FALSE(engine->drainedPast(point));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drainedPast(point));
}

TEST_F(EngineFixture, IntelDrainPointCoversQueue)
{
    build(HwDesign::IntelX86);
    dirty(lineA, 1);
    dispatch(Op::clwb(lineA), 10);
    engine->evaluate();
    const DrainPoint point = engine->recordDrainPoint();
    EXPECT_EQ(point.queued, 10u);
    EXPECT_FALSE(engine->drainedPast(point));
    eq.run();
    engine->evaluate();
    EXPECT_TRUE(engine->drainedPast(point));
}

TEST_F(EngineFixture, HopsInterlockDrainPointCoversQueuedClwbs)
{
    // Under the epoch interlock a drain point also covers CLWBs that
    // have not left the persist queue for the persist buffer yet.
    EngineConfig config;
    config.hopsEpochInterlock = true;
    build(HwDesign::Hops, config);
    dirty(lineA, 1);
    dirty(lineB, 2);
    dispatch(Op::clwb(lineA), 10);
    dispatch(Op::dfence(), 11);
    dispatch(Op::clwb(lineB), 12); // held behind the dfence
    engine->evaluate();
    const DrainPoint point = engine->recordDrainPoint();
    EXPECT_EQ(point.queued, 12u);

    // Run until the buffered CLWB has retired: the second one has
    // only now entered the buffer, so the point has not passed.
    const DrainPoint bufferedOnly{point.buffered, 0};
    while (!engine->drainedPast(bufferedOnly))
        ASSERT_TRUE(eq.serviceOne());
    EXPECT_FALSE(engine->drainedPast(point));
    pump();
    EXPECT_TRUE(engine->drainedPast(point));
}

TEST_F(EngineFixture, DesignAndModelNames)
{
    EXPECT_STREQ(hwDesignName(HwDesign::StrandWeaver), "strandweaver");
    EXPECT_STREQ(hwDesignName(HwDesign::IntelX86), "intel-x86");
    EXPECT_STREQ(hwDesignName(HwDesign::Hops), "hops");
    EXPECT_STREQ(hwDesignName(HwDesign::NoPersistQueue),
                 "no-persist-queue");
    EXPECT_STREQ(hwDesignName(HwDesign::NonAtomic), "non-atomic");
    EXPECT_STREQ(persistencyModelName(PersistencyModel::Txn), "txn");
    EXPECT_STREQ(persistencyModelName(PersistencyModel::Sfr), "sfr");
    EXPECT_STREQ(persistencyModelName(PersistencyModel::Atlas), "atlas");
}

} // namespace
} // namespace strand
