/**
 * @file
 * Unit tests for the core timing model: dispatch/commit flow, store
 * queue behaviour, persist-engine cross-gating, lock replay, stall
 * accounting, and the end-to-end contrast between SFENCE and persist
 * barriers that drives the paper's results.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cpu/core.hh"
#include "persist/design.hh"

namespace strand
{
namespace
{

constexpr Addr lineA = pmBase + 0x000;
constexpr Addr lineB = pmBase + 0x400;

/**
 * A persist engine that orders nothing and hands out the store-queue
 * view its core installs, so a test can hold the core's answers
 * against the store traffic it observes.
 */
class ViewProbe : public PersistEngine
{
  public:
    using PersistEngine::PersistEngine;

    const StoreQueueView &view() const { return sq; }

    /** While set, completed stores keep their slots, as they do
     * behind an older persist op in the NO-PERSIST-QUEUE design. */
    bool holdSlots = false;

    void
    release()
    {
        holdSlots = false;
        noteProgress(); // wakes the sleeping core
    }

    bool canAccept() const override { return true; }
    void dispatch(const Op &, SeqNum, SeqNum) override {}
    bool storeMayIssue(SeqNum) const override { return true; }
    void evaluate() override {}
    bool drained() const override { return true; }
    std::size_t queueOccupancy() const override { return 0; }

    SeqNum
    oldestIncompleteSeq() const override
    {
        return holdSlots ? 0 : ~static_cast<SeqNum>(0);
    }

    DrainPoint recordDrainPoint() const override { return {}; }
    bool drainedPast(const DrainPoint &) const override { return true; }

  protected:
    std::any saveOwnState() const override { return {}; }
    void restoreOwnState(const std::any &) override {}
};

/**
 * Hold every answer of @p core's store-queue view against facts kept
 * apart from it, for each store dispatched so far. A stream of stores
 * alone gives them seqs 1, 2, ... and they are Acked in seq order, so
 * store s has issued once s Acks (storesIssued) are back; a store has
 * completed once its entry says so or has left the queue. At most one
 * store may await its admission decision.
 */
::testing::AssertionResult
viewAgrees(const Core &core, const StoreQueueView &view)
{
    const auto acks = static_cast<SeqNum>(core.storesIssued.value());
    const CoreState state = core.saveState();
    const SeqNum stores = state.nextSeq - 1;
    std::set<SeqNum> incomplete;
    unsigned inTheMail = 0;
    for (const CoreState::SqEntry &e : state.storeQueue) {
        if (!e.completed)
            incomplete.insert(e.seq);
        if (e.sent && !e.issued)
            ++inTheMail;
    }
    if (inTheMail > 1)
        return ::testing::AssertionFailure()
               << inTheMail << " stores await their admission decision";
    const SeqNum oldest = incomplete.empty() ? ~static_cast<SeqNum>(0)
                                             : *incomplete.begin();
    if (view.oldestIncompleteStore() != oldest)
        return ::testing::AssertionFailure()
               << "oldestIncompleteStore() " << view.oldestIncompleteStore()
               << ", expected " << oldest;
    for (SeqNum s = 1; s <= stores + 1; ++s) {
        if (s <= stores && view.issued(s) != (s <= acks))
            return ::testing::AssertionFailure()
                   << "issued(" << s << ") after " << acks << " Acks";
        if (s <= stores && view.completed(s) == incomplete.contains(s))
            return ::testing::AssertionFailure()
                   << "completed(" << s << ")";
        if (view.allIssuedBefore(s) != (s - 1 <= acks))
            return ::testing::AssertionFailure()
                   << "allIssuedBefore(" << s << ") after " << acks
                   << " Acks";
        if (view.allCompletedBefore(s) != (oldest >= s))
            return ::testing::AssertionFailure()
                   << "allCompletedBefore(" << s << ")";
    }
    return ::testing::AssertionSuccess();
}

class CoreFixture : public ::testing::Test
{
  protected:
    void
    buildCaches(unsigned numCores)
    {
        pm = std::make_unique<MemController>("pm", eq, img,
                                             MemControllerParams{}, true);
        dram = std::make_unique<MemController>(
            "dram", eq, img, dramControllerParams(), false);
        hier = std::make_unique<Hierarchy>("caches", eq, img, numCores,
                                           HierarchyParams{}, *pm, *dram);
        cores.clear();
    }

    void
    build(HwDesign design, unsigned numCores = 1,
          CoreParams cp = CoreParams{})
    {
        buildCaches(numCores);
        for (unsigned i = 0; i < numCores; ++i) {
            auto engine = makePersistEngine(
                design, "engine" + std::to_string(i), eq, i, *hier,
                EngineConfig{});
            cores.push_back(std::make_unique<Core>(
                "cpu" + std::to_string(i), eq, i, *hier,
                std::move(engine), locks, cp));
        }
    }

    /** One core behind a ViewProbe engine; @return the probe. */
    ViewProbe &
    buildProbed()
    {
        buildCaches(1);
        auto engine = std::make_unique<ViewProbe>("probe", eq);
        ViewProbe &probe = *engine;
        cores.push_back(std::make_unique<Core>(
            "cpu0", eq, 0, *hier, std::move(engine), locks,
            CoreParams{}));
        return probe;
    }

    /**
     * Start core 0 on @p stores stores to distinct lines and service
     * the queue one tick at a time until it drains, holding the
     * store-queue view to viewAgrees() after every tick.
     */
    void
    stepStores(const ViewProbe &probe, SeqNum stores)
    {
        OpStream stream;
        for (SeqNum i = 0; i < stores; ++i)
            stream.push_back(Op::store(pmBase + 0x60000 + i * 64, i));
        cores[0]->setStream(std::move(stream));
        cores[0]->start();
        while (!eq.empty()) {
            eq.runUntil(eq.nextLiveTick());
            ASSERT_TRUE(viewAgrees(*cores[0], probe.view()))
                << "at tick " << eq.curTick();
        }
    }

    /** Run all cores to completion and return elapsed ticks. */
    Tick
    run(std::vector<OpStream> streams)
    {
        Tick begin = eq.curTick();
        for (std::size_t i = 0; i < cores.size(); ++i) {
            cores[i]->setStream(std::move(streams.at(i)));
            cores[i]->start();
        }
        eq.run();
        for (auto &core : cores)
            EXPECT_TRUE(core->finished());
        return eq.curTick() - begin;
    }

    EventQueue eq;
    MemoryImage img;
    LockTable locks;
    std::unique_ptr<MemController> pm;
    std::unique_ptr<MemController> dram;
    std::unique_ptr<Hierarchy> hier;
    std::vector<std::unique_ptr<Core>> cores;
};

TEST_F(CoreFixture, ComputeStreamFinishes)
{
    build(HwDesign::StrandWeaver);
    OpStream stream;
    for (int i = 0; i < 100; ++i)
        stream.push_back(Op::compute(1));
    run({stream});
    EXPECT_EQ(cores[0]->opsCommitted.value(), 100.0);
    // Compute ops execute serially: ~100 cycles plus small slack.
    EXPECT_GE(cores[0]->numCycles.value(), 100.0);
    EXPECT_LT(cores[0]->numCycles.value(), 130.0);
}

TEST_F(CoreFixture, StoresUpdateArchitecturalImage)
{
    build(HwDesign::StrandWeaver);
    OpStream stream;
    stream.push_back(Op::store(lineA, 11));
    stream.push_back(Op::store(lineA + 8, 22));
    run({stream});
    EXPECT_EQ(img.readArch(lineA), 11u);
    EXPECT_EQ(img.readArch(lineA + 8), 22u);
    EXPECT_EQ(cores[0]->storesIssued.value(), 2.0);
}

TEST_F(CoreFixture, ClwbPersistsStoredData)
{
    build(HwDesign::StrandWeaver);
    OpStream stream;
    stream.push_back(Op::store(lineA, 33));
    stream.push_back(Op::clwb(lineA));
    stream.push_back(Op::joinStrand());
    run({stream});
    EXPECT_EQ(img.readPersisted(lineA), 33u);
}

TEST_F(CoreFixture, ClwbWaitsForElderStoreData)
{
    // The CLWB is dispatched in the same cycle as the store; it must
    // still flush the store's value, not stale data.
    build(HwDesign::IntelX86);
    OpStream stream;
    stream.push_back(Op::store(lineA, 44));
    stream.push_back(Op::clwb(lineA));
    stream.push_back(Op::sfence());
    run({stream});
    EXPECT_EQ(img.readPersisted(lineA), 44u);
}

TEST_F(CoreFixture, StoreQueueViewAnswersFromTheQueue)
{
    // The engine's gates read the store queue only through this view;
    // it must track each Ack and completion as it lands.
    constexpr SeqNum stores = 8;
    ViewProbe &probe = buildProbed();
    stepStores(probe, stores);
    EXPECT_TRUE(cores[0]->finished());
    EXPECT_EQ(cores[0]->storesIssued.value(),
              static_cast<double>(stores));
}

TEST_F(CoreFixture, StoreQueueViewLooksPastCompletedStoresStillQueued)
{
    // Completed stores that keep their slots must not read as
    // incomplete: the oldest incomplete store is the first one whose
    // flag is clear, not the queue's front.
    constexpr SeqNum stores = 8;
    ViewProbe &probe = buildProbed();
    probe.holdSlots = true;
    stepStores(probe, stores);
    ASSERT_FALSE(cores[0]->finished());
    const CoreState held = cores[0]->saveState();
    ASSERT_EQ(held.storeQueue.size(), stores);
    for (const CoreState::SqEntry &e : held.storeQueue)
        ASSERT_TRUE(e.completed);
    EXPECT_TRUE(probe.view().allCompletedBefore(stores + 1));
    EXPECT_EQ(probe.view().oldestIncompleteStore(),
              ~static_cast<SeqNum>(0));

    probe.release();
    eq.run();
    EXPECT_TRUE(cores[0]->finished());
}

TEST_F(CoreFixture, LoadsComplete)
{
    build(HwDesign::StrandWeaver);
    OpStream stream;
    stream.push_back(Op::load(lineA));
    stream.push_back(Op::load(lineB));
    stream.push_back(Op::compute(1));
    run({stream});
    EXPECT_EQ(cores[0]->loadsIssued.value(), 2.0);
    EXPECT_EQ(cores[0]->opsCommitted.value(), 3.0);
}

TEST_F(CoreFixture, StrandWeaverBeatsIntelOnLogStorePairs)
{
    // The paper's core claim, in miniature: N independent
    // log/update pairs. Intel orders everything with SFENCE; the
    // strand primitives keep pairs independent.
    constexpr int pairs = 16;
    auto intelStream = [&] {
        OpStream s;
        for (int i = 0; i < pairs; ++i) {
            Addr log = pmBase + 0x10000 + i * 64;
            Addr data = pmBase + 0x20000 + i * 64;
            s.push_back(Op::store(log, i));
            s.push_back(Op::clwb(log));
            s.push_back(Op::sfence());
            s.push_back(Op::store(data, i));
            s.push_back(Op::clwb(data));
            s.push_back(Op::sfence());
        }
        return s;
    };
    auto swStream = [&] {
        OpStream s;
        for (int i = 0; i < pairs; ++i) {
            Addr log = pmBase + 0x10000 + i * 64;
            Addr data = pmBase + 0x20000 + i * 64;
            s.push_back(Op::store(log, i));
            s.push_back(Op::clwb(log));
            s.push_back(Op::persistBarrier());
            s.push_back(Op::store(data, i));
            s.push_back(Op::clwb(data));
            s.push_back(Op::newStrand());
        }
        s.push_back(Op::joinStrand());
        return s;
    };

    build(HwDesign::IntelX86);
    Tick intelTime = run({intelStream()});

    build(HwDesign::StrandWeaver);
    Tick swTime = run({swStream()});

    // StrandWeaver must be substantially faster.
    EXPECT_LT(swTime * 3, intelTime * 2); // at least 1.5x
    // Both persisted everything.
    for (int i = 0; i < pairs; ++i) {
        EXPECT_EQ(img.readPersisted(pmBase + 0x10000 + i * 64),
                  static_cast<std::uint64_t>(i));
        EXPECT_EQ(img.readPersisted(pmBase + 0x20000 + i * 64),
                  static_cast<std::uint64_t>(i));
    }
}

TEST_F(CoreFixture, IntelAccumulatesPersistStalls)
{
    build(HwDesign::IntelX86);
    OpStream s;
    for (int i = 0; i < 64; ++i) {
        Addr a = pmBase + 0x30000 + i * 64;
        s.push_back(Op::store(a, i));
        s.push_back(Op::clwb(a));
        s.push_back(Op::sfence());
    }
    run({s});
    EXPECT_GT(cores[0]->persistStallCycles(), 0.0);
}

TEST_F(CoreFixture, LockHandoffFollowsTickets)
{
    build(HwDesign::StrandWeaver, 2);
    // Core 1 holds ticket 0; core 0 must wait for ticket 1 even
    // though it dispatches first.
    OpStream s0;
    s0.push_back(Op::lockAcquire(7, 1));
    s0.push_back(Op::store(lineA, 2));
    s0.push_back(Op::lockRelease(7));
    OpStream s1;
    s1.push_back(Op::compute(50)); // delay before taking the lock
    s1.push_back(Op::lockAcquire(7, 0));
    s1.push_back(Op::store(lineA, 1));
    s1.push_back(Op::lockRelease(7));
    run({s0, s1});
    // Core 0 ran second: its store lands last.
    EXPECT_EQ(img.readArch(lineA), 2u);
    EXPECT_EQ(locks.nextTicket(7), 2u);
    EXPECT_GT(cores[0]->stallCycles.value(
                  static_cast<unsigned>(StallCause::Lock)),
              0.0);
}

TEST_F(CoreFixture, ReleaseWaitsForStoreVisibility)
{
    build(HwDesign::StrandWeaver);
    OpStream s;
    s.push_back(Op::lockAcquire(1, 0));
    s.push_back(Op::store(lineA, 5)); // store miss: slow
    s.push_back(Op::lockRelease(1));
    run({s});
    EXPECT_EQ(img.readArch(lineA), 5u);
    EXPECT_FALSE(locks.held(1));
}

TEST_F(CoreFixture, RobFullStallsAreCounted)
{
    CoreParams cp;
    cp.robEntries = 4;
    build(HwDesign::StrandWeaver, 1, cp);
    OpStream s;
    // Loads occupy the ROB until their (L2-latency) fill returns;
    // a 4-entry ROB backs dispatch up immediately.
    for (int i = 0; i < 64; ++i)
        s.push_back(Op::load(pmBase + 0x50000 + i * 64));
    run({s});
    EXPECT_GT(cores[0]->stallCycles.value(
                  static_cast<unsigned>(StallCause::RobFull)),
              0.0);
}

TEST_F(CoreFixture, FinishedCallbackFires)
{
    build(HwDesign::StrandWeaver);
    bool called = false;
    cores[0]->setFinishedCallback([&] { called = true; });
    run({OpStream{Op::compute(1)}});
    EXPECT_TRUE(called);
}

TEST_F(CoreFixture, NonAtomicIgnoresOrderingPrimitives)
{
    build(HwDesign::NonAtomic);
    OpStream s;
    s.push_back(Op::store(lineA, 1));
    s.push_back(Op::clwb(lineA));
    s.push_back(Op::store(lineB, 2));
    s.push_back(Op::clwb(lineB));
    run({s});
    EXPECT_EQ(img.readPersisted(lineA), 1u);
    EXPECT_EQ(img.readPersisted(lineB), 2u);
}

TEST_F(CoreFixture, SqOccupancyIsSampled)
{
    build(HwDesign::StrandWeaver);
    OpStream s;
    for (int i = 0; i < 10; ++i)
        s.push_back(Op::store(pmBase + 0x40000 + i * 64, i));
    run({s});
    EXPECT_GT(cores[0]->sqOccupancy.samples(), 0u);
}

TEST_F(CoreFixture, LockTableBasics)
{
    LockTable table;
    EXPECT_FALSE(table.held(3));
    EXPECT_FALSE(table.tryAcquire(3, 1)); // wrong ticket
    EXPECT_TRUE(table.tryAcquire(3, 0));
    EXPECT_TRUE(table.held(3));
    EXPECT_FALSE(table.tryAcquire(3, 1)); // held
    table.release(3);
    EXPECT_TRUE(table.tryAcquire(3, 1));
    table.release(3);
    EXPECT_THROW(table.release(3), std::logic_error);
}

} // namespace
} // namespace strand
