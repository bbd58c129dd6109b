/**
 * @file
 * Unit tests for the strand buffer unit (§IV): intra-strand ordering
 * by persist barriers, inter-strand concurrency, round-robin strand
 * assignment, capacity, and drain points.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "persist/strand_buffer_unit.hh"

namespace strand
{
namespace
{

constexpr Addr lineA = pmBase + 0x000;
constexpr Addr lineB = pmBase + 0x400;
constexpr Addr lineC = pmBase + 0x800;

class SbuFixture : public ::testing::Test
{
  protected:
    void
    build(StrandBufferUnitParams p = StrandBufferUnitParams{})
    {
        pm = std::make_unique<MemController>("pm", eq, img,
                                             MemControllerParams{}, true);
        dram = std::make_unique<MemController>(
            "dram", eq, img, dramControllerParams(), false);
        hier = std::make_unique<Hierarchy>("caches", eq, img, 1,
                                           HierarchyParams{}, *pm, *dram);
        sbu = std::make_unique<StrandBufferUnit>("sbu", eq, 0, *hier, p);
        sbu->setCompletionCallback([this](std::uint64_t id, bool) {
            completions.push_back(id);
        });
        pm->setPersistObserver([this](const Packet &pkt, Tick) {
            persistOrder.push_back(pkt.data.lineAddr);
        });
        storePort.init(eq, "test.storePort");
        storePort.bind(*hier);
        storePort.setResponseHandler([this](const MemResponse &resp) {
            if (resp.kind == MemResponseKind::Nack)
                storeNacked = true;
            else if (resp.kind == MemResponseKind::Done)
                storeDone = true;
        });
    }

    /** Make a line dirty in the L1 so a flush has work to do. */
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
            storePort.send(std::move(req));
            while (!storeDone && !storeNacked) {
                const Tick next = eq.nextLiveTick();
                ASSERT_NE(next, maxTick);
                eq.runUntil(next);
            }
            if (storeDone)
                return;
        }
    }

    EventQueue eq;
    MemoryImage img;
    std::unique_ptr<MemController> pm;
    std::unique_ptr<MemController> dram;
    std::unique_ptr<Hierarchy> hier;
    std::unique_ptr<StrandBufferUnit> sbu;
    MemPort storePort;
    bool storeDone = false;
    bool storeNacked = false;
    std::vector<std::uint64_t> completions;
    std::vector<Addr> persistOrder;
};

TEST_F(SbuFixture, CleanFlushCompletesWithoutPmWrite)
{
    build();
    sbu->pushClwb(lineA, 1);
    eq.run();
    EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(sbu->cleanFlushes.value(), 1.0);
    EXPECT_TRUE(persistOrder.empty());
    EXPECT_TRUE(sbu->drained());
}

TEST_F(SbuFixture, DirtyFlushPersistsData)
{
    build();
    dirty(lineA, 42);
    sbu->pushClwb(lineA, 1);
    eq.run();
    EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
    EXPECT_EQ(img.readPersisted(lineA), 42u);
    EXPECT_EQ(persistOrder, (std::vector<Addr>{lineA}));
}

TEST_F(SbuFixture, BarrierOrdersPersistsWithinStrand)
{
    build();
    dirty(lineA, 1);
    dirty(lineB, 2);
    sbu->pushClwb(lineA, 1);
    sbu->pushBarrier();
    sbu->pushClwb(lineB, 2);
    eq.run();
    // B must not reach the PM controller before A.
    ASSERT_EQ(persistOrder.size(), 2u);
    EXPECT_EQ(persistOrder[0], lineA);
    EXPECT_EQ(persistOrder[1], lineB);
    EXPECT_EQ(completions, (std::vector<std::uint64_t>{1, 2}));
    // And B's flush may only start after A completed: with one
    // flush ~100ns each, ordered flushes take at least 2x.
    EXPECT_GE(eq.curTick(), 2 * nsToTicks(96));
}

TEST_F(SbuFixture, SeparateStrandsPersistConcurrently)
{
    build();
    dirty(lineA, 1);
    dirty(lineB, 2);

    // Ordered variant: measure serial latency.
    sbu->pushClwb(lineA, 1);
    sbu->pushBarrier();
    sbu->pushClwb(lineB, 2);
    eq.run();
    Tick serial = eq.curTick();

    // Concurrent variant on fresh state.
    completions.clear();
    persistOrder.clear();
    dirty(lineA, 3);
    dirty(lineC, 4);
    Tick begin = eq.curTick();
    sbu->pushClwb(lineA, 3);
    sbu->newStrand();
    sbu->pushClwb(lineC, 4);
    eq.run();
    Tick concurrent = eq.curTick() - begin;
    EXPECT_LT(concurrent, serial);
    EXPECT_EQ(completions.size(), 2u);
    EXPECT_EQ(sbu->strandsStarted.value(), 1.0);
}

TEST_F(SbuFixture, BarrierDoesNotOrderAcrossStrands)
{
    build();
    dirty(lineA, 1);
    dirty(lineB, 2);
    dirty(lineC, 3);
    // Strand 0: A, PB, B. Strand 1: C — C may persist while A is
    // still in flight (it must not wait for the barrier).
    sbu->pushClwb(lineA, 1);
    sbu->pushBarrier();
    sbu->pushClwb(lineB, 2);
    sbu->newStrand();
    sbu->pushClwb(lineC, 4);
    eq.run();
    ASSERT_EQ(persistOrder.size(), 3u);
    // A and C race; B is strictly last-or-after-A. Verify B after A.
    auto posOf = [&](Addr a) {
        for (std::size_t i = 0; i < persistOrder.size(); ++i)
            if (persistOrder[i] == a)
                return i;
        return persistOrder.size();
    };
    EXPECT_LT(posOf(lineA), posOf(lineB));
    // C persisted before B completed waiting on the barrier.
    EXPECT_LT(posOf(lineC), posOf(lineB));
}

TEST_F(SbuFixture, RoundRobinWrapsAcrossBuffers)
{
    StrandBufferUnitParams p;
    p.numBuffers = 2;
    p.entriesPerBuffer = 4;
    build(p);
    sbu->newStrand();
    sbu->newStrand(); // back to buffer 0
    sbu->pushClwb(lineA, 1);
    EXPECT_EQ(sbu->occupancy(), 1u);
    eq.run();
    EXPECT_TRUE(sbu->drained());
}

TEST_F(SbuFixture, CapacityIsPerBuffer)
{
    StrandBufferUnitParams p;
    p.numBuffers = 2;
    p.entriesPerBuffer = 2;
    build(p);
    dirty(lineA, 1);
    sbu->pushClwb(lineA, 1);
    sbu->pushBarrier();
    EXPECT_FALSE(sbu->canAcceptClwb()); // buffer 0 full
    sbu->newStrand();
    EXPECT_TRUE(sbu->canAcceptClwb()); // buffer 1 empty
    sbu->pushClwb(lineB, 2);
    eq.run();
    EXPECT_TRUE(sbu->drained());
    EXPECT_THROW(
        [&] {
            sbu->pushClwb(lineA, 3);
            sbu->pushClwb(lineB, 4);
            sbu->pushClwb(lineC, 5);
        }(),
        std::logic_error);
}

TEST_F(SbuFixture, DrainPointClearsOnlyAfterRecordedWorkRetires)
{
    build();
    dirty(lineA, 1);
    dirty(lineB, 2);
    sbu->pushClwb(lineA, 1);
    sbu->pushBarrier();
    sbu->pushClwb(lineB, 2);

    // Positions count every entry, barriers included.
    const std::uint64_t point = sbu->recordDrainPoint();
    EXPECT_EQ(point, 3u);
    EXPECT_FALSE(sbu->drainedPast(point));

    eq.run();
    EXPECT_TRUE(sbu->drainedPast(point));
}

TEST_F(SbuFixture, DrainPointOnIdleUnitIsUnconstrained)
{
    build();
    EXPECT_EQ(sbu->recordDrainPoint(), 0u);
    EXPECT_TRUE(sbu->drainedPast(sbu->recordDrainPoint()));

    // Once everything has drained, a fresh point passes at once too.
    sbu->pushClwb(lineA, 1);
    eq.run();
    ASSERT_TRUE(sbu->drained());
    EXPECT_TRUE(sbu->drainedPast(sbu->recordDrainPoint()));
}

TEST_F(SbuFixture, DrainPointIgnoresWorkAddedAfterCapture)
{
    build();
    dirty(lineA, 1);
    sbu->pushClwb(lineA, 1);
    const std::uint64_t point = sbu->recordDrainPoint();

    // Append more work behind a barrier; the point refers only to
    // the first CLWB.
    sbu->pushBarrier();
    dirty(lineB, 2);
    sbu->pushClwb(lineB, 2);

    // Run until the first CLWB completes.
    while (completions.empty())
        ASSERT_TRUE(eq.serviceOne());
    // Let retirement settle at this tick.
    while (!completions.empty() && !sbu->drainedPast(point) &&
           eq.serviceOne()) {
        if (completions.size() >= 2)
            break;
    }
    EXPECT_TRUE(sbu->drainedPast(point));
}

TEST_F(SbuFixture, DrainPointIgnoresWorkInAnotherStrand)
{
    StrandBufferUnitParams p;
    p.numBuffers = 2;
    build(p);
    // Buffer 1's CLWB waits on an elder store that never completes.
    sbu->setElderQuery([](SeqNum) { return false; });
    dirty(lineA, 1);
    sbu->pushClwb(lineA, 1);
    const std::uint64_t point = sbu->recordDrainPoint();

    // Work appended after the capture, in a buffer that was empty
    // then, stays buffered but lies past the point.
    sbu->newStrand();
    sbu->pushClwb(lineB, 2, 99);
    EXPECT_FALSE(sbu->drainedPast(point));
    eq.run();
    EXPECT_EQ(completions, (std::vector<std::uint64_t>{1}));
    EXPECT_FALSE(sbu->drained());
    EXPECT_TRUE(sbu->drainedPast(point));
}

TEST_F(SbuFixture, ManyStrandsInterleaveCorrectly)
{
    StrandBufferUnitParams p;
    p.numBuffers = 4;
    p.entriesPerBuffer = 4;
    build(p);
    std::vector<Addr> lines;
    for (unsigned i = 0; i < 8; ++i) {
        Addr line = pmBase + 0x1000 + i * 0x400;
        dirty(line, i + 1);
        lines.push_back(line);
    }
    for (unsigned i = 0; i < 8; ++i) {
        sbu->pushClwb(lines[i], i);
        sbu->newStrand();
    }
    eq.run();
    EXPECT_EQ(completions.size(), 8u);
    EXPECT_EQ(persistOrder.size(), 8u);
    EXPECT_TRUE(sbu->drained());
    EXPECT_EQ(sbu->clwbsCompleted.value(), 8.0);
}

} // namespace
} // namespace strand
