/**
 * @file
 * Unit tests for the write-back buffer (§IV "Managing cache
 * writebacks"): a bounded FIFO of departing dirty lines, each with
 * the drain point it waits for. The hierarchy evaluates those points
 * against the owning core's persist engine (ClearanceEvaluatedLazily
 * here; the stall paths in hierarchy_test.cc).
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "cache/writeback_buffer.hh"

namespace strand
{
namespace
{

LineData
lineAt(Addr addr, std::uint64_t word0)
{
    LineData data;
    data.lineAddr = lineAlign(addr);
    data.set(0, word0);
    return data;
}

WritebackBuffer::Entry
entryAt(Addr addr, std::uint64_t word0, DrainPoint point = {})
{
    return {addr, lineAt(addr, word0), point};
}

/** A persist engine that has drained past every position up to the
 * one the test sets. */
class SteppedDrain : public PersistDrain
{
  public:
    DrainPoint recordDrainPoint() const override { return {}; }

    bool
    drainedPast(const DrainPoint &point) const override
    {
        ++evaluations;
        return point.buffered <= drainedTo;
    }

    std::uint64_t drainedTo = 0;
    mutable unsigned evaluations = 0;
};

/** Pop every entry; @return their line addresses, oldest first. */
std::vector<Addr>
popAll(WritebackBuffer &buf)
{
    std::vector<Addr> order;
    for (; !buf.empty(); buf.pop())
        order.push_back(buf.front().lineAddr);
    return order;
}

TEST(WritebackBuffer, DrainsFifoWhenUnconstrained)
{
    WritebackBuffer buf(4);
    buf.push(entryAt(0x100, 1));
    buf.push(entryAt(0x200, 2));
    EXPECT_EQ(popAll(buf), (std::vector<Addr>{0x100, 0x200}));
    EXPECT_TRUE(buf.empty());
}

TEST(WritebackBuffer, ClearanceEvaluatedLazily)
{
    // The hierarchy drains the buffer; a restore parks one entry in
    // it whose point lies ahead of the engine.
    EventQueue eq;
    MemoryImage img;
    MemController pm("pm", eq, img, MemControllerParams{}, true);
    MemController dram("dram", eq, img, dramControllerParams(), false);
    Hierarchy hier("caches", eq, img, 1, HierarchyParams{}, pm, dram);
    SteppedDrain engine;
    hier.setPersistDrain(0, engine);
    Hierarchy::Snapshot snap = hier.saveState();
    snap.state.cores[0].writebacks.push(entryAt(pmBase, 77, {2, 0}));
    hier.restoreState(snap);

    // The entry keeps its point, not a verdict: each drain attempt
    // asks the engine as it is then.
    hier.kick();
    EXPECT_EQ(engine.evaluations, 1u);
    EXPECT_EQ(hier.writebacksPending(), 1u);
    engine.drainedTo = 1;
    hier.kick();
    EXPECT_EQ(engine.evaluations, 2u);
    EXPECT_EQ(hier.writebacksPending(), 1u);

    // Progress alone moves nothing until the next attempt asks.
    engine.drainedTo = 2;
    EXPECT_EQ(hier.writebacksPending(), 1u);
    hier.kick();
    EXPECT_EQ(hier.writebacksPending(), 0u);
    eq.run();
    EXPECT_EQ(img.readPersisted(pmBase), 77u);
}

TEST(WritebackBuffer, CapacityAndContains)
{
    WritebackBuffer buf(2);
    EXPECT_FALSE(buf.full());
    buf.push(entryAt(0x100, 1, {3, 0}));
    buf.push(entryAt(0x200, 2, {4, 0}));
    EXPECT_TRUE(buf.full());
    EXPECT_TRUE(buf.contains(0x100));
    EXPECT_TRUE(buf.contains(0x200));
    EXPECT_FALSE(buf.contains(0x300));
    EXPECT_THROW(buf.push(entryAt(0x300, 3)), std::logic_error);
}

TEST(WritebackBuffer, DrainPassesCapturedData)
{
    WritebackBuffer buf(2);
    buf.push(entryAt(0x100, 77, {5, 9}));
    EXPECT_EQ(buf.front().data.words[0], 77u);
    EXPECT_EQ(buf.front().point.buffered, 5u);
    EXPECT_EQ(buf.front().point.queued, 9u);
}

TEST(WritebackBuffer, SnapshotEntriesRoundTrip)
{
    // A copy is the hierarchy's snapshot of the buffer.
    WritebackBuffer buf(4);
    buf.push(entryAt(0x100, 7, {1, 0}));
    buf.push(entryAt(0x200, 9));
    const WritebackBuffer capture = buf;

    // Drain past the capture, then rewind.
    EXPECT_EQ(popAll(buf).size(), 2u);
    EXPECT_EQ(capture.size(), 2u);
    buf = capture;

    // The entries come back in order with their data and points.
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.front().point.buffered, 1u);
    std::vector<std::uint64_t> words;
    for (; !buf.empty(); buf.pop())
        words.push_back(buf.front().data.words[0]);
    EXPECT_EQ(words, (std::vector<std::uint64_t>{7, 9}));
}

TEST(WritebackBuffer, RestoreRejectsOverCapacity)
{
    // Restoring is assignment, and capacity is fixed at construction:
    // a copy from a buffer of another capacity (another machine's)
    // is rejected even when its entries would fit.
    WritebackBuffer big(4);
    big.push(entryAt(0x100, 1));
    big.push(entryAt(0x200, 2));
    big.push(entryAt(0x300, 3));
    WritebackBuffer small(2);
    EXPECT_THROW(small = big, std::logic_error);
    big = WritebackBuffer(4);
    EXPECT_THROW(small = big, std::logic_error);
    EXPECT_TRUE(small.empty());
}

TEST(WritebackBuffer, ZeroCapacityPanics)
{
    EXPECT_THROW(WritebackBuffer(0), std::logic_error);
}

} // namespace
} // namespace strand
