/**
 * @file
 * Unit tests for the write-back buffer and its persist-drain
 * interlock (§IV "Managing cache writebacks").
 */

#include <gtest/gtest.h>

#include <vector>

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

TEST(WritebackBuffer, DrainsFifoWhenUnconstrained)
{
    WritebackBuffer buf(4);
    buf.push(0x100, lineAt(0x100, 1), {});
    buf.push(0x200, lineAt(0x200, 2), {});
    std::vector<Addr> order;
    unsigned drained =
        buf.drain([&](Addr a, const LineData &) { order.push_back(a); });
    EXPECT_EQ(drained, 2u);
    EXPECT_EQ(order, (std::vector<Addr>{0x100, 0x200}));
    EXPECT_TRUE(buf.empty());
}

TEST(WritebackBuffer, BlockedHeadBlocksYoungerEntries)
{
    WritebackBuffer buf(4);
    bool clear = false;
    buf.push(0x100, lineAt(0x100, 1), [&] { return clear; });
    buf.push(0x200, lineAt(0x200, 2), {});

    std::vector<Addr> order;
    auto fn = [&](Addr a, const LineData &) { order.push_back(a); };

    EXPECT_EQ(buf.drain(fn), 0u);
    EXPECT_EQ(buf.size(), 2u);

    clear = true;
    EXPECT_EQ(buf.drain(fn), 2u);
    EXPECT_EQ(order, (std::vector<Addr>{0x100, 0x200}));
}

TEST(WritebackBuffer, ClearanceEvaluatedLazily)
{
    WritebackBuffer buf(2);
    int evaluations = 0;
    buf.push(0x100, lineAt(0x100, 1), [&] {
        ++evaluations;
        return evaluations >= 3;
    });
    auto fn = [](Addr, const LineData &) {};
    EXPECT_EQ(buf.drain(fn), 0u);
    EXPECT_EQ(buf.drain(fn), 0u);
    EXPECT_EQ(buf.drain(fn), 1u);
}

TEST(WritebackBuffer, CapacityAndContains)
{
    WritebackBuffer buf(2);
    EXPECT_FALSE(buf.full());
    buf.push(0x100, lineAt(0x100, 1), [] { return false; });
    buf.push(0x200, lineAt(0x200, 2), [] { return false; });
    EXPECT_TRUE(buf.full());
    EXPECT_TRUE(buf.contains(0x100));
    EXPECT_TRUE(buf.contains(0x200));
    EXPECT_FALSE(buf.contains(0x300));
    EXPECT_THROW(buf.push(0x300, lineAt(0x300, 3), {}),
                 std::logic_error);
}

TEST(WritebackBuffer, DrainPassesCapturedData)
{
    WritebackBuffer buf(2);
    buf.push(0x100, lineAt(0x100, 77), {});
    std::uint64_t seen = 0;
    buf.drain([&](Addr, const LineData &d) { seen = d.words[0]; });
    EXPECT_EQ(seen, 77u);
}

TEST(WritebackBuffer, SnapshotEntriesRoundTrip)
{
    // A copy is the hierarchy's snapshot of the buffer.
    WritebackBuffer buf(4);
    bool clear = false;
    buf.push(0x100, lineAt(0x100, 7), [&] { return clear; });
    buf.push(0x200, lineAt(0x200, 9), {});
    const WritebackBuffer capture = buf;

    // Drain past the capture (clearance satisfied), then rewind.
    clear = true;
    auto fn = [](Addr, const LineData &) {};
    EXPECT_EQ(buf.drain(fn), 2u);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(capture.size(), 2u);
    buf = capture;

    EXPECT_EQ(buf.size(), 2u);
    EXPECT_TRUE(buf.contains(0x100));
    EXPECT_TRUE(buf.contains(0x200));
    // The copied clearance closure still reads the live flag: entries
    // drain in order with their data intact.
    clear = false;
    EXPECT_EQ(buf.drain(fn), 0u);
    clear = true;
    std::vector<std::uint64_t> words;
    EXPECT_EQ(buf.drain([&](Addr, const LineData &d) {
                  words.push_back(d.words[0]);
              }),
              2u);
    EXPECT_EQ(words, (std::vector<std::uint64_t>{7, 9}));
}

TEST(WritebackBuffer, RestoreRejectsOverCapacity)
{
    // Restoring is assignment, and capacity is fixed at construction:
    // a copy from a buffer of another capacity (another machine's)
    // is rejected even when its entries would fit.
    WritebackBuffer big(4);
    big.push(0x100, lineAt(0x100, 1), {});
    big.push(0x200, lineAt(0x200, 2), {});
    big.push(0x300, lineAt(0x300, 3), {});
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
