/**
 * @file
 * Unit tests for the set-associative tag array: geometry, lookup,
 * LRU victimization, invalidation, and copy-on-write snapshots.
 */

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache_array.hh"

namespace strand
{
namespace
{

TEST(CacheArray, GeometryFromSizeAndWays)
{
    CacheArray arr(32 * 1024, 2);
    EXPECT_EQ(arr.numWays(), 2u);
    EXPECT_EQ(arr.numSets(), 32u * 1024 / 64 / 2);
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, BadGeometryIsFatal)
{
    EXPECT_THROW(CacheArray(0, 2), std::invalid_argument);
    EXPECT_THROW(CacheArray(1024, 0), std::invalid_argument);
}

TEST(CacheArray, InstallAndFind)
{
    CacheArray arr(1024, 2); // 8 sets
    EXPECT_EQ(arr.findLine(0x1000), nullptr);
    CacheLineInfo &victim = arr.victimFor(0x1000);
    arr.install(victim, 0x1000, CoherenceState::Exclusive);

    CacheLineInfo *line = arr.findLine(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, CoherenceState::Exclusive);
    EXPECT_FALSE(line->dirty());
    line->state = CoherenceState::Modified;
    EXPECT_TRUE(line->dirty());

    // Any address within the line maps to the same entry.
    EXPECT_EQ(arr.findLine(0x1000 + 63), line);
    EXPECT_EQ(arr.findLine(0x1000 + 64), nullptr);
}

TEST(CacheArray, VictimPrefersInvalid)
{
    CacheArray arr(256, 2); // 2 sets, 2 ways
    // Two lines map to set 0: line addresses 0 and 128.
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    CacheLineInfo &victim = arr.victimFor(128);
    EXPECT_FALSE(victim.valid());
}

TEST(CacheArray, VictimIsLeastRecentlyUsed)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways; set stride is 128
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    // Touch line 0 so that 128 becomes LRU.
    arr.touch(*arr.findLine(0));
    CacheLineInfo &victim = arr.victimFor(256);
    EXPECT_TRUE(victim.valid());
    EXPECT_EQ(victim.lineAddr, 128u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray arr(1024, 2);
    arr.install(arr.victimFor(0x40), 0x40, CoherenceState::Modified);
    EXPECT_TRUE(arr.invalidate(0x40));
    EXPECT_EQ(arr.findLine(0x40), nullptr);
    EXPECT_FALSE(arr.invalidate(0x40));
    EXPECT_EQ(arr.countValid(), 0u);
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    CacheArray arr(1024, 2);
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(64), 64, CoherenceState::Modified);
    int seen = 0;
    arr.forEachValid([&](CacheLineInfo &) { ++seen; });
    EXPECT_EQ(seen, 2);
}

TEST(CacheArray, StateNames)
{
    EXPECT_STREQ(coherenceStateName(CoherenceState::Invalid), "I");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Shared), "S");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Exclusive), "E");
    EXPECT_STREQ(coherenceStateName(CoherenceState::Modified), "M");
}

TEST(CacheArray, SnapshotStateRoundTrips)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways
    arr.install(arr.victimFor(0), 0, CoherenceState::Modified);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    arr.touch(*arr.findLine(0));
    CacheArray::State state = arr.snapshotState();

    // Mutate past the capture, then rewind.
    arr.install(arr.victimFor(256), 256, CoherenceState::Exclusive);
    arr.invalidate(0);
    arr.restoreState(std::move(state));

    EXPECT_EQ(arr.countValid(), 2u);
    ASSERT_NE(arr.findLine(0), nullptr);
    EXPECT_EQ(arr.findLine(0)->state, CoherenceState::Modified);
    ASSERT_NE(arr.findLine(128), nullptr);
    EXPECT_EQ(arr.findLine(256), nullptr);
    // LRU clock is part of the capture: 128 is still the victim.
    EXPECT_EQ(arr.victimFor(256).lineAddr, 128u);
}

TEST(CacheArray, RestoreRejectsChangedGeometry)
{
    CacheArray small(256, 2);
    CacheArray big(1024, 2);
    EXPECT_THROW(big.restoreState(small.snapshotState()),
                 std::logic_error);
    // Same line count (and one block each), different set shape: 8
    // sets x 2 ways must not restore into 4 sets x 4 ways.
    CacheArray twoWay(1024, 2);
    CacheArray fourWay(1024, 4);
    EXPECT_THROW(fourWay.restoreState(twoWay.snapshotState()),
                 std::logic_error);
    EXPECT_THROW(twoWay.restoreState(fourWay.snapshotState()),
                 std::logic_error);
}

// ---------------------------------------------------------------------
// Copy-on-write snapshots
// ---------------------------------------------------------------------

using LineImage = std::tuple<Addr, CoherenceState, std::uint64_t>;

/** Every line slot of a capture in array order, plus its LRU clock. */
std::pair<std::uint64_t, std::vector<LineImage>>
imageOf(const CacheArray::State &state)
{
    std::vector<LineImage> lines;
    const std::size_t perBlock =
        std::size_t{CacheArray::setsPerBlock} * state.ways;
    for (const auto &block : state.blocks)
        for (std::size_t i = 0; i < perBlock; ++i)
            lines.emplace_back(block[i].lineAddr, block[i].state,
                               block[i].lastUse);
    return {state.useClock, lines};
}

/** 4 KiB, 2-way: 32 sets in two copy-on-write blocks. Sets 0-15 are
 * block 0, sets 16-31 block 1; the set stride is 32 lines. */
constexpr Addr setStride = 32 * 64;

/** The valid lines among every address these tests use, through
 * read-only probes (which, unlike a capture, leave the blocks'
 * sharing as it is). */
std::vector<LineImage>
probeAll(const CacheArray &arr)
{
    std::vector<LineImage> lines;
    for (Addr addr = 0; addr < 8 * setStride; addr += 64)
        if (const CacheLineInfo *line = arr.findLine(addr))
            lines.emplace_back(line->lineAddr, line->state,
                               line->lastUse);
    return lines;
}

CacheArray
twoBlockArray()
{
    CacheArray arr(4096, 2);
    EXPECT_EQ(arr.numSets(), 2 * CacheArray::setsPerBlock);
    for (Addr set = 0; set < 32; ++set)
        arr.install(arr.victimFor(set * 64), set * 64,
                    CoherenceState::Exclusive);
    // Fill set 0 and make line 0 its least recently used way.
    arr.install(arr.victimFor(setStride), setStride,
                CoherenceState::Modified);
    return arr;
}

/** Write to every block, so each one is the array's own again and
 * only a later capture or restore can mark it shared. */
void
ownEveryBlock(CacheArray &arr)
{
    arr.forEachValid([](CacheLineInfo &line) { ++line.lastUse; });
}

TEST(CacheArray, EveryMutatorLeavesACaptureUnchanged)
{
    const std::vector<std::pair<const char *,
                                std::function<void(CacheArray &)>>>
        mutators = {
            {"write through findLine",
             [](CacheArray &a) {
                 a.findLine(64)->state = CoherenceState::Modified;
             }},
            {"touch", [](CacheArray &a) { a.touch(*a.findLine(17 * 64)); }},
            {"victimFor + install into a free way",
             [](CacheArray &a) {
                 a.install(a.victimFor(setStride + 64), setStride + 64,
                           CoherenceState::Shared);
             }},
            {"victimFor + install evicting the LRU way",
             [](CacheArray &a) {
                 CacheLineInfo &victim = a.victimFor(2 * setStride);
                 ASSERT_EQ(victim.lineAddr, 0u);
                 a.install(victim, 2 * setStride,
                           CoherenceState::Exclusive);
             }},
            {"invalidate",
             [](CacheArray &a) { EXPECT_TRUE(a.invalidate(20 * 64)); }},
            {"forEachValid",
             [](CacheArray &a) {
                 a.forEachValid([](CacheLineInfo &line) {
                     line.state = CoherenceState::Shared;
                 });
             }},
        };
    for (const auto &[name, mutate] : mutators) {
        SCOPED_TRACE(name);
        CacheArray arr = twoBlockArray();
        ownEveryBlock(arr);
        const auto live = probeAll(arr);
        const CacheArray::State capture = arr.snapshotState();
        const auto before = imageOf(capture);

        mutate(arr);
        EXPECT_NE(probeAll(arr), live); // the live array did change
        EXPECT_EQ(imageOf(capture), before);

        arr.restoreState(capture);
        EXPECT_EQ(probeAll(arr), live);
        EXPECT_EQ(imageOf(arr.snapshotState()), before);
    }
}

TEST(CacheArray, ProbesNeverCopyAndWritesCopyOneBlock)
{
    CacheArray arr = twoBlockArray();
    const CacheArray::State capture = arr.snapshotState();
    ASSERT_EQ(capture.blocks.size(), 2u);
    const auto shared = [&](std::size_t b) {
        return capture.blocks[b].use_count() == 2;
    };
    ASSERT_TRUE(shared(0) && shared(1));

    // Read-only probes, and mutable lookups that miss, share on.
    const CacheArray &view = arr;
    EXPECT_NE(view.findLine(64), nullptr);
    EXPECT_TRUE(arr.contains(17 * 64));
    EXPECT_EQ(arr.findLine(3 * setStride), nullptr);
    EXPECT_FALSE(arr.invalidate(3 * setStride + 64));
    EXPECT_TRUE(shared(0) && shared(1));

    // A write copies its own block and leaves the other shared.
    arr.touch(*arr.findLine(17 * 64));
    EXPECT_TRUE(shared(0));
    EXPECT_FALSE(shared(1));
    arr.findLine(64)->state = CoherenceState::Modified;
    EXPECT_FALSE(shared(0));
}

TEST(CacheArray, TwoCapturesRestoreIndependently)
{
    CacheArray arr = twoBlockArray();
    const auto firstLive = probeAll(arr);
    const CacheArray::State first = arr.snapshotState();
    const auto firstImage = imageOf(first);

    arr.invalidate(0);
    arr.install(arr.victimFor(17 * 64 + setStride), 17 * 64 + setStride,
                CoherenceState::Modified);
    const auto secondLive = probeAll(arr);
    const CacheArray::State second = arr.snapshotState();
    const auto secondImage = imageOf(second);
    ASSERT_NE(firstImage, secondImage);

    ownEveryBlock(arr);
    arr.restoreState(first);
    arr.findLine(5 * 64)->state = CoherenceState::Modified;
    arr.touch(*arr.findLine(17 * 64));
    ownEveryBlock(arr);

    arr.restoreState(second);
    EXPECT_EQ(probeAll(arr), secondLive);
    arr.restoreState(first);
    EXPECT_EQ(probeAll(arr), firstLive);

    EXPECT_EQ(imageOf(first), firstImage);
    EXPECT_EQ(imageOf(second), secondImage);
}

TEST(CacheArray, RestoringOneCaptureTwiceIsIdentical)
{
    CacheArray arr = twoBlockArray();
    const CacheArray::State capture = arr.snapshotState();
    const auto before = imageOf(capture);

    const auto runTail = [](CacheArray &a) {
        // Evictions and hits in both blocks: the LRU order decides
        // every victim, so equal tails mean equal LRU state.
        std::vector<Addr> victims;
        for (Addr i = 0; i < 6; ++i) {
            Addr addr = (i % 2 ? 16 * 64 : 0) + (2 + i) * setStride;
            CacheLineInfo &victim = a.victimFor(addr);
            victims.push_back(victim.valid() ? victim.lineAddr : ~Addr{0});
            a.install(victim, addr, CoherenceState::Modified);
            a.touch(*a.findLine(i * 64 + 64));
        }
        return victims;
    };

    arr.restoreState(capture);
    const auto restored = probeAll(arr);
    const auto victimsOnce = runTail(arr);
    const auto tailOnce = probeAll(arr);

    arr.restoreState(capture);
    EXPECT_EQ(probeAll(arr), restored);
    EXPECT_EQ(runTail(arr), victimsOnce);
    EXPECT_EQ(probeAll(arr), tailOnce);
    EXPECT_EQ(imageOf(capture), before);
}

TEST(CacheArray, WritesAfterRestoreLeaveTheSourceCapture)
{
    CacheArray arr = twoBlockArray();
    const CacheArray::State capture = arr.snapshotState();
    const auto before = imageOf(capture);
    const auto writeBothBlocks = [](CacheArray &a) {
        a.findLine(64)->state = CoherenceState::Modified;
        a.install(a.victimFor(2 * setStride), 2 * setStride,
                  CoherenceState::Shared);
        a.invalidate(17 * 64);
    };

    // The restore, not an earlier capture, must mark the adopted
    // blocks shared.
    ownEveryBlock(arr);
    arr.restoreState(capture);
    writeBothBlocks(arr);
    EXPECT_EQ(imageOf(capture), before);

    CacheArray other(4096, 2);
    other.restoreState(capture);
    writeBothBlocks(other);
    EXPECT_EQ(imageOf(capture), before);
}

TEST(CacheArray, ConflictingLinesShareASet)
{
    CacheArray arr(256, 2); // 2 sets x 2 ways
    // Three conflicting lines for set 0: 0, 128, 256.
    arr.install(arr.victimFor(0), 0, CoherenceState::Shared);
    arr.install(arr.victimFor(128), 128, CoherenceState::Shared);
    CacheLineInfo &victim = arr.victimFor(256);
    ASSERT_TRUE(victim.valid()); // set is full, a valid line must go
    Addr evicted = victim.lineAddr;
    arr.install(victim, 256, CoherenceState::Shared);
    EXPECT_EQ(arr.findLine(evicted), nullptr);
    EXPECT_NE(arr.findLine(256), nullptr);
    EXPECT_EQ(arr.countValid(), 2u);
}

} // namespace
} // namespace strand
