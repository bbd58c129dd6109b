/**
 * @file
 * Unit and statistical tests for the deterministic RNG and the
 * zipfian workload-key generator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.hh"

namespace strand
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, SaveRestoreReplaysIdenticalStream)
{
    // Snapshot support for forked crash exploration: capturing the
    // four-word state mid-stream and restoring it replays the exact
    // remaining sequence, across all draw kinds.
    Rng rng(0xfeed);
    for (int i = 0; i < 37; ++i)
        rng.next();
    auto saved = rng.saveState();

    std::vector<std::uint64_t> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(rng.next());
    double firstDouble = rng.nextDouble();
    std::uint64_t firstBounded = rng.nextBounded(1000);

    rng.restoreState(saved);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.next(), first[i]);
    EXPECT_EQ(rng.nextDouble(), firstDouble);
    EXPECT_EQ(rng.nextBounded(1000), firstBounded);

    // Restoring into a different Rng object works the same way.
    Rng other(1);
    other.restoreState(saved);
    EXPECT_EQ(other.next(), first[0]);
}

TEST(Rng, ZeroBoundPanics)
{
    Rng rng(7);
    EXPECT_THROW(rng.nextBounded(0), std::logic_error);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(11);
    constexpr int buckets = 8;
    constexpr int draws = 80000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < draws; ++i)
        ++counts[rng.nextBounded(buckets)];
    for (int c : counts) {
        // Expected 10000 per bucket; allow 5% deviation.
        EXPECT_GT(c, 9500);
        EXPECT_LT(c, 10500);
    }
}

TEST(MixSeed, IsTheSplitMix64Stream)
{
    // Stream i of a master seed is SplitMix64's i-th output from it
    // (the published outputs for seed 0), so every sub-seed the fuzz
    // campaigns and media faults derive stays put.
    EXPECT_EQ(mixSeed(0, 1), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mixSeed(0, 2), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(mixSeed(0, 3), 0x06c45d188009454fULL);
    EXPECT_NE(mixSeed(1, 1), mixSeed(0, 1));
}

TEST(Zipfian, StaysInDomain)
{
    Rng rng(3);
    ZipfianGenerator zipf(100, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 100u);
}

TEST(Zipfian, SkewFavoursLowIndices)
{
    Rng rng(5);
    ZipfianGenerator zipf(1000, 0.99);
    int low = 0;
    constexpr int draws = 20000;
    for (int i = 0; i < draws; ++i)
        if (zipf.next(rng) < 10)
            ++low;
    // With theta=0.99 over 1000 items the 10 hottest keys should take
    // a large share; uniform would give ~1%.
    EXPECT_GT(low, draws / 4);
}

TEST(Zipfian, ThetaZeroIsNearUniform)
{
    Rng rng(13);
    ZipfianGenerator zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    constexpr int draws = 50000;
    for (int i = 0; i < draws; ++i)
        ++counts[zipf.next(rng)];
    for (int c : counts) {
        EXPECT_GT(c, draws / 10 - draws / 50);
        EXPECT_LT(c, draws / 10 + draws / 50);
    }
}

TEST(Zipfian, InvalidParametersAreFatal)
{
    EXPECT_THROW(ZipfianGenerator(0, 0.5), std::logic_error);
    EXPECT_THROW(ZipfianGenerator(10, 1.0), std::logic_error);
}

} // namespace
} // namespace strand
