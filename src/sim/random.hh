/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload key choice,
 * zipfian skew, crash-point selection in tests) draws from Rng so
 * that every run is reproducible from a single seed.
 */

#ifndef SIM_RANDOM_HH
#define SIM_RANDOM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace strand
{

/**
 * xoshiro256** generator. Small, fast, and adequate for workload
 * generation; not cryptographic.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL);

    /** @return a uniform 64-bit value. */
    std::uint64_t next();

    /** @return a uniform value in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** @return a uniform value in [lo, hi]. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        panicIf(lo > hi, "nextRange with lo > hi");
        return lo + nextBounded(hi - lo + 1);
    }

    /** @return a uniform double in [0, 1). */
    double nextDouble();

    /** @return true with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

    /** @name Snapshot support (forked crash exploration) @{ */

    /** Capture the full generator state. */
    std::array<std::uint64_t, 4>
    saveState() const
    {
        return {state[0], state[1], state[2], state[3]};
    }

    /** Rewind to a state captured with saveState(). */
    void
    restoreState(const std::array<std::uint64_t, 4> &saved)
    {
        for (unsigned i = 0; i < 4; ++i)
            state[i] = saved[i];
    }

    /** @} */

  private:
    std::uint64_t state[4];
};

/** SplitMix64 — derives independent sub-seeds from a master seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/**
 * Zipfian distribution over [0, n) with skew theta, computed with the
 * standard Gray et al. rejection-free method. Used by the N-Store
 * YCSB-style load generator.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param n Number of items.
     * @param theta Skew in [0, 1); 0 is uniform, 0.99 is YCSB default.
     */
    ZipfianGenerator(std::uint64_t n, double theta);

    /** @return a zipf-distributed item index in [0, n). */
    std::uint64_t next(Rng &rng) const;

    std::uint64_t items() const { return n; }

  private:
    std::uint64_t n;
    double theta;
    double alpha;
    double zetan;
    double eta;
};

} // namespace strand

#endif // SIM_RANDOM_HH
