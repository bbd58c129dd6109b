#include "sim/random.hh"

#include <cmath>

namespace strand
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    // The stream-th output of SplitMix64 started from seed: the
    // standard way to fan one master seed out into independent streams.
    std::uint64_t x = seed + (stream - 1) * 0x9e3779b97f4a7c15ULL;
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed through splitmix64 so that nearby seeds give
    // uncorrelated streams, per the xoshiro authors' recommendation.
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;

    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    panicIf(bound == 0, "nextBounded with zero bound");
    // Debiased modulo via rejection sampling.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    return (next() >> 11) * (1.0 / 9007199254740992.0);
}

namespace
{

double
zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

} // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n(n), theta(theta)
{
    panicIf(n == 0, "zipfian over empty domain");
    panicIf(theta < 0.0 || theta >= 1.0, "zipfian theta must be in [0,1)");
    zetan = zeta(n, theta);
    double zeta2 = zeta(2, theta);
    alpha = 1.0 / (1.0 - theta);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
          (1.0 - zeta2 / zetan);
}

std::uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    double u = rng.nextDouble();
    double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta))
        return 1;
    auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
    return idx >= n ? n - 1 : idx;
}

} // namespace strand
