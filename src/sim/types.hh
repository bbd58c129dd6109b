/**
 * @file
 * Fundamental simulator types: ticks, cycles, addresses.
 *
 * Following the gem5 convention, a Tick is one picosecond of simulated
 * time. Clocked components convert between ticks and their own cycles
 * via a clock period. The evaluated system runs at 2 GHz, so one cycle
 * is coreClockPeriod (500) ticks.
 */

#ifndef SIM_TYPES_HH
#define SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace strand
{

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A memory address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Identifier for a core / hardware thread. */
using CoreId = std::uint32_t;

/** Monotonic identifier for an operation within a thread's stream. */
using SeqNum = std::uint64_t;

/** The maximum representable tick; used as "never". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Ticks per nanosecond. */
constexpr Tick ticksPerNs = 1000;

/**
 * Ticks per clock cycle of the evaluated 2 GHz system: the cores'
 * default period, the memory controllers' clock, a port leg's default
 * latency and the event queue's wheel slot.
 */
constexpr Tick coreClockPeriod = 500;

/**
 * A count of clock cycles. Thin wrapper so that cycle and tick
 * quantities cannot be mixed accidentally.
 */
class Cycles
{
  public:
    constexpr Cycles() : count(0) {}
    constexpr explicit Cycles(std::uint64_t c) : count(c) {}

    constexpr std::uint64_t value() const { return count; }

    constexpr Cycles
    operator+(Cycles other) const
    {
        return Cycles(count + other.count);
    }

    constexpr Cycles
    operator-(Cycles other) const
    {
        return Cycles(count - other.count);
    }

    Cycles &
    operator+=(Cycles other)
    {
        count += other.count;
        return *this;
    }

    constexpr auto operator<=>(const Cycles &) const = default;

  private:
    std::uint64_t count;
};

/**
 * Convert a duration in nanoseconds to ticks.
 */
constexpr Tick
nsToTicks(std::uint64_t ns)
{
    return ns * ticksPerNs;
}

} // namespace strand

#endif // SIM_TYPES_HH
