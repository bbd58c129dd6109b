/**
 * @file
 * Simulated per-component counters, read from each System's public
 * stat tree (StatGroup::visitStats) after the traced run drives it.
 * These are simulated quantities: identical on every run of a seed.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>

#include "core/system.hh"

namespace perfbench
{

/** Persist-engine counters of one hardware design. */
struct PersistCounters
{
    double clwbs = 0;
    double sfences = 0;
    double barriers = 0;
    double newStrands = 0;
    double joinStrands = 0;
    double pqOccupancySamples = 0;
    double pqOccupancyTotal = 0;
    double flushLatencySamples = 0;
    double flushLatencyTotal = 0;
};

/** Counters summed over every System the traced run drove. */
struct SimCounters
{
    /** Kernel events serviced. */
    double events = 0;

    /** @name cpu @{ */
    double committed = 0;
    double cycles = 0;
    double stallCycles = 0;
    double persistStallCycles = 0;
    double sqOccupancySamples = 0;
    double sqOccupancyTotal = 0;
    /** @} */

    /** @name mem (PM controller; retries include DRAM) @{ */
    double pmReads = 0;
    double pmWrites = 0;
    double rowHits = 0;
    double rowMisses = 0;
    double readLatencySamples = 0;
    double readLatencyTotal = 0;
    double portRetries = 0;
    /** @} */

    /** @name cache @{ */
    double loadHits = 0;
    double loadMisses = 0;
    double storeHits = 0;
    double storeMisses = 0;
    double snoopStalls = 0;
    double writebackStalls = 0;
    double flushesDirty = 0;
    /** @} */

    /** Keyed by the short design name (designKey()). */
    std::map<std::string, PersistCounters> persist;

    /** Add @p sys's stat tree, run under @p design, to the totals. */
    void collect(strand::System &sys, strand::HwDesign design);

    /**
     * The simulated per-layer metrics, named "<layer>.<metric>";
     * persist metrics carry the design: "persist.<design>.clwbs".
     */
    std::map<std::string, double> metrics() const;
};

/** Short metric-name key of a design: x86, hops, nopq, sw, nonatomic. */
const char *designKey(strand::HwDesign design);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
