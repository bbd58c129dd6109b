#include "layers.hh"

#include <numeric>
#include <vector>

namespace perfbench
{

using strand::HwDesign;

const char *
designKey(HwDesign design)
{
    switch (design) {
      case HwDesign::IntelX86:
        return "x86";
      case HwDesign::Hops:
        return "hops";
      case HwDesign::NoPersistQueue:
        return "nopq";
      case HwDesign::StrandWeaver:
        return "sw";
      case HwDesign::NonAtomic:
        return "nonatomic";
    }
    return "?";
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Split "system.cpu0.engine.clwbs" into its dotted components. */
std::vector<std::string>
components(const std::string &name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        std::size_t dot = name.find('.', start);
        parts.push_back(name.substr(start, dot - start));
        if (dot == std::string::npos)
            return parts;
        start = dot + 1;
    }
}

} // namespace

void
SimCounters::collect(strand::System &sys, HwDesign design)
{
    events += static_cast<double>(sys.eventsServiced());
    persistStallCycles += sys.totalPersistStalls();
    PersistCounters &engine = persist[designKey(design)];

    sys.visitStats([&](const std::string &name,
                       const strand::stats::StatBase &stat) {
        const std::vector<double> values = stat.snapshotValues();
        // Scalars hold one value, vectors one per bucket, histograms
        // {samples, total, min, max}.
        const double sum =
            std::accumulate(values.begin(), values.end(), 0.0);
        const double samples = values.empty() ? 0.0 : values[0];
        const double total = values.size() == 4 ? values[1] : 0.0;
        const std::vector<std::string> path = components(name);
        if (path.size() < 3)
            return;
        const std::string &group = path[1];
        const std::string &leaf = path.back();

        if (group == "pm" || group == "dram") {
            if (leaf == "retries")
                portRetries += sum;
            if (group == "dram")
                return;
            if (leaf == "reads")
                pmReads += sum;
            else if (leaf == "writes")
                pmWrites += sum;
            else if (leaf == "rowHits")
                rowHits += sum;
            else if (leaf == "rowMisses")
                rowMisses += sum;
            else if (leaf == "readLatency") {
                readLatencySamples += samples;
                readLatencyTotal += total;
            }
        } else if (group == "caches") {
            if (leaf == "loadHits")
                loadHits += sum;
            else if (leaf == "loadMisses")
                loadMisses += sum;
            else if (leaf == "storeHits")
                storeHits += sum;
            else if (leaf == "storeMisses")
                storeMisses += sum;
            else if (leaf == "snoopStalls")
                snoopStalls += sum;
            else if (leaf == "writebackStalls")
                writebackStalls += sum;
            else if (leaf == "flushesDirty")
                flushesDirty += sum;
        } else if (group.rfind("cpu", 0) == 0 && path.size() == 3) {
            if (leaf == "committed")
                committed += sum;
            else if (leaf == "cycles")
                cycles += sum;
            else if (leaf == "stallCycles")
                stallCycles += sum;
            else if (leaf == "sqOccupancy") {
                sqOccupancySamples += samples;
                sqOccupancyTotal += total;
            }
        } else if (group.rfind("cpu", 0) == 0 && path[2] == "engine") {
            // Engine-level counters sit at depth 4; the strand buffer
            // unit's flush latency one level deeper (engine.sbu).
            if (leaf == "flushLatency") {
                engine.flushLatencySamples += samples;
                engine.flushLatencyTotal += total;
            } else if (path.size() != 4) {
                return;
            } else if (leaf == "clwbs") {
                engine.clwbs += sum;
            } else if (leaf == "sfences") {
                engine.sfences += sum;
            } else if (leaf == "barriers") {
                engine.barriers += sum;
            } else if (leaf == "newStrands") {
                engine.newStrands += sum;
            } else if (leaf == "joinStrands") {
                engine.joinStrands += sum;
            } else if (leaf == "pqOccupancy") {
                engine.pqOccupancySamples += samples;
                engine.pqOccupancyTotal += total;
            }
        }
    });
}

std::map<std::string, double>
SimCounters::metrics() const
{
    std::map<std::string, double> m;
    m["sim.events"] = events;
    m["sim.events_per_op"] = ratio(events, committed);

    m["cpu.committed"] = committed;
    m["cpu.cycles"] = cycles;
    m["cpu.stall_cycles"] = stallCycles;
    m["cpu.persist_stall_cycles"] = persistStallCycles;
    m["cpu.sq_occupancy_mean"] =
        ratio(sqOccupancyTotal, sqOccupancySamples);

    m["mem.pm_reads"] = pmReads;
    m["mem.pm_writes"] = pmWrites;
    m["mem.row_hit_ratio"] = ratio(rowHits, rowHits + rowMisses);
    m["mem.read_latency_mean"] =
        ratio(readLatencyTotal, readLatencySamples);
    m["mem.port_retries"] = portRetries;

    m["cache.accesses"] = loadHits + loadMisses + storeHits + storeMisses;
    m["cache.load_hit_ratio"] = ratio(loadHits, loadHits + loadMisses);
    m["cache.store_hit_ratio"] =
        ratio(storeHits, storeHits + storeMisses);
    m["cache.snoop_stalls"] = snoopStalls;
    m["cache.writeback_stalls"] = writebackStalls;
    m["cache.flushes_dirty"] = flushesDirty;

    for (HwDesign design : strand::allDesigns) {
        const std::string prefix =
            std::string("persist.") + designKey(design) + ".";
        auto it = persist.find(designKey(design));
        const PersistCounters p =
            it == persist.end() ? PersistCounters{} : it->second;
        m[prefix + "clwbs"] = p.clwbs;
        m[prefix + "sfences"] = p.sfences;
        m[prefix + "barriers"] = p.barriers;
        m[prefix + "new_strands"] = p.newStrands;
        m[prefix + "join_strands"] = p.joinStrands;
        m[prefix + "pq_occupancy_mean"] =
            ratio(p.pqOccupancyTotal, p.pqOccupancySamples);
        m[prefix + "flush_latency_mean"] =
            ratio(p.flushLatencyTotal, p.flushLatencySamples);
    }
    return m;
}

} // namespace perfbench
