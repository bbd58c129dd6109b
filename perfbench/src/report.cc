#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::invalid_argument("percentile of an empty sample");
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t index =
        static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::string
jsonString(const std::string &raw)
{
    std::string out = "\"";
    for (char c : raw) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

const std::vector<MetricInfo> &
endToEndMetrics()
{
    static const std::vector<MetricInfo> metrics = {
        {"wall_s", "s", "lower"},
        {"sim_ops_per_s", "1/s", "higher"},
        {"checks_per_s", "1/s", "higher"},
        {"setup_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return metrics;
}

namespace
{

/** Persist-engine metrics, repeated per design. */
const MetricInfo persistMetrics[] = {
    {"clwbs", "count", "lower"},
    {"sfences", "count", "lower"},
    {"barriers", "count", "lower"},
    {"new_strands", "count", "lower"},
    {"join_strands", "count", "lower"},
    {"pq_occupancy_mean", "entries", "lower"},
    {"flush_latency_mean", "ticks", "lower"},
};

const char *const designKeys[] = {"x86", "hops", "nopq", "sw",
                                  "nonatomic"};

const char *const spanLayers[] = {"bench", "core", "crash", "fuzz",
                                  "mem", "runtime", "sanitizer",
                                  "workloads"};

std::vector<MetricInfo>
buildPerLayer()
{
    std::vector<MetricInfo> m = {
        {"sim.events", "count", "lower"},
        {"sim.ns_per_event", "ns", "lower"},
        {"sim.events_per_op", "events/op", "lower"},
        {"core.run_ms", "ms", "lower"},
        {"core.build_ms", "ms", "lower"},
        {"core.snapshot_ms", "ms", "lower"},
        {"core.restore_ms", "ms", "lower"},
        {"runtime.lower_ms", "ms", "lower"},
        {"runtime.recover_ms.faithful", "ms", "lower"},
        {"runtime.recover_ms.paged", "ms", "lower"},
        {"runtime.recover_us_p50", "us", "lower"},
        {"runtime.recover_us_p99", "us", "lower"},
        {"runtime.recover_calls", "count", "lower"},
        {"mem.clone_ms", "ms", "lower"},
        {"mem.rewind_ms", "ms", "lower"},
        {"mem.pm_reads", "count", "lower"},
        {"mem.pm_writes", "count", "lower"},
        {"mem.row_hit_ratio", "ratio", "higher"},
        {"mem.read_latency_mean", "ticks", "lower"},
        {"mem.port_retries", "count", "lower"},
        {"cache.accesses", "count", "lower"},
        {"cache.load_hit_ratio", "ratio", "higher"},
        {"cache.store_hit_ratio", "ratio", "higher"},
        {"cache.snoop_stalls", "count", "lower"},
        {"cache.writeback_stalls", "count", "lower"},
        {"cache.flushes_dirty", "count", "lower"},
        {"cpu.committed", "count", "higher"},
        {"cpu.cycles", "count", "lower"},
        {"cpu.stall_cycles", "count", "lower"},
        {"cpu.persist_stall_cycles", "count", "lower"},
        {"cpu.sq_occupancy_mean", "entries", "lower"},
    };
    for (const char *design : designKeys)
        for (const MetricInfo &info : persistMetrics)
            m.push_back({std::string("persist.") + design + "." + info.name,
                         info.unit, info.better});
    const std::vector<MetricInfo> tail = {
        {"crash.oracle_ms", "ms", "lower"},
        {"crash.points_injected", "count", "higher"},
        {"crash.verdict_full", "count", "higher"},
        {"crash.verdict_degraded", "count", "lower"},
        {"crash.verdict_failed", "count", "lower"},
        {"workloads.record_ms", "ms", "lower"},
        {"workloads.check_ms", "ms", "lower"},
        {"fuzz.queries", "count", "higher"},
        {"fuzz.holds", "count", "higher"},
        {"fuzz.shrink_ms", "ms", "lower"},
        {"fuzz.shrink_replays", "count", "lower"},
        {"fuzz.failing_trials", "count", "higher"},
        {"sanitizer.observe_ms", "ms", "lower"},
        {"sanitizer.persists_checked", "count", "higher"},
        {"layer.self_ms.bench", "ms", "lower"},
        {"layer.self_ms.core", "ms", "lower"},
        {"layer.self_ms.crash", "ms", "lower"},
        {"layer.self_ms.fuzz", "ms", "lower"},
        {"layer.self_ms.mem", "ms", "lower"},
        {"layer.self_ms.runtime", "ms", "lower"},
        {"layer.self_ms.sanitizer", "ms", "lower"},
        {"layer.self_ms.workloads", "ms", "lower"},
        {"host.minor_faults", "count", "lower"},
        {"trace.wall_s", "s", "lower"},
        {"trace.overhead_s", "s", "lower"},
        {"sim_ticks", "ticks", "lower"},
        {"paper_err_pct", "%", "lower"},
        {"failed_ratio", "ratio", "lower"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
}

} // namespace

const std::vector<MetricInfo> &
perLayerMetrics()
{
    static const std::vector<MetricInfo> metrics = buildPerLayer();
    return metrics;
}

std::map<std::string, double>
layerMetrics(const Tracer &tracer, const TwinOutput &twin)
{
    const std::map<std::string, SpanTotals> totals =
        spanTotals(tracer.spans());
    auto selfMs = [&totals](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfNs / 1e6;
    };

    std::map<std::string, double> m = twin.sim.metrics();
    m["sim.ns_per_event"] =
        m["sim.events"] > 0 ? selfMs("core.run") * 1e6 / m["sim.events"]
                            : 0.0;
    m["core.run_ms"] = selfMs("core.run");
    m["core.build_ms"] = selfMs("core.build");
    m["core.snapshot_ms"] = selfMs("core.snapshot");
    m["core.restore_ms"] = selfMs("core.restore");
    m["runtime.lower_ms"] = selfMs("runtime.lower");
    m["runtime.recover_ms.faithful"] = selfMs("runtime.recover.faithful");
    m["runtime.recover_ms.paged"] = selfMs("runtime.recover.paged");
    m["mem.clone_ms"] = selfMs("mem.clone");
    m["mem.rewind_ms"] = selfMs("mem.rewind");
    m["crash.oracle_ms"] = selfMs("crash.oracle");
    m["workloads.record_ms"] = selfMs("workloads.record");
    m["workloads.check_ms"] = selfMs("workloads.check");
    m["fuzz.shrink_ms"] = selfMs("fuzz.shrink");
    m["sanitizer.observe_ms"] = selfMs("sanitizer.observe");

    std::vector<double> recoverUs;
    for (const Span &span : tracer.spans())
        if (std::string(span.name).rfind("runtime.recover.", 0) == 0)
            recoverUs.push_back(span.durationNs / 1e3);
    m["runtime.recover_calls"] = static_cast<double>(recoverUs.size());
    m["runtime.recover_us_p50"] =
        recoverUs.empty() ? 0.0 : percentile(recoverUs, 50);
    m["runtime.recover_us_p99"] =
        recoverUs.empty() ? 0.0 : percentile(recoverUs, 99);

    const std::map<std::string, double> layers = layerSelfNs(totals);
    for (const char *layer : spanLayers) {
        auto it = layers.find(layer);
        m[std::string("layer.self_ms.") + layer] =
            it == layers.end() ? 0.0 : it->second / 1e6;
    }

    double injected = 0, queries = 0, holds = 0, failing = 0;
    for (const strand::CellResult &cell : twin.result.cells) {
        injected += cell.crash.pointsInjected +
                    static_cast<double>(cell.fuzz.pointsChecked);
        queries += static_cast<double>(cell.fuzz.queries);
        holds += static_cast<double>(cell.fuzz.holds);
        failing += cell.fuzz.failingTrials;
    }
    m["crash.points_injected"] = injected;
    m["crash.verdict_full"] = static_cast<double>(twin.verdictFull);
    m["crash.verdict_degraded"] =
        static_cast<double>(twin.verdictDegraded);
    m["crash.verdict_failed"] = static_cast<double>(twin.verdictFailed);
    m["fuzz.queries"] = queries;
    m["fuzz.holds"] = holds;
    m["fuzz.shrink_replays"] = static_cast<double>(twin.shrinkReplays);
    m["fuzz.failing_trials"] = failing;
    m["sanitizer.persists_checked"] =
        static_cast<double>(twin.persistsChecked);
    return m;
}

} // namespace perfbench
