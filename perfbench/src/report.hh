/**
 * @file
 * Output helpers: medians, percentiles, JSON rendering of numbers and
 * strings, and the per-layer metric table derived from a traced pass.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <map>
#include <string>
#include <vector>

#include "trace.hh"
#include "twin.hh"

namespace perfbench
{

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** Nearest-rank percentile (0 < p <= 100) of a non-empty sample. */
double percentile(std::vector<double> values, double p);

/** A JSON string literal for @p raw. */
std::string jsonString(const std::string &raw);

/** A JSON number with all its digits (17 significant). */
std::string jsonNumber(double value);

/** Name, unit and direction of one reported metric. */
struct MetricInfo
{
    std::string name;
    const char *unit;
    /** "lower" or "higher". */
    const char *better;
};

/** The end-to-end metrics reported with tracing off. */
const std::vector<MetricInfo> &endToEndMetrics();

/** The per-layer metrics reported by the traced run. */
const std::vector<MetricInfo> &perLayerMetrics();

/**
 * The per-layer metrics of one traced pass: span self times, the
 * twin's verdict and fuzz tallies, and the simulated counters.
 */
std::map<std::string, double> layerMetrics(const Tracer &tracer,
                                           const TwinOutput &twin);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
