/**
 * @file
 * perfbench: the StrandWeaver end-to-end benchmark.
 *
 *   perfbench --workload <timing_fig7|crash_forked|fuzz_trials>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--reference <file>] [--out-dir <dir>] [--commit <id>]
 *
 * One process, one sweep worker. Set-up records the workloads from the
 * seed (several times; the median is setup_s). With --trace 0 the
 * workload's sweep then runs through the simulator's own runSweep,
 * pass after pass, until --seconds have elapsed; wall_s sums each
 * cell's fastest time over the passes. With --trace 1 each
 * untraced pass is followed by a traced twin pass (twin.hh) whose
 * simulated results must equal the untraced ones, and the per-layer
 * metrics are reported. Every run checks the outputs; the last line
 * of standard output is the JSON result.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "core/env_config.hh"
#include "report.hh"
#include "twin.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace
{

struct Args
{
    WorkloadId workload = WorkloadId::TimingFig7;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string outDir;
    std::string commit = "unknown";
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<timing_fig7|crash_forked|fuzz_trials> --seed <n> "
                 "--seconds <s> --trace <0|1> [--reference <file>] "
                 "[--out-dir <dir>] [--commit <id>]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &args, std::string &error)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            error = "missing value for " + flag;
            return false;
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                auto id = parseWorkload(value);
                if (!id) {
                    error = "unknown workload '" + value + "'";
                    return false;
                }
                args.workload = *id;
                haveWorkload = true;
            } else if (flag == "--seed") {
                std::size_t used = 0;
                args.seed = std::stoull(value, &used, 0);
                if (used != value.size() || value[0] == '-')
                    throw std::invalid_argument(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                if (!(args.seconds > 0))
                    throw std::invalid_argument(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    throw std::invalid_argument(value);
                args.trace = value == "1";
            } else if (flag == "--reference") {
                args.reference = value;
            } else if (flag == "--out-dir") {
                args.outDir = value;
            } else if (flag == "--commit") {
                args.commit = value;
            } else {
                error = "unknown flag " + flag;
                return false;
            }
        } catch (const std::exception &) {
            error = "bad value '" + value + "' for " + flag;
            return false;
        }
    }
    if (!haveWorkload)
        error = "--workload is required";
    return haveWorkload;
}

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_minflt);
}

std::string
hex(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** The recorded digest of (workload, seed), or empty. */
std::string
referenceDigest(const std::string &path, WorkloadId workload,
                std::uint64_t seed)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, digest;
        std::uint64_t s = 0;
        if (line.empty() || line[0] == '#' ||
            !(fields >> name >> s >> digest))
            continue;
        if (name == workloadIdName(workload) && s == seed)
            return digest;
    }
    return "";
}

/** Every output check of the run; misses print by name. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> misses;

    void
    add(const std::string &name, bool ok, const std::string &detail = "")
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        misses.push_back(name + (detail.empty() ? "" : ": " + detail));
        std::printf("MISS %s%s%s\n", name.c_str(),
                    detail.empty() ? "" : ": ", detail.c_str());
    }
};

/** One pass of the sweep through the simulator's own runSweep. */
struct UntracedPass
{
    strand::SweepResult result;
    double seconds = 0;
    double minorFaults = 0;
    std::uint64_t digest = 0;
};

/** Run, time and check one untraced pass. */
UntracedPass
untracedPass(WorkloadId id, const strand::SweepSpec &spec,
             Checks &checks, const std::string &label)
{
    UntracedPass pass;
    const double faults = minorFaults();
    const auto start = Clock::now();
    pass.result = strand::runSweep(spec);
    pass.seconds = secondsSince(start);
    pass.minorFaults = minorFaults() - faults;
    for (const Check &check : checkCells(id, pass.result))
        checks.add(label + check.name, check.ok, check.detail);
    pass.digest = digestOf(pass.result);
    return pass;
}

/** The traced twin must reproduce the untraced sweep exactly. */
void
checkTwin(const UntracedPass &untraced, const TwinOutput &twin,
          const std::vector<std::uint64_t> &referenceHashes,
          Checks &checks)
{
    checks.add("twin digest", digestOf(twin.result) == untraced.digest,
               hex(digestOf(twin.result)) + " vs untraced " +
                   hex(untraced.digest));
    for (std::size_t i = 0; i < untraced.result.cells.size(); ++i) {
        const strand::CellResult &a = untraced.result.cells[i];
        const strand::CellResult &b = twin.result.cells[i];
        if (a.kind == strand::CellKind::Timing) {
            checks.add("twin run_ticks " + a.key,
                       a.metrics.runTicks == b.metrics.runTicks,
                       std::to_string(b.metrics.runTicks) + " vs " +
                           std::to_string(a.metrics.runTicks));
        } else if (a.kind == strand::CellKind::Crash) {
            const auto &x = a.crash;
            const auto &y = b.crash;
            checks.add("twin verdicts " + a.key,
                       x.verdictFull == y.verdictFull &&
                           x.verdictDegraded == y.verdictDegraded &&
                           x.verdictFailed == y.verdictFailed &&
                           x.pointsTested == y.pointsTested &&
                           x.pointsPassed == y.pointsPassed);
        }
    }
    if (!referenceHashes.empty()) {
        checks.add("twin fuzz trace hashes",
                   twin.trialHashes == referenceHashes,
                   std::to_string(twin.trialHashes.size()) + " trials");
    }
}

/**
 * One traced twin pass after the untraced pass @p untraced: checks
 * the twin against it and keeps the pass's per-layer metrics.
 */
void
tracedPass(const strand::SweepSpec &spec, const UntracedPass &untraced,
           Checks &checks, std::vector<std::uint64_t> &referenceHashes,
           std::vector<double> &tracedSeconds,
           std::vector<std::map<std::string, double>> &layerPasses,
           std::unique_ptr<Tracer> &lastTracer)
{
    if (referenceHashes.empty())
        referenceHashes = referenceTrialHashes(spec);
    auto tracer = std::make_unique<Tracer>();
    const auto start = Clock::now();
    TwinOutput twin = runTwin(spec, *tracer);
    tracedSeconds.push_back(secondsSince(start));
    checkTwin(untraced, twin, referenceHashes, checks);
    layerPasses.push_back(layerMetrics(*tracer, twin));
    lastTracer = std::move(tracer);
}

void
printMetricLine(const char *name, double value, const char *unit,
                const char *note = "")
{
    std::printf("  %-30s %18.6g %-8s %s\n", name, value, unit, note);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string error;
    if (!parseArgs(argc, argv, args, error))
        return usage(error.c_str());
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report numbers from an "
                         "unoptimised build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    pinEnvironment();
    // Keep freed memory in the process. With glibc's defaults the crash
    // harness hands its image clones and snapshots back to the kernel
    // and faults them in again (about 600k page faults and a fifth of
    // the wall time per crash_forked pass), and the service time of a
    // page fault in a virtual machine swings by multiples with the
    // load of other guests. host.minor_faults keeps the count visible.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);

    const char *workloadName = workloadIdName(args.workload);
    const unsigned nproc = std::thread::hardware_concurrency();
    std::ostringstream host;
    host << "{\"nproc\": " << nproc << ", \"compiler\": "
         << jsonString(std::string("gcc ") + __VERSION__)
         << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
         << ", \"commit\": " << jsonString(args.commit)
         << ", \"sw_jobs\": " << strand::envJobs() << "}";
    std::printf("perfbench %s seed %llu trace %d\nhost %s\n", workloadName,
                static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
                host.str().c_str());

    const Sizes sizes;
    Checks checks;

    // Set-up: record the workloads at least nine times and for at
    // least half a second; setup_s is the median. A crash_forked
    // set-up takes about 2 ms, and the first milliseconds of a process
    // run at whatever speed the host core idled at.
    std::vector<double> setupSeconds;
    double setupTotal = 0;
    strand::SweepSpec spec;
    while (setupSeconds.size() < 9 ||
           (setupTotal < 0.5 && setupSeconds.size() < 1000)) {
        const auto start = Clock::now();
        spec = buildInputs(args.workload, args.seed, sizes);
        setupSeconds.push_back(secondsSince(start));
        setupTotal += setupSeconds.back();
    }

    const std::string reference =
        args.reference.empty()
            ? ""
            : referenceDigest(args.reference, args.workload, args.seed);
    std::optional<std::uint64_t> firstDigest;
    auto checkDigest = [&](const UntracedPass &pass,
                           const std::string &label) {
        if (!firstDigest)
            firstDigest = pass.digest;
        checks.add(label + "digest repeats", pass.digest == *firstDigest,
                   hex(pass.digest) + " vs " + hex(*firstDigest));
        if (!reference.empty())
            checks.add(label + "digest matches reference",
                       hex(pass.digest) == reference,
                       hex(pass.digest) + " vs " + reference);
    };

    std::vector<double> passSeconds;
    std::vector<double> passFaults;
    std::vector<std::vector<double>> passCellMs;
    // Each cell's fastest time over the passes. Cells are fixed,
    // deterministic work; a slower repetition of the same cell
    // measures only interference from other load on the host.
    std::vector<double> bestCellMs;
    std::vector<double> tracedSeconds;
    std::vector<std::map<std::string, double>> layerPasses;
    std::vector<std::uint64_t> referenceHashes;
    std::unique_ptr<Tracer> lastTracer;
    UntracedPass last;
    const auto runStart = Clock::now();
    int passNo = 0;
    double iterationSeconds = 0;
    do {
        const auto iterationStart = Clock::now();
        ++passNo;
        const std::string label = "pass " + std::to_string(passNo) + ": ";
        last = untracedPass(args.workload, spec, checks, label);
        passSeconds.push_back(last.seconds);
        passFaults.push_back(last.minorFaults);
        passCellMs.emplace_back();
        for (const strand::CellResult &cell : last.result.cells)
            passCellMs.back().push_back(cell.host.wallMs);
        bestCellMs.resize(passCellMs.back().size(), 1e300);
        for (std::size_t i = 0; i < bestCellMs.size(); ++i)
            bestCellMs[i] = std::min(bestCellMs[i], passCellMs.back()[i]);
        checkDigest(last, label);
        if (args.trace)
            tracedPass(spec, last, checks, referenceHashes, tracedSeconds,
                       layerPasses, lastTracer);
        iterationSeconds = secondsSince(iterationStart);
    } while (secondsSince(runStart) + iterationSeconds / 2 < args.seconds);

    double bestMs = 0;
    for (double ms : bestCellMs)
        bestMs += ms;
    const double wall = bestMs / 1e3;
    const double setup = median(setupSeconds);
    const double ops = static_cast<double>(simOps(last.result));
    const double states = static_cast<double>(statesValidated(last.result));
    const double ticks = simTicks(last.result);
    const double paperErr = paperErrPct(last.result);
    const double failedRatio =
        static_cast<double>(checks.failed) /
        static_cast<double>(std::max<std::uint64_t>(checks.attempted, 1));

    std::map<std::string, double> metrics;
    if (!args.trace) {
        metrics["wall_s"] = wall;
        metrics["sim_ops_per_s"] = ops / wall;
        metrics["checks_per_s"] = states / wall;
        metrics["setup_s"] = setup;
        metrics["peak_rss_mb"] = peakRssMb();
    } else {
        for (const MetricInfo &info : perLayerMetrics()) {
            std::vector<double> values;
            for (const auto &pass : layerPasses) {
                auto it = pass.find(info.name);
                values.push_back(it == pass.end() ? 0.0 : it->second);
            }
            metrics[info.name] = values.empty() ? 0.0 : median(values);
        }
        metrics["trace.wall_s"] = median(tracedSeconds);
        metrics["trace.overhead_s"] =
            median(tracedSeconds) - median(passSeconds);
        metrics["host.minor_faults"] = median(passFaults);
        metrics["sim_ticks"] = ticks;
        metrics["paper_err_pct"] = paperErr;
        metrics["failed_ratio"] = failedRatio;
    }

    const std::string digestNote =
        reference.empty() ? "no reference for this seed: checked for "
                            "repeats only"
        : hex(last.digest) == reference ? "matches reference"
                                        : "DIFFERS from reference " + reference;
    std::printf("\n%s: %d pass(es) of %zu cells\ndigest %s (%s)\n",
                workloadName, passNo, spec.cells.size(),
                hex(last.digest).c_str(), digestNote.c_str());
    std::printf("end to end (%zu passes, tracing off; wall_s sums each "
                "cell's fastest pass):\n",
                passSeconds.size());
    printMetricLine("wall_s", wall, "s");
    printMetricLine("pass_median_s", median(passSeconds), "s");
    printMetricLine("sim_ops_per_s", ops / wall, "1/s");
    printMetricLine("checks_per_s", states / wall, "1/s");
    printMetricLine("setup_s", setup, "s");
    printMetricLine("peak_rss_mb", peakRssMb(), "MB");
    const bool timing = args.workload == WorkloadId::TimingFig7;
    printMetricLine("sim_ticks", ticks, "ticks",
                    timing ? "" : "(no timing cells)");
    printMetricLine("paper_err_pct", paperErr, "%",
                    timing ? "" : "(no timing cells)");
    printMetricLine("failed_ratio", failedRatio, "ratio");
    if (args.trace) {
        std::printf("per layer (median of %zu traced passes):\n",
                    layerPasses.size());
        for (const MetricInfo &info : perLayerMetrics())
            printMetricLine(info.name.c_str(), metrics[info.name], info.unit);
    }

    if (!args.outDir.empty()) {
        std::ofstream out(args.outDir + "/" + workloadName + "-seed" +
                          std::to_string(args.seed) + "-trace" +
                          (args.trace ? "1" : "0") + ".json");
        out << "{\"workload\": " << jsonString(workloadName)
            << ", \"seed\": " << args.seed << ", \"host\": " << host.str()
            << ", \"digest\": " << jsonString(hex(last.digest))
            << ",\n \"pass_s\": " << jsonArray(passSeconds)
            << ",\n \"cell_ms\": [";
        for (std::size_t i = 0; i < passCellMs.size(); ++i)
            out << (i ? ", " : "") << jsonArray(passCellMs[i]);
        out << "],\n \"traced_pass_s\": " << jsonArray(tracedSeconds)
            << ",\n \"setup_s\": " << jsonArray(setupSeconds)
            << ",\n \"misses\": [";
        for (std::size_t i = 0; i < checks.misses.size(); ++i)
            out << (i ? ", " : "") << jsonString(checks.misses[i]);
        out << "],\n \"metrics\": {";
        const char *sep = "";
        for (const auto &[name, value] : metrics) {
            out << sep << jsonString(name) << ": " << jsonNumber(value);
            sep = ", ";
        }
        out << "},\n \"spans\": [";
        if (lastTracer) {
            sep = "\n  ";
            for (const Span &span : lastTracer->spans()) {
                out << sep << "[" << jsonString(span.name) << ", "
                    << span.parent << ", " << span.cell << ", "
                    << jsonNumber(span.startNs) << ", "
                    << jsonNumber(span.durationNs) << "]";
                sep = ",\n  ";
            }
        }
        out << "]}\n";
    }

    const std::vector<MetricInfo> &reported =
        args.trace ? perLayerMetrics() : endToEndMetrics();
    std::ostringstream line;
    line << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << checks.attempted
         << ", \"failed\": " << checks.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < reported.size(); ++i) {
        line << (i ? ", " : "") << jsonString(reported[i].name)
             << ": {\"value\": " << jsonNumber(metrics[reported[i].name])
             << ", \"unit\": " << jsonString(reported[i].unit) << "}";
    }
    line << "}}";
    std::fflush(stdout);
    std::cout << line.str() << std::endl;
    return 0;
}
