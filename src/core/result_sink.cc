#include "core/result_sink.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "core/env_config.hh"

namespace strand
{

namespace
{

/** JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 2);
    for (char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Deterministic number rendering: integral values (the common case —
 * tick and event counts held in doubles) print exactly, the rest
 * round-trip at 17 significant digits. Identical inputs yield
 * identical bytes, which is what makes SW_JOBS=8 output diffable
 * against SW_JOBS=1.
 */
std::string
jsonNumber(double value)
{
    char buf[40];
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    } else if (std::isfinite(value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
        return "null";
    }
    return buf;
}

std::string
jsonNumber(std::uint64_t value)
{
    return std::to_string(value);
}

/** Tiny append-only writer producing 2-space-indented JSON. */
class JsonWriter
{
  public:
    void
    open(char bracket)
    {
        // Pad only at line starts: an open right after item("name")
        // continues that line ("name": {).
        if (out.empty() || out.back() == '\n')
            pad();
        out += bracket;
        out += '\n';
        ++depth;
        first.push_back(true);
    }

    void
    close(char bracket)
    {
        out += '\n';
        --depth;
        first.pop_back();
        pad();
        out += bracket;
    }

    /** Begin a field/element; value content follows inline. */
    void
    item(const char *name = nullptr)
    {
        if (!first.back())
            out += ",\n";
        first.back() = false;
        pad();
        if (name) {
            out += '"';
            out += name;
            out += "\": ";
        }
    }

    void
    field(const char *name, const std::string &value)
    {
        item(name);
        out += '"';
        out += jsonEscape(value);
        out += '"';
    }

    void
    fieldRaw(const char *name, const std::string &raw)
    {
        item(name);
        out += raw;
    }

    /**
     * Without this overload a string literal would convert to bool
     * (a standard conversion outranks const char* -> std::string)
     * and render as true/false.
     */
    void
    field(const char *name, const char *value)
    {
        field(name, std::string(value));
    }

    void
    field(const char *name, bool value)
    {
        item(name);
        out += value ? "true" : "false";
    }

    std::string out;

  private:
    void
    pad()
    {
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
    }

    int depth = 0;
    std::vector<bool> first{};
};

void
writeMetrics(JsonWriter &json, const RunMetrics &metrics)
{
    json.item("metrics");
    json.open('{');
    json.fieldRaw("run_ticks", jsonNumber(metrics.runTicks));
    json.fieldRaw("total_cycles", jsonNumber(metrics.totalCycles));
    json.fieldRaw("clwbs", jsonNumber(metrics.clwbs));
    json.fieldRaw("persist_stalls", jsonNumber(metrics.persistStalls));
    json.fieldRaw("all_stalls", jsonNumber(metrics.allStalls));
    json.fieldRaw("snoop_stalls", jsonNumber(metrics.snoopStalls));
    json.fieldRaw("ckc", jsonNumber(metrics.ckc));
    json.item("lowering");
    json.open('{');
    json.fieldRaw("clwbs", jsonNumber(metrics.lowering.clwbs));
    json.fieldRaw("stores", jsonNumber(metrics.lowering.stores));
    json.fieldRaw("loads", jsonNumber(metrics.lowering.loads));
    json.fieldRaw("barriers", jsonNumber(metrics.lowering.barriers));
    json.fieldRaw("drains", jsonNumber(metrics.lowering.drains));
    json.fieldRaw("log_entries",
                  jsonNumber(metrics.lowering.logEntries));
    json.fieldRaw("commits", jsonNumber(metrics.lowering.commits));
    json.close('}');
    json.close('}');
}

void
writeCrash(JsonWriter &json, const CellResult &cell)
{
    const CrashCellResult &crash = cell.crash;
    json.item("crash");
    json.open('{');
    json.fieldRaw("torn_words",
                  cell.tornWords >= wordsPerLine
                      ? std::string("null")
                      : jsonNumber(std::uint64_t(cell.tornWords)));
    json.fieldRaw("points_tested", jsonNumber(std::uint64_t(
                                       crash.pointsTested)));
    json.fieldRaw("points_passed", jsonNumber(std::uint64_t(
                                       crash.pointsPassed)));
    json.fieldRaw("points_requested",
                  jsonNumber(std::uint64_t(crash.pointsRequested)));
    json.fieldRaw("points_injected",
                  jsonNumber(std::uint64_t(crash.pointsInjected)));
    json.fieldRaw("rolled_back", jsonNumber(crash.totalRolledBack));
    json.fieldRaw("replayed", jsonNumber(crash.totalReplayed));
    // RecoveryReport surface: what recovery itself concluded at the
    // injected points, not just whether the oracle agreed.
    json.fieldRaw("torn_entries_skipped",
                  jsonNumber(crash.totalTornSkipped));
    json.fieldRaw("corrupt_quarantined",
                  jsonNumber(crash.totalCorruptQuarantined));
    json.fieldRaw("poisoned_quarantined",
                  jsonNumber(crash.totalPoisonedQuarantined));
    json.fieldRaw("quarantined_addrs",
                  jsonNumber(crash.totalQuarantinedAddrs));
    json.item("verdicts");
    json.open('{');
    json.fieldRaw("full", jsonNumber(std::uint64_t(crash.verdictFull)));
    json.fieldRaw("degraded",
                  jsonNumber(std::uint64_t(crash.verdictDegraded)));
    json.fieldRaw("failed",
                  jsonNumber(std::uint64_t(crash.verdictFailed)));
    json.close('}');
    json.item("media");
    if (!cell.media.any()) {
        json.out += "null";
    } else {
        json.open('{');
        json.fieldRaw("poison_lines", jsonNumber(std::uint64_t(
                                          cell.media.poisonLines)));
        json.fieldRaw("bit_flips",
                      jsonNumber(std::uint64_t(cell.media.bitFlips)));
        json.fieldRaw("drop_admissions",
                      jsonNumber(std::uint64_t(
                          cell.media.dropAdmissions)));
        json.fieldRaw("seed", jsonNumber(cell.media.seed));
        json.close('}');
    }
    json.item("failures");
    if (crash.failures.empty()) {
        json.out += "[]";
    } else {
        json.open('[');
        for (const CrashPointResult &failure : crash.failures) {
            json.item();
            json.open('{');
            json.fieldRaw("tick", jsonNumber(std::uint64_t(
                                      failure.when)));
            json.field("violation", failure.violation);
            json.close('}');
        }
        json.close(']');
    }
    json.close('}');
}

void
writeFuzz(JsonWriter &json, const CellResult &cell)
{
    const FuzzCellResult &fuzz = cell.fuzz;
    json.item("fuzz");
    json.open('{');
    json.fieldRaw("trials", jsonNumber(std::uint64_t(fuzz.trials)));
    json.fieldRaw("failing_trials",
                  jsonNumber(std::uint64_t(fuzz.failingTrials)));
    json.fieldRaw("points_checked", jsonNumber(fuzz.pointsChecked));
    json.fieldRaw("queries", jsonNumber(fuzz.queries));
    json.fieldRaw("holds", jsonNumber(fuzz.holds));
    json.item("failures");
    if (fuzz.failures.empty()) {
        json.out += "[]";
    } else {
        json.open('[');
        for (const FuzzFailure &failure : fuzz.failures) {
            json.item();
            json.open('{');
            json.fieldRaw("trial_seed", jsonNumber(failure.trialSeed));
            json.fieldRaw("crash_tick",
                          jsonNumber(std::uint64_t(failure.crashTick)));
            json.fieldRaw("torn_words",
                          failure.tornWords >= wordsPerLine
                              ? std::string("null")
                              : jsonNumber(
                                    std::uint64_t(failure.tornWords)));
            json.fieldRaw("raw_decisions",
                          jsonNumber(
                              std::uint64_t(failure.rawDecisions)));
            json.fieldRaw("shrunk_decisions",
                          jsonNumber(
                              std::uint64_t(failure.shrunkDecisions)));
            json.field("replay_diverged", failure.replayDiverged);
            json.field("violation", failure.violation);
            json.field("repro", failure.reproPath);
            json.close('}');
        }
        json.close(']');
    }
    json.close('}');
}

/**
 * The top-level `host` block: wall-clock and throughput for the run
 * that produced this document. wall_ms sums the per-cell wall times
 * (aggregate worker compute, not elapsed time), so the rates are
 * per-worker throughput and comparable across SW_JOBS values. This is
 * the only nondeterministic part of the document — determinism checks
 * diff `.cells` (or render with includeHost=false) and stay clean.
 */
void
writeHost(JsonWriter &json, const SweepResult &result)
{
    double wallMs = 0;
    std::uint64_t events = 0;
    std::uint64_t simOps = 0;
    for (const CellResult &cell : result.cells) {
        wallMs += cell.host.wallMs;
        events += cell.host.events;
        simOps += cell.host.simOps;
    }
    auto rate = [wallMs](std::uint64_t count) {
        return wallMs > 0 ? static_cast<double>(count) * 1e3 / wallMs
                          : 0.0;
    };
    json.item("host");
    json.open('{');
    json.fieldRaw("wall_ms", jsonNumber(wallMs));
    json.fieldRaw("events", jsonNumber(events));
    json.fieldRaw("sim_ops", jsonNumber(simOps));
    json.fieldRaw("events_per_sec", jsonNumber(rate(events)));
    json.fieldRaw("sim_ops_per_sec", jsonNumber(rate(simOps)));
    json.item("cells");
    if (result.cells.empty()) {
        json.out += "[]";
    } else {
        json.open('[');
        for (const CellResult &cell : result.cells) {
            json.item();
            json.open('{');
            json.field("key", cell.key);
            json.fieldRaw("wall_ms", jsonNumber(cell.host.wallMs));
            json.fieldRaw("events", jsonNumber(cell.host.events));
            json.fieldRaw("sim_ops", jsonNumber(cell.host.simOps));
            json.close('}');
        }
        json.close(']');
    }
    json.close('}');
}

} // namespace

std::string
sweepJson(const SweepResult &result, bool includeHost)
{
    JsonWriter json;
    json.open('{');
    json.field("bench", result.name);
    json.fieldRaw("schema", "3");
    json.item("cells");
    if (result.cells.empty()) {
        json.out += "[]";
    } else {
        json.open('[');
        for (const CellResult &cell : result.cells) {
            json.item();
            json.open('{');
            json.field("kind", cell.kind == CellKind::Timing
                                   ? "timing"
                                   : cell.kind == CellKind::Crash
                                         ? "crash"
                                         : "fuzz");
            json.field("workload", cell.workload);
            json.field("design",
                       std::string(hwDesignName(cell.design)));
            json.field("model", std::string(
                                    persistencyModelName(cell.model)));
            json.field("log_style", cell.logStyle == LogStyle::Undo
                                        ? "undo"
                                        : "redo");
            json.field("variant", cell.variant);
            json.field("baseline", cell.baseline);
            json.field("ok", cell.ok);
            json.field("error", cell.error);
            if (cell.kind == CellKind::Timing) {
                json.fieldRaw("speedup", jsonNumber(cell.speedup));
                writeMetrics(json, cell.metrics);
            } else if (cell.kind == CellKind::Crash) {
                writeCrash(json, cell);
            } else {
                writeFuzz(json, cell);
            }
            json.close('}');
        }
        json.close(']');
    }
    if (includeHost)
        writeHost(json, result);
    json.close('}');
    json.out += '\n';
    return std::move(json.out);
}

std::string
writeSweepJson(const SweepResult &result)
{
    namespace fs = std::filesystem;
    fs::path dir(envConfig().outDir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec),
            "cannot create result directory {}: {}", dir.string(),
            ec.message());
    fs::path path = dir / (result.name + ".json");
    std::ofstream file(path);
    fatalIf(!file, "cannot open {} for writing", path.string());
    file << sweepJson(result);
    file.close();
    fatalIf(!file, "failed writing {}", path.string());
    return path.string();
}

unsigned
printPivot(const SweepResult &result, const PivotOptions &options)
{
    panicIf(!options.column || !options.value,
            "printPivot requires column and value hooks");
    constexpr int workloadWidth = 12;
    constexpr int columnWidth = 10;

    // First-appearance orders over the included cells.
    std::vector<std::string> rows;
    std::vector<std::string> columns;
    // (row, column) -> value; flat search keeps ordering explicit.
    std::vector<std::pair<std::pair<std::string, std::string>, double>>
        values;
    for (const CellResult &cell : result.cells) {
        if (options.include && !options.include(cell))
            continue;
        std::string row = cell.workload;
        std::string column = options.column(cell);
        if (std::find(rows.begin(), rows.end(), row) == rows.end())
            rows.push_back(row);
        if (std::find(columns.begin(), columns.end(), column) ==
            columns.end()) {
            columns.push_back(column);
        }
        values.push_back({{row, column},
                          cell.ok ? options.value(cell)
                                  : std::nan("")});
    }

    auto lookup = [&](const std::string &row,
                      const std::string &column) {
        for (const auto &[coords, value] : values)
            if (coords.first == row && coords.second == column)
                return value;
        return std::nan("");
    };

    const unsigned width =
        workloadWidth +
        static_cast<unsigned>(columns.size()) * (columnWidth + 1);
    auto rule = [&] {
        for (unsigned i = 0; i < width; ++i)
            std::fputc('-', stdout);
        std::fputc('\n', stdout);
    };

    rule();
    std::printf("%-*s", workloadWidth, "workload");
    for (const std::string &column : columns)
        std::printf(" %*s", columnWidth, column.c_str());
    std::printf("\n");
    rule();

    auto printValue = [&](double value) {
        if (std::isnan(value))
            std::printf(" %*s", columnWidth, "-");
        else
            std::printf(" %*.2f", columnWidth, value);
    };

    for (const std::string &row : rows) {
        std::printf("%-*s", workloadWidth, row.c_str());
        for (const std::string &column : columns)
            printValue(lookup(row, column));
        std::printf("\n");
    }
    rule();

    if (options.geomeanRow && !rows.empty()) {
        std::printf("%-*s", workloadWidth, "avg");
        for (const std::string &column : columns) {
            double logSum = 0;
            unsigned n = 0;
            bool usable = true;
            for (const std::string &row : rows) {
                double value = lookup(row, column);
                if (std::isnan(value) || value <= 0) {
                    usable = false;
                    break;
                }
                logSum += std::log(value);
                ++n;
            }
            printValue(usable && n
                           ? std::exp(logSum / static_cast<double>(n))
                           : std::nan(""));
        }
        std::printf("\n");
    }
    return width;
}

} // namespace strand
