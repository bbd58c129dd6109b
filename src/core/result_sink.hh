/**
 * @file
 * Result sink for sweep runs: the stable JSON schema CI and the
 * BENCH_*.json trajectory tooling diff across revisions, plus the
 * generic pivot-table renderer the figure benches print with.
 *
 * JSON schema (version 3), one document per bench at
 * <SW_OUT_DIR>/<bench>.json (default bench/out/):
 *
 *   { "bench": "<name>", "schema": 3,
 *     "cells": [ ... ], "host": { ... } }
 *
 * Each cell carries its coordinates (workload, design, model,
 * log_style, variant), its baseline key and resolved speedup, an
 * ok/error pair, and either "metrics" (timing cells: run_ticks,
 * total_cycles, clwbs, persist_stalls, all_stalls, snoop_stalls,
 * ckc, lowering counters) or "crash" (crash cells: points_tested,
 * points_passed, rolled_back, replayed, torn_words, failures).
 * Cells appear in spec order and all numbers are rendered
 * deterministically, so the `cells` array is byte-identical across
 * SW_JOBS values — and byte-identical to the schema-1 rendering,
 * so trajectory diffs survive the bump.
 *
 * Schema 2 adds the top-level `host` block: aggregate wall_ms,
 * events, sim_ops, and the derived events_per_sec / sim_ops_per_sec
 * rates, plus a per-cell {key, wall_ms, events, sim_ops} breakdown.
 * wall_ms is measured host time and therefore NOT deterministic;
 * determinism gates must diff `.cells` (jq) or render with
 * includeHost=false rather than compare whole documents.
 *
 * Schema 3 surfaces the RecoveryReport in each crash cell:
 * torn_entries_skipped, corrupt_quarantined, poisoned_quarantined,
 * quarantined_addrs, a per-point verdict tally
 * {full, degraded, failed}, and the cell's media-fault configuration
 * (null when the fault model is off).
 */

#ifndef CORE_RESULT_SINK_HH
#define CORE_RESULT_SINK_HH

#include <functional>
#include <string>

#include "core/sweep.hh"

namespace strand
{

/**
 * Render @p result as the schema-3 JSON document.
 * @param includeHost emit the (nondeterministic) `host` block; pass
 *        false to get a fully deterministic document for byte
 *        comparisons.
 */
std::string sweepJson(const SweepResult &result,
                      bool includeHost = true);

/**
 * Write sweepJson() to <SW_OUT_DIR>/<name>.json, creating the
 * directory as needed.
 * @return the path written.
 */
std::string writeSweepJson(const SweepResult &result);

/** One table: rows are workloads, columns come from a cell keyer. */
struct PivotOptions
{
    /** Include only matching cells (all cells when empty). */
    std::function<bool(const CellResult &)> include;
    /** Column label of a cell (e.g. its design name). Required. */
    std::function<std::string(const CellResult &)> column;
    /**
     * Value printed at (workload, column). Required. Return NaN to
     * print "-". Defaults hooks below cover the common speedup case.
     */
    std::function<double(const CellResult &)> value;
    /** Append a per-column geometric-mean row labeled "avg". */
    bool geomeanRow = true;
};

/**
 * Print @p result as a workload-by-column table to stdout, rows and
 * columns in first-appearance (spec) order.
 * @return the table width, so callers can match separator rules.
 */
unsigned printPivot(const SweepResult &result,
                    const PivotOptions &options);

} // namespace strand

#endif // CORE_RESULT_SINK_HH
