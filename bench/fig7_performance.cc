/**
 * @file
 * Figure 7 — performance comparison. For each language-level
 * persistency model (TXN / SFR / ATLAS) and each Table II workload,
 * prints the speedup of HOPS, NO-PERSIST-QUEUE, StrandWeaver, and
 * NON-ATOMIC normalized to the Intel x86 baseline, plus per-model
 * and overall averages against the paper's headline numbers
 * (StrandWeaver: 1.45x avg / up to 1.97x over Intel; 1.20x avg / up
 * to 1.55x over HOPS; NO-PQ 1.29x avg; SFR > TXN > ATLAS).
 *
 * Figure 8 — CPU stalls as hardware enforces persist order — comes
 * from the SFR cells of the same sweep: for each workload, the
 * persist-induced dispatch stall cycles of every design normalized
 * to Intel x86, plus the aggregate reduction the paper reports
 * (StrandWeaver: 62.4% fewer stalls than Intel; the NO-PQ
 * intermediate design: 52.3% fewer).
 *
 * The 3 models x 8 workloads x 5 designs matrix is declared as one
 * SweepSpec and executed cell-parallel on SW_JOBS workers; results
 * land in bench/out/fig7_performance.json, and the SFR cells alone
 * in bench/out/fig8_stalls.json.
 */

#include <cstdio>
#include <map>

#include "bench/bench_util.hh"

using namespace strand;

int
main(int argc, char **argv)
{
    int rc = 0;
    if (bench::handleArgs(argc, argv, "Figure 7 speedups and Figure 8 persist stalls across designs and models", &rc))
        return rc;
    unsigned threads = benchThreads();
    unsigned ops = benchOpsPerThread(60);
    auto recorded = bench::recordAll(threads, ops);

    SweepSpec spec;
    spec.name = "fig7_performance";
    for (PersistencyModel model : allModels) {
        for (const auto &workload : recorded) {
            std::string intel =
                spec.addTiming(workload, HwDesign::IntelX86, model)
                    .key();
            // The baseline normalizes itself to 1.00 for the table.
            spec.cells.back().baseline = intel;
            for (HwDesign design :
                 {HwDesign::Hops, HwDesign::NoPersistQueue,
                  HwDesign::StrandWeaver, HwDesign::NonAtomic}) {
                spec.addTiming(workload, design, model, intel);
            }
        }
    }
    SweepResult result = runSweep(spec);

    std::printf("Figure 7: speedup over the Intel x86 baseline\n");
    std::printf("threads=%u ops/thread=%u (set SW_OPS / SW_THREADS to "
                "scale)\n\n",
                threads, ops);

    auto designColumn = [](const CellResult &cell) {
        return cell.design == HwDesign::StrandWeaver
                   ? std::string("strandwvr")
                   : std::string(hwDesignName(cell.design));
    };
    for (PersistencyModel model : allModels) {
        std::printf("[%s]\n", persistencyModelName(model));
        PivotOptions table;
        table.include = [model](const CellResult &cell) {
            return cell.model == model;
        };
        table.column = designColumn;
        table.value = [](const CellResult &cell) {
            return cell.speedup;
        };
        printPivot(result, table);
        std::printf("\n");
    }

    // Headline aggregates straight from the result cells.
    std::vector<double> sw, nopq, swOverHops;
    std::map<PersistencyModel, std::vector<double>> swPerModel;
    for (const CellResult &cell : result.cells) {
        if (!cell.ok)
            continue;
        if (cell.design == HwDesign::StrandWeaver) {
            sw.push_back(cell.speedup);
            swPerModel[cell.model].push_back(cell.speedup);
            std::string hopsKey =
                cell.workload + "/" +
                hwDesignName(HwDesign::Hops) + "/" +
                persistencyModelName(cell.model);
            if (const CellResult *hops = result.find(hopsKey))
                swOverHops.push_back(cell.speedup / hops->speedup);
        }
        if (cell.design == HwDesign::NoPersistQueue)
            nopq.push_back(cell.speedup);
    }

    if (!sw.empty() && !swOverHops.empty() && !nopq.empty()) {
        std::printf("Summary vs paper (Section VI-B):\n");
        bench::rule(76);
        std::printf(
            "  StrandWeaver over Intel x86: %.2fx avg, %.2fx max "
            "(paper: 1.45x avg, 1.97x max)\n",
            bench::geomean(sw), *std::max_element(sw.begin(),
                                                  sw.end()));
        std::printf(
            "  StrandWeaver over HOPS:      %.2fx avg, %.2fx max "
            "(paper: 1.20x avg, 1.55x max)\n",
            bench::geomean(swOverHops),
            *std::max_element(swOverHops.begin(), swOverHops.end()));
        std::printf("  NO-PERSIST-QUEUE over Intel: %.2fx avg "
                    "(paper: 1.29x avg)\n",
                    bench::geomean(nopq));
        std::printf(
            "  Per-model StrandWeaver avg:  sfr %.2fx, txn %.2fx, "
            "atlas %.2fx (paper: 1.50 / 1.45 / 1.40)\n",
            bench::geomean(swPerModel[PersistencyModel::Sfr]),
            bench::geomean(swPerModel[PersistencyModel::Txn]),
            bench::geomean(swPerModel[PersistencyModel::Atlas]));
        bench::rule(76);
    }

    SweepResult stalls = result;
    stalls.name = "fig8_stalls";
    std::erase_if(stalls.cells, [](const CellResult &cell) {
        return cell.model != PersistencyModel::Sfr;
    });

    std::printf("\nFigure 8: persist-ordering stall cycles, normalized "
                "to Intel x86 (SFR model)\n");
    PivotOptions table;
    table.column = designColumn;
    table.value = [&stalls](const CellResult &cell) {
        const CellResult *base = stalls.find(cell.baseline);
        if (!base || !base->ok || base->metrics.persistStalls <= 0)
            return std::nan("");
        return cell.metrics.persistStalls /
               base->metrics.persistStalls;
    };
    table.geomeanRow = false;
    printPivot(stalls, table);

    std::map<HwDesign, double> totalStalls;
    for (const CellResult &cell : stalls.cells)
        if (cell.ok)
            totalStalls[cell.design] += cell.metrics.persistStalls;

    double base = totalStalls[HwDesign::IntelX86];
    if (base > 0) {
        double swReduction =
            100.0 *
            (1.0 - totalStalls[HwDesign::StrandWeaver] / base);
        double nopqReduction =
            100.0 *
            (1.0 - totalStalls[HwDesign::NoPersistQueue] / base);
        std::printf("StrandWeaver: %.1f%% fewer persist stalls than "
                    "Intel x86 (paper: 62.4%%)\n",
                    swReduction);
        std::printf("NO-PQ:        %.1f%% fewer persist stalls than "
                    "Intel x86 (paper: 52.3%%)\n",
                    nopqReduction);
    }
    std::printf("\nwrote %s\n", writeSweepJson(stalls).c_str());
    return bench::finish(result);
}
