/**
 * @file
 * Ablation: the §IV coherence interlocks.
 *
 * StrandWeaver extends the write-back buffer and snoop handling with
 * per-strand-buffer drain points so that involuntary persists
 * (write-backs) and ownership steals (read-exclusive snoops) cannot
 * overtake in-flight CLWBs. This harness measures what those
 * interlocks cost: the same workloads run with the interlocks
 * disabled, which would forfeit inter-thread strong persist
 * atomicity (Figure 2 i,j) — recovery correctness for free-ish, as
 * the paper argues: the stalls are rare.
 *
 * Cells are (workload x {interlocks, no-interlocks}) via a per-cell
 * cache-config override; JSON lands in
 * bench/out/ablation_interlocks.json.
 */

#include <cstdio>

#include "bench/bench_util.hh"

using namespace strand;

int
main(int argc, char **argv)
{
    int rc = 0;
    if (bench::handleArgs(argc, argv, "coherence-interlock ablation", &rc))
        return rc;
    unsigned threads = benchThreads();
    unsigned ops = benchOpsPerThread(60);

    SweepSpec spec;
    spec.name = "ablation_interlocks";
    for (WorkloadKind kind : allWorkloads) {
        WorkloadParams params;
        params.numThreads = threads;
        params.opsPerThread = ops;
        auto recorded = recordShared(kind, params);

        SweepCell &with = spec.addTiming(recorded,
                                         HwDesign::StrandWeaver,
                                         PersistencyModel::Sfr);
        with.variant = "interlocks";
        SweepCell &without = spec.addTiming(recorded,
                                            HwDesign::StrandWeaver,
                                            PersistencyModel::Sfr);
        without.variant = "no-interlocks";
        without.config.baseSystem.caches.persistInterlocks = false;
        // Without the interlocks crash consistency is forfeit by
        // design, so skip validation (the post-run invariant check
        // could trip — correctly, but that is the point being
        // ablated).
        without.validate = false;
    }
    SweepResult result = runSweep(spec);

    std::printf("Ablation: §IV write-back/snoop persist interlocks "
                "(StrandWeaver, SFR), threads=%u ops/thread=%u\n",
                threads, ops);
    bench::rule(70);
    std::printf("%-12s %14s %14s %10s %12s\n", "workload",
                "with (us)", "without (us)", "overhead",
                "snoop stalls");
    bench::rule(70);

    for (WorkloadKind kind : allWorkloads) {
        std::string base = std::string(workloadName(kind)) +
                           "/strandweaver/sfr/";
        const CellResult *with = result.find(base + "interlocks");
        const CellResult *without =
            result.find(base + "no-interlocks");
        if (!with || !without || !with->ok || !without->ok)
            continue;
        double overhead =
            100.0 * (static_cast<double>(with->metrics.runTicks) /
                         static_cast<double>(
                             without->metrics.runTicks) -
                     1.0);
        std::printf("%-12s %14.1f %14.1f %9.2f%% %12.0f\n",
                    workloadName(kind),
                    static_cast<double>(with->metrics.runTicks) / 1e6,
                    static_cast<double>(without->metrics.runTicks) /
                        1e6,
                    overhead, with->metrics.snoopStalls);
    }
    bench::rule(70);
    std::printf("The interlocks are what make inter-thread strong "
                "persist atomicity hold\n(Figure 2 i,j); their cost "
                "is the price of correctness.\n");
    return bench::finish(result);
}
