#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "core/result_sink.hh"

namespace perfbench
{

using namespace strand;

std::optional<WorkloadId>
parseWorkload(const std::string &name)
{
    for (WorkloadId id : {WorkloadId::TimingFig7, WorkloadId::CrashForked,
                          WorkloadId::FuzzTrials}) {
        if (name == workloadIdName(id))
            return id;
    }
    return std::nullopt;
}

const char *
workloadIdName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::TimingFig7:
        return "timing_fig7";
      case WorkloadId::CrashForked:
        return "crash_forked";
      case WorkloadId::FuzzTrials:
        return "fuzz_trials";
    }
    return "?";
}

void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env; ++env) {
        const std::string entry = *env;
        if (entry.rfind("SW_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("SW_JOBS", "1", 1);
    setenv("SW_PMOSAN", "1", 1);
}

namespace
{

/** Figure 7: every Table II workload x 5 designs x 3 models. */
SweepSpec
fig7Spec(std::uint64_t seed, const Sizes &sizes)
{
    std::vector<std::shared_ptr<const RecordedWorkload>> recorded;
    for (WorkloadKind kind : allWorkloads) {
        WorkloadParams params;
        params.numThreads = sizes.fig7Threads;
        params.opsPerThread = sizes.fig7Ops;
        params.seed = seed;
        recorded.push_back(recordShared(kind, params));
    }
    SweepSpec spec;
    spec.name = "timing_fig7";
    for (PersistencyModel model : allModels) {
        for (const auto &workload : recorded) {
            SweepCell &base =
                spec.addTiming(workload, HwDesign::IntelX86, model);
            base.baseline = base.key();
            base.config.pmosan = false;
            const std::string intel = base.key();
            for (HwDesign design :
                 {HwDesign::Hops, HwDesign::NoPersistQueue,
                  HwDesign::StrandWeaver, HwDesign::NonAtomic}) {
                spec.addTiming(workload, design, model, intel)
                    .config.pmosan = false;
            }
        }
    }
    return spec;
}

/**
 * crash_matrix's cells (without its fork-vs-two-run timing probe),
 * pinned to the forked harness. PMO-san attaches through SW_PMOSAN,
 * which the benchmark sets for the whole process.
 */
SweepSpec
crashSpec(std::uint64_t seed, const Sizes &sizes)
{
    MediaFaultConfig media;
    media.poisonLines = 1;
    media.bitFlips = 1;
    media.dropAdmissions = 2;
    media.seed = 0xed1a;

    SweepSpec spec;
    spec.name = "crash_forked";
    auto add = [&](std::shared_ptr<const RecordedWorkload> recorded,
                   HwDesign design, PersistencyModel model,
                   LogStyle style, const char *variant,
                   bool withMedia, bool strict) {
        SweepCell &cell =
            spec.addCrash(std::move(recorded), design, model,
                          sizes.crashPoints);
        cell.config.logStyle = style;
        cell.variant = variant;
        cell.crashFork = true;
        if (withMedia)
            cell.media = media;
        cell.config.engine.hopsStrictAdmission = strict;
    };
    for (WorkloadKind kind : {WorkloadKind::Queue, WorkloadKind::Hashmap,
                              WorkloadKind::ArraySwap}) {
        WorkloadParams params;
        params.numThreads = sizes.crashThreads;
        params.opsPerThread = sizes.crashOps;
        params.seed = seed;
        auto recorded = recordShared(kind, params);
        for (HwDesign design : allDesigns) {
            for (PersistencyModel model : allModels)
                add(recorded, design, model, LogStyle::Undo, "", false,
                    false);
            add(recorded, design, PersistencyModel::Txn, LogStyle::Redo,
                "redo", false, false);
            for (PersistencyModel model : allModels)
                add(recorded, design, model, LogStyle::Undo, "media",
                    true, false);
            add(recorded, design, PersistencyModel::Txn, LogStyle::Redo,
                "redo-media", true, false);
            if (design != HwDesign::Hops)
                continue;
            for (PersistencyModel model : allModels)
                add(recorded, design, model, LogStyle::Undo,
                    "strict-media", true, true);
            add(recorded, design, PersistencyModel::Txn, LogStyle::Redo,
                "strict-redo-media", true, true);
        }
    }
    return spec;
}

/** Queue/Hashmap x {Intel x86, StrandWeaver, NON-ATOMIC} x 3 models. */
SweepSpec
fuzzSpec(std::uint64_t seed, const Sizes &sizes)
{
    SweepSpec spec;
    spec.name = "fuzz_trials";
    for (WorkloadKind kind : {WorkloadKind::Queue, WorkloadKind::Hashmap}) {
        for (HwDesign design : {HwDesign::IntelX86, HwDesign::StrandWeaver,
                                HwDesign::NonAtomic}) {
            for (PersistencyModel model : allModels) {
                FuzzCellConfig campaign;
                campaign.base.kind = kind;
                campaign.base.design = design;
                campaign.base.model = model;
                campaign.base.numThreads = sizes.fuzzThreads;
                campaign.base.opsPerThread = sizes.fuzzOps;
                campaign.base.pmosan = false;
                campaign.base.fork = false;
                campaign.trials = sizes.fuzzTrials;
                campaign.seed = seed;
                spec.addFuzz(campaign);
            }
        }
    }
    return spec;
}

/** FNV-1a, the hash the sweep layer uses for cell keys. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

double
geomean(const std::vector<double> &values)
{
    double logSum = 0;
    for (double v : values)
        logSum += std::log(v);
    return values.empty()
               ? 0.0
               : std::exp(logSum / static_cast<double>(values.size()));
}

} // namespace

std::uint64_t
trialSeed(const SweepCell &cell, unsigned trial)
{
    return mixSeed(mixSeed(cell.fuzz.seed, fnv1a(cell.key())), trial + 1);
}

SweepSpec
buildInputs(WorkloadId id, std::uint64_t seed, const Sizes &sizes)
{
    switch (id) {
      case WorkloadId::TimingFig7:
        return fig7Spec(seed, sizes);
      case WorkloadId::CrashForked:
        return crashSpec(seed, sizes);
      case WorkloadId::FuzzTrials: {
        SweepSpec spec = fuzzSpec(seed, sizes);
        for (const SweepCell &cell : spec.cells) {
            for (unsigned i = 0; i < cell.fuzz.trials; ++i) {
                FuzzTrialSpec trial = cell.fuzz.base;
                trial.seed = trialSeed(cell, i);
                if (makeTrialContext(trial).recorded.trace.threads.empty())
                    throw std::runtime_error("fuzz trial recorded no "
                                             "threads: " + cell.key());
            }
        }
        return spec;
      }
    }
    throw std::invalid_argument("unknown workload");
}

std::vector<Check>
checkCells(WorkloadId id, const SweepResult &result)
{
    std::vector<Check> checks;
    std::uint64_t nonAtomicFlagged = 0;
    for (const CellResult &cell : result.cells) {
        Check check;
        check.name = "cell " + cell.key;
        if (!cell.ok) {
            check.ok = false;
            check.detail = cell.error;
            checks.push_back(std::move(check));
            continue;
        }
        const bool nonAtomic = cell.design == HwDesign::NonAtomic;
        if (cell.kind == CellKind::Crash && !cell.crash.allPassed()) {
            // HOPS's CLWB emulation has a known, tolerated gap under
            // amplified partial ADR drains (crash_matrix does the
            // same); the strict-admission cells get no tolerance.
            const bool hopsGap =
                cell.design == HwDesign::Hops &&
                (cell.variant == "media" || cell.variant == "redo-media");
            if (nonAtomic) {
                nonAtomicFlagged +=
                    cell.crash.pointsTested - cell.crash.pointsPassed;
            } else if (!hopsGap) {
                check.ok = false;
                check.detail =
                    std::to_string(cell.crash.pointsTested -
                                   cell.crash.pointsPassed) +
                    " crash points failed; first: " +
                    (cell.crash.failures.empty()
                         ? std::string("?")
                         : cell.crash.failures.front().violation);
            }
        }
        if (cell.kind == CellKind::Fuzz) {
            if (nonAtomic) {
                nonAtomicFlagged += cell.fuzz.failingTrials;
            } else if (!cell.fuzz.allPassed()) {
                check.ok = false;
                check.detail =
                    std::to_string(cell.fuzz.failingTrials) +
                    " failing trials; first: " +
                    (cell.fuzz.failures.empty()
                         ? std::string("?")
                         : cell.fuzz.failures.front().violation);
            }
            for (const FuzzFailure &failure : cell.fuzz.failures) {
                if (failure.replayDiverged) {
                    check.ok = false;
                    check.detail = "replay diverged for trial seed " +
                                   std::to_string(failure.trialSeed);
                }
            }
        }
        checks.push_back(std::move(check));
    }
    if (id != WorkloadId::TimingFig7) {
        Check flagged;
        flagged.name = "non-atomic flagged";
        flagged.ok = nonAtomicFlagged > 0;
        if (!flagged.ok)
            flagged.detail = "no NON-ATOMIC violation found: the oracle "
                             "lost its teeth";
        checks.push_back(std::move(flagged));
    }
    return checks;
}

std::uint64_t
digestOf(const SweepResult &result)
{
    return fnv1a(sweepJson(result, false));
}

double
simTicks(const SweepResult &result)
{
    double ticks = 0;
    for (const CellResult &cell : result.cells)
        if (cell.kind == CellKind::Timing)
            ticks += static_cast<double>(cell.metrics.runTicks);
    return ticks;
}

double
paperErrPct(const SweepResult &result)
{
    std::vector<double> sw, nopq, swOverHops;
    for (const CellResult &cell : result.cells) {
        if (cell.kind != CellKind::Timing || !cell.ok)
            continue;
        if (cell.design == HwDesign::StrandWeaver) {
            sw.push_back(cell.speedup);
            const std::string hopsKey =
                cell.workload + "/" + hwDesignName(HwDesign::Hops) + "/" +
                persistencyModelName(cell.model);
            if (const CellResult *hops = result.find(hopsKey))
                swOverHops.push_back(cell.speedup / hops->speedup);
        }
        if (cell.design == HwDesign::NoPersistQueue)
            nopq.push_back(cell.speedup);
    }
    if (sw.empty() || swOverHops.empty() || nopq.empty())
        return 0.0;
    // Section VI-B of the paper (gem5): 1.45x avg / 1.97x max over
    // Intel x86, 1.20x / 1.55x over HOPS, NO-PQ 1.29x over Intel x86.
    const std::pair<double, double> pairs[] = {
        {geomean(sw), 1.45},
        {*std::max_element(sw.begin(), sw.end()), 1.97},
        {geomean(swOverHops), 1.20},
        {*std::max_element(swOverHops.begin(), swOverHops.end()), 1.55},
        {geomean(nopq), 1.29},
    };
    double err = 0;
    for (const auto &[measured, paper] : pairs)
        err += std::fabs(measured / paper - 1.0);
    return 100.0 * err / std::size(pairs);
}

std::uint64_t
simOps(const SweepResult &result)
{
    std::uint64_t ops = 0;
    for (const CellResult &cell : result.cells)
        ops += cell.host.simOps;
    return ops;
}

std::uint64_t
statesValidated(const SweepResult &result)
{
    std::uint64_t states = 0;
    for (const CellResult &cell : result.cells) {
        switch (cell.kind) {
          case CellKind::Timing:
            states += cell.design != HwDesign::NonAtomic ? 1 : 0;
            break;
          case CellKind::Crash:
            states += cell.crash.pointsInjected;
            break;
          case CellKind::Fuzz:
            states += cell.fuzz.pointsChecked;
            break;
        }
    }
    return states;
}

} // namespace perfbench
