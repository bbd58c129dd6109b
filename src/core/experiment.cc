#include "core/experiment.hh"

#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "crash/crash_harness.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace strand
{

RecordedWorkload
recordWorkload(WorkloadKind kind, const WorkloadParams &params)
{
    RecordedWorkload result;
    result.kind = kind;
    result.params = params;
    result.workload = makeWorkload(kind);

    LogLayout layout;
    TraceRecorder rec(params.numThreads);
    PersistentHeap heap(layout, params.numThreads);
    result.workload->record(rec, heap, params);
    result.preload = rec.preloadedWords();
    // Keep the full functional memory as part of the preload? No:
    // only preloaded setup state is durable at t=0; the rest flows
    // through the timed run.
    result.trace = rec.takeTrace();
    return result;
}

RunMetrics
runExperiment(const RecordedWorkload &recorded, HwDesign design,
              PersistencyModel model, const ExperimentConfig &config,
              bool validate)
{
    InstrumentorParams ip;
    ip.design = design;
    ip.model = model;
    ip.logStyle = config.logStyle;
    Instrumentor instr(ip);
    auto streams = instr.lower(recorded.trace);

    SystemConfig sysCfg = config.baseSystem;
    // SFR/ATLAS lowering appends the background pruner's stream; it
    // runs on an additional core.
    sysCfg.numCores = static_cast<unsigned>(streams.size());
    sysCfg.design = design;
    sysCfg.engine = config.engine;
    sysCfg.layout = ip.layout;
    System sys(sysCfg);
    sys.seedImage(recorded.preload);
    sys.loadStreams(std::move(streams));

    AdmissionTally tally;
    sys.addObserver(&tally);
    const bool pmosan =
        config.pmosan.value_or(benchPmosan());
    PmoSanitizer sanitizer;
    if (pmosan)
        sys.addObserver(&sanitizer);

    RunMetrics metrics;
    sys.run();
    // Throughput is defined by the program cores; the background
    // pruner's end-of-run backlog drain (which steady-state
    // execution would overlap) is excluded. Sustained pruner
    // pressure still shows up through the run-ahead window.
    for (CoreId i = 0; i < recorded.params.numThreads; ++i)
        metrics.runTicks = std::max(metrics.runTicks,
                                    sys.finishTickOf(i));
    metrics.totalCycles = sys.totalCycles();
    metrics.clwbs = sys.totalClwbs();
    metrics.persistStalls = sys.totalPersistStalls();
    for (CoreId i = 0; i < sys.numCores(); ++i)
        metrics.allStalls += sys.core(i).stallCycles.sum();
    metrics.snoopStalls = sys.hierarchy().snoopStalls.value();
    metrics.ckc = metrics.totalCycles > 0
                      ? 1000.0 * metrics.clwbs / metrics.totalCycles
                      : 0.0;
    metrics.lowering = instr.stats();
    metrics.hostEvents = sys.eventsServiced();
    metrics.simOps =
        static_cast<std::uint64_t>(sys.totalCommitted());
    metrics.pmAdmissions = tally.admissions();

    if (pmosan) {
        metrics.pmosanViolations = sanitizer.violationCount();
        metrics.pmosanChecked = sanitizer.persistsChecked();
        // NON-ATOMIC omits the ordering the models ask for — PMO-san
        // flagging it is the expected self-test, not an error.
        panicIf(design != HwDesign::NonAtomic && !sanitizer.ok(),
                "PMO-san: persist-order violation in {} under {}/{}:\n{}",
                recorded.workload->name(), hwDesignName(design),
                persistencyModelName(model), sanitizer.report());
    }

    if (validate && design != HwDesign::NonAtomic) {
        const MemoryImage &img = sys.memory();
        auto read = [&img](Addr addr) {
            return img.readPersisted(addr);
        };
        std::string problem = recorded.workload->checkInvariants(read);
        panicIf(!problem.empty(),
                "post-run invariant violation in {} under {}/{}: {}",
                recorded.workload->name(), hwDesignName(design),
                persistencyModelName(model), problem);
    }

    if (unsigned crashPoints = benchCrashPoints(); validate &&
                                                   crashPoints > 0) {
        CrashHarnessConfig crashCfg;
        crashCfg.pointBudget = crashPoints;
        crashCfg.seed = benchCrashSeed(crashCfg.seed);
        crashCfg.logStyle = config.logStyle;
        crashCfg.experiment = config;
        crashCfg.pmosan = config.pmosan;
        CrashCellResult cell =
            runCrashCell(recorded, design, model, crashCfg);
        metrics.hostEvents += cell.hostEvents;
        metrics.simOps += cell.simOps;
        panicIf(design != HwDesign::NonAtomic && !cell.allPassed(),
                "crash-consistency violation in {} under {}/{}: "
                "{}/{} crash points failed; first: {}",
                recorded.workload->name(), hwDesignName(design),
                persistencyModelName(model),
                cell.pointsTested - cell.pointsPassed,
                cell.pointsTested,
                cell.failures.empty() ? std::string("?")
                                      : cell.failures.front().violation);
    }
    return metrics;
}

unsigned
benchOpsPerThread(unsigned fallback)
{
    return envConfig().ops.value_or(fallback);
}

unsigned
benchThreads(unsigned fallback)
{
    return envConfig().threads.value_or(fallback);
}

unsigned
benchCrashPoints(unsigned fallback)
{
    return envConfig().crashPoints.value_or(fallback);
}

std::uint64_t
benchCrashSeed(std::uint64_t fallback)
{
    return envConfig().crashSeed.value_or(fallback);
}

unsigned
benchFuzzTrials(unsigned fallback)
{
    return envConfig().fuzzTrials.value_or(fallback);
}

std::uint64_t
benchFuzzSeed(std::uint64_t fallback)
{
    return envConfig().fuzzSeed.value_or(fallback);
}

bool
benchPmosan(bool fallback)
{
    return envConfig().pmosan.value_or(fallback);
}

} // namespace strand
