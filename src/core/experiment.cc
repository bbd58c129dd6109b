#include "core/experiment.hh"

#include "core/env_config.hh"
#include "sanitizer/pmo_sanitizer.hh"

namespace strand
{

std::shared_ptr<const MachineSeed>
SeedCache::get(const SeedKey &key,
               const std::unordered_map<Addr, std::uint64_t> &words)
{
    // Held while a seed is built: the other workers that need it wait
    // for it rather than build it again.
    std::lock_guard lock(mutex);
    for (const auto &seed : seeds)
        if (seed->key == key)
            return seed;
    seeds.push_back(System::makeSeed(key, words));
    return seeds.back();
}

void
SeedCache::clear()
{
    std::lock_guard lock(mutex);
    seeds.clear();
}

std::size_t
SeedCache::size() const
{
    std::lock_guard lock(mutex);
    return seeds.size();
}

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

LoweredWorkload
lowerWorkload(const RecordedWorkload &recorded, HwDesign design,
              PersistencyModel model, LogStyle logStyle)
{
    LoweredWorkload lowered;
    lowered.params.design = design;
    lowered.params.model = model;
    lowered.params.logStyle = logStyle;
    Instrumentor instr(lowered.params);
    lowered.streams = instr.lower(recorded.trace);
    lowered.stats = instr.stats();
    lowered.regionLog = instr.regionLog();
    return lowered;
}

std::unique_ptr<System>
buildSystem(const RecordedWorkload &recorded,
            const LoweredWorkload &lowered,
            const ExperimentConfig &config, DrainAdversary *adversary)
{
    SystemConfig sysCfg = config.baseSystem;
    // SFR/ATLAS lowering appends the background pruner's stream; it
    // runs on an additional core.
    sysCfg.numCores = static_cast<unsigned>(lowered.streams.size());
    sysCfg.design = lowered.params.design;
    sysCfg.engine = config.engine;
    sysCfg.layout = lowered.params.layout;
    sysCfg.adversary = adversary;
    auto sys = std::make_unique<System>(sysCfg);
    sys->adoptSeed(
        recorded.seeds.get(SeedKey::of(sysCfg), recorded.preload));
    sys->loadStreams(lowered.streams);
    return sys;
}

RunMetrics
runExperiment(const RecordedWorkload &recorded, HwDesign design,
              PersistencyModel model, const ExperimentConfig &config,
              bool validate)
{
    const LoweredWorkload lowered =
        lowerWorkload(recorded, design, model, config.logStyle);
    const std::unique_ptr<System> machine =
        buildSystem(recorded, lowered, config);
    System &sys = *machine;

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
    metrics.lowering = lowered.stats;
    metrics.hostEvents = sys.eventsServiced();
    metrics.simOps =
        static_cast<std::uint64_t>(sys.totalCommitted());
    metrics.pmAdmissions = sys.persistTrace().size();

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
