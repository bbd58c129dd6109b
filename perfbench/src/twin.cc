#include "twin.hh"

#include <deque>
#include <map>
#include <optional>
#include <stdexcept>

#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "crash/crash_oracle.hh"
#include "runtime/recovery.hh"
#include "sanitizer/pmo_sanitizer.hh"
#include "sim/random.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace strand;

namespace
{

/** Forwards every persist event to PMO-san and times the calls. */
class TimedObserver final : public PersistObserver
{
  public:
    TimedObserver(PersistObserver &inner, CallTimer &timer)
        : inner(inner), timer(timer)
    {}

    void
    onPersistAdmitted(const PersistRecord &rec) override
    {
        timer.begin();
        inner.onPersistAdmitted(rec);
        timer.end();
    }

    void
    onPrimitiveDispatched(const PrimitiveEvent &ev) override
    {
        timer.begin();
        inner.onPrimitiveDispatched(ev);
        timer.end();
    }

    void
    onPrimitiveRetired(const PrimitiveEvent &ev) override
    {
        timer.begin();
        inner.onPrimitiveRetired(ev);
        timer.end();
    }

    void
    onConflictEdge(const ConflictEdgeEvent &ev) override
    {
        timer.begin();
        inner.onConflictEdge(ev);
        timer.end();
    }

  private:
    PersistObserver &inner;
    CallTimer &timer;
};

/** Shared state of one twin pass. */
struct Ctx
{
    Tracer &tracer;
    TwinOutput &out;
    /** PMO-san call time, flushed into each run span. */
    CallTimer sanitizerTime;

    /** System::run under a core.run span. */
    Tick
    run(System &sys)
    {
        auto span = tracer.open("core.run");
        const double before = sanitizerTime.totalNs;
        const Tick end = sys.run();
        if (sanitizerTime.totalNs > before)
            tracer.addAggregate("sanitizer.observe",
                                sanitizerTime.totalNs - before);
        return end;
    }

    void
    collect(System &sys, HwDesign design)
    {
        auto span = tracer.open("bench.stats");
        out.sim.collect(sys, design);
    }

    void
    tally(RecoveryVerdict verdict)
    {
        switch (verdict) {
          case RecoveryVerdict::Full:
            ++out.verdictFull;
            break;
          case RecoveryVerdict::Degraded:
            ++out.verdictDegraded;
            break;
          case RecoveryVerdict::Failed:
            ++out.verdictFailed;
            break;
        }
    }
};

/** Admit-mask keeping the first @p tornWords written words. */
std::uint8_t
tornAdmitMask(std::uint8_t written, unsigned tornWords)
{
    std::uint8_t admit = 0;
    unsigned kept = 0;
    for (unsigned i = 0; i < wordsPerLine && kept < tornWords; ++i) {
        if (written & (1u << i)) {
            admit |= static_cast<std::uint8_t>(1u << i);
            ++kept;
        }
    }
    return admit;
}

/** Lower @p trace for (design, model, style) under a span. */
std::vector<OpStream>
lower(Instrumentor &instr, const RegionTrace &trace, Ctx &c)
{
    auto span = c.tracer.open("runtime.lower");
    return instr.lower(trace);
}

// ---------------------------------------------------------------- timing

/** runExperiment, one call at a time. */
RunMetrics
timingCell(const SweepCell &cell, const RecordedWorkload &recorded,
           Ctx &c)
{
    if (benchCrashPoints() > 0)
        throw std::invalid_argument(
            "the twin does not model crash injection on timing cells");
    InstrumentorParams ip;
    ip.design = cell.design;
    ip.model = cell.model;
    ip.logStyle = cell.config.logStyle;
    Instrumentor instr(ip);
    std::vector<OpStream> streams = lower(instr, recorded.trace, c);

    std::unique_ptr<System> sys;
    {
        auto span = c.tracer.open("core.build");
        SystemConfig sysCfg = cell.config.baseSystem;
        sysCfg.numCores = static_cast<unsigned>(streams.size());
        sysCfg.design = cell.design;
        sysCfg.engine = cell.config.engine;
        sys = std::make_unique<System>(sysCfg);
        sys->seedImage(recorded.preload);
        sys->loadStreams(std::move(streams));
    }
    AdmissionTally tally;
    sys->addObserver(&tally);
    const bool pmosan = cell.config.pmosan.value_or(benchPmosan());
    PmoSanitizer sanitizer;
    TimedObserver timed(sanitizer, c.sanitizerTime);
    if (pmosan)
        sys->addObserver(&timed);

    RunMetrics metrics;
    c.run(*sys);
    for (CoreId i = 0; i < recorded.params.numThreads; ++i)
        metrics.runTicks = std::max(metrics.runTicks, sys->finishTickOf(i));
    metrics.totalCycles = sys->totalCycles();
    metrics.clwbs = sys->totalClwbs();
    metrics.persistStalls = sys->totalPersistStalls();
    for (CoreId i = 0; i < sys->numCores(); ++i)
        metrics.allStalls += sys->core(i).stallCycles.sum();
    metrics.snoopStalls = sys->hierarchy().snoopStalls.value();
    metrics.ckc = metrics.totalCycles > 0
                      ? 1000.0 * metrics.clwbs / metrics.totalCycles
                      : 0.0;
    metrics.lowering = instr.stats();
    metrics.hostEvents = sys->eventsServiced();
    metrics.simOps = static_cast<std::uint64_t>(sys->totalCommitted());
    metrics.pmAdmissions = tally.admissions();
    c.collect(*sys, cell.design);

    if (pmosan) {
        metrics.pmosanViolations = sanitizer.violationCount();
        metrics.pmosanChecked = sanitizer.persistsChecked();
        c.out.persistsChecked += sanitizer.persistsChecked();
        panicIf(cell.design != HwDesign::NonAtomic && !sanitizer.ok(),
                "PMO-san: persist-order violation in {} under {}/{}:\n{}",
                recorded.workload->name(), hwDesignName(cell.design),
                persistencyModelName(cell.model), sanitizer.report());
    }
    if (cell.validate && cell.design != HwDesign::NonAtomic) {
        auto span = c.tracer.open("workloads.check");
        const MemoryImage &img = sys->memory();
        std::string problem = recorded.workload->checkInvariants(
            [&img](Addr addr) { return img.readPersisted(addr); });
        panicIf(!problem.empty(),
                "post-run invariant violation in {} under {}/{}: {}",
                recorded.workload->name(), hwDesignName(cell.design),
                persistencyModelName(cell.model), problem);
    }
    return metrics;
}

// ----------------------------------------------------------------- crash

struct PointOutcome
{
    Tick when = 0;
    bool passed = false;
    RecoveryReport report;
    std::string violation;
};

/** runCrashCell's forked mode, one call at a time. */
CrashCellResult
crashCell(const SweepCell &cell, const RecordedWorkload &recorded,
          Ctx &c)
{
    CrashHarnessConfig config;
    config.pointBudget = cell.crashPoints;
    config.seed = benchCrashSeed(config.seed);
    config.logStyle = cell.config.logStyle;
    config.tornWords = cell.tornWords;
    config.media = cell.media;
    config.experiment = cell.config;
    config.fork = cell.crashFork;
    config.verifyMidrunFork = cell.crashVerifyMidrunFork;
    if (!config.fork.value_or(envConfig().crashFork.value_or(false)))
        throw std::invalid_argument(
            "the twin models forked crash cells only");

    Tracer &tracer = c.tracer;
    CrashCellResult result;
    result.design = cell.design;
    result.model = cell.model;
    result.workload =
        recorded.workload ? recorded.workload->name() : "?";
    result.pointsRequested = config.pointBudget;

    InstrumentorParams ip;
    ip.design = cell.design;
    ip.model = cell.model;
    ip.logStyle = config.logStyle;
    Instrumentor instr(ip);
    const std::vector<OpStream> streams =
        lower(instr, recorded.trace, c);
    const CrashOracle oracle = [&] {
        auto span = tracer.open("crash.oracle");
        return CrashOracle(recorded.trace, instr.regionLog(),
                           recorded.preload, ip.layout);
    }();
    if (config.pointBudget == 0)
        return result;

    const bool pmosan =
        config.pmosan.value_or(envConfig().pmosan.value_or(false));
    const RecoveryManager recovery{ip.layout};
    const unsigned programThreads = recorded.params.numThreads;

    auto evaluate = [&](const MemoryImage &machine, Tick when) {
        PointOutcome outcome;
        outcome.when = when;
        MemoryImage snapshot;
        {
            auto span = tracer.open("mem.clone");
            snapshot = config.tornWords >= wordsPerLine
                           ? machine.clonePersisted()
                           : machine.clonePersistedTorn(tornAdmitMask(
                                 machine.lastAdmissionMask(),
                                 config.tornWords));
        }
        if (config.media.any()) {
            auto span = tracer.open("crash.media");
            applyMediaFaults(snapshot, machine.recentAdmissions(),
                             config.media, ip.layout, when);
        }
        std::vector<bool> committed;
        {
            auto span = tracer.open("crash.oracle");
            committed = oracle.committedRegions(snapshot);
        }
        RecoveryOptions options;
        options.verifyChecksums = config.verifyChecksums;
        {
            auto span = tracer.open("runtime.recover.paged");
            outcome.report = recovery.recover(
                snapshot, programThreads, RecoveryScan::Paged, options);
        }
        c.tally(outcome.report.verdict);

        std::string err;
        if (outcome.report.verdict == RecoveryVerdict::Failed) {
            err = "recovery FAILED: metadata area poisoned";
        } else {
            auto span = tracer.open("crash.oracle");
            err = oracle.checkRecovered(snapshot, committed,
                                        &outcome.report);
        }
        if (err.empty() && recorded.workload &&
            outcome.report.verdict == RecoveryVerdict::Full) {
            auto span = tracer.open("workloads.check");
            err = recorded.workload->checkInvariants(
                [&snapshot](Addr addr) {
                    return snapshot.readPersisted(addr);
                });
        }
        outcome.passed = err.empty();
        outcome.violation = std::move(err);
        return outcome;
    };

    auto fold = [&](PointOutcome &&outcome) {
        ++result.pointsTested;
        result.totalRolledBack += outcome.report.entriesRolledBack;
        result.totalReplayed += outcome.report.redoEntriesReplayed;
        result.totalTornSkipped += outcome.report.tornEntriesSkipped;
        result.totalCorruptQuarantined +=
            outcome.report.corruptEntriesQuarantined;
        result.totalPoisonedQuarantined +=
            outcome.report.poisonedEntriesQuarantined;
        result.totalQuarantinedAddrs +=
            outcome.report.quarantinedAddrs.size();
        switch (outcome.report.verdict) {
          case RecoveryVerdict::Full:
            ++result.verdictFull;
            break;
          case RecoveryVerdict::Degraded:
            ++result.verdictDegraded;
            break;
          case RecoveryVerdict::Failed:
            ++result.verdictFailed;
            break;
        }
        if (outcome.passed) {
            ++result.pointsPassed;
            return;
        }
        CrashPointResult point;
        point.when = outcome.when;
        point.entriesRolledBack = outcome.report.entriesRolledBack;
        point.redoEntriesReplayed = outcome.report.redoEntriesReplayed;
        if (result.failures.size() < 32)
            point.violation = std::move(outcome.violation);
        result.failures.push_back(std::move(point));
    };

    // Warm run: enumerate crash points and keep every admission's
    // pre-image.
    std::unique_ptr<System> sys;
    {
        auto span = tracer.open("core.build");
        SystemConfig sysCfg = config.experiment.baseSystem;
        sysCfg.numCores = static_cast<unsigned>(streams.size());
        sysCfg.design = cell.design;
        sysCfg.engine = config.experiment.engine;
        sysCfg.engine.recordCompletionTicks = true;
        sysCfg.layout = ip.layout;
        sys = std::make_unique<System>(sysCfg);
        sys->seedImage(recorded.preload);
        auto copies = streams;
        sys->loadStreams(std::move(copies));
    }
    std::vector<Tick> enumerated;
    struct AdmitDelta
    {
        Tick when;
        MemoryImage::AdmissionUndo undo;
    };
    std::vector<AdmitDelta> admits;
    PmoSanitizer sanitizer;
    TimedObserver timed(sanitizer, c.sanitizerTime);
    if (pmosan)
        sys->addObserver(&timed);

    struct MachineCapture
    {
        Tick when = 0;
        SimSnapshot snap;
        PmoSanitizer::State sanitizerState;
    };
    std::deque<MachineCapture> machineCaptures;
    std::uint64_t admissionsSeen = 0;
    bool capturing = config.verifyMidrunFork;
    auto captureMachine = [&] {
        if (!capturing)
            return;
        auto span = tracer.open("core.snapshot");
        MachineCapture cap;
        cap.when = sys->eventQueue().curTick();
        cap.snap = sys->snapshot();
        cap.sanitizerState = sanitizer.snapshotState();
        machineCaptures.push_back(std::move(cap));
        if (machineCaptures.size() > 2)
            machineCaptures.pop_front();
    };
    AdmissionCallback admissions([&](const PersistRecord &rec) {
        enumerated.push_back(rec.when);
        admits.push_back({rec.when, sys->memory().lastAdmissionUndo()});
        ++admissionsSeen;
        if (capturing && (admissionsSeen & (admissionsSeen - 1)) == 0)
            sys->eventQueue().schedule(rec.when, captureMachine,
                                       EventPriority::Stat);
    });
    sys->addObserver(&admissions);
    const Tick endTick = c.run(*sys);
    result.hostEvents += sys->eventsServiced();
    result.simOps += static_cast<std::uint64_t>(sys->totalCommitted());
    c.collect(*sys, cell.design);
    for (CoreId i = 0; i < sys->numCores(); ++i) {
        const std::vector<Tick> &ticks =
            sys->core(i).persistEngine().completionTicks();
        enumerated.insert(enumerated.end(), ticks.begin(), ticks.end());
    }
    const Tick finishTick = sys->finishTick();

    // The mid-run fork self-check: restore the older capture, re-run
    // the tail, demand a bit-identical finish tick and persist trace.
    if (!machineCaptures.empty()) {
        capturing = false;
        sys->removeObserver(&admissions);
        const MachineCapture &cap = machineCaptures.front();
        const std::vector<PersistRecord> reference = sys->persistTrace();
        {
            auto span = tracer.open("core.restore");
            sys->restore(cap.snap);
            sanitizer.restoreState(cap.sanitizerState);
        }
        const Tick refork = c.run(*sys);
        panicIf(refork != finishTick,
                "mid-run fork diverged: restored run finished at {} "
                "instead of {}", refork, finishTick);
        panicIf(sys->persistTrace() != reference,
                "mid-run fork diverged: restored persist trace does not "
                "match the uninterrupted run");
    }

    const CrashPointPlan plan = [&] {
        auto span = tracer.open("crash.plan");
        return planCrashPoints(std::move(enumerated), endTick, config);
    }();
    result.pointsInjected = static_cast<unsigned>(plan.points.size()) + 1;

    PointOutcome endOutcome = evaluate(sys->memory(), finishTick);
    MemoryImage machine = [&] {
        auto span = tracer.open("mem.clone");
        return sys->memory();
    }();
    sys.reset();
    std::vector<PointOutcome> outcomes;
    outcomes.reserve(plan.points.size());
    for (auto it = plan.points.rbegin(); it != plan.points.rend(); ++it) {
        const Tick when = *it;
        {
            auto span = tracer.open("mem.rewind");
            while (!admits.empty() && admits.back().when > when) {
                machine.undoAdmission(admits.back().undo);
                admits.pop_back();
            }
            machine.setLastAdmission(admits.empty()
                                         ? MemoryImage::AdmissionUndo{}
                                         : admits.back().undo);
            if (config.media.any()) {
                AdmissionRing ring;
                const std::size_t start =
                    admits.size() > MemoryImage::admissionRingDepth
                        ? admits.size() - MemoryImage::admissionRingDepth
                        : 0;
                for (std::size_t i = start; i < admits.size(); ++i)
                    ring.push_back(admits[i].undo);
                machine.setRecentAdmissions(std::move(ring));
            }
        }
        outcomes.push_back(evaluate(machine, when));
    }
    for (auto it = outcomes.rbegin(); it != outcomes.rend(); ++it)
        fold(std::move(*it));
    fold(std::move(endOutcome));
    if (pmosan) {
        c.out.persistsChecked += sanitizer.persistsChecked();
        if (!sanitizer.ok()) {
            CrashPointResult point;
            point.when = sanitizer.violations().empty()
                             ? finishTick
                             : sanitizer.violations()[0].when;
            ++result.pointsTested;
            if (result.failures.size() < 32)
                point.violation = sanitizer.report();
            result.failures.push_back(std::move(point));
        }
    }
    return result;
}

// ------------------------------------------------------------------ fuzz

/** Lowered streams and the oracle of one trial run (TrialRig). */
struct Rig
{
    InstrumentorParams ip;
    std::vector<OpStream> streams;
    std::optional<CrashOracle> oracle;
};

Rig
makeRig(const FuzzTrialContext &ctx, Ctx &c)
{
    Rig rig;
    rig.ip.design = ctx.spec.design;
    rig.ip.model = ctx.spec.model;
    rig.ip.logStyle = ctx.spec.logStyle;
    Instrumentor instr(rig.ip);
    rig.streams = lower(instr, ctx.recorded.trace, c);
    auto span = c.tracer.open("crash.oracle");
    rig.oracle.emplace(ctx.recorded.trace, instr.regionLog(),
                       ctx.recorded.preload, rig.ip.layout);
    return rig;
}

std::unique_ptr<System>
buildTrialSystem(const FuzzTrialContext &ctx, const Rig &rig,
                 DrainAdversary *adv, Ctx &c)
{
    auto span = c.tracer.open("core.build");
    SystemConfig sysCfg = ctx.spec.experiment.baseSystem;
    sysCfg.numCores = static_cast<unsigned>(rig.streams.size());
    sysCfg.design = ctx.spec.design;
    sysCfg.engine = ctx.spec.experiment.engine;
    sysCfg.layout = rig.ip.layout;
    sysCfg.adversary = adv;
    auto sys = std::make_unique<System>(sysCfg);
    sys->seedImage(ctx.recorded.preload);
    auto copies = rig.streams;
    sys->loadStreams(std::move(copies));
    return sys;
}

/** replayDecisions: the replay run with a check at every admission. */
FuzzReplayOutcome
replayTrial(const FuzzTrialContext &ctx, const DecisionLog &log,
            unsigned tornWords, Ctx &c)
{
    Tracer &tracer = c.tracer;
    FuzzReplayOutcome outcome;
    DrainAdversary adv = DrainAdversary::replaying(log);
    const Rig rig = makeRig(ctx, c);
    auto sys = buildTrialSystem(ctx, rig, &adv, c);
    const RecoveryManager recovery{rig.ip.layout};
    const unsigned programThreads = ctx.recorded.params.numThreads;

    auto inject = [&](Tick when, bool tearLast) {
        MemoryImage snapshot;
        {
            auto span = tracer.open("mem.clone");
            snapshot =
                !tearLast || tornWords >= wordsPerLine
                    ? sys->memory().clonePersisted()
                    : sys->memory().clonePersistedTorn(tornAdmitMask(
                          sys->memory().lastAdmissionMask(), tornWords));
        }
        std::vector<bool> committed;
        {
            auto span = tracer.open("crash.oracle");
            committed = rig.oracle->committedRegions(snapshot);
        }
        RecoveryOptions ropts;
        ropts.verifyChecksums = ctx.spec.verifyChecksums;
        RecoveryReport report;
        {
            auto span = tracer.open("runtime.recover.faithful");
            report = recovery.recover(snapshot, programThreads,
                                      RecoveryScan::Faithful, ropts);
        }
        c.tally(report.verdict);

        std::string err;
        if (report.verdict == RecoveryVerdict::Failed) {
            err = "recovery FAILED: metadata area poisoned";
        } else {
            auto span = tracer.open("crash.oracle");
            err = rig.oracle->checkRecovered(snapshot, committed, &report);
        }
        if (err.empty() && report.verdict == RecoveryVerdict::Full &&
            ctx.recorded.workload) {
            auto span = tracer.open("workloads.check");
            err = ctx.recorded.workload->checkInvariants(
                [&snapshot](Addr addr) {
                    return snapshot.readPersisted(addr);
                });
        }
        ++outcome.pointsChecked;
        if (err.empty())
            return;
        ++outcome.pointsFailed;
        if (!outcome.failed) {
            outcome.failed = true;
            outcome.crashTick = when;
            outcome.violation = std::move(err);
        }
    };

    AdmissionCallback injector(
        [&inject](const PersistRecord &rec) { inject(rec.when, true); });
    TraceHasher hasher;
    sys->addObserver(&injector);
    sys->addObserver(&hasher);
    outcome.endTick = c.run(*sys);
    inject(outcome.endTick, false);
    outcome.traceHash = hasher.value();
    outcome.hostEvents = sys->eventsServiced();
    outcome.simOps = static_cast<std::uint64_t>(sys->totalCommitted());
    c.collect(*sys, ctx.spec.design);
    return outcome;
}

/** runFuzzTrial's classic record+replay path. */
FuzzTrialResult
fuzzTrial(const FuzzTrialSpec &spec, Ctx &c)
{
    const unsigned forkBranches = spec.forkBranches.value_or(
        envConfig().fuzzForkBranch.value_or(0));
    if (spec.fork.value_or(envConfig().crashFork.value_or(false)) ||
        forkBranches > 0 || spec.media.any())
        throw std::invalid_argument(
            "the twin models classic record+replay fuzz trials only");
    if (spec.pmosan.value_or(envConfig().pmosan.value_or(false)))
        throw std::invalid_argument(
            "the twin does not model PMO-san on fuzz trials");

    const FuzzTrialContext ctx = [&] {
        auto span = c.tracer.open("workloads.record");
        return makeTrialContext(spec);
    }();
    FuzzTrialResult result;
    result.workloadSeed = ctx.workloadSeed;
    result.adversarySeed = ctx.adversarySeed;
    Rng torn(ctx.tornSeed);
    result.tornWords =
        torn.chance(0.5)
            ? wordsPerLine
            : static_cast<unsigned>(torn.nextRange(1, wordsPerLine - 1));

    std::uint64_t recordHash = 0;
    {
        AdversaryParams ap = spec.adversary;
        ap.seed = ctx.adversarySeed;
        DrainAdversary adv = DrainAdversary::recording(ap);
        const Rig rig = makeRig(ctx, c);
        auto sys = buildTrialSystem(ctx, rig, &adv, c);
        TraceHasher hasher;
        sys->addObserver(&hasher);
        c.run(*sys);
        recordHash = hasher.value();
        result.decisions = adv.log();
        result.queries = adv.queriesSeen();
        result.hostEvents += sys->eventsServiced();
        result.simOps += static_cast<std::uint64_t>(sys->totalCommitted());
        c.collect(*sys, spec.design);
    }

    const FuzzReplayOutcome outcome =
        replayTrial(ctx, result.decisions, result.tornWords, c);
    result.failed = outcome.failed;
    result.violation = outcome.violation;
    result.crashTick = outcome.crashTick;
    result.pointsChecked = outcome.pointsChecked;
    result.pointsFailed = outcome.pointsFailed;
    result.traceHash = outcome.traceHash;
    result.hostEvents += outcome.hostEvents;
    result.simOps += outcome.simOps;
    if (outcome.traceHash != recordHash) {
        result.replayDiverged = true;
        result.failed = true;
        if (result.violation.empty())
            result.violation = "replay divergence: persist trace of "
                               "the replay run does not match the "
                               "recording run";
    }
    return result;
}

/** runFuzzCell: trials, then ddmin for failing ones. */
FuzzCellResult
fuzzCell(const SweepCell &cell, Ctx &c)
{
    const FuzzCellConfig &config = cell.fuzz;
    if (!config.reproDir.empty())
        throw std::invalid_argument(
            "the twin does not write reproducer files");
    FuzzCellResult result;
    for (unsigned i = 0; i < config.trials; ++i) {
        FuzzTrialSpec spec = config.base;
        spec.seed = trialSeed(cell, i);
        const FuzzTrialResult trial = fuzzTrial(spec, c);
        c.out.trialHashes.push_back(trial.traceHash);
        ++result.trials;
        result.pointsChecked += trial.pointsChecked;
        result.queries += trial.queries;
        result.holds += trial.decisions.size();
        result.hostEvents += trial.hostEvents;
        result.simOps += trial.simOps;
        if (!trial.failed)
            continue;
        ++result.failingTrials;
        if (result.failures.size() >= config.maxFailures)
            continue;

        FuzzFailure failure;
        failure.trialSeed = spec.seed;
        failure.crashTick = trial.crashTick;
        failure.tornWords = trial.tornWords;
        failure.violation = trial.violation;
        failure.rawDecisions = trial.decisions.size();
        failure.replayDiverged = trial.replayDiverged;
        DecisionLog reduced = trial.decisions;
        if (config.shrink && !trial.replayDiverged) {
            const FuzzTrialContext ctx = [&] {
                auto span = c.tracer.open("workloads.record");
                return makeTrialContext(spec);
            }();
            auto span = c.tracer.open("fuzz.shrink");
            ShrinkResult shrunk =
                shrinkDecisions(ctx, trial.decisions, trial.tornWords,
                                config.shrinkBudget);
            c.out.shrinkReplays += shrunk.replays;
            if (shrunk.stillFails)
                reduced = std::move(shrunk.log);
        }
        failure.shrunkDecisions = reduced.size();
        failure.shrunk = std::move(reduced);
        result.failures.push_back(std::move(failure));
    }
    return result;
}

} // namespace

TwinOutput
runTwin(const SweepSpec &spec, Tracer &tracer)
{
    TwinOutput out;
    Ctx c{tracer, out, {}};

    // Record each shared workload again, as set-up did for the
    // untraced sweep.
    std::map<const RecordedWorkload *, RecordedWorkload> recorded;
    for (const SweepCell &cell : spec.cells) {
        if (!cell.recorded || recorded.count(cell.recorded.get()))
            continue;
        auto span = tracer.open("workloads.record");
        recorded.emplace(cell.recorded.get(),
                         recordWorkload(cell.recorded->kind,
                                        cell.recorded->params));
    }

    SweepResult &result = out.result;
    result.name = spec.name;
    result.jobs = 1;
    result.cells.resize(spec.cells.size());
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
        const SweepCell &cell = spec.cells[i];
        CellResult &cr = result.cells[i];
        cr.kind = cell.kind;
        cr.workload = cell.workload();
        cr.design = cell.design;
        cr.model = cell.model;
        cr.logStyle = cell.config.logStyle;
        cr.variant = cell.variant;
        cr.key = cell.key();
        cr.baseline = cell.baseline;
        cr.tornWords = cell.tornWords;
        cr.media = cell.media;

        auto span = tracer.open("bench.cell", static_cast<int>(i));
        try {
            switch (cell.kind) {
              case CellKind::Timing:
                cr.metrics =
                    timingCell(cell, recorded.at(cell.recorded.get()), c);
                cr.host.events = cr.metrics.hostEvents;
                cr.host.simOps = cr.metrics.simOps;
                break;
              case CellKind::Crash:
                cr.crash =
                    crashCell(cell, recorded.at(cell.recorded.get()), c);
                cr.host.events = cr.crash.hostEvents;
                cr.host.simOps = cr.crash.simOps;
                break;
              case CellKind::Fuzz:
                cr.fuzz = fuzzCell(cell, c);
                cr.host.events = cr.fuzz.hostEvents;
                cr.host.simOps = cr.fuzz.simOps;
                break;
            }
            cr.ok = true;
        } catch (const std::invalid_argument &) {
            throw;
        } catch (const std::exception &e) {
            cr.ok = false;
            cr.error = e.what();
        }
    }

    for (CellResult &cell : result.cells) {
        if (cell.baseline.empty() || !cell.ok)
            continue;
        const CellResult *base = result.find(cell.baseline);
        if (!base || !base->ok) {
            cell.ok = false;
            cell.error = "baseline cell " + cell.baseline +
                         (base ? " failed" : " not found");
            continue;
        }
        cell.speedup = cell.metrics.speedupOver(base->metrics);
    }
    return out;
}

std::vector<std::uint64_t>
referenceTrialHashes(const SweepSpec &spec)
{
    std::vector<std::uint64_t> hashes;
    for (const SweepCell &cell : spec.cells) {
        if (cell.kind != CellKind::Fuzz)
            continue;
        for (unsigned i = 0; i < cell.fuzz.trials; ++i) {
            FuzzTrialSpec trial = cell.fuzz.base;
            trial.seed = trialSeed(cell, i);
            hashes.push_back(runFuzzTrial(trial).traceHash);
        }
    }
    return hashes;
}

} // namespace perfbench
