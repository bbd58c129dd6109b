#include "fuzz/fuzz_trial.hh"

#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "crash/crash_harness.hh"
#include "runtime/recovery.hh"
#include "sanitizer/pmo_sanitizer.hh"
#include "sim/random.hh"

namespace strand
{

FuzzTrialContext
makeTrialContext(const FuzzTrialSpec &spec)
{
    FuzzTrialContext ctx;
    ctx.spec = spec;
    ctx.workloadSeed = mixSeed(spec.seed, 1);
    ctx.adversarySeed = mixSeed(spec.seed, 2);
    ctx.tornSeed = mixSeed(spec.seed, 3);

    WorkloadParams params;
    params.numThreads = spec.numThreads;
    params.opsPerThread = spec.opsPerThread;
    params.seed = ctx.workloadSeed;
    ctx.recorded = recordWorkload(spec.kind, params);
    return ctx;
}

namespace
{

bool
pmosanEnabled(const FuzzTrialSpec &spec)
{
    return spec.pmosan.value_or(envConfig().pmosan.value_or(false));
}

/**
 * Forked schedule branching: inputs and outcome of the extra suffix
 * explorations run from mid-run machine snapshots.
 */
struct BranchProbe
{
    /** Suffixes to explore from the warm prefix (0 = off). */
    unsigned branches = 0;
    /** SplitMix stream base for the per-branch adversary seeds. */
    std::uint64_t seedBase = 0;

    unsigned branchesRun = 0;
    bool failed = false;
    /** 1-based index of the first failing branch. */
    unsigned failingBranch = 0;
    /** Full decision log of the failing branch (prefix + suffix). */
    DecisionLog failingLog;
    /** queriesSeen() at the end of the failing branch. */
    std::uint64_t failingQueries = 0;
    /** End-to-end persist-trace hash of the failing branch. */
    std::uint64_t traceHash = 0;
    /** Kernel events / committed ops spent on branch tails. */
    std::uint64_t hostEvents = 0;
    std::uint64_t simOps = 0;
};

/** The trial state a branch rewinds beside the machine. */
struct BranchPrefix
{
    DrainAdversary::State adv;
    PmoSanitizer::State san;
    std::uint64_t hash = 0;
    FuzzReplayOutcome outcome;
    std::uint64_t serviced = 0;
    std::uint64_t committed = 0;
};

/**
 * Run one system under @p adv with crash-recovery injection at every
 * admission and after completion. The shared core of the replay run
 * (replaying adversary) and of the forked fast path (recording
 * adversary). A non-null @p probe with a branch budget additionally
 * snapshots the machine at power-of-two adversary query counts and,
 * when the main schedule passes, explores @c probe->branches
 * reseeded suffixes from the older capture.
 */
FuzzReplayOutcome
runWithInjection(const FuzzTrialContext &ctx, DrainAdversary &adv,
                 unsigned tornWords, BranchProbe *probe = nullptr)
{
    FuzzReplayOutcome outcome;
    const FuzzTrialSpec &spec = ctx.spec;
    const LoweredWorkload lowered = lowerWorkload(
        ctx.recorded, spec.design, spec.model, spec.logStyle);
    const LogLayout &layout = lowered.params.layout;
    const CrashOracle oracle(ctx.recorded.trace, lowered.regionLog,
                             ctx.recorded.preload, layout);

    auto sys = buildSystem(ctx.recorded, lowered, spec.experiment, &adv);
    const CrashPointChecker checker{
        .oracle = oracle,
        .recovery = RecoveryManager{layout},
        .programThreads = ctx.recorded.params.numThreads,
        .options = {.verifyChecksums = spec.verifyChecksums},
        .workload = ctx.recorded.workload.get()};

    // Each media fault class asks the adversary per opportunity;
    // fired decisions carry their entropy in the log, so replay and
    // ddmin apply them exactly.
    const std::function<void(MemoryImage &)> strike =
        [&](MemoryImage &snapshot) {
        if (!spec.media.any())
            return;
        const AdmissionRing ring = sys->memory().recentAdmissions();
        unsigned dropped = 0;
        for (unsigned i = 0; i < spec.media.dropAdmissions; ++i) {
            if (!adv.considerMedia(FuzzSite::MediaDrop))
                continue;
            if (!mediaDropNewest(snapshot, ring, dropped))
                break;
        }
        for (unsigned i = 0; i < spec.media.bitFlips; ++i) {
            if (auto entropy = adv.considerMedia(FuzzSite::MediaFlip))
                mediaFlipBit(snapshot, ring, dropped, layout, *entropy);
        }
        for (unsigned i = 0; i < spec.media.poisonLines; ++i) {
            if (auto entropy =
                    adv.considerMedia(FuzzSite::MediaPoison)) {
                mediaPoisonLine(snapshot, ring, dropped, layout,
                                *entropy);
            }
        }
    };

    // @p tearLast tears the admission that just happened.
    auto inject = [&](Tick when, bool tearLast) {
        const unsigned torn = tearLast ? tornWords : wordsPerLine;
        std::string err =
            checker.check(sys->memory(), torn, strike).violation;
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

    // Persisted state changes only at ADR admissions, so checking in
    // an admission observer covers every distinct post-crash image
    // this schedule can produce.
    AdmissionCallback injector([&inject](const PersistRecord &rec) {
        inject(rec.when, true);
    });
    TraceHasher hasher;
    PmoSanitizer sanitizer;
    sys->addObserver(&injector);
    sys->addObserver(&hasher);
    if (pmosanEnabled(spec))
        sys->addObserver(&sanitizer);

    // Run to completion, then check the completed run — a crash after
    // the last persist must recover to the final state — and fold in
    // the sanitizer's verdict. The main run and every branch end here.
    auto finish = [&] {
        outcome.endTick = sys->run();
        inject(outcome.endTick, false);
        if (sanitizer.ok())
            return;
        // Persist-order violations ride the same failure path as
        // recovery violations, so shrinking and .repro dumps apply.
        outcome.pointsFailed += 1;
        if (!outcome.failed) {
            outcome.failed = true;
            outcome.crashTick = sanitizer.violations().empty()
                                    ? outcome.endTick
                                    : sanitizer.violations()[0].when;
            outcome.violation = sanitizer.report();
        }
    };

    // Branching mode: capture the whole machine, with the trial state
    // a branch rewinds, at power-of-two adversary query counts.
    // Branches fork from the older kept capture, so a non-trivial
    // suffix of the schedule remains to explore.
    MidrunCaptures<BranchPrefix> captures(*sys, "fuzz-fork", [&] {
        return BranchPrefix{
            .adv = adv.snapshotState(),
            .san = sanitizer.snapshotState(),
            .hash = hasher.value(),
            .outcome = outcome,
            .serviced = sys->eventsServiced(),
            .committed =
                static_cast<std::uint64_t>(sys->totalCommitted())};
    });
    if (probe && probe->branches > 0)
        adv.setQueryHook([&](std::uint64_t) { captures.count(); });

    finish();
    outcome.traceHash = hasher.value();
    outcome.hostEvents = sys->eventsServiced();
    outcome.simOps =
        static_cast<std::uint64_t>(sys->totalCommitted());

    if (probe && !captures.empty() && !outcome.failed) {
        // The main schedule passed: rewind to the older capture and
        // explore reseeded suffixes. Each branch restores machine,
        // adversary, hasher, and sanitizer to the same warm prefix,
        // then lets a fresh decision stream produce a different legal
        // schedule tail. The first failing branch stops exploration;
        // its full log is handed back for oracle confirmation.
        captures.stop();
        const auto &cap = captures.older();
        const BranchPrefix &prefix = cap.extra;
        const FuzzReplayOutcome mainOutcome = outcome;
        const DrainAdversary::State mainAdv = adv.snapshotState();
        for (unsigned b = 1;
             b <= probe->branches && !probe->failed; ++b) {
            sys->restore(cap.snap);
            adv.restoreState(prefix.adv);
            adv.reseed(mixSeed(probe->seedBase, b));
            hasher.restoreValue(prefix.hash);
            sanitizer.restoreState(prefix.san);
            outcome = prefix.outcome;
            inform("fuzz-fork branch {} from @{}", b, cap.when);
            finish();
            ++probe->branchesRun;
            probe->hostEvents += sys->eventsServiced() - prefix.serviced;
            probe->simOps +=
                static_cast<std::uint64_t>(sys->totalCommitted()) -
                prefix.committed;
            if (outcome.failed) {
                probe->failed = true;
                probe->failingBranch = b;
                probe->failingLog = adv.log();
                probe->failingQueries = adv.queriesSeen();
                probe->traceHash = hasher.value();
            }
        }
        // Hand the main schedule's log and outcome back to the
        // caller; the branches' state lives in the probe.
        adv.restoreState(mainAdv);
        outcome = mainOutcome;
    }
    // The hook refers to this frame; the caller's adversary outlives it.
    adv.setQueryHook({});
    return outcome;
}

const char *const replayDivergence =
    "replay divergence: persist trace of the replay run does not "
    "match the recording run";

/**
 * Make the checked run @p outcome the trial's verdict and count its
 * host work. A persist trace other than @p referenceHash means the
 * replayed schedule did not reproduce the run it confirms — an
 * infrastructure bug, failed as its own class (with @p divergence as
 * the message when nothing else failed) so campaigns surface it
 * instead of silently mis-shrinking.
 */
void
adopt(FuzzTrialResult &result, const FuzzReplayOutcome &outcome,
      std::uint64_t referenceHash, const char *divergence)
{
    result.failed = outcome.failed;
    result.violation = outcome.violation;
    result.crashTick = outcome.crashTick;
    result.pointsChecked = outcome.pointsChecked;
    result.pointsFailed = outcome.pointsFailed;
    result.traceHash = outcome.traceHash;
    result.hostEvents += outcome.hostEvents;
    result.simOps += outcome.simOps;
    if (outcome.traceHash == referenceHash)
        return;
    result.replayDiverged = true;
    result.failed = true;
    if (result.violation.empty())
        result.violation = divergence;
}

} // namespace

FuzzReplayOutcome
replayDecisions(const FuzzTrialContext &ctx, const DecisionLog &log,
                unsigned tornWords)
{
    DrainAdversary adv = DrainAdversary::replaying(log);
    return runWithInjection(ctx, adv, tornWords);
}

FuzzTrialResult
runFuzzTrial(const FuzzTrialSpec &spec)
{
    FuzzTrialContext ctx = makeTrialContext(spec);

    FuzzTrialResult result;
    result.workloadSeed = ctx.workloadSeed;
    result.adversarySeed = ctx.adversarySeed;

    // Torn-word mask for every injection of this trial: half the
    // trials keep admissions whole, the rest tear the final line
    // after 1..7 words. Drawn from its own seed stream, so both
    // trial modes see the same mask.
    Rng torn(ctx.tornSeed);
    result.tornWords =
        torn.chance(0.5) ? wordsPerLine
                         : static_cast<unsigned>(
                               torn.nextRange(1, wordsPerLine - 1));

    // Branch exploration needs the single warm run's snapshots, so a
    // non-zero branch count implies the forked trial path.
    const unsigned forkBranches = spec.forkBranches.value_or(
        envConfig().fuzzForkBranch.value_or(0));
    // Media fuzzing also implies it: the classic recording run has no
    // injection attached, so media opportunities would never be seen
    // (and never logged) outside the forked path.
    const bool forked =
        spec.fork.value_or(envConfig().crashFork.value_or(false)) ||
        forkBranches > 0 || spec.media.any();
    if (forked) {
        // Forked fast path: ONE recording run with injection
        // attached. The injection observers are pure (they clone the
        // image and recover the clone), so the adversary sees the
        // schedule of a recording-only run and logs the identical
        // decisions. A passing trial is done after this single run —
        // roughly half the classic wall-clock.
        AdversaryParams ap = spec.adversary;
        ap.seed = ctx.adversarySeed;
        DrainAdversary adv = DrainAdversary::recording(ap);
        BranchProbe probe;
        probe.branches = forkBranches;
        // Branch seeds come from their own SplitMix stream so branch
        // k never collides with the trial's workload/adversary/torn
        // sub-seeds (streams 1..3).
        probe.seedBase = mixSeed(ctx.adversarySeed, 0x5eed);
        FuzzReplayOutcome fast =
            runWithInjection(ctx, adv, result.tornWords, &probe);
        result.decisions = adv.log();
        result.queries = adv.queriesSeen();
        result.hostEvents += probe.hostEvents;
        result.simOps += probe.simOps;
        result.branchesExplored = probe.branchesRun;
        if (!fast.failed && !probe.failed) {
            // Nothing to confirm: the fast run is its own reference.
            adopt(result, fast, fast.traceHash, replayDivergence);
            return result;
        }
        // Confirm the failure through the oracle path: replay its
        // full decision log from tick 0, exactly what the shrinker
        // will do. The replay must reproduce the failing run's
        // persist trace bit for bit.
        result.hostEvents += fast.hostEvents;
        result.simOps += fast.simOps;
        std::uint64_t reference = fast.traceHash;
        const char *divergence = replayDivergence;
        if (probe.failed) {
            // The main schedule passed but a forked suffix failed. A
            // replay that does not reproduce the restored-prefix
            // execution means snapshot restore is not deterministic.
            result.decisions = probe.failingLog;
            result.queries = probe.failingQueries;
            result.failingBranch = probe.failingBranch;
            reference = probe.traceHash;
            divergence = "replay divergence: replaying the forked "
                         "branch's decision log does not reproduce "
                         "the restored-snapshot execution";
        }
        adopt(result,
              replayDecisions(ctx, result.decisions, result.tornWords),
              reference, divergence);
        return result;
    }

    // Recording run: execute under a fresh adversarial schedule, no
    // injection, capture the decision log and the persist trace.
    std::uint64_t recordHash = 0;
    {
        AdversaryParams ap = spec.adversary;
        ap.seed = ctx.adversarySeed;
        DrainAdversary adv = DrainAdversary::recording(ap);
        auto sys = buildSystem(
            ctx.recorded,
            lowerWorkload(ctx.recorded, spec.design, spec.model,
                          spec.logStyle),
            spec.experiment, &adv);
        TraceHasher hasher;
        sys->addObserver(&hasher);
        sys->run();
        recordHash = hasher.value();
        result.decisions = adv.log();
        result.queries = adv.queriesSeen();
        result.hostEvents += sys->eventsServiced();
        result.simOps +=
            static_cast<std::uint64_t>(sys->totalCommitted());
    }
    adopt(result,
          replayDecisions(ctx, result.decisions, result.tornWords),
          recordHash, replayDivergence);
    return result;
}

} // namespace strand
