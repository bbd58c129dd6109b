#include "crash/crash_harness.hh"

#include <algorithm>
#include <set>

#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "runtime/recovery.hh"
#include "sanitizer/pmo_sanitizer.hh"
#include "sim/random.hh"

namespace strand
{

CrashPointPlan
planCrashPoints(std::vector<Tick> enumerated, Tick endTick,
                const CrashHarnessConfig &config)
{
    CrashPointPlan plan;
    plan.requested = config.pointBudget;
    std::sort(enumerated.begin(), enumerated.end());
    enumerated.erase(
        std::unique(enumerated.begin(), enumerated.end()),
        enumerated.end());
    plan.enumerated = enumerated.size();
    if (config.pointBudget == 0)
        return plan;

    const std::size_t budget = config.pointBudget;
    const std::size_t count = enumerated.size();
    std::vector<Tick> &points = plan.points;
    if (count <= budget) {
        points = enumerated;
    } else if (budget == 1) {
        // With room for a single point, keep the last one: the fully
        // committed end-of-enumeration state is the one the old
        // sampler silently skipped.
        points.push_back(enumerated.back());
    } else {
        // Even sampling that retains both endpoints: i*(N-1)/(B-1)
        // walks index 0 to N-1 with average stride (N-1)/(B-1) >= 1
        // (N > B here), so all B indices are distinct.
        points.reserve(budget);
        for (std::size_t i = 0; i < budget; ++i)
            points.push_back(enumerated[i * (count - 1) /
                                        (budget - 1)]);
    }

    // Random ticks between admissions probe the same persisted
    // states through an independent path. An empty enumeration means
    // the run persisted nothing — there is no state to probe, so no
    // top-up. Drawn ticks that collide with selected ones are
    // redrawn (bounded), never silently double-counted.
    if (count > 0 && endTick > 0) {
        const std::size_t target = std::min(budget, count) / 4 + 1;
        Rng rng(config.seed);
        std::set<Tick> chosen(points.begin(), points.end());
        std::size_t accepted = 0;
        for (std::size_t attempt = 0;
             accepted < target && attempt < 4 * target + 16;
             ++attempt) {
            if (chosen.insert(rng.nextRange(1, endTick)).second)
                ++accepted;
        }
        points.assign(chosen.begin(), chosen.end());
    }
    return plan;
}

namespace
{

/**
 * Admit-mask for tearing the most recent admission: the first
 * @p tornWords written words of @p written stay durable.
 */
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

/** One evaluated crash point, before folding into the cell result. */
struct PointOutcome : CrashPointCheck
{
    Tick when = 0;
};

} // namespace

CrashPointCheck
CrashPointChecker::check(
    const MemoryImage &machine, unsigned tornWords,
    const std::function<void(MemoryImage &)> &strike) const
{
    CrashPointCheck result;
    MemoryImage snapshot;
    if (tornWords >= wordsPerLine) {
        snapshot = machine.clonePersisted();
    } else {
        // Tear the final admission: keep the first tornWords of its
        // written words, revert the rest to their prior persisted
        // state.
        snapshot = machine.clonePersistedTorn(
            tornAdmitMask(machine.lastAdmissionMask(), tornWords));
    }
    // Media faults strike the frozen snapshot — the moment the power
    // failed — before the oracle classifies regions, so the oracle
    // reasons over exactly the state recovery sees.
    strike(snapshot);
    std::vector<bool> committed = oracle.committedRegions(snapshot);
    result.report =
        recovery.recover(snapshot, programThreads, scan, options);

    if (result.report.verdict == RecoveryVerdict::Failed) {
        result.violation = "recovery FAILED: metadata area poisoned";
    } else {
        result.violation =
            oracle.checkRecovered(snapshot, committed, &result.report);
    }
    // Structural invariants assume every region was resolved; a
    // degraded recovery deliberately leaves quarantined threads'
    // regions unresolved ("degraded but consistent"), so only FULL
    // verdicts are held to them (media off always yields FULL).
    if (result.violation.empty() && workload &&
        result.report.verdict == RecoveryVerdict::Full) {
        auto read = [&snapshot](Addr addr) {
            return snapshot.readPersisted(addr);
        };
        result.violation = workload->checkInvariants(read);
    }
    return result;
}

CrashCellResult
runCrashCell(const RecordedWorkload &recorded, HwDesign design,
             PersistencyModel model, const CrashHarnessConfig &config)
{
    CrashCellResult result;
    result.design = design;
    result.model = model;
    result.workload =
        recorded.workload ? recorded.workload->name() : "?";
    result.pointsRequested = config.pointBudget;

    const LoweredWorkload lowered =
        lowerWorkload(recorded, design, model, config.logStyle);
    const LogLayout &layout = lowered.params.layout;
    CrashOracle oracle(recorded.trace, lowered.regionLog,
                       recorded.preload, layout);
    // Every run records flush completions, the enumerated crash
    // points beside the admissions.
    ExperimentConfig experiment = config.experiment;
    experiment.engine.recordCompletionTicks = true;

    if (config.pointBudget == 0)
        return result;

    const bool forked =
        config.fork.value_or(envConfig().crashFork.value_or(false));
    const bool pmosan =
        config.pmosan.value_or(envConfig().pmosan.value_or(false));
    // The paged scan is what makes forking cheap; the two-run oracle
    // stays on the faithful per-slot page lookup so the CI
    // differential gate also cross-checks the two scans' run
    // arithmetic against each other.
    const CrashPointChecker checker{
        .oracle = oracle,
        .recovery = RecoveryManager{layout},
        .programThreads = recorded.params.numThreads,
        .scan = forked ? RecoveryScan::Paged : RecoveryScan::Faithful,
        .options = {.verifyChecksums = config.verifyChecksums},
        .workload = recorded.workload.get()};

    // Run @p sys to completion and count its host work. A run that
    // enumerates crash points also appends its engines' completion
    // ticks to @p enumerated.
    auto run = [&](System &sys, std::vector<Tick> *enumerated) {
        const Tick end = sys.run();
        result.hostEvents += sys.eventsServiced();
        result.simOps +=
            static_cast<std::uint64_t>(sys.totalCommitted());
        for (CoreId i = 0; enumerated && i < sys.numCores(); ++i) {
            const std::vector<Tick> &ticks =
                sys.core(i).persistEngine().completionTicks();
            enumerated->insert(enumerated->end(), ticks.begin(),
                               ticks.end());
        }
        return end;
    };

    // Evaluate one crash point against @p machine's persisted view;
    // @p machine is never written.
    auto evaluate = [&](const MemoryImage &machine, Tick when) {
        auto strike = [&](MemoryImage &snapshot) {
            if (config.media.any()) {
                applyMediaFaults(snapshot, machine.recentAdmissions(),
                                 config.media, layout, when);
            }
        };
        return PointOutcome{
            checker.check(machine, config.tornWords, strike), when};
    };

    // Fold an outcome into the cell result. Both modes fold in
    // injection order (ascending ticks, end-of-run last), so the
    // result — counters and failure list — is identical between them
    // by construction.
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
        if (outcome.violation.empty()) {
            ++result.pointsPassed;
            return;
        }
        CrashPointResult point;
        point.when = outcome.when;
        point.entriesRolledBack = outcome.report.entriesRolledBack;
        point.redoEntriesReplayed =
            outcome.report.redoEntriesReplayed;
        if (result.failures.size() < 32)
            point.violation = std::move(outcome.violation);
        result.failures.push_back(std::move(point));
    };

    auto foldSanitizer = [&](const PmoSanitizer &sanitizer,
                             Tick finishTick) {
        if (sanitizer.ok())
            return;
        // A persist-order violation is a failure of the cell even
        // when every snapshot happened to recover: it means an
        // ordering the program asked for was not honored by the
        // hardware model.
        CrashPointResult point;
        point.when = sanitizer.violations().empty()
                         ? finishTick
                         : sanitizer.violations()[0].when;
        ++result.pointsTested;
        if (result.failures.size() < 32)
            point.violation = sanitizer.report();
        result.failures.push_back(std::move(point));
    };

    if (forked) {
        // Warm run: enumerate crash points AND capture the pre-image
        // of every ADR admission. The admission observer fires right
        // after persistLine(), so lastAdmissionUndo() is exactly this
        // admission's delta.
        std::vector<Tick> enumerated;
        struct AdmitDelta
        {
            Tick when;
            MemoryImage::AdmissionUndo undo;
        };
        std::vector<AdmitDelta> admits;
        auto sys = buildSystem(recorded, lowered, experiment);
        PmoSanitizer sanitizer;
        if (pmosan)
            sys->addObserver(&sanitizer);

        // Mid-run full-machine captures at power-of-two admission
        // counts, with the sanitizer's state beside each, for the
        // determinism check below.
        MidrunCaptures<PmoSanitizer::State> captures(
            *sys, "crash-fork", [&] { return sanitizer.snapshotState(); });
        AdmissionCallback admissions(
            [&](const PersistRecord &rec) {
                enumerated.push_back(rec.when);
                admits.push_back(
                    {rec.when, sys->memory().lastAdmissionUndo()});
                if (config.verifyMidrunFork)
                    captures.count();
            });
        sys->addObserver(&admissions);
        const Tick finishTick = run(*sys, &enumerated);

        // Determinism check: rewind the whole machine to the older
        // capture and re-run the tail. The restored execution must be
        // bit-identical to the uninterrupted one — same finish tick,
        // same persist trace — or the forked results cannot be
        // trusted. The admission observer is detached first so the
        // replayed tail does not duplicate enumeration state; the
        // sanitizer is rewound alongside and re-checks the tail.
        if (!captures.empty()) {
            captures.stop();
            sys->removeObserver(&admissions);
            const auto &cap = captures.older();
            const std::vector<PersistRecord> reference =
                sys->persistTrace();
            inform("crash-fork restore @{} (finish {}): re-running "
                   "tail for the determinism check",
                   cap.when, finishTick);
            sys->restore(cap.snap);
            sanitizer.restoreState(cap.extra);
            const Tick refork = sys->run();
            panicIf(refork != finishTick,
                    "mid-run fork diverged: restored run finished at "
                    "{} instead of {}", refork, finishTick);
            panicIf(sys->persistTrace() != reference,
                    "mid-run fork diverged: restored persist trace "
                    "does not match the uninterrupted run");
        }

        CrashPointPlan plan =
            planCrashPoints(std::move(enumerated), finishTick, config);
        result.pointsInjected =
            static_cast<unsigned>(plan.points.size()) + 1;

        // The end-of-run point needs no rewind: evaluate it on the
        // final image directly (folded last, as in two-run mode).
        PointOutcome endOutcome =
            evaluate(sys->memory(), finishTick);

        // Fork the final image and rewind the admission chain,
        // newest first. At each planned point T the reconstructed
        // persisted view holds every admission with when <= T —
        // identical to what a Stat-priority injection at T observes
        // in the two-run mode.
        MemoryImage machine = sys->memory();
        sys.reset();
        std::vector<PointOutcome> outcomes;
        outcomes.reserve(plan.points.size());
        for (auto it = plan.points.rbegin();
             it != plan.points.rend(); ++it) {
            const Tick when = *it;
            while (!admits.empty() && admits.back().when > when) {
                machine.undoAdmission(admits.back().undo);
                admits.pop_back();
            }
            machine.setLastAdmission(
                admits.empty() ? MemoryImage::AdmissionUndo{}
                               : admits.back().undo);
            // Media faults draw partial-drain and content targets
            // from the admission ring; restore the ring a crash at
            // this tick would have left so both harness modes pick
            // identical fault candidates.
            if (config.media.any()) {
                AdmissionRing ring;
                std::size_t start =
                    admits.size() > MemoryImage::admissionRingDepth
                        ? admits.size() -
                              MemoryImage::admissionRingDepth
                        : 0;
                for (std::size_t i = start; i < admits.size(); ++i)
                    ring.push_back(admits[i].undo);
                machine.setRecentAdmissions(std::move(ring));
            }
            outcomes.push_back(evaluate(machine, when));
        }
        for (auto it = outcomes.rbegin(); it != outcomes.rend();
             ++it)
            fold(std::move(*it));
        fold(std::move(endOutcome));
        foldSanitizer(sanitizer, finishTick);
    } else {
        // Reference run: enumerate candidate crash points. Persisted
        // state only changes at ADR admissions, so the admission
        // ticks cover every distinct post-crash image.
        std::vector<Tick> enumerated;
        Tick endTick = 0;
        {
            auto ref = buildSystem(recorded, lowered, experiment);
            AdmissionCallback admissions(
                [&enumerated](const PersistRecord &rec) {
                    enumerated.push_back(rec.when);
                });
            ref->addObserver(&admissions);
            endTick = run(*ref, &enumerated);
        }
        CrashPointPlan plan =
            planCrashPoints(std::move(enumerated), endTick, config);
        result.pointsInjected =
            static_cast<unsigned>(plan.points.size()) + 1;

        // Injection run: identical schedule; the snapshot callbacks
        // are pure observers, so timing is not perturbed. Injections
        // run at Stat priority — after every same-tick admission
        // (MemoryResponse) — pinning the "state at tick T" semantics
        // the forked mode reconstructs.
        auto sys = buildSystem(recorded, lowered, experiment);
        PmoSanitizer sanitizer;
        if (pmosan)
            sys->addObserver(&sanitizer);
        for (Tick when : plan.points)
            sys->eventQueue().schedule(
                when,
                [&, when] { fold(evaluate(sys->memory(), when)); },
                EventPriority::Stat);
        const Tick finishTick = run(*sys, nullptr);
        // The completed run is one more crash point: a failure after
        // the last persist must recover to the final state.
        fold(evaluate(sys->memory(), finishTick));
        foldSanitizer(sanitizer, finishTick);
    }
    return result;
}

} // namespace strand
