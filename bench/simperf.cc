/**
 * @file
 * Simulator-throughput microbench: how fast the *host* executes the
 * simulation, independent of what the simulation computes. Fixed-seed
 * sections cover the kernel hot paths this repo leans on:
 *
 *   event_churn     64 self-rescheduling one-shot chains, each fire
 *                   also scheduling a one-shot wake — the shape of
 *                   Core's compute and lock delays.
 *   recurring_churn the same chains on the EventQueue::Recurring
 *                   fast path (one pooled record re-armed in place),
 *                   each fire re-arming its wake only when the wake
 *                   is idle, as Core::wake does. Both churn sections
 *                   arm off-cycle ticks, so they time the kernel's
 *                   fallback heap.
 *   event_wheel     64 chains on 500-tick cycle boundaries re-armed
 *                   with a fig7 pass's delta mix, the traffic the
 *                   timing wheel serves; fatals unless it services
 *                   the fixed event count and only the arms past the
 *                   wheel's horizon went to the heap.
 *   cache_lookup    CacheArray::findLine on a full Table I L1 (32 KiB,
 *                   2-way), probing every line round-robin; fatals
 *                   unless every probe hits.
 *   image_clone     MemoryImage::clonePersisted / clonePersistedTorn,
 *                   the crash- and fuzz-harness inner loop.
 *   fork_setup      the forked crash harness's per-campaign setup: one
 *                   image copy plus the full newest-first
 *                   undoAdmission rewind walk. Like image_clone it is
 *                   page-copy/page-write bound, so the CI guard
 *                   compares the two sections' RATIO against the
 *                   baseline ratio (host speed cancels out).
 *   fig7_cell       one fig7-shaped timing cell end to end, the
 *                   integrated number the sweeps are made of.
 *   midrun_fork     full-machine mid-run snapshot forking: one warm
 *                   run captured at its 64th ADR admission, then
 *                   repeated System::restore() + tail re-execution.
 *                   Simulation-bound like fig7_cell, so the CI guard
 *                   compares the two sections' RATIO against the
 *                   recorded reference (host speed cancels out).
 *   machine_snapshot full-machine capture cost: System::snapshot()
 *                   calls taken between short run segments of the
 *                   midrun_fork machine. The first capture is then
 *                   restored and re-run, and the section fatals
 *                   unless the finish tick and persist trace match
 *                   the uninterrupted run.
 *   port_roundtrip  the MemPort mailbox itself: chained send →
 *                   handleRequest → respond round trips against a
 *                   minimal responder. Each trip costs two scheduled
 *                   events and 2*portLegLatency simulated ticks; the
 *                   section reports trips and events per second.
 *   machine_build_cold, machine_build
 *                   buildSystem on the fork machine's recording at
 *                   the Table I geometry. A cold build first seeds
 *                   the recording (the preload and the ~66K-line warm
 *                   L2, which every build paid before machine seeds);
 *                   the other builds are served from that seed. The
 *                   sections fatal unless the served builds share one
 *                   seed and a served machine replays a cold one's
 *                   run.
 *
 * Everything is seeded and sized by constants, so the *work* is
 * identical run to run; only the wall-clock varies. Results land in
 * <SW_OUT_DIR>/BENCH_simperf.json for trajectory tooling; compare
 * against bench/baseline/simperf_seed.json, recorded on a 4-vCPU host,
 * for speedups.
 */

#include <malloc.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cache/cache_array.hh"
#include "core/experiment.hh"
#include "core/env_config.hh"
#include "core/observer_util.hh"
#include "mem/memory_image.hh"
#include "mem/port.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace strand;

namespace
{

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** One measured section, as printed and as written to JSON. */
struct Section
{
    std::string name;
    std::uint64_t units = 0; ///< events / clones / runs
    double wallMs = 0;
    double unitsPerSec = 0;
};

constexpr unsigned churnChains = 64;
constexpr std::uint64_t churnFires = 4'000'000;

/**
 * The one-shot churn pattern: every fire schedules a one-shot wake
 * and reschedules itself, so each fire allocates two records from the
 * pool and every wake fires.
 */
Section
runEventChurn()
{
    EventQueue eq;
    std::uint64_t fires = 0;
    std::vector<std::function<void()>> tickFns(churnChains);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < churnChains; ++c) {
        tickFns[c] = [&eq, &fires, &tickFns, c] {
            ++fires;
            eq.scheduleIn(700, [] {}, EventPriority::Default);
            if (fires < churnFires)
                eq.scheduleIn(500, tickFns[c],
                              EventPriority::CpuTick);
        };
        eq.schedule(c, tickFns[c], EventPriority::CpuTick);
    }
    eq.run();
    Section s{"event_churn", eq.serviced(), msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("event_churn:     events=%llu wall_ms=%.1f "
                "events_per_sec=%.3g (arena %zu records)\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec, eq.arenaRecords());
    return s;
}

/** The same chains on the Recurring fast path: zero allocation in
 * steady state. */
Section
runRecurringChurn()
{
    EventQueue eq;
    std::uint64_t fires = 0;
    std::vector<EventQueue::Recurring> ticks(churnChains);
    std::vector<EventQueue::Recurring> wakes(churnChains);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < churnChains; ++c) {
        wakes[c].init(eq, [] {}, EventPriority::Default);
        ticks[c].init(eq, [&eq, &fires, &ticks, &wakes, c] {
            ++fires;
            if (!wakes[c].scheduled())
                wakes[c].scheduleIn(700);
            if (fires < churnFires)
                ticks[c].scheduleIn(500);
        }, EventPriority::CpuTick);
        ticks[c].schedule(c);
    }
    eq.run();
    Section s{"recurring_churn", eq.serviced(), msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("recurring_churn: events=%llu wall_ms=%.1f "
                "events_per_sec=%.3g (arena %zu records)\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec, eq.arenaRecords());
    return s;
}

constexpr unsigned wheelChains = 64;
constexpr std::uint64_t wheelFires = 4'000'000;

/**
 * The cycle-aligned traffic a machine arms: chains that fire on 500-tick
 * core-cycle boundaries, each fire re-arming its chain once with a fig7
 * cell's delta mix (EXPERIMENTS.md, "Dispatch from a cycle-slotted
 * wheel"). Only the arms past the wheel's horizon may reach the heap.
 */
Section
runEventWheel()
{
    constexpr Tick cycle = coreClockPeriod;
    // In cycles: the wheel's slot count.
    constexpr Tick horizon = 1024;
    struct Chains
    {
        EventQueue eq;
        Rng rng{0x3e11};
        std::uint64_t fires = 0;
        std::uint64_t pastHorizon = 0;

        void
        arm(unsigned c)
        {
            // Per mille, as a fig7 pass arms them: +1 cycle 803, +0 at
            // a lower priority 73, +4 cycles 51, 2-63 cycles 30,
            // 64-1023 cycles 41, past the horizon 2.
            const std::uint64_t draw = rng.nextBounded(1000);
            Tick cycles = 1;
            EventPriority prio = EventPriority::CpuTick;
            if (draw >= 998) {
                cycles = rng.nextRange(horizon, 4 * horizon);
                ++pastHorizon;
            } else if (draw >= 957) {
                cycles = rng.nextRange(64, horizon - 1);
            } else if (draw >= 927) {
                cycles = rng.nextRange(2, 63);
            } else if (draw >= 876) {
                cycles = 4;
            } else if (draw >= 803) {
                cycles = 0;
                prio = EventPriority::Stat;
            }
            eq.scheduleIn(cycles * cycle, [this, c] { fire(c); }, prio);
        }

        void
        fire(unsigned c)
        {
            if (++fires < wheelFires)
                arm(c);
        }
    };
    Chains chains;
    EventQueue &eq = chains.eq;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < wheelChains; ++c)
        eq.schedule(c * cycle, [&chains, c] { chains.fire(c); },
                    EventPriority::CpuTick);
    eq.run();
    Section s{"event_wheel", eq.serviced(), msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    fatalIf(eq.serviced() != wheelFires + wheelChains - 1,
            "event_wheel: serviced {} events, expected {}", eq.serviced(),
            wheelFires + wheelChains - 1);
    fatalIf(eq.heapArms() != chains.pastHorizon ||
                eq.wheelArms() + eq.heapArms() != eq.serviced(),
            "event_wheel: {} arms went to the heap, but only the {} past "
            "the horizon should have",
            eq.heapArms(), chains.pastHorizon);
    std::printf("event_wheel:     events=%llu wall_ms=%.1f "
                "events_per_sec=%.3g (heap arms %llu)\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec,
                static_cast<unsigned long long>(eq.heapArms()));
    return s;
}

/**
 * The tag-array probe on its hit path: a Table I L1 (32 KiB, 2-way)
 * holding every line of a 32 KiB range, probed line by line
 * round-robin through the mutable findLine() a hierarchy hit uses.
 */
Section
runCacheLookup()
{
    constexpr std::uint64_t bytes = 32 * 1024;
    constexpr std::uint64_t rounds = 40'000;
    CacheArray array(bytes, 2);
    for (Addr line = 0; line < bytes; line += lineBytes)
        array.install(array.victimFor(line), line,
                      CoherenceState::Shared);
    const std::uint64_t probes = rounds * (bytes / lineBytes);
    std::uint64_t hits = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (Addr line = 0; line < bytes; line += lineBytes)
            hits += array.findLine(line) != nullptr;
    Section s{"cache_lookup", probes, msSince(t0), 0};
    fatalIf(hits != probes, "cache_lookup: {} of {} probes hit", hits,
            probes);
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("cache_lookup:    probes=%llu wall_ms=%.1f "
                "probes_per_sec=%.3g\n",
                static_cast<unsigned long long>(s.units), s.wallMs,
                s.unitsPerSec);
    return s;
}

Section
runImageClone()
{
    MemoryImage img;
    constexpr unsigned lines = 1024;
    for (unsigned l = 0; l < lines; ++l) {
        Addr la = pmBase + static_cast<Addr>(l) * lineBytes;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            img.writeArch(la + w * wordBytes, l * 8 + w + 1);
        img.persistLine(img.snapshotLine(la));
    }
    constexpr unsigned iters = 2000;
    std::uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        MemoryImage a = img.clonePersisted();
        MemoryImage b = img.clonePersistedTorn(0x3);
        sink += a.persistedWords() + b.persistedWords();
    }
    Section s{"image_clone", 2 * iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("image_clone:     clones=%llu words=%zu wall_ms=%.1f "
                "clones_per_sec=%.3g (sink %llu)\n",
                static_cast<unsigned long long>(s.units),
                img.persistedWords(), s.wallMs, s.unitsPerSec,
                static_cast<unsigned long long>(sink));
    return s;
}

Section
runForkSetup()
{
    // A run-shaped admission history: every line admitted twice, so
    // each rewind step has a pre-image to restore (the expensive
    // branch of undoAdmission).
    MemoryImage img;
    constexpr unsigned lines = 1024;
    std::vector<MemoryImage::AdmissionUndo> undos;
    undos.reserve(2 * lines);
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned l = 0; l < lines; ++l) {
            Addr la = pmBase + static_cast<Addr>(l) * lineBytes;
            for (unsigned w = 0; w < wordsPerLine; ++w)
                img.writeArch(la + w * wordBytes,
                              pass * 100'000 + l * 8 + w + 1);
            img.persistLine(img.snapshotLine(la));
            undos.push_back(img.lastAdmissionUndo());
        }
    }
    constexpr unsigned iters = 400;
    std::uint64_t sink = 0;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        MemoryImage machine = img;
        for (auto it = undos.rbegin(); it != undos.rend(); ++it)
            machine.undoAdmission(*it);
        sink += machine.persistedWords();
    }
    Section s{"fork_setup", iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("fork_setup:      forks=%llu rewinds=%zu wall_ms=%.1f "
                "forks_per_sec=%.3g (sink %llu)\n",
                static_cast<unsigned long long>(s.units),
                iters * undos.size(), s.wallMs, s.unitsPerSec,
                static_cast<unsigned long long>(sink));
    return s;
}

Section
runFig7Cell()
{
    WorkloadParams params;
    params.numThreads = 4;
    params.opsPerThread = 80;
    params.seed = 1;
    RecordedWorkload rec = recordWorkload(WorkloadKind::Queue, params);
    constexpr unsigned runs = 3;
    auto t0 = std::chrono::steady_clock::now();
    RunMetrics m;
    for (unsigned i = 0; i < runs; ++i)
        m = runExperiment(rec, HwDesign::StrandWeaver,
                          PersistencyModel::Sfr);
    Section s{"fig7_cell", runs, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("fig7_cell:       runs=%u run_ticks=%llu wall_ms=%.1f "
                "host_events=%llu events_per_sec=%.3g\n",
                runs, static_cast<unsigned long long>(m.runTicks),
                s.wallMs,
                static_cast<unsigned long long>(runs * m.hostEvents),
                1e3 * static_cast<double>(runs * m.hostEvents) /
                    s.wallMs);
    return s;
}

/** The fork machine's recording: Queue, 4 threads x 80 ops. */
RecordedWorkload
recordForkWorkload()
{
    WorkloadParams params;
    params.numThreads = 4;
    params.opsPerThread = 80;
    params.seed = 1;
    return recordWorkload(WorkloadKind::Queue, params);
}

/** A fig7-shaped machine (the fork recording, StrandWeaver under
 * SFR), loaded and ready to run. */
std::unique_ptr<System>
buildForkMachine()
{
    RecordedWorkload rec = recordForkWorkload();
    return buildSystem(rec,
                       lowerWorkload(rec, HwDesign::StrandWeaver,
                                     PersistencyModel::Sfr,
                                     LogStyle::Undo),
                       ExperimentConfig{});
}

Section
runMidrunFork()
{
    // The fork machine, captured whole at its 64th admission; each
    // measured unit is one System::restore() plus the tail
    // re-execution to completion — the cost a mid-run fork consumer
    // (crash harness, branching fuzzer) pays per explored branch.
    std::unique_ptr<System> machine = buildForkMachine();
    System &sys = *machine;

    SimSnapshot snap;
    bool captured = false;
    unsigned admissions = 0;
    AdmissionCallback capturer([&](const PersistRecord &r) {
        if (++admissions != 64)
            return;
        sys.eventQueue().schedule(
            r.when,
            [&] {
                snap = sys.snapshot();
                captured = true;
            },
            EventPriority::Stat);
    });
    sys.addObserver(&capturer);
    const Tick finish = sys.run();
    sys.removeObserver(&capturer);
    fatalIf(!captured,
            "midrun_fork: warm run admitted fewer than 64 lines");

    constexpr unsigned iters = 60;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i) {
        sys.restore(snap);
        Tick again = sys.run();
        fatalIf(again != finish,
                "midrun_fork: restored run diverged ({} != {})",
                again, finish);
    }
    Section s{"midrun_fork", iters, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("midrun_fork:     forks=%u wall_ms=%.1f "
                "forks_per_sec=%.3g\n",
                iters, s.wallMs, s.unitsPerSec);
    return s;
}

/** Cold builds against builds served from the recording's seed. */
std::vector<Section>
runMachineBuild()
{
    const RecordedWorkload rec = recordForkWorkload();
    const LoweredWorkload lowered =
        lowerWorkload(rec, HwDesign::StrandWeaver, PersistencyModel::Sfr,
                      LogStyle::Undo);
    const ExperimentConfig config;

    constexpr unsigned coldBuilds = 20;
    std::unique_ptr<System> cold;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < coldBuilds; ++i) {
        rec.seeds.clear();
        cold = buildSystem(rec, lowered, config);
    }
    Section coldSection{"machine_build_cold", coldBuilds, msSince(t0), 0};
    coldSection.unitsPerSec =
        1e3 * static_cast<double>(coldSection.units) / coldSection.wallMs;

    constexpr unsigned servedBuilds = 200;
    std::unique_ptr<System> served;
    t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < servedBuilds; ++i)
        served = buildSystem(rec, lowered, config);
    Section servedSection{"machine_build", servedBuilds, msSince(t0), 0};
    servedSection.unitsPerSec = 1e3 *
                                static_cast<double>(servedSection.units) /
                                servedSection.wallMs;
    fatalIf(rec.seeds.size() != 1,
            "machine_build: {} served builds hold {} seeds", servedBuilds,
            rec.seeds.size());

    const Tick finish = cold->run();
    fatalIf(served->run() != finish ||
                served->persistTrace() != cold->persistTrace(),
            "machine_build: a machine served from the seed diverged "
            "from a cold build");

    std::printf("machine_build_cold: builds=%u wall_ms=%.1f "
                "builds_per_sec=%.3g\n",
                coldBuilds, coldSection.wallMs, coldSection.unitsPerSec);
    std::printf("machine_build:   builds=%u seeds=%zu wall_ms=%.1f "
                "builds_per_sec=%.3g (%.1fx the cold rate)\n",
                servedBuilds, rec.seeds.size(), servedSection.wallMs,
                servedSection.unitsPerSec,
                servedSection.unitsPerSec / coldSection.unitsPerSec);
    return {coldSection, servedSection};
}

/** Heap bytes in use, all arenas (glibc). Reads 0 under allocators
 * that do not report to mallinfo2, such as AddressSanitizer's. */
long long
heapInUse()
{
    struct mallinfo2 info = mallinfo2();
    return static_cast<long long>(info.uordblks + info.hblkhd);
}

Section
runMachineSnapshot()
{
    // The reference: the fork machine run uninterrupted.
    std::unique_ptr<System> machine = buildForkMachine();
    const Tick finish = machine->run();
    const std::vector<PersistRecord> trace = machine->persistTrace();

    // The same machine captured between equal run segments. Only the
    // System::snapshot() calls are timed; the first capture is kept
    // and every later one is dropped once taken.
    constexpr unsigned captures = 400;
    const Tick segment = finish / (captures + 1);
    machine = buildForkMachine();
    SimSnapshot first;
    double captureMs = 0;
    long long heapBytes = 0;
    for (unsigned i = 1; i <= captures; ++i) {
        fatalIf(machine->runUntil(i * segment),
                "machine_snapshot: run finished before capture {}", i);
        const long long heapBefore = heapInUse();
        auto t0 = std::chrono::steady_clock::now();
        SimSnapshot snap = machine->snapshot();
        captureMs += msSince(t0);
        heapBytes += heapInUse() - heapBefore;
        if (i == 1)
            first = std::move(snap);
    }
    fatalIf(machine->run() != finish || machine->persistTrace() != trace,
            "machine_snapshot: the captured run diverged from the "
            "uninterrupted one");

    // Every later capture and segment wrote past the first capture;
    // rewinding to it must still replay the run bit for bit.
    machine->restore(first);
    const Tick again = machine->run();
    fatalIf(again != finish,
            "machine_snapshot: restored run finished at {}, not {}",
            again, finish);
    fatalIf(machine->persistTrace() != trace,
            "machine_snapshot: restored run's persist trace diverged");

    Section s{"machine_snapshot", captures, captureMs, 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("machine_snapshot: captures=%u "
                "heap_bytes_per_capture=%lld wall_ms=%.1f "
                "captures_per_sec=%.3g\n",
                captures, heapBytes / captures, s.wallMs, s.unitsPerSec);
    return s;
}

/**
 * The port mailbox hot path in isolation: one requester chains
 * round trips against a responder that answers every request
 * immediately. Two event-queue schedules per trip (request leg +
 * response leg), 2*portLegLatency simulated ticks each.
 */
Section
runPortRoundtrip()
{
    struct Echo : MemResponder
    {
        void
        handleRequest(MemPort &port, const MemRequest &req) override
        {
            port.respond(
                {req.kind, MemResponseKind::Done, req.token});
        }
    };
    constexpr std::uint64_t trips = 400'000;
    EventQueue eq;
    Echo echo;
    MemPort port;
    port.init(eq, "bench.port");
    port.bind(echo);
    std::uint64_t completed = 0;
    auto t0 = std::chrono::steady_clock::now();
    port.setResponseHandler([&](const MemResponse &) {
        if (++completed < trips) {
            MemRequest next;
            next.kind = MemRequestKind::Kick;
            next.token = completed;
            port.send(std::move(next));
        }
    });
    MemRequest first;
    first.kind = MemRequestKind::Kick;
    port.send(std::move(first));
    eq.run();
    fatalIf(completed != trips,
            "port_roundtrip: {} of {} trips completed", completed,
            trips);
    fatalIf(eq.curTick() != trips * 2 * portLegLatency,
            "port_roundtrip: {} ticks for {} trips (expected {} per "
            "trip)",
            eq.curTick(), trips, 2 * portLegLatency);
    Section s{"port_roundtrip", trips, msSince(t0), 0};
    s.unitsPerSec = 1e3 * static_cast<double>(s.units) / s.wallMs;
    std::printf("port_roundtrip:  trips=%llu events=%llu "
                "ticks_per_trip=%llu wall_ms=%.1f trips_per_sec=%.3g\n",
                static_cast<unsigned long long>(trips),
                static_cast<unsigned long long>(eq.serviced()),
                static_cast<unsigned long long>(2 * portLegLatency),
                s.wallMs, s.unitsPerSec);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    int rc = 0;
    if (bench::handleArgs(argc, argv, "simulator host-throughput microbench", &rc))
        return rc;
    std::printf("Simulator throughput microbench (fixed seeds; only "
                "wall-clock varies)\n\n");
    std::vector<Section> sections;
    sections.push_back(runEventChurn());
    sections.push_back(runRecurringChurn());
    sections.push_back(runEventWheel());
    sections.push_back(runCacheLookup());
    sections.push_back(runImageClone());
    sections.push_back(runForkSetup());
    sections.push_back(runFig7Cell());
    sections.push_back(runMidrunFork());
    sections.push_back(runMachineSnapshot());
    sections.push_back(runPortRoundtrip());
    for (const Section &s : runMachineBuild())
        sections.push_back(s);

    namespace fs = std::filesystem;
    fs::path dir(envConfig().outDir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec),
            "cannot create result directory {}: {}", dir.string(),
            ec.message());
    fs::path path = dir / "BENCH_simperf.json";
    std::ofstream out(path);
    fatalIf(!out, "cannot open {} for writing", path.string());
    out << "{\n  \"bench\": \"simperf\",\n  \"schema\": 1,\n"
        << "  \"sections\": {\n";
    for (std::size_t i = 0; i < sections.size(); ++i) {
        const Section &s = sections[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\"units\": %llu, "
                      "\"wall_ms\": %.3f, \"units_per_sec\": %.6g}%s\n",
                      s.name.c_str(),
                      static_cast<unsigned long long>(s.units),
                      s.wallMs, s.unitsPerSec,
                      i + 1 < sections.size() ? "," : "");
        out << buf;
    }
    out << "  }\n}\n";
    out.close();
    fatalIf(!out, "failed writing {}", path.string());
    std::printf("\nwrote %s\n", path.string().c_str());
    return 0;
}
