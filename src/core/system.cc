#include "core/system.hh"

#include <unordered_set>
#include <vector>

#include "runtime/layout.hh"

namespace strand
{

System::System(const SystemConfig &config)
    : stats::StatGroup("system"), cfg(config)
{
    fatalIf(cfg.numCores == 0, "system needs at least one core");

    cfg.engine.adversary = cfg.adversary;
    cfg.caches.adversary = cfg.adversary;

    pmCtrl = std::make_unique<MemController>("pm", eq, image, cfg.pm,
                                             true, this);
    dramCtrl = std::make_unique<MemController>("dram", eq, image,
                                               cfg.dram, false, this);
    caches = std::make_unique<Hierarchy>("caches", eq, image,
                                         cfg.numCores, cfg.caches,
                                         *pmCtrl, *dramCtrl, this);

    // ADR admissions fan out through the observer hub; the internal
    // trace recorder is the first subscriber so persistTrace() is
    // already updated when later observers see the same record.
    hub.add(&traceRecorder);
    pmCtrl->setPersistObserver([this](const Packet &pkt, Tick when) {
        hub.persistAdmitted(
            {pkt.data.lineAddr, when, pkt.requester, pkt.origin});
    });
    caches->setObserverHub(&hub);

    coreFinish.assign(cfg.numCores, 0);
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        // Engines parent into the system stat tree under their core's
        // name so every component has a unique dotted path — the
        // snapshot layer keys component state by that path.
        auto engine = makePersistEngine(
            cfg.design, "cpu" + std::to_string(i) + ".engine", eq, i,
            *caches, cfg.engine, this);
        engine->setObserverHub(&hub, i);
        cores.push_back(std::make_unique<Core>(
            "cpu" + std::to_string(i), eq, i, *caches,
            std::move(engine), locks, cfg.core, this));
        cores.back()->setObserverHub(&hub);
        cores.back()->setFinishedCallback([this, i] {
            coreFinish[i] = eq.curTick();
            if (eq.curTick() > lastFinish)
                lastFinish = eq.curTick();
        });
    }
}

System::~System()
{
    // No event may reach observers once destruction begins: member
    // teardown order would hand them a half-destroyed System. The
    // hub panics on any notification after this point.
    hub.beginTeardown();
}

void
System::seedImage(const std::unordered_map<Addr, std::uint64_t> &words)
{
    // Seeded words cluster heavily within lines, so prewarming once
    // per word would re-probe the same L2 set 8x. Dedupe to distinct
    // lines in first-seen order — the install order decides L2 victim
    // selection, so it must match what per-word calls produced — and
    // merge runs of adjacent lines into single prewarm ranges.
    std::vector<Addr> lines;
    std::unordered_set<Addr> seenLines;
    for (auto [addr, value] : words) {
        if (isPersistentAddr(addr))
            image.writeDurable(addr, value);
        else
            image.writeArch(addr, value);
        if (!cfg.warmCaches)
            continue;
        const Addr line = lineAlign(addr);
        if (seenLines.insert(line).second)
            lines.push_back(line);
    }
    if (cfg.warmCaches) {
        Addr runStart = 0;
        Addr runEnd = 0;
        for (Addr line : lines) {
            if (runEnd != runStart && line == runEnd) {
                runEnd += lineBytes;
                continue;
            }
            if (runEnd != runStart)
                caches->prewarmL2(runStart, runEnd);
            runStart = line;
            runEnd = line + lineBytes;
        }
        if (runEnd != runStart)
            caches->prewarmL2(runStart, runEnd);
        // The per-thread circular log buffers are written on every
        // operation and are LLC-resident in steady state.
        caches->prewarmL2(pmBase, cfg.layout.heapBase());
    }
}

void
System::loadStreams(std::vector<OpStream> streams)
{
    fatalIf(streams.size() != cores.size(),
            "stream count {} does not match core count {}",
            streams.size(), cores.size());
    for (CoreId i = 0; i < cores.size(); ++i)
        cores[i]->setStream(std::move(streams[i]));
    streamsLoaded = true;
}

Tick
System::run()
{
    fatalIf(!streamsLoaded, "run() without loadStreams()");
    startCores();
    eq.run();
    panicIf(!finishedAll(),
            "event queue drained but cores have not finished "
            "(deadlocked ordering constraint?)");
    return lastFinish;
}

bool
System::runUntil(Tick limit)
{
    fatalIf(!streamsLoaded, "runUntil() without loadStreams()");
    startCores();
    eq.runUntil(limit);
    return finishedAll();
}

void
System::startCores()
{
    if (coresStarted)
        return;
    coresStarted = true;
    for (auto &core : cores)
        core->start();
}

SimSnapshot
System::snapshot() const
{
    SimSnapshot snap;
    // Kernel state first: the queue capture carries every scheduled
    // one-shot callback by copy and pins the clock.
    snap.put("system.eq", eq.snapshot());
    snap.put("system.image", image);
    snap.put("system.locks", locks.snapshotLocks());
    RunState rs;
    rs.persists = persists;
    rs.coreFinish = coreFinish;
    rs.lastFinish = lastFinish;
    rs.streamsLoaded = streamsLoaded;
    rs.coresStarted = coresStarted;
    snap.put("system.run", std::move(rs));
    // Component graph, keyed by dotted instance name. Cores recurse
    // into their persist engines (and strand buffer units).
    pmCtrl->saveState(snap);
    dramCtrl->saveState(snap);
    caches->saveState(snap);
    for (const auto &core : cores)
        core->saveState(snap);
    snap.put("system.stats", snapshotStats());
    return snap;
}

void
System::restore(const SimSnapshot &snap)
{
    eq.restore(snap.get<EventQueue::Snapshot>("system.eq"));
    image = snap.get<MemoryImage>("system.image");
    locks.restoreLocks(
        snap.get<std::unordered_map<std::uint32_t, LockTable::Lock>>(
            "system.locks"));
    const RunState &rs = snap.get<RunState>("system.run");
    persists = rs.persists;
    coreFinish = rs.coreFinish;
    lastFinish = rs.lastFinish;
    streamsLoaded = rs.streamsLoaded;
    coresStarted = rs.coresStarted;
    pmCtrl->restoreState(snap);
    dramCtrl->restoreState(snap);
    caches->restoreState(snap);
    for (auto &core : cores)
        core->restoreState(snap);
    restoreStats(
        snap.get<stats::StatGroup::StatValues>("system.stats"));
}

double
System::totalClwbs() const
{
    // CLWBs are counted at the hierarchy flush entry point, which
    // every engine's CLWB path passes through exactly once.
    return caches->flushesDirty.value() + caches->flushesClean.value();
}

double
System::totalPersistStalls() const
{
    double total = 0;
    for (const auto &core : cores)
        total += core->persistStallCycles();
    return total;
}

double
System::totalCycles() const
{
    double total = 0;
    for (const auto &core : cores)
        total += core->numCycles.value();
    return total;
}

double
System::totalCommitted() const
{
    double total = 0;
    for (const auto &core : cores)
        total += core->opsCommitted.value();
    return total;
}

} // namespace strand
