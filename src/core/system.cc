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

    // Each ADR admission lands in the persist trace before it fans
    // out through the observer hub, so persistTrace() is already
    // updated when an observer sees the same record.
    pmCtrl->setPersistObserver([this](const Packet &pkt, Tick when) {
        const PersistRecord rec{pkt.data.lineAddr, when, pkt.requester,
                                pkt.origin};
        persists.push_back(rec);
        hub.persistAdmitted(rec);
    });
    caches->setObserverHub(&hub);

    coreFinish.assign(cfg.numCores, 0);
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        // Engines parent into the system stat tree under their core's
        // name so every stat has a unique dotted path — the snapshot's
        // stat capture keys values by that path.
        auto engine = makePersistEngine(
            cfg.design, "cpu" + std::to_string(i) + ".engine", eq, i,
            *caches, cfg.engine, this);
        engine->setObserverHub(&hub, i);
        cores.push_back(std::make_unique<Core>(
            "cpu" + std::to_string(i), eq, i, *caches,
            std::move(engine), locks, cfg.core, this));
        cores.back()->setObserverHub(&hub);
        cores.back()->setFinishedCallback(
            [this, i] { coreFinish[i] = eq.curTick(); });
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

SeedKey
SeedKey::of(const SystemConfig &cfg)
{
    return {cfg.layout, cfg.caches.l2Size, cfg.caches.l2Ways,
            cfg.warmCaches};
}

std::shared_ptr<const MachineSeed>
System::makeSeed(const SeedKey &key,
                 const std::unordered_map<Addr, std::uint64_t> &words)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.layout = key.layout;
    cfg.caches.l2Size = key.l2Size;
    cfg.caches.l2Ways = key.l2Ways;
    cfg.warmCaches = key.warmCaches;
    System seeded(cfg);
    seeded.seedImage(words);
    return std::make_shared<const MachineSeed>(MachineSeed{
        key, std::move(seeded.image), seeded.caches->saveState().l2Tags});
}

void
System::adoptSeed(std::shared_ptr<const MachineSeed> from)
{
    panicIf(from->key != SeedKey::of(cfg),
            "machine seed was built for another log layout, L2 "
            "geometry or warm-cache setting");
    panicIf(coresStarted, "machine seed adopted after the run began");
    image = from->image;
    caches->adoptL2Tags(from->l2);
    seed = std::move(from);
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
    if (!finishedAll()) [[unlikely]] {
        std::string engines;
        for (const auto &core : cores) {
            const PersistEngine &engine = core->persistEngine();
            if (!engine.drained())
                engines += sformat(" {} ({} queued)", engine.fullName(),
                                   engine.queueOccupancy());
        }
        panic("event queue drained but cores have not finished "
              "(deadlocked ordering constraint?)\n  caches: {}\n  "
              "persist engines not drained:{}",
              caches->describeWaitingWork(),
              engines.empty() ? " none" : engines);
    }
    return finishTick();
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
    // Kernel state first: the queue capture carries every scheduled
    // one-shot callback by copy and pins the clock.
    SimSnapshot snap;
    snap.eq = eq.snapshot();
    snap.image = image;
    snap.locks = locks.snapshotLocks();
    snap.run = static_cast<const SystemRunState &>(*this);
    snap.pm = pmCtrl->saveState();
    snap.dram = dramCtrl->saveState();
    snap.caches = caches->saveState();
    for (const auto &core : cores) {
        snap.cores.push_back(core->saveState());
        snap.engines.push_back(core->persistEngine().saveState());
    }
    snap.stats = snapshotStats();
    return snap;
}

void
System::restore(const SimSnapshot &snap)
{
    panicIf(snap.cores.size() != cores.size(),
            "core count changed across a snapshot");
    eq.restore(snap.eq);
    image = snap.image;
    locks.restoreLocks(snap.locks);
    static_cast<SystemRunState &>(*this) = snap.run;
    pmCtrl->restoreState(snap.pm);
    dramCtrl->restoreState(snap.dram);
    caches->restoreState(snap.caches);
    for (std::size_t i = 0; i < cores.size(); ++i) {
        cores[i]->restoreState(snap.cores[i]);
        cores[i]->persistEngine().restoreState(snap.engines[i]);
    }
    restoreStats(snap.stats);
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
