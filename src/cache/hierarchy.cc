#include "cache/hierarchy.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "fuzz/adversary.hh"

namespace strand
{

namespace
{

/** Mail @p kind for a @p req request back to whoever @p reply names. */
void
answer(const Reply &reply, MemRequestKind req, MemResponseKind kind,
       bool wrotePm = false)
{
    reply.port->respond({req, kind, reply.token, wrotePm});
}

} // namespace

Hierarchy::Hierarchy(std::string name, EventQueue &eq, MemoryImage &image,
                     unsigned numCores, const HierarchyParams &params,
                     MemController &pmCtrl, MemController &dramCtrl,
                     stats::StatGroup *parent)
    : SimObject(std::move(name), eq, parent),
      // The tag-only hierarchy is one monolithic component; cores
      // reach it exclusively through latency-carrying MemPorts, so
      // its MSHR state is only ever mutated from its own events,
      // never on a requester's call stack.
      loadHits(this, "loadHits", "L1 load hits"),
      loadMisses(this, "loadMisses", "L1 load misses"),
      storeHits(this, "storeHits", "L1 store hits (owned line)"),
      storeMisses(this, "storeMisses", "L1 store misses (RFO)"),
      upgrades(this, "upgrades", "S->M upgrade transactions"),
      cacheToCache(this, "cacheToCache", "L1-to-L1 transfers"),
      l1Writebacks(this, "l1Writebacks", "dirty L1 evictions"),
      l2Evictions(this, "l2Evictions", "dirty L2 evictions to memory"),
      flushesDirty(this, "flushesDirty", "CLWB flushes that wrote PM"),
      flushesClean(this, "flushesClean", "CLWB flushes of clean lines"),
      snoopStalls(this, "snoopStalls",
                  "read-exclusive snoops stalled on persist drain"),
      writebackStalls(this, "writebackStalls",
                      "fills stalled on a full write-back buffer"),
      image(image), params(params), pmCtrl(pmCtrl), dramCtrl(dramCtrl),
      l2(params.l2Size, params.l2Ways)
{
    fatalIf(numCores == 0, "hierarchy needs at least one core");
    cores.reserve(numCores);
    l1Tags.reserve(numCores);
    for (unsigned i = 0; i < numCores; ++i) {
        cores.emplace_back(params.writebackEntries);
        l1Tags.emplace_back(params.l1Size, params.l1Ways);
    }
    drains.resize(numCores);
    pmCtrl.setClient(*this);
    dramCtrl.setClient(*this);
    kickEvent.init(eq, [this] { kick(); }, EventPriority::Default);
    retryKick = [this] { scheduleKick(); };

    pmPort.init(eq, fullName() + ".pmPort");
    pmPort.bind(pmCtrl);
    pmPort.setResponseHandler(
        [this](const MemResponse &resp) { onControllerResponse(resp); });
    dramPort.init(eq, fullName() + ".dramPort");
    dramPort.bind(dramCtrl);
    dramPort.setResponseHandler(
        [this](const MemResponse &resp) { onControllerResponse(resp); });
}

MemPort &
Hierarchy::portFor(Addr addr)
{
    return isPersistentAddr(addr) ? pmPort : dramPort;
}

void
Hierarchy::sendToController(PacketPtr pkt)
{
    MemRequest req;
    req.kind = MemRequestKind::Packet;
    req.core = pkt->requester;
    req.addr = pkt->addr;
    req.pkt = pkt;
    portFor(req.addr).send(std::move(req));
}

DrainPoint
Hierarchy::recordDrainPoint(CoreId core) const
{
    const PersistDrain *drain = drains.at(core);
    if (!params.persistInterlocks || !drain)
        return {};
    return drain->recordDrainPoint();
}

bool
Hierarchy::drainedPast(CoreId core, const DrainPoint &point) const
{
    const PersistDrain *drain = drains.at(core);
    return !drain || drain->drainedPast(point);
}

void
Hierarchy::park(std::function<bool()> attempt)
{
    parked.push_back({std::move(attempt)});
    scheduleKick();
}

void
Hierarchy::scheduleKick()
{
    if (kickEvent.scheduled())
        return;
    kickEvent.schedule(curTick());
}

void
Hierarchy::kick()
{
    drainWritebacks();
    drainL2Evicts();
    drainAllLineWrites();
    // Retry the transactions parked when the kick began, in arrival
    // order; anything still blocked goes to the back, after work
    // parked meanwhile, which waits for the next kick.
    for (std::size_t n = parked.size(); n > 0; --n) {
        Parked item = std::move(parked.front());
        parked.pop_front();
        if (!item.attempt())
            parked.push_back(std::move(item));
    }
}

void
Hierarchy::prewarmL2(Addr start, Addr end)
{
    for (Addr la = lineAlign(start); la < end; la += lineBytes) {
        if (l2.contains(la))
            continue;
        CacheLineInfo &victim = l2.victimFor(la);
        // Warm-up only targets an empty cache; skip on conflict
        // rather than evicting real state.
        if (victim.valid())
            continue;
        l2.install(victim, la, CoherenceState::Shared);
    }
}

// ---------------------------------------------------------------------
// CPU-side interface (port request servicing)
// ---------------------------------------------------------------------

void
Hierarchy::handleRequest(MemPort &port, const MemRequest &req)
{
    // The port outlives every in-flight message (both are owned by
    // permanent components), so a reply may hold its address.
    const Reply reply{&port, req.token};
    switch (req.kind) {
    case MemRequestKind::Load:
        if (!startLoad(req.core, req.addr, reply))
            answer(reply, req.kind, MemResponseKind::Nack);
        return;
    case MemRequestKind::Store: {
        bool accepted = startStore(req.core, req.addr, req.value, reply);
        // The admission decision always goes back explicitly: Ack so
        // the requester may issue its next store, Nack to retry this
        // one. Completion (Done) follows an Ack strictly later —
        // the L1 latency exceeds any port leg.
        answer(reply, req.kind,
               accepted ? MemResponseKind::Ack : MemResponseKind::Nack);
        return;
    }
    case MemRequestKind::Flush:
        startFlush(req.core, req.addr, reply);
        return;
    case MemRequestKind::Kick:
        // Response-less doorbell: a persist engine's drain point
        // cleared after our own completion kick had already run.
        scheduleKick();
        return;
    case MemRequestKind::Packet:
        break;
    }
    panic("hierarchy cannot service request kind {}",
          static_cast<int>(req.kind));
}

bool
Hierarchy::startLoad(CoreId core, Addr addr, Reply reply)
{
    Addr la = lineAlign(addr);
    L1 &l1 = cores.at(core);

    if (CacheLineInfo *line = l1Tags[core].findLine(la)) {
        l1Tags[core].touch(*line);
        ++loadHits;
        eq.scheduleIn(params.l1Latency, [reply] {
            answer(reply, MemRequestKind::Load, MemResponseKind::Done);
        }, EventPriority::MemoryResponse);
        return true;
    }

    auto it = l1.mshrs.find(la);
    if (it != l1.mshrs.end()) {
        // Merge with the outstanding miss; any fill satisfies a load.
        it->second.waiters.push_back({reply, false, addr, 0});
        ++loadMisses;
        return true;
    }
    if (l1.mshrs.size() >= params.l1Mshrs)
        return false;

    ++loadMisses;
    auto &mshr = l1.mshrs[la];
    mshr.exclusive = false;
    mshr.waiters.push_back({reply, false, addr, 0});
    ++activeTransactions;
    startMiss(core, la, false);
    return true;
}

void
Hierarchy::retireStore(CoreId core, Addr addr, std::uint64_t value)
{
    // Re-find: the line cannot have moved (no transaction can run on
    // it without an MSHR/busy entry, and owned lines are only demoted
    // by transactions). It can only vanish if an L2 replacement
    // back-invalidated it mid-store; treat that as a store that
    // squeaked in before the invalidation.
    if (CacheLineInfo *l = l1Tags.at(core).findLine(lineAlign(addr)))
        l->state = CoherenceState::Modified;
    image.writeArch(addr, value);
}

bool
Hierarchy::startStore(CoreId core, Addr addr, std::uint64_t value,
                      Reply reply)
{
    Addr la = lineAlign(addr);
    L1 &l1 = cores.at(core);
    CacheLineInfo *line = l1Tags[core].findLine(la);

    if (line && (line->state == CoherenceState::Modified ||
                 line->state == CoherenceState::Exclusive)) {
        l1Tags[core].touch(*line);
        ++storeHits;
        eq.scheduleIn(params.l1Latency, [this, core, addr, value, reply] {
            retireStore(core, addr, value);
            answer(reply, MemRequestKind::Store, MemResponseKind::Done);
        }, EventPriority::MemoryResponse);
        return true;
    }

    if (line && line->state == CoherenceState::Shared) {
        // Upgrade. Serialize against other transactions on the line.
        if (busyLines.contains(la))
            return false;
        busyLines.insert(la);
        ++upgrades;
        ++activeTransactions;
        eq.scheduleIn(params.l1Latency + params.snoopLatency,
                      [this, core, la, addr, value, reply] {
            for (unsigned i = 0; i < cores.size(); ++i) {
                if (i != core)
                    l1Tags[i].invalidate(la);
            }
            retireStore(core, addr, value);
            busyLines.erase(la);
            --activeTransactions;
            answer(reply, MemRequestKind::Store, MemResponseKind::Done);
            scheduleKick();
        }, EventPriority::MemoryResponse);
        return true;
    }

    // Miss: RFO.
    auto it = l1.mshrs.find(la);
    if (it != l1.mshrs.end()) {
        if (!it->second.exclusive) {
            // A shared fill is in flight; retry once it lands and
            // take the upgrade path.
            return false;
        }
        it->second.waiters.push_back({reply, true, addr, value});
        ++storeMisses;
        return true;
    }
    if (l1.mshrs.size() >= params.l1Mshrs)
        return false;

    ++storeMisses;
    auto &mshr = l1.mshrs[la];
    mshr.exclusive = true;
    mshr.waiters.push_back({reply, true, addr, value});
    ++activeTransactions;
    startMiss(core, la, true);
    return true;
}

// ---------------------------------------------------------------------
// Miss handling
// ---------------------------------------------------------------------

void
Hierarchy::startMiss(CoreId core, Addr lineAddr, bool exclusive)
{
    if (busyLines.contains(lineAddr)) {
        park([this, core, lineAddr, exclusive] {
            if (busyLines.contains(lineAddr))
                return false;
            busyLines.insert(lineAddr);
            eq.scheduleIn(params.l1Latency, [this, core, lineAddr,
                                             exclusive] {
                serviceMiss(core, lineAddr, exclusive);
            }, EventPriority::MemoryResponse);
            return true;
        });
        return;
    }
    busyLines.insert(lineAddr);
    eq.scheduleIn(params.l1Latency, [this, core, lineAddr, exclusive] {
        serviceMiss(core, lineAddr, exclusive);
    }, EventPriority::MemoryResponse);
}

void
Hierarchy::serviceMiss(CoreId core, Addr lineAddr, bool exclusive)
{
    // 1. Snoop remote L1s for a dirty owner.
    for (unsigned i = 0; i < cores.size(); ++i) {
        if (i == core)
            continue;
        const CacheLineInfo *remote =
            std::as_const(l1Tags[i]).findLine(lineAddr);
        if (!remote || remote->state != CoherenceState::Modified)
            continue;

        // Dirty remote owner. For read-exclusive requests the reply
        // stalls until the owner's persist engine drains past the
        // point recorded now (§IV, inter-thread persist order).
        const DrainPoint point =
            exclusive ? recordDrainPoint(i) : DrainPoint{};

        auto transfer = [this, core, lineAddr, exclusive, i] {
            CacheLineInfo *owner = l1Tags[i].findLine(lineAddr);
            ++cacheToCache;
            // A read-exclusive steal of a dirty PM line is a VMO
            // conflict edge: the old owner's earlier stores to the
            // line are ordered before the requester's later ones.
            if (obsHub && obsHub->active() && exclusive &&
                isPersistentAddr(lineAddr)) {
                obsHub->conflictEdge(
                    {lineAddr, i, core, curTick()});
            }
            if (exclusive) {
                if (owner)
                    l1Tags[i].invalidate(lineAddr);
                // Ownership moves to the requester; the (inclusive)
                // L2 copy is stale and clean.
                if (CacheLineInfo *l2line = l2.findLine(lineAddr))
                    l2line->state = CoherenceState::Shared;
            } else {
                if (owner)
                    owner->state = CoherenceState::Shared;
                // The L2 absorbs the dirty data.
                if (CacheLineInfo *l2line = l2.findLine(lineAddr)) {
                    l2line->state = CoherenceState::Modified;
                } else {
                    // Inclusion was broken by an L2 eviction racing
                    // this transfer; fall back to a direct memory
                    // write-back of the fresh data.
                    queueL2Evict(lineAddr);
                }
            }
            eq.scheduleIn(params.l2Latency, [this, core, lineAddr,
                                             exclusive] {
                finishFill(core, lineAddr, exclusive,
                           exclusive ? CoherenceState::Exclusive
                                     : CoherenceState::Shared);
            }, EventPriority::MemoryResponse);
        };

        if (!drainedPast(i, point)) {
            ++snoopStalls;
            park([this, i, point, transfer] {
                if (!drainedPast(i, point))
                    return false;
                transfer();
                return true;
            });
        } else {
            eq.scheduleIn(params.snoopLatency, transfer,
                          EventPriority::MemoryResponse);
        }
        return;
    }

    // 2. Clean remote copies and the shared L2.
    eq.scheduleIn(params.snoopLatency + params.l2Latency,
                  [this, core, lineAddr, exclusive] {
        bool remoteCopies = false;
        for (unsigned i = 0; i < cores.size(); ++i) {
            if (i == core)
                continue;
            const CacheLineInfo *remote =
                std::as_const(l1Tags[i]).findLine(lineAddr);
            if (!remote)
                continue;
            remoteCopies = true;
            if (exclusive)
                l1Tags[i].invalidate(lineAddr);
            else if (remote->state == CoherenceState::Exclusive)
                l1Tags[i].findLine(lineAddr)->state =
                    CoherenceState::Shared;
        }

        if (l2.contains(lineAddr)) {
            CoherenceState fill;
            if (exclusive)
                fill = CoherenceState::Exclusive;
            else
                fill = remoteCopies ? CoherenceState::Shared
                                    : CoherenceState::Exclusive;
            finishFill(core, lineAddr, exclusive, fill);
            return;
        }

        // 3. Fetch from memory. The L2 MSHR is claimed before the
        // packet is mailed; a controller Nack keeps the claim and
        // remails the same packet once the controller signals space.
        // The controller reports the fill through packetDone().
        auto fetch = [this, core, lineAddr, exclusive]() -> bool {
            if (l2MissesInFlight >= params.l2Mshrs)
                return false;
            ++l2MissesInFlight;
            sendToController(makeReadPacket(nextPacketId++, lineAddr,
                                            core, exclusive));
            return true;
        };
        if (!fetch())
            park(fetch);
    }, EventPriority::MemoryResponse);
}

void
Hierarchy::finishFill(CoreId core, Addr lineAddr, bool exclusive,
                      CoherenceState fillState)
{
    if (!installLine(core, lineAddr, fillState)) {
        // Victim write-back buffer full; retry when it drains.
        ++writebackStalls;
        park([this, core, lineAddr, exclusive, fillState] {
            if (!installLine(core, lineAddr, fillState))
                return false;
            finishFill(core, lineAddr, exclusive, fillState);
            return true;
        });
        return;
    }

    L1 &l1 = cores.at(core);
    auto it = l1.mshrs.find(lineAddr);
    panicIf(it == l1.mshrs.end(), "fill without MSHR");
    auto waiters = std::move(it->second.waiters);
    l1.mshrs.erase(it);
    busyLines.erase(lineAddr);
    --activeTransactions;
    for (const L1::Mshr::Waiter &w : waiters) {
        if (w.store)
            retireStore(core, w.addr, w.value);
        answer(w.reply,
               w.store ? MemRequestKind::Store : MemRequestKind::Load,
               MemResponseKind::Done);
    }
    scheduleKick();
}

bool
Hierarchy::installLine(CoreId core, Addr lineAddr, CoherenceState state)
{
    L1 &l1 = cores.at(core);
    if (CacheLineInfo *line = l1Tags[core].findLine(lineAddr)) {
        // Already present (e.g. re-entered finishFill); just set state.
        line->state = state;
        return true;
    }
    CacheLineInfo &victim = l1Tags[core].victimFor(lineAddr);
    if (victim.valid() && victim.dirty()) {
        if (l1.writebacks.full())
            return false;
        pushWriteback(core, victim.lineAddr);
    }
    if (victim.valid())
        victim.state = CoherenceState::Invalid;
    l1Tags[core].install(victim, lineAddr, state);
    // Maintain inclusion: make sure the L2 tracks the line too. A
    // cache-to-cache or L2 fill already has it; memory fills insert
    // it in the fetch path. If it is somehow absent, add it cheaply.
    if (!l2.contains(lineAddr))
        installLineL2(lineAddr);
    return true;
}

void
Hierarchy::pushWriteback(CoreId core, Addr lineAddr)
{
    L1 &l1 = cores.at(core);
    ++l1Writebacks;
    // Record the persist drain point at write-back initiation (§IV).
    l1.writebacks.push({lineAddr, image.snapshotLine(lineAddr),
                        recordDrainPoint(core)});
    drainWritebacks();
}

void
Hierarchy::drainWritebacks()
{
    for (CoreId i = 0; i < cores.size(); ++i) {
        L1 &l1 = cores[i];
        // In FIFO order: a head that waits blocks younger entries.
        while (!l1.writebacks.empty() &&
               drainedPast(i, l1.writebacks.front().point)) {
            if (params.adversary) {
                // Fuzzing: an eligible write-back may still be held
                // by the adversary; the retry is a kick, which
                // re-enters this drain once the hold expires.
                if (curTick() < l1.wbHeldUntil)
                    break;
                Tick delay = params.adversary->consider(
                    eq, FuzzSite::Writeback, i, retryKick);
                if (delay > 0) {
                    l1.wbHeldUntil = curTick() + delay;
                    break;
                }
            }
            const WritebackBuffer::Entry &head = l1.writebacks.front();
            if (CacheLineInfo *l2line = l2.findLine(head.lineAddr)) {
                l2line->state = CoherenceState::Modified;
                l2.touch(*l2line);
            } else {
                // The L2 evicted the line while the write-back sat in
                // the buffer; forward the data to memory directly.
                pendingL2Evicts.push_back(
                    {head.lineAddr, head.data, 0, {}});
            }
            l1.writebacks.pop();
        }
    }
    drainL2Evicts();
}

bool
Hierarchy::installLineL2(Addr lineAddr)
{
    if (l2.contains(lineAddr))
        return true;
    if (pendingL2Evicts.size() >= params.l2EvictEntries)
        return false;

    CacheLineInfo &victim = l2.victimFor(lineAddr);
    if (victim.valid()) {
        // Avoid victimizing a line with an in-flight coherence
        // transaction; retry once it settles.
        if (busyLines.contains(victim.lineAddr))
            return false;
        Addr victimAddr = victim.lineAddr;
        // Inclusive hierarchy: force the line out of every L1 first.
        // A dirty L1 copy departs the cache domain here, so record
        // the owning core's persist drain point (same interlock as a
        // voluntary write-back, §IV).
        bool wasDirtyAnywhere = victim.dirty();
        CoreId owner = 0;
        DrainPoint point;
        for (CoreId i = 0; i < cores.size(); ++i) {
            if (CacheLineInfo *line = l1Tags[i].findLine(victimAddr)) {
                if (line->dirty()) {
                    wasDirtyAnywhere = true;
                    owner = i;
                    point = recordDrainPoint(i);
                }
                l1Tags[i].invalidate(victimAddr);
            }
        }
        if (wasDirtyAnywhere)
            queueL2Evict(victimAddr, owner, point);
        victim.state = CoherenceState::Invalid;
    }
    l2.install(victim, lineAddr, CoherenceState::Shared);
    return true;
}

void
Hierarchy::queueL2Evict(Addr lineAddr, CoreId owner, DrainPoint point)
{
    ++l2Evictions;
    pendingL2Evicts.push_back(
        {lineAddr, image.snapshotLine(lineAddr), owner, point});
    drainL2Evicts();
}

void
Hierarchy::drainL2Evicts()
{
    // One eviction is in the mail at a time; the next departs when
    // the controller's Ack pops the head (a Nack leaves it queued
    // for the retry kick).
    if (evictInFlight || pendingL2Evicts.empty())
        return;
    const PendingEvict &head = pendingL2Evicts.front();
    if (!drainedPast(head.owner, head.point))
        return;
    evictInFlight = true;
    sendToController(makeWritePacket(nextPacketId++, head.data, 0,
                                     WriteOrigin::WriteBack));
}

// ---------------------------------------------------------------------
// CLWB flush path
// ---------------------------------------------------------------------

void
Hierarchy::sendLineWrite(Addr lineAddr, PacketPtr pkt)
{
    lineSendQueues[lineAddr].queue.push_back(std::move(pkt));
    drainLineWrites(lineAddr);
}

void
Hierarchy::drainLineWrites(Addr lineAddr)
{
    auto it = lineSendQueues.find(lineAddr);
    if (it == lineSendQueues.end())
        return;
    LineSendQueue &q = it->second;
    // One write per line in the mail: the successor departs only on
    // the predecessor's Ack, so same-line snapshots enter the
    // controller strictly in content order even across Nack retries.
    if (q.inFlight || q.queue.empty())
        return;
    q.inFlight = true;
    sendToController(q.queue.front());
}

void
Hierarchy::drainAllLineWrites()
{
    for (auto &entry : lineSendQueues)
        drainLineWrites(entry.first);
}

void
Hierarchy::onControllerResponse(const MemResponse &resp)
{
    const PacketPtr &pkt = resp.pkt;
    panicIf(!pkt, "controller response without a packet");
    const bool acked = resp.kind == MemResponseKind::Ack;

    switch (pkt->cmd) {
    case MemCmd::Read:
    case MemCmd::ReadExclusive:
        // Completion arrives separately through packetDone(); the
        // admission decision is all that is routed here. A Nacked
        // read waits for queueFreed() to remail it, unless space
        // freed while the Nack was in the mail.
        if (acked)
            return;
        if (lastQueueFreed + portFor(pkt->addr).responseLatency() >=
            curTick())
            sendToController(pkt);
        else
            nackedReads.push_back(pkt);
        return;
    case MemCmd::Write:
        if (pkt->origin == WriteOrigin::WriteBack) {
            panicIf(!evictInFlight,
                    "evict admission reply without an evict in the mail");
            evictInFlight = false;
            if (acked) {
                pendingL2Evicts.pop_front();
                drainL2Evicts();
            }
            return;
        }
        // CLWB flush write: the head of this line's send queue.
        {
            auto it = lineSendQueues.find(pkt->addr);
            panicIf(it == lineSendQueues.end() || !it->second.inFlight ||
                        it->second.queue.front() != pkt,
                    "flush-write admission reply does not match the "
                    "line head");
            it->second.inFlight = false;
            if (acked) {
                it->second.queue.pop_front();
                if (it->second.queue.empty())
                    lineSendQueues.erase(it);
                else
                    drainLineWrites(pkt->addr);
            }
        }
        return;
    }
    panic("controller response with unknown packet command");
}

void
Hierarchy::queueFreed()
{
    lastQueueFreed = curTick();
    for (const PacketPtr &pkt : std::exchange(nackedReads, {}))
        sendToController(pkt);
    scheduleKick();
}

void
Hierarchy::packetDone(const Packet &pkt)
{
    if (pkt.cmd != MemCmd::Write) {
        --l2MissesInFlight;
        // Fill L2 (inclusive), then the L1.
        const CoreId core = pkt.requester;
        const Addr lineAddr = pkt.addr;
        const bool exclusive = pkt.cmd == MemCmd::ReadExclusive;
        park([this, core, lineAddr, exclusive] {
            if (!installLineL2(lineAddr))
                return false;
            finishFill(core, lineAddr, exclusive,
                       CoherenceState::Exclusive);
            return true;
        });
    } else if (pkt.origin == WriteOrigin::Clwb) {
        // ADR admission of a CLWB write completes its flush.
        --activeTransactions;
        answer(pkt.reply, MemRequestKind::Flush, MemResponseKind::Done,
               true);
        scheduleKick();
    }
}

void
Hierarchy::startFlush(CoreId core, Addr addr, Reply reply)
{
    Addr la = lineAlign(addr);
    ++activeTransactions;

    // Flushes deliberately do not serialize on busyLines: a
    // read-exclusive snoop parked on this core's persist drain point
    // must not block the very CLWB it is waiting for (§IV —
    // "CLWBs never stall ... so there is no possibility of circular
    // dependency and deadlock"). Concurrent transactions tolerate
    // the dirty-bit cleaning the flush performs.
    {
        // Fast path: the flushing core's own L1 owns the dirty line.
        const CacheLineInfo *line =
            std::as_const(l1Tags.at(core)).findLine(la);
        bool ownDirty = line && line->dirty();
        Tick lookup = ownDirty
                          ? params.l1Latency
                          : params.l1Latency + params.snoopLatency +
                                params.l2Latency;

        eq.scheduleIn(lookup, [this, core, la, reply] {
            // The flush performs its cache read here; stores gated
            // behind a persist barrier may drain only after this
            // point (the notification below), so the snapshot can
            // never include post-barrier data.
            answer(reply, MemRequestKind::Flush,
                   MemResponseKind::FlushStarted);
            bool dirty = false;
            // Clean every dirty copy in the domain; CLWB retains
            // clean copies (non-invalidating). Clean and absent lines
            // are only probed, so they never copy a tag block.
            for (unsigned i = 0; i < cores.size(); ++i) {
                const CacheLineInfo *l =
                    std::as_const(l1Tags[i]).findLine(la);
                if (l && l->dirty()) {
                    dirty = true;
                    l1Tags[i].findLine(la)->state =
                        CoherenceState::Exclusive;
                }
                if (cores[i].writebacks.contains(la))
                    dirty = true;
            }
            const CacheLineInfo *l2line = std::as_const(l2).findLine(la);
            if (l2line && l2line->dirty()) {
                dirty = true;
                l2.findLine(la)->state = CoherenceState::Shared;
            }

            if (!dirty) {
                ++flushesClean;
                --activeTransactions;
                answer(reply, MemRequestKind::Flush,
                       MemResponseKind::Done);
                scheduleKick();
                return;
            }

            ++flushesDirty;
            // Same-line writes enter the controller in snapshot
            // order even if back-pressure forces retries. The write
            // answers this flush when it is admitted (packetDone()).
            sendLineWrite(la, makeWritePacket(nextPacketId++,
                                              image.snapshotLine(la),
                                              core, WriteOrigin::Clwb,
                                              reply));
        }, EventPriority::MemoryResponse);
    }
}

// ---------------------------------------------------------------------
// Snapshot support
// ---------------------------------------------------------------------

Hierarchy::Snapshot
Hierarchy::saveState() const
{
    Snapshot snap{static_cast<const HierarchyState &>(*this), {},
                  l2.snapshotState()};
    for (const CacheArray &tags : l1Tags)
        snap.l1Tags.push_back(tags.snapshotState());
    return snap;
}

void
Hierarchy::restoreState(const Snapshot &snap)
{
    panicIf(snap.l1Tags.size() != l1Tags.size(),
            "hierarchy core count changed across a snapshot");
    static_cast<HierarchyState &>(*this) = snap.state;
    for (std::size_t i = 0; i < l1Tags.size(); ++i)
        l1Tags[i].restoreState(snap.l1Tags[i]);
    l2.restoreState(snap.l2Tags);
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

CoherenceState
Hierarchy::l1State(CoreId core, Addr addr) const
{
    const CacheLineInfo *line =
        l1Tags.at(core).findLine(lineAlign(addr));
    return line ? line->state : CoherenceState::Invalid;
}

bool
Hierarchy::l1Dirty(CoreId core, Addr addr) const
{
    const CacheLineInfo *line =
        l1Tags.at(core).findLine(lineAlign(addr));
    return line && line->dirty();
}

CoherenceState
Hierarchy::l2State(Addr addr) const
{
    const CacheLineInfo *line = l2.findLine(lineAlign(addr));
    return line ? line->state : CoherenceState::Invalid;
}

bool
Hierarchy::l2Dirty(Addr addr) const
{
    const CacheLineInfo *line = l2.findLine(lineAlign(addr));
    return line && line->dirty();
}

std::size_t
Hierarchy::writebacksPending() const
{
    std::size_t total = 0;
    for (const auto &l1 : cores)
        total += l1.writebacks.size();
    return total;
}

std::string
Hierarchy::describeWaitingWork() const
{
    std::ostringstream os;
    os << parked.size() << " parked transactions, " << nackedReads.size()
       << " refused reads";
    auto waitsFor = [&](Addr lineAddr, CoreId owner,
                        const DrainPoint &point) {
        os << " of line 0x" << std::hex << lineAddr << std::dec
           << " waits for core " << owner << "'s drain point (position "
           << point.buffered << ", seq " << point.queued << "): "
           << (drainedPast(owner, point) ? "passed" : "not passed");
    };
    for (const PendingEvict &evict : pendingL2Evicts) {
        os << "\n  L2 eviction";
        waitsFor(evict.lineAddr, evict.owner, evict.point);
        if (&evict == &pendingL2Evicts.front() && evictInFlight)
            os << ", in the mail";
    }
    for (CoreId i = 0; i < cores.size(); ++i) {
        const WritebackBuffer &writebacks = cores[i].writebacks;
        if (writebacks.empty())
            continue;
        os << "\n  write-back head (1 of " << writebacks.size() << ")";
        waitsFor(writebacks.front().lineAddr, i,
                 writebacks.front().point);
    }
    return os.str();
}

} // namespace strand
