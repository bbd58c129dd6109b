#include "mem/mem_controller.hh"

namespace strand
{

MemControllerParams
dramControllerParams()
{
    MemControllerParams p;
    p.readQueueEntries = 32;
    p.writeQueueEntries = 64;
    p.banks = 16;
    p.rowBytes = 2048;
    p.readLatency = nsToTicks(80);
    p.readRowHitLatency = nsToTicks(40);
    p.writeAcceptLatency = nsToTicks(40);
    p.mediaWriteLatency = nsToTicks(80);
    p.mediaWriteRowHitLatency = nsToTicks(40);
    p.readOccupancy = nsToTicks(20);
    p.writeOccupancy = nsToTicks(20);
    p.writeRowHitOccupancy = nsToTicks(20);
    return p;
}

MemController::MemController(std::string name, EventQueue &eq,
                             MemoryImage &image,
                             const MemControllerParams &params,
                             bool persistent, stats::StatGroup *parent)
    : ClockedObject(std::move(name), eq, 500, parent),
      numReads(this, "reads", "read requests serviced"),
      numWrites(this, "writes", "write requests serviced"),
      numRowHits(this, "rowHits", "row buffer hits"),
      numRowMisses(this, "rowMisses", "row buffer misses"),
      numRetries(this, "retries", "requests rejected due to full queues"),
      readLatencyHist(this, "readLatency",
                      "read service latency in ticks"),
      image(image), params(params), persistent(persistent),
      banks(params.banks)
{
    fatalIf(params.banks == 0, "controller must have at least one bank");
    // Build every pooled slot (and its recurring completion event)
    // up front. Snapshot restore requires that no recurring event be
    // bound after a capture, and the pools are bounded by the
    // queue-entry limits anyway. Free-list order mimics on-demand
    // growth: slot 0 is acquired first.
    for (unsigned i = 0; i < params.readQueueEntries; ++i)
        newReadSlot();
    for (auto it = readSlots.rbegin(); it != readSlots.rend(); ++it)
        freeReadSlots.push_back(it->get());
    for (unsigned i = 0; i < params.writeQueueEntries; ++i)
        newWriteSlot();
    for (auto it = writeSlots.rbegin(); it != writeSlots.rend(); ++it)
        freeWriteSlots.push_back(it->get());
}

MemController::Bank &
MemController::bankFor(Addr addr)
{
    return banks[(addr / params.rowBytes) % banks.size()];
}

Tick
MemController::serviceOnBank(Addr addr, Tick earliest, Tick missLatency,
                             Tick hitLatency, Tick occupancy,
                             Tick hitOccupancy)
{
    Bank &bank = bankFor(addr);
    Addr row = addr / params.rowBytes;
    bool hit = bank.openRow == row;
    if (hit)
        ++numRowHits;
    else
        ++numRowMisses;
    Tick start = std::max(earliest, bank.freeAt);
    Tick end = start + (hit ? hitLatency : missLatency);
    bank.freeAt = start + (hit ? hitOccupancy : occupancy);
    bank.openRow = row;
    return end;
}

void
MemController::handleRequest(MemPort &port, const MemRequest &req)
{
    panicIf(req.kind != MemRequestKind::Packet,
            "{}: controllers only service Packet requests", fullName());
    const PacketPtr &pkt = req.pkt;
    panicIf(!pkt, "null packet");

    bool accepted = false;
    switch (pkt->cmd) {
      case MemCmd::Read:
      case MemCmd::ReadExclusive:
        accepted = readsInFlight < params.readQueueEntries;
        if (accepted)
            handleRead(pkt);
        break;
      case MemCmd::Write:
        accepted = writesInFlight < params.writeQueueEntries;
        if (accepted)
            handleWrite(pkt);
        break;
    }
    if (!accepted)
        ++numRetries;

    MemResponse resp;
    resp.req = MemRequestKind::Packet;
    resp.kind = accepted ? MemResponseKind::Ack : MemResponseKind::Nack;
    resp.token = req.token;
    resp.pkt = pkt;
    port.respond(std::move(resp));
}

MemController::ReadSlot *
MemController::acquireReadSlot()
{
    if (!freeReadSlots.empty()) {
        ReadSlot *slot = freeReadSlots.back();
        freeReadSlots.pop_back();
        return slot;
    }
    // Unreachable while admission bounds in-flight requests below
    // the eagerly built pool; kept as a defensive fallback.
    return newReadSlot();
}

MemController::ReadSlot *
MemController::newReadSlot()
{
    readSlots.push_back(std::make_unique<ReadSlot>());
    ReadSlot *slot = readSlots.back().get();
    slot->ev.init(eq, [this, slot] {
        // Free the slot before the response runs so a request issued
        // from the callback can reuse it.
        PacketPtr pkt = std::move(slot->pkt);
        freeReadSlots.push_back(slot);
        --readsInFlight;
        if (pkt->onResponse)
            pkt->onResponse();
        notifyRetry();
    }, EventPriority::MemoryResponse);
    return slot;
}

MemController::WriteSlot *
MemController::acquireWriteSlot()
{
    if (!freeWriteSlots.empty()) {
        WriteSlot *slot = freeWriteSlots.back();
        freeWriteSlots.pop_back();
        return slot;
    }
    // Unreachable while admission bounds in-flight requests below
    // the eagerly built pool; kept as a defensive fallback.
    return newWriteSlot();
}

MemController::WriteSlot *
MemController::newWriteSlot()
{
    writeSlots.push_back(std::make_unique<WriteSlot>());
    WriteSlot *slot = writeSlots.back().get();
    slot->ev.init(eq, [this, slot] {
        if (!slot->inMedia) {
            // ADR admission: the write is now in the persist domain
            // and is acknowledged; the media program follows.
            const PacketPtr &pkt = slot->pkt;
            if (persistent) {
                image.persistLine(pkt->data);
                if (persistObserver)
                    persistObserver(*pkt, curTick());
            }
            if (pkt->onResponse)
                pkt->onResponse();
            // Media program happens after admission; the queue slot
            // is held until the media write retires (back-pressure).
            Tick done = serviceOnBank(pkt->addr, curTick(),
                                      params.mediaWriteLatency,
                                      params.mediaWriteRowHitLatency,
                                      params.writeOccupancy,
                                      params.writeRowHitOccupancy);
            slot->inMedia = true;
            slot->ev.schedule(done);
        } else {
            slot->pkt.reset();
            slot->inMedia = false;
            freeWriteSlots.push_back(slot);
            --writesInFlight;
            notifyRetry();
        }
    }, EventPriority::MemoryResponse);
    return slot;
}

void
MemController::handleRead(const PacketPtr &pkt)
{
    ++readsInFlight;
    ++numReads;
    Tick issued = curTick();
    Tick done = serviceOnBank(pkt->addr, issued, params.readLatency,
                              params.readRowHitLatency,
                              params.readOccupancy,
                              params.readOccupancy);
    readLatencyHist.sample(static_cast<double>(done - issued));
    ReadSlot *slot = acquireReadSlot();
    slot->pkt = pkt;
    slot->ev.schedule(done);
}

void
MemController::handleWrite(const PacketPtr &pkt)
{
    ++writesInFlight;
    ++numWrites;
    // ADR admission: transit to the controller, then the write is in
    // the persist domain. The ack back to the flushing unit is sent
    // at the same point.
    WriteSlot *slot = acquireWriteSlot();
    slot->pkt = pkt;
    slot->ev.schedule(curTick() + params.writeAcceptLatency);
}

void
MemController::notifyRetry()
{
    for (auto &cb : retryCallbacks)
        cb();
}

void
MemController::saveState(SimSnapshot &snap) const
{
    Snapshot s;
    s.banks = banks;
    s.readsInFlight = readsInFlight;
    s.writesInFlight = writesInFlight;
    s.readPkts.reserve(readSlots.size());
    for (const auto &slot : readSlots)
        s.readPkts.push_back(slot->pkt);
    s.writePkts.reserve(writeSlots.size());
    s.writeInMedia.reserve(writeSlots.size());
    for (const auto &slot : writeSlots) {
        s.writePkts.push_back(slot->pkt);
        s.writeInMedia.push_back(slot->inMedia);
    }
    auto indicesOf = [](const auto &pool, const auto &free) {
        std::vector<std::size_t> out;
        out.reserve(free.size());
        for (const auto *slot : free) {
            std::size_t index = 0;
            while (pool[index].get() != slot)
                ++index;
            out.push_back(index);
        }
        return out;
    };
    s.freeReads = indicesOf(readSlots, freeReadSlots);
    s.freeWrites = indicesOf(writeSlots, freeWriteSlots);
    snap.put(snapshotName(), std::move(s));
}

void
MemController::restoreState(const SimSnapshot &snap)
{
    const Snapshot &s = snap.get<Snapshot>(snapshotName());
    panicIf(s.readPkts.size() != readSlots.size() ||
                s.writePkts.size() != writeSlots.size(),
            "{}: slot pool changed size across a snapshot",
            snapshotName());
    banks = s.banks;
    readsInFlight = s.readsInFlight;
    writesInFlight = s.writesInFlight;
    for (std::size_t i = 0; i < readSlots.size(); ++i)
        readSlots[i]->pkt = s.readPkts[i];
    for (std::size_t i = 0; i < writeSlots.size(); ++i) {
        writeSlots[i]->pkt = s.writePkts[i];
        writeSlots[i]->inMedia = s.writeInMedia[i];
    }
    freeReadSlots.clear();
    for (std::size_t index : s.freeReads)
        freeReadSlots.push_back(readSlots[index].get());
    freeWriteSlots.clear();
    for (std::size_t index : s.freeWrites)
        freeWriteSlots.push_back(writeSlots[index].get());
}

} // namespace strand
