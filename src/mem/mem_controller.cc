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
    : ClockedObject(std::move(name), eq, coreClockPeriod, parent),
      numReads(this, "reads", "read requests serviced"),
      numWrites(this, "writes", "write requests serviced"),
      numRowHits(this, "rowHits", "row buffer hits"),
      numRowMisses(this, "rowMisses", "row buffer misses"),
      numRetries(this, "retries", "requests rejected due to full queues"),
      readLatencyHist(this, "readLatency",
                      "read service latency in ticks"),
      image(image), params(params), persistent(persistent),
      readEvents(params.readQueueEntries),
      writeEvents(params.writeQueueEntries)
{
    fatalIf(params.banks == 0, "controller must have at least one bank");
    banks.resize(params.banks);
    // The pools are bounded by the queue-entry limits, so every slot
    // and its completion event are built here: a restore requires
    // that no recurring event be bound after a capture. Free-list
    // order mimics on-demand growth: slot 0 is acquired first.
    readSlots.resize(params.readQueueEntries);
    for (std::size_t i = readSlots.size(); i-- > 0;)
        freeReadSlots.push_back(i);
    writeSlots.resize(params.writeQueueEntries);
    for (std::size_t i = writeSlots.size(); i-- > 0;)
        freeWriteSlots.push_back(i);

    for (std::size_t i = 0; i < readEvents.size(); ++i) {
        readEvents[i].init(eq, [this, i] { completeRead(i); },
                           EventPriority::MemoryResponse);
    }
    for (std::size_t i = 0; i < writeEvents.size(); ++i) {
        writeEvents[i].init(eq, [this, i] { advanceWrite(i); },
                            EventPriority::MemoryResponse);
    }
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
    if (req.kind != MemRequestKind::Packet) [[unlikely]]
        panic("{}: controllers only service Packet requests",
              fullName());
    const PacketPtr &pkt = req.pkt;
    panicIf(!pkt, "null packet");

    bool accepted = false;
    switch (pkt->cmd) {
      case MemCmd::Read:
      case MemCmd::ReadExclusive:
        accepted = !freeReadSlots.empty();
        if (accepted)
            handleRead(pkt);
        break;
      case MemCmd::Write:
        accepted = !freeWriteSlots.empty();
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

std::size_t
MemController::acquireSlot(std::vector<std::size_t> &free)
{
    if (free.empty()) [[unlikely]]
        panic("{}: no free request slot", fullName());
    const std::size_t slot = free.back();
    free.pop_back();
    return slot;
}

void
MemController::completeRead(std::size_t slot)
{
    // Free the slot before the client runs so a request it issues
    // can reuse it.
    PacketPtr pkt = std::move(readSlots[slot]);
    freeReadSlots.push_back(slot);
    client->packetDone(*pkt);
    client->queueFreed();
}

void
MemController::advanceWrite(std::size_t slot)
{
    WriteSlot &write = writeSlots[slot];
    if (write.inMedia) {
        write.pkt.reset();
        write.inMedia = false;
        freeWriteSlots.push_back(slot);
        client->queueFreed();
        return;
    }
    // ADR admission: the write is now in the persist domain and is
    // acknowledged; the media program follows.
    const PacketPtr &pkt = write.pkt;
    if (persistent) {
        image.persistLine(pkt->data);
        if (persistObserver)
            persistObserver(*pkt, curTick());
    }
    client->packetDone(*pkt);
    // Media program happens after admission; the queue slot is held
    // until the media write retires (back-pressure).
    Tick done = serviceOnBank(pkt->addr, curTick(),
                              params.mediaWriteLatency,
                              params.mediaWriteRowHitLatency,
                              params.writeOccupancy,
                              params.writeRowHitOccupancy);
    write.inMedia = true;
    writeEvents[slot].schedule(done);
}

void
MemController::handleRead(const PacketPtr &pkt)
{
    ++numReads;
    Tick issued = curTick();
    Tick done = serviceOnBank(pkt->addr, issued, params.readLatency,
                              params.readRowHitLatency,
                              params.readOccupancy,
                              params.readOccupancy);
    readLatencyHist.sample(static_cast<double>(done - issued));
    const std::size_t slot = acquireSlot(freeReadSlots);
    readSlots[slot] = pkt;
    readEvents[slot].schedule(done);
}

void
MemController::handleWrite(const PacketPtr &pkt)
{
    ++numWrites;
    // ADR admission: transit to the controller, then the write is in
    // the persist domain. The ack back to the flushing unit is sent
    // at the same point.
    const std::size_t slot = acquireSlot(freeWriteSlots);
    writeSlots[slot].pkt = pkt;
    writeEvents[slot].schedule(curTick() + params.writeAcceptLatency);
}

void
MemController::restoreState(const MemControllerState &state)
{
    panicIf(state.readSlots.size() != readEvents.size() ||
                state.writeSlots.size() != writeEvents.size(),
            "{}: slot pool changed size across a snapshot", fullName());
    static_cast<MemControllerState &>(*this) = state;
}

} // namespace strand
