#include "persist/strand_buffer_unit.hh"

#include "fuzz/adversary.hh"

namespace strand
{

StrandBufferUnit::StrandBufferUnit(std::string name, EventQueue &eq,
                                   CoreId core, Hierarchy &hier,
                                   const StrandBufferUnitParams &params,
                                   stats::StatGroup *parent)
    : SimObject(std::move(name), eq, parent),
      clwbsIssued(this, "clwbsIssued", "CLWBs issued to the hierarchy"),
      clwbsCompleted(this, "clwbsCompleted", "CLWBs completed"),
      cleanFlushes(this, "cleanFlushes",
                   "CLWBs that found no dirty data"),
      barriersRetired(this, "barriersRetired",
                      "persist barriers retired"),
      strandsStarted(this, "strandsStarted", "NewStrand operations"),
      flushLatency(this, "flushLatency",
                   "CLWB issue-to-completion latency in ticks"),
      core(core), params(params)
{
    fatalIf(params.numBuffers == 0 || params.entriesPerBuffer == 0,
            "strand buffer unit needs at least one buffer and entry");
    buffers.resize(params.numBuffers);
    retryEvaluate = [this] { evaluate(); };
    port.init(eq, fullName() + ".port");
    port.bind(hier);
    port.setResponseHandler(
        [this](const MemResponse &resp) { onMemResponse(resp); });
}

namespace
{

/** Flush tokens carry the entry's home buffer in the top bits. */
constexpr unsigned tokenBufferShift = 48;
constexpr std::uint64_t tokenPositionMask =
    (std::uint64_t{1} << tokenBufferShift) - 1;

} // namespace

void
StrandBufferUnit::onMemResponse(const MemResponse &resp)
{
    if (resp.req != MemRequestKind::Flush) [[unlikely]]
        panic("{}: unexpected memory response", fullName());
    const std::size_t bi = resp.token >> tokenBufferShift;
    const std::uint64_t position = resp.token & tokenPositionMask;
    if (bi >= buffers.size()) [[unlikely]]
        panic("{}: flush token names buffer {}", fullName(), bi);
    Buffer &buffer = buffers[bi];
    // Find the entry by position; earlier entries may have retired
    // meanwhile but this one cannot have (it is not yet complete).
    for (Entry &e : buffer) {
        if (e.position != position)
            continue;
        if (resp.kind == MemResponseKind::FlushStarted) {
            // The cache read happened: post-barrier stores may drain.
            if (startedCallback)
                startedCallback(e.id);
            return;
        }
        e.completed = true;
        if (!resp.wrotePm)
            ++cleanFlushes;
        ++clwbsCompleted;
        flushLatency.sample(
            static_cast<double>(curTick() - e.issuedAt));
        if (completionCallback)
            completionCallback(e.id, resp.wrotePm);
        break;
    }
    if (resp.kind == MemResponseKind::FlushStarted)
        return;
    retireCompleted(buffer);
    issueFrom(buffer);
    // Retirement just moved the drain-point frontier, strictly after
    // the hierarchy's own completion kick ran — ring its doorbell so
    // parked snoops/write-backs re-check their clearances.
    MemRequest kick;
    kick.kind = MemRequestKind::Kick;
    kick.core = core;
    port.send(std::move(kick));
}

bool
StrandBufferUnit::canAcceptClwb() const
{
    return buffers[ongoing].size() < params.entriesPerBuffer;
}

void
StrandBufferUnit::pushClwb(Addr addr, std::uint64_t id,
                           SeqNum elderStoreSeq)
{
    panicIf(!canAcceptClwb(), "strand buffer overflow");
    Buffer &buffer = buffers[ongoing];
    Entry entry;
    entry.kind = Kind::Clwb;
    entry.addr = addr;
    entry.id = id;
    entry.elderStoreSeq = elderStoreSeq;
    entry.position = nextPosition++;
    buffer.push_back(entry);
    issueFrom(buffer);
}

void
StrandBufferUnit::pushBarrier()
{
    panicIf(!canAcceptBarrier(), "strand buffer overflow");
    Buffer &buffer = buffers[ongoing];
    Entry entry;
    entry.kind = Kind::Barrier;
    entry.position = nextPosition++;
    buffer.push_back(entry);
    // A barrier with nothing ahead of it is immediately complete;
    // retire it eagerly so it does not block issue.
    retireCompleted(buffer);
}

void
StrandBufferUnit::newStrand()
{
    ++strandsStarted;
    ongoing = (ongoing + 1) % buffers.size();
}

bool
StrandBufferUnit::drained() const
{
    for (const Buffer &buffer : buffers)
        if (!buffer.empty())
            return false;
    return true;
}

std::size_t
StrandBufferUnit::occupancy() const
{
    std::size_t total = 0;
    for (const Buffer &buffer : buffers)
        total += buffer.size();
    return total;
}

bool
StrandBufferUnit::drainedPast(std::uint64_t point) const
{
    // Entries retire from the head in position order, and anything
    // appended after the capture lies past the point.
    for (const Buffer &buffer : buffers)
        if (!buffer.empty() && buffer.front().position <= point)
            return false;
    return true;
}

void
StrandBufferUnit::issueFrom(Buffer &buffer)
{
    // Issue every CLWB ahead of the first incomplete barrier. CLWBs
    // in the same barrier-free prefix may flush concurrently.
    for (Entry &entry : buffer) {
        if (entry.kind == Kind::Barrier) {
            if (!entry.completed)
                break;
            continue;
        }
        if (entry.hasIssued)
            continue;
        if (entry.elderStoreSeq != 0 && elderCompleted &&
            !elderCompleted(entry.elderStoreSeq))
            continue; // not flushable yet; later entries may proceed
        if (params.adversary) {
            // Fuzzing: entries in a barrier-free prefix (and in other
            // strands) carry no mutual ordering, so holding this one
            // while its neighbours flush is a legal schedule.
            if (curTick() < entry.heldUntil)
                continue;
            Tick delay = params.adversary->consider(
                eq, FuzzSite::SbuIssue, core, retryEvaluate);
            if (delay > 0) {
                entry.heldUntil = curTick() + delay;
                continue;
            }
        }
        entry.hasIssued = true;
        entry.issuedAt = curTick();
        ++clwbsIssued;
        const std::size_t bi =
            static_cast<std::size_t>(&buffer - buffers.data());
        MemRequest req;
        req.kind = MemRequestKind::Flush;
        req.core = core;
        req.addr = entry.addr;
        req.token = (static_cast<std::uint64_t>(bi)
                     << tokenBufferShift) | entry.position;
        port.send(std::move(req));
    }
}

void
StrandBufferUnit::retireCompleted(Buffer &buffer)
{
    // Retire from the head: completed CLWBs, and barriers whose
    // predecessors have all retired.
    while (!buffer.empty()) {
        Entry &head = buffer.front();
        if (head.kind == Kind::Barrier) {
            head.completed = true;
            ++barriersRetired;
        } else if (!head.completed) {
            break;
        }
        buffer.pop_front();
    }
}

void
StrandBufferUnit::evaluate()
{
    for (Buffer &buffer : buffers) {
        retireCompleted(buffer);
        issueFrom(buffer);
    }
}

void
StrandBufferUnit::restoreState(const StrandBufferUnitState &state)
{
    panicIf(state.buffers.size() != buffers.size(),
            "{}: restore with a different buffer count", fullName());
    static_cast<StrandBufferUnitState &>(*this) = state;
}

} // namespace strand
