#include "persist/intel_engine.hh"

#include "fuzz/adversary.hh"

namespace strand
{

IntelEngine::IntelEngine(std::string name, EventQueue &eq, CoreId core,
                         Hierarchy &hier,
                         const IntelEngineParams &params,
                         stats::StatGroup *parent)
    : PersistEngine(std::move(name), eq, parent),
      clwbsDispatched(this, "clwbs", "CLWBs dispatched"),
      sfencesDispatched(this, "sfences", "SFENCEs dispatched"),
      clwbsCompleted(this, "clwbsCompleted", "CLWBs completed"),
      flushLatency(this, "flushLatency",
                   "CLWB issue-to-completion latency in ticks"),
      core(core), params(params)
{
    port.init(eq, fullName() + ".port");
    port.bind(hier);
    port.setResponseHandler(
        [this](const MemResponse &resp) { onMemResponse(resp); });
}

void
IntelEngine::onMemResponse(const MemResponse &resp)
{
    panicIf(resp.req != MemRequestKind::Flush,
            "{}: unexpected memory response", fullName());
    if (resp.kind == MemResponseKind::FlushStarted)
        return; // SFENCE gating keys off completion, not the read
    const SeqNum seq = resp.token;
    for (Entry &e : queue) {
        if (e.type == OpType::Clwb && e.seq == seq) {
            e.completed = true;
            noteCompletion();
            emitRetired(PrimitiveKind::Clwb, seq, lineAlign(e.addr),
                        !resp.wrotePm);
            noteProgress();
            ++clwbsCompleted;
            flushLatency.sample(
                static_cast<double>(curTick() - e.issuedAt));
            break;
        }
    }
    evaluate();
    // Retirement just moved the drain-point frontier, strictly after
    // the hierarchy's own completion kick ran — ring its doorbell so
    // parked snoops/write-backs re-check their clearances.
    MemRequest kick;
    kick.kind = MemRequestKind::Kick;
    kick.core = core;
    port.send(std::move(kick));
}

bool
IntelEngine::canAccept() const
{
    return queue.size() < params.queueEntries;
}

void
IntelEngine::dispatch(const Op &op, SeqNum seq, SeqNum elderStoreSeq)
{
    panicIf(!canAccept(), "Intel persist structure overflow");

    Entry entry;
    entry.addr = op.addr;
    entry.seq = seq;
    entry.elderStoreSeq = elderStoreSeq;

    switch (op.type) {
      case OpType::Clwb:
        entry.type = OpType::Clwb;
        ++clwbsDispatched;
        break;
      case OpType::Sfence:
        entry.type = OpType::Sfence;
        ++sfencesDispatched;
        break;
      case OpType::PersistBarrier:
      case OpType::Ofence:
      case OpType::Dfence:
      case OpType::JoinStrand:
        // Any stronger primitive maps onto SFENCE on this hardware.
        entry.type = OpType::Sfence;
        ++sfencesDispatched;
        break;
      case OpType::NewStrand:
        // No equivalent exists; the op is a no-op here.
        return;
      default:
        panic("op {} is not a persist op", opTypeName(op.type));
    }
    queue.push_back(entry);
    evaluate();
}

bool
IntelEngine::storeMayIssue(SeqNum seq) const
{
    // SFENCE delays visibility of younger stores until all earlier
    // CLWBs complete (via the fence's own completion).
    for (const Entry &entry : queue) {
        if (entry.seq >= seq)
            break;
        if (entry.type == OpType::Sfence && !entry.completed)
            return false;
    }
    return true;
}

void
IntelEngine::issueEligible()
{
    // Every CLWB with no incomplete SFENCE ahead of it may flush;
    // CLWBs within an epoch proceed concurrently.
    bool blocked = false;
    for (Entry &entry : queue) {
        if (entry.type == OpType::Sfence) {
            if (!entry.completed) {
                // Try to complete the fence: all earlier CLWBs done
                // and all earlier stores drained.
                bool clwbsDone = true;
                for (const Entry &other : queue) {
                    if (other.seq >= entry.seq)
                        break;
                    if (params.plantedEpochBug && !other.issued &&
                        curTick() < other.heldUntil) {
                        // Planted bug (see IntelEngineParams): a held
                        // flush is miscounted as done, breaching the
                        // epoch exactly when the adversary says so.
                        continue;
                    }
                    if (other.type == OpType::Clwb && !other.completed) {
                        clwbsDone = false;
                        break;
                    }
                }
                if (clwbsDone &&
                    (!sq.allCompletedBefore ||
                     sq.allCompletedBefore(entry.seq))) {
                    entry.completed = true;
                    emitRetired(PrimitiveKind::Barrier, entry.seq);
                    noteProgress();
                } else {
                    blocked = true;
                }
            }
            if (blocked)
                return;
            continue;
        }
        if (entry.issued || blocked)
            continue;
        if (entry.elderStoreSeq != 0 && sq.completed &&
            !sq.completed(entry.elderStoreSeq)) {
            // CLWB waits for the elder store to the same line so it
            // flushes fresh data; younger independent CLWBs in the
            // same epoch may still proceed.
            continue;
        }
        if (params.adversary) {
            // Fuzzing: CLWBs within an epoch may flush in any order,
            // so the adversary is free to hold this one while
            // younger epoch-mates proceed.
            if (curTick() < entry.heldUntil)
                continue;
            Tick delay = params.adversary->consider(
                eq, FuzzSite::IntelIssue, core,
                [this] { evaluate(); });
            if (delay > 0) {
                entry.heldUntil = curTick() + delay;
                continue;
            }
        }
        entry.issued = true;
        entry.issuedAt = curTick();
        noteProgress();
        MemRequest req;
        req.kind = MemRequestKind::Flush;
        req.core = core;
        req.addr = entry.addr;
        req.token = entry.seq;
        port.send(std::move(req));
    }
}

void
IntelEngine::retire()
{
    while (!queue.empty() && queue.front().completed) {
        lastRetiredSeq = queue.front().seq;
        queue.pop_front();
    }
}

void
IntelEngine::evaluate()
{
    issueEligible();
    retire();
}

bool
IntelEngine::drained() const
{
    return queue.empty();
}

std::size_t
IntelEngine::queueOccupancy() const
{
    return queue.size();
}

void
IntelEngine::saveState(SimSnapshot &snap) const
{
    Snapshot s;
    s.base = baseState();
    s.queue = queue;
    s.lastRetiredSeq = lastRetiredSeq;
    snap.put(snapshotName(), s);
}

void
IntelEngine::restoreState(const SimSnapshot &snap)
{
    const Snapshot &s = snap.get<Snapshot>(snapshotName());
    restoreBaseState(s.base);
    queue = s.queue;
    lastRetiredSeq = s.lastRetiredSeq;
}

Hierarchy::Clearance
IntelEngine::recordDrainPoint()
{
    if (queue.empty())
        return {};
    SeqNum tail = queue.back().seq;
    return [this, tail] { return lastRetiredSeq >= tail || queue.empty() ||
                                 queue.front().seq > tail; };
}

} // namespace strand
