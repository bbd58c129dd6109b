#include "persist/strand_engine.hh"

#include <vector>

#include "fuzz/adversary.hh"

namespace strand
{

StrandEngineParams
strandWeaverParams()
{
    return StrandEngineParams{};
}

StrandEngineParams
noPersistQueueParams()
{
    StrandEngineParams p;
    // Persist ops live in the 64-entry store queue; the engine-side
    // bound is effectively the store queue's and is enforced by the
    // core through sharesStoreQueue().
    p.pqEntries = 64;
    p.sharedStoreQueue = true;
    return p;
}

StrandEngineParams
hopsParams()
{
    StrandEngineParams p;
    // One persist buffer per core; ofences delegate ordering to it.
    p.sbu.numBuffers = 1;
    p.sbu.entriesPerBuffer = 16;
    p.pbGatesStores = false;
    return p;
}

StrandEngine::StrandEngine(std::string name, EventQueue &eq, CoreId core,
                           Hierarchy &hier,
                           const StrandEngineParams &params,
                           stats::StatGroup *parent)
    : PersistEngine(std::move(name), eq, parent),
      clwbsDispatched(this, "clwbs", "CLWBs dispatched"),
      barriersDispatched(this, "barriers",
                         "persist barriers / ofences dispatched"),
      newStrands(this, "newStrands", "NewStrand ops dispatched"),
      joinStrands(this, "joinStrands",
                  "JoinStrand / dfence ops dispatched"),
      pqOccupancyHist(this, "pqOccupancy",
                      "persist queue occupancy at dispatch"),
      core(core), params(params),
      sbu("sbu", eq, core, hier, params.sbu, this)
{
    sbu.setCompletionCallback([this](std::uint64_t seq, bool wrotePm) {
        onClwbComplete(seq, wrotePm);
    });
    sbu.setStartedCallback(
        [this](std::uint64_t seq) { onClwbStarted(seq); });
    // Buffered entries carry their elder-store seq as a plain
    // descriptor; the unit resolves it through this query at issue
    // time (capture-friendly: no per-entry closures).
    sbu.setElderQuery([this](SeqNum seq) {
        return !sq.completed || sq.completed(seq);
    });
    retryEvaluate = [this] { evaluate(); };
}

bool
StrandEngine::canAccept() const
{
    return queue.size() < params.pqEntries;
}

void
StrandEngine::beginCycle()
{
    // The shared store queue has a single drain port: at most one
    // entry (store or persist op) leaves per cycle.
    issueBudget = params.sharedStoreQueue ? 1 : ~0u;
    usedPort = false;
}

bool
StrandEngine::portBusy() const
{
    return params.sharedStoreQueue && usedPort;
}

void
StrandEngine::dispatch(const Op &op, SeqNum seq, SeqNum elderStoreSeq)
{
    panicIf(!canAccept(), "persist queue overflow");
    pqOccupancyHist.sample(static_cast<double>(queue.size()));

    Entry entry;
    entry.addr = op.addr;
    entry.seq = seq;
    entry.elderStoreSeq = elderStoreSeq;

    switch (op.type) {
      case OpType::Clwb:
        entry.type = OpType::Clwb;
        ++clwbsDispatched;
        break;
      case OpType::PersistBarrier:
      case OpType::Ofence:
        entry.type = op.type;
        ++barriersDispatched;
        break;
      case OpType::NewStrand:
        entry.type = OpType::NewStrand;
        ++newStrands;
        break;
      case OpType::JoinStrand:
      case OpType::Dfence:
      case OpType::Sfence:
        // SFENCE is accepted defensively and treated as a full
        // drain, which is a superset of its semantics.
        entry.type = OpType::JoinStrand;
        ++joinStrands;
        break;
      default:
        panic("op {} is not a persist op", opTypeName(op.type));
    }
    queue.push_back(entry);
    evaluate();
}

bool
StrandEngine::storeMayIssue(SeqNum seq) const
{
    // For each older CLWB, note whether a persist barrier separates
    // it from this store *within the same strand*: such a CLWB must
    // have performed its cache read before the store may drain (else
    // the flush could capture post-barrier data). A NewStrand clears
    // the constraint (Eq. 1), so barriers do not gate stores of
    // later strands.
    std::vector<bool> barrierBetween(queue.size(), false);
    {
        bool seen = false;
        for (std::size_t i = queue.size(); i-- > 0;) {
            if (queue[i].seq >= seq)
                continue;
            barrierBetween[i] = seen;
            if (queue[i].type == OpType::PersistBarrier)
                seen = true;
            else if ((params.epochInterlock ||
                      params.strictAdmission) &&
                     queue[i].type == OpType::Ofence)
                // The delegated ofence normally orders nothing on the
                // CPU side; under the epoch interlock it gates stores
                // from overwriting lines of pre-ofence CLWBs that
                // have not read the cache yet, exactly as a persist
                // barrier does.
                seen = true;
            else if (queue[i].type == OpType::NewStrand)
                seen = false;
        }
    }
    std::size_t idx = static_cast<std::size_t>(-1);
    for (const Entry &entry : queue) {
        ++idx;
        bool barrierSince = barrierBetween[idx];
        if (entry.seq >= seq)
            break;
        switch (entry.type) {
          case OpType::Clwb:
            // NO-PERSIST-QUEUE head-of-line blocking (§VI-A): the
            // store queue drains strictly in order, so a younger
            // store waits until an older CLWB has left for the
            // strand buffer unit (which stalls whenever the target
            // buffer is full of long-latency flushes). The separate
            // persist queue exists precisely to let stores pass.
            if (params.sharedStoreQueue && !entry.issued)
                return false;
            // Under any strand design, a store must not drain into a
            // line an in-flight older CLWB has not read yet, or the
            // flush would capture post-barrier data (§IV orders
            // prior CLWB issue before subsequent stores).
            if ((params.pbGatesStores || params.epochInterlock ||
                 params.strictAdmission) &&
                barrierSince) {
                // Strict admission demands full completion: the log
                // line must already be in the ADR ring before the
                // guarded store may touch the cache, so no media
                // drop can reorder their admissions. The interlock
                // only orders the flush's cache read.
                if (params.strictAdmission ? !entry.completed
                                           : !entry.flushStarted)
                    return false;
            }
            break;
          case OpType::PersistBarrier:
            // Unlike SFENCE, a persist barrier stalls younger stores
            // only until it (and, by FIFO order, all earlier CLWBs)
            // has *issued*, not completed.
            if (params.pbGatesStores && !entry.issued)
                return false;
            break;
          case OpType::Ofence:
            break; // fully delegated
          case OpType::JoinStrand:
            if (!entry.completed)
                return false;
            break;
          default:
            break;
        }
    }
    return true;
}

bool
StrandEngine::joinComplete(const Entry &entry) const
{
    // All earlier CLWBs must have completed...
    for (const Entry &other : queue) {
        if (other.seq >= entry.seq)
            break;
        if (other.type == OpType::Clwb && !other.completed)
            return false;
    }
    // ...and all earlier stores must have written the L1.
    return !sq.allCompletedBefore || sq.allCompletedBefore(entry.seq);
}

bool
StrandEngine::headMayIssue(const Entry &entry) const
{
    switch (entry.type) {
      case OpType::Clwb:
        // Paper §IV: the persist queue holds a CLWB only until the
        // elder same-location store has *issued*; the flush itself
        // waits (per line, in the strand buffer) for the store to
        // reach the L1.
        if (entry.elderStoreSeq != 0 && sq.issued &&
            !sq.issued(entry.elderStoreSeq)) {
            return false;
        }
        if (params.sharedStoreQueue && sq.allIssuedBefore &&
            !sq.allIssuedBefore(entry.seq)) {
            // Single FIFO with stores: all elder stores must have
            // issued before the CLWB may leave.
            return false;
        }
        return sbu.canAcceptClwb();
      case OpType::PersistBarrier:
        // The barrier orders *issue* of prior stores before
        // subsequent CLWBs (§IV) — it does not wait for their
        // completion; flush freshness is separately guaranteed by
        // each CLWB's same-line elder-store gating.
        if (sq.allIssuedBefore && !sq.allIssuedBefore(entry.seq))
            return false;
        return sbu.canAcceptBarrier();
      case OpType::Ofence:
        return sbu.canAcceptBarrier();
      case OpType::NewStrand:
        return true;
      case OpType::JoinStrand:
        return false; // never issued to the strand buffer unit
      default:
        return false;
    }
}

void
StrandEngine::issueHead()
{
    // Issue strictly in order: find the first non-issued entry; stop
    // at a JoinStrand that has not completed.
    for (Entry &entry : queue) {
        if (entry.type == OpType::JoinStrand) {
            if (!entry.completed) {
                if (joinComplete(entry)) {
                    entry.completed = true;
                    emitRetired(PrimitiveKind::JoinStrand, entry.seq);
                    noteProgress();
                } else {
                    return;
                }
            }
            continue;
        }
        if (entry.issued)
            continue;
        if (!headMayIssue(entry))
            return;
        if (params.adversary) {
            // Fuzzing: the persist queue drains strictly in order, so
            // a hold here delays everything younger — a legal (if
            // slow) schedule that stresses drain-point interlocks.
            if (curTick() < entry.heldUntil)
                return;
            Tick delay = params.adversary->consider(
                eq, FuzzSite::StrandIssue, core, retryEvaluate);
            if (delay > 0) {
                entry.heldUntil = curTick() + delay;
                return;
            }
        }
        if (issueBudget == 0)
            return;
        --issueBudget;
        usedPort = true;
        entry.issued = true;
        noteProgress();
        switch (entry.type) {
          case OpType::Clwb:
            sbu.pushClwb(entry.addr, entry.seq, entry.elderStoreSeq);
            break;
          case OpType::PersistBarrier:
          case OpType::Ofence:
            sbu.pushBarrier();
            entry.completed = true;
            emitRetired(PrimitiveKind::Barrier, entry.seq);
            break;
          case OpType::NewStrand:
            sbu.newStrand();
            entry.completed = true;
            emitRetired(PrimitiveKind::NewStrand, entry.seq);
            break;
          default:
            panic("unexpected entry type at issue");
        }
    }
}

void
StrandEngine::retire()
{
    while (!queue.empty() && queue.front().completed) {
        // Shared-queue (NO-PERSIST-QUEUE) slots free strictly in
        // order across stores and persist ops: a completed persist
        // entry behind an older incomplete store keeps its slot.
        if (params.sharedStoreQueue && sq.oldestIncompleteStore &&
            sq.oldestIncompleteStore() < queue.front().seq) {
            break;
        }
        queue.pop_front();
    }
}

SeqNum
StrandEngine::oldestIncompleteSeq() const
{
    if (!params.sharedStoreQueue || queue.empty())
        return ~static_cast<SeqNum>(0);
    return queue.front().seq;
}

void
StrandEngine::onClwbStarted(SeqNum seq)
{
    for (Entry &entry : queue) {
        if (entry.type == OpType::Clwb && entry.seq == seq) {
            entry.flushStarted = true;
            noteProgress();
            break;
        }
    }
}

void
StrandEngine::onClwbComplete(SeqNum seq, bool wrotePm)
{
    for (Entry &entry : queue) {
        if (entry.type == OpType::Clwb && entry.seq == seq) {
            entry.completed = true;
            noteCompletion();
            emitRetired(PrimitiveKind::Clwb, seq,
                        lineAlign(entry.addr), !wrotePm);
            noteProgress();
            break;
        }
    }
    evaluate();
}

void
StrandEngine::evaluate()
{
    issueHead();
    retire();
    sbu.evaluate();
}

bool
StrandEngine::drained() const
{
    return queue.empty() && sbu.drained();
}

std::size_t
StrandEngine::queueOccupancy() const
{
    return queue.size();
}

bool
StrandEngine::sharesStoreQueue() const
{
    return params.sharedStoreQueue;
}

void
StrandEngine::saveState(SimSnapshot &snap) const
{
    Snapshot s;
    s.base = baseState();
    s.queue = queue;
    s.issueBudget = issueBudget;
    s.usedPort = usedPort;
    snap.put(snapshotName(), s);
    sbu.saveState(snap);
}

void
StrandEngine::restoreState(const SimSnapshot &snap)
{
    const Snapshot &s = snap.get<Snapshot>(snapshotName());
    restoreBaseState(s.base);
    queue = s.queue;
    issueBudget = s.issueBudget;
    usedPort = s.usedPort;
    sbu.restoreState(snap);
}

Hierarchy::Clearance
StrandEngine::recordDrainPoint()
{
    Hierarchy::Clearance sbuClear = sbu.recordDrainPoint();
    if ((!params.epochInterlock && !params.strictAdmission) ||
        queue.empty())
        return sbuClear;
    // Epoch interlock: with the delegated ofence, the departing dirty
    // line may already hold data from stores younger than CLWBs still
    // waiting in the persist queue — covering only the strand buffers
    // would let that data reach PM before its guarding log entry.
    // Also hold the write-back until every CLWB dispatched so far has
    // persisted.
    SeqNum tail = queue.back().seq;
    auto pqClear = [this, tail] {
        for (const Entry &entry : queue) {
            if (entry.seq > tail)
                break;
            if (entry.type == OpType::Clwb && !entry.completed)
                return false;
        }
        return true;
    };
    if (!sbuClear)
        return pqClear;
    return [sbuClear = std::move(sbuClear),
            pqClear = std::move(pqClear)] {
        return sbuClear() && pqClear();
    };
}

} // namespace strand
