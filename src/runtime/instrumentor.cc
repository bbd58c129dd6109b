#include "runtime/instrumentor.hh"

#include <algorithm>

namespace strand
{

Instrumentor::Instrumentor(const InstrumentorParams &params)
    : params(params)
{
    fatalIf(params.logStyle == LogStyle::Redo &&
                params.model != PersistencyModel::Txn,
            "redo logging is defined for failure-atomic transactions "
            "(paper §VII)");
}

void
Instrumentor::push(OpStream &out, Op op)
{
    op.intents |= pendingIntents;
    pendingIntents = 0;
    out.push_back(op);
}

void
Instrumentor::emitPairOrder(OpStream &out)
{
    ++loweringStats.barriers;
    pendingIntents |= kIntentBarrier;
    switch (params.design) {
      case HwDesign::IntelX86:
        push(out, Op::sfence());
        break;
      case HwDesign::Hops:
        push(out, Op::ofence());
        break;
      case HwDesign::NoPersistQueue:
      case HwDesign::StrandWeaver:
        push(out, Op::persistBarrier());
        break;
      case HwDesign::NonAtomic:
        // No pairwise ordering at all: the log and the update drain
        // on separate strands and may persist in either order. The
        // emitted op is a NewStrand, but its *intent* stays Barrier
        // (explicit intents override the intrinsic NewStrand), so
        // PMO-san checks the ordering the source program meant and
        // flags this design's reorderings — the expected-fail
        // self-test.
        --loweringStats.barriers;
        push(out, Op::newStrand());
        break;
    }
}

void
Instrumentor::emitStrandSep(OpStream &out)
{
    pendingIntents |= kIntentNewStrand;
    switch (params.design) {
      case HwDesign::NoPersistQueue:
      case HwDesign::StrandWeaver:
      case HwDesign::NonAtomic:
        push(out, Op::newStrand());
        break;
      default:
        // No hardware primitive; the intent rides the next op.
        break;
    }
}

void
Instrumentor::emitDrain(OpStream &out)
{
    ++loweringStats.drains;
    pendingIntents |= kIntentJoin;
    switch (params.design) {
      case HwDesign::IntelX86:
        push(out, Op::sfence());
        break;
      case HwDesign::Hops:
        push(out, Op::dfence());
        break;
      case HwDesign::NoPersistQueue:
      case HwDesign::StrandWeaver:
      case HwDesign::NonAtomic:
        // NON-ATOMIC removes only the log/update pair ordering
        // (§VI-A); persists still drain at synchronization points.
        push(out, Op::joinStrand());
        break;
    }
}

std::uint64_t
Instrumentor::emitLogEntry(OpStream &out, ThreadState &state, CoreId tid,
                           LogType type, Addr addr, std::uint64_t value,
                           std::uint64_t globalSeq)
{
    const LogLayout &layout = params.layout;
    fatalIf(state.tail - state.head >= layout.entriesPerThread,
            "log buffer exhausted: the pruner cannot keep up or a "
            "region exceeds log capacity");
    std::uint64_t idx = state.tail++;
    Addr base = layout.entryAddr(tid, idx);

    push(out, Op::store(base + log_field::type,
                            static_cast<std::uint64_t>(type)));
    push(out, Op::store(base + log_field::addr, addr));
    push(out, Op::store(base + log_field::value, value));
    // Integrity checksum over the immutable words; recovery verifies
    // it on published entries to catch media bit flips (commit and
    // invalidation touch only the uncovered valid/commitMarker words,
    // so the checksum stays true for the entry's whole lifetime).
    push(out, Op::store(base + log_field::checksum,
                        entryChecksum(static_cast<std::uint64_t>(type),
                                      addr, value, globalSeq, idx)));
    push(out, Op::store(base + log_field::commitMarker, 0));
    // The entry sequence distinguishes live entries from stale laps.
    push(out, Op::store(base + log_field::seq, idx));
    // Cross-thread rollback order (scalar clock).
    push(out, Op::store(base + log_field::globalSeq, globalSeq));
    // Valid is written last.
    push(out, Op::store(base + log_field::valid, 1));
    push(out, Op::clwb(base));

    loweringStats.stores += 8;
    loweringStats.clwbs += 1;
    ++loweringStats.logEntries;
    state.regionEntries.push_back(idx);
    return idx;
}

void
Instrumentor::emitSyncEntryOverhead(OpStream &out)
{
    // Models the happens-before bookkeeping cost of each
    // language-level model (§VI-B "Sensitivity to language-level
    // persistency model"): ATLAS maintains a heavier-weight global
    // ordering graph than SFR; TXN relies on external isolation and
    // keeps almost nothing.
    switch (params.model) {
      case PersistencyModel::Atlas:
        // ATLAS walks and updates a global happens-before graph on
        // every outermost-critical-section boundary — the
        // heavyweight mechanism the paper contrasts with SFR
        // (§VI-B); published ATLAS overheads are severe.
        push(out, Op::compute(520));
        break;
      case PersistencyModel::Sfr:
        // SFR logs happens-before relations at each boundary.
        push(out, Op::compute(130));
        break;
      case PersistencyModel::Txn:
        push(out, Op::compute(5));
        break;
    }
}

void
Instrumentor::emitTxnCommit(OpStream &out, ThreadState &state,
                            CoreId tid, const RegionCommitInfo &region)
{
    const LogLayout &layout = params.layout;

    // 0. Everything this region logged and updated must be durable.
    emitDrain(out);

    // 1. Set the commit marker on the terminating entry (Figure 6
    // step 2) and make it durable before invalidation begins.
    Addr cmEntry = layout.entryAddr(tid, region.lastEntry);
    push(out, Op::store(cmEntry + log_field::commitMarker, 1));
    push(out, Op::clwb(cmEntry));
    loweringStats.stores += 1;
    loweringStats.clwbs += 1;

    // 2. Once the marker is durable, truncate the log (steps 3-4).
    emitTruncate(out, state, tid, region);
}

void
Instrumentor::emitTruncate(OpStream &out, ThreadState &state,
                           CoreId tid, const RegionCommitInfo &region)
{
    const LogLayout &layout = params.layout;
    emitDrain(out);

    // Invalidate the region's entries (Figure 6 step 3); independent
    // entries invalidate concurrently (separate strands / one epoch).
    for (std::uint64_t idx : region.entries) {
        Addr base = layout.entryAddr(tid, idx);
        push(out, Op::store(base + log_field::valid, 0));
        push(out, Op::clwb(base));
        loweringStats.stores += 1;
        loweringStats.clwbs += 1;
        emitStrandSep(out);
    }
    emitDrain(out);

    // Advance and flush the persistent head pointer (step 4).
    state.head = region.lastEntry + 1;
    push(out, Op::store(layout.headPtrAddr(tid), state.head));
    push(out, Op::clwb(layout.headPtrAddr(tid)));
    loweringStats.stores += 1;
    loweringStats.clwbs += 1;
    emitDrain(out);

    ++loweringStats.commits;
}

void
Instrumentor::emitRedoCommit(OpStream &out, ThreadState &state,
                             CoreId tid, const RegionCommitInfo &region)
{
    const LogLayout &layout = params.layout;

    // 1. All redo entries must be durable before the commit marker
    // (within the transaction's strand a persist barrier suffices;
    // entries flush concurrently ahead of it).
    emitPairOrder(out);

    // 2. Commit marker on the terminating entry. Once durable, the
    // transaction is logically applied: recovery replays it forward.
    Addr cmEntry = layout.entryAddr(tid, region.lastEntry);
    push(out, Op::store(cmEntry + log_field::commitMarker, 1));
    push(out, Op::clwb(cmEntry));
    loweringStats.stores += 1;
    loweringStats.clwbs += 1;

    // 3. In-place updates follow the marker (ordered by a persist
    // barrier: their stores may not drain before the marker's flush
    // has read its line).
    emitPairOrder(out);
    for (std::size_t i = 0; i < state.deferredUpdates.size(); ++i) {
        auto [addr, value] = state.deferredUpdates[i];
        push(out, Op::store(addr, value));
        loweringStats.stores += 1;
        bool nextSameLine =
            i + 1 < state.deferredUpdates.size() &&
            lineAlign(state.deferredUpdates[i + 1].first) ==
                lineAlign(addr);
        if (!nextSameLine) {
            push(out, Op::clwb(addr));
            loweringStats.clwbs += 1;
        }
    }
    state.deferredUpdates.clear();

    // 4. Updates durable, then truncate the log exactly as the undo
    // commit does.
    emitTruncate(out, state, tid, region);
}

OpStream
Instrumentor::buildPrunerStream(
    const std::vector<RegionCommitInfo> &regions)
{
    const LogLayout &layout = params.layout;
    OpStream out;
    pendingIntents = 0;

    // Batched commits (the decoupled-SFR pruning discipline): wait
    // for a window of regions to complete, then make the whole batch
    // durable with a single commit-frontier advance followed by the
    // owners' head-pointer updates. Per-entry invalidation is
    // unnecessary — entries below a thread's head, and regions below
    // the frontier, are dead to recovery.
    std::size_t next = 0;
    while (next < regions.size()) {
        std::size_t batchEnd =
            std::min(next + static_cast<std::size_t>(
                                prunerWindowRegions),
                     regions.size());

        // 1. Wait until every region in the batch has completed
        // (handshakes in global order; each release follows the
        // owner's drain, so the regions are durable).
        for (std::size_t i = next; i < batchEnd; ++i) {
            auto gate = static_cast<std::uint32_t>(
                regionDoneLockBase + regions[i].globalSeq);
            push(out, Op::lockAcquire(gate, 1));
            push(out, Op::lockRelease(gate));
        }

        // 2. Advance the commit frontier durably. Everything at or
        // below it is committed from recovery's point of view.
        std::uint64_t frontier = regions[batchEnd - 1].globalSeq + 1;
        push(out, Op::store(layout.frontierAddr(), frontier));
        push(out, Op::clwb(layout.frontierAddr()));
        loweringStats.stores += 1;
        loweringStats.clwbs += 1;
        emitDrain(out);

        // 3. Only after the frontier is durable may the per-thread
        // head pointers pass the batch (a head beyond an uncommitted
        // region would hide entries recovery still needs).
        std::uint64_t newHead[64] = {};
        bool touched[64] = {};
        for (std::size_t i = next; i < batchEnd; ++i) {
            const RegionCommitInfo &region = regions[i];
            touched[region.owner] = true;
            if (region.lastEntry + 1 > newHead[region.owner])
                newHead[region.owner] = region.lastEntry + 1;
        }
        for (CoreId t = 0; t < layout.maxThreads; ++t) {
            if (!touched[t])
                continue;
            push(out, 
                Op::store(layout.headPtrAddr(t), newHead[t]));
            push(out, Op::clwb(layout.headPtrAddr(t)));
            loweringStats.stores += 1;
            loweringStats.clwbs += 1;
            emitStrandSep(out);
        }
        emitDrain(out);

        // 4. Publish per-region pruned tickets (run-ahead window).
        for (std::size_t i = next; i < batchEnd; ++i) {
            auto done = static_cast<std::uint32_t>(
                prunedLockBase + regions[i].globalSeq);
            push(out, Op::lockAcquire(done, 0));
            push(out, Op::lockRelease(done));
        }
        loweringStats.commits += batchEnd - next;
        next = batchEnd;
    }
    return out;
}

std::vector<OpStream>
Instrumentor::lower(const RegionTrace &trace)
{
    std::vector<OpStream> streams(trace.threads.size());
    std::vector<ThreadState> states(trace.threads.size());
    std::vector<RegionCommitInfo> regions;
    regionLogInfos.clear();

    for (CoreId tid = 0; tid < trace.threads.size(); ++tid) {
        OpStream &out = streams[tid];
        ThreadState &state = states[tid];
        std::size_t pendingRun = 0;
        pendingIntents = 0;

        for (const TraceEvent &ev : trace.threads[tid]) {
            switch (ev.kind) {
              case TraceEvent::Kind::Load:
                push(out, Op::load(ev.addr));
                ++loweringStats.loads;
                break;

              case TraceEvent::Kind::PlainStore:
                push(out, Op::store(ev.addr, ev.newValue));
                ++loweringStats.stores;
                break;

              case TraceEvent::Kind::Compute:
                push(out, Op::compute(ev.cycles));
                break;

              case TraceEvent::Kind::LockAcquire:
                push(out, Op::lockAcquire(ev.lockId, ev.ticket));
                ++state.lockDepth;
                // Strand persistency decouples persist from
                // visibility order, so persists inside the critical
                // section could reorder before the acquire; a
                // JoinStrand after the acquire forbids it (§III).
                // Intel x86 and HOPS need nothing here: their
                // epoch ordering already covers it.
                switch (params.design) {
                  case HwDesign::NoPersistQueue:
                  case HwDesign::StrandWeaver:
                  case HwDesign::NonAtomic:
                    emitDrain(out);
                    break;
                  default:
                    break;
                }
                break;

              case TraceEvent::Kind::LockRelease:
                // Persists must complete before the lock hands off;
                // the core orders the release behind this drain.
                emitDrain(out);
                push(out, Op::lockRelease(ev.lockId));
                panicIf(state.lockDepth == 0,
                        "lock release without acquire in trace");
                --state.lockDepth;
                // Hand completed regions to the pruner once no data
                // locks are held (the release above is ordered after
                // the drain, so the regions are durable).
                if (usesPruner() && state.lockDepth == 0) {
                    for (std::uint64_t seq : state.pendingHandshakes) {
                        auto gate = static_cast<std::uint32_t>(
                            regionDoneLockBase + seq);
                        push(out, Op::lockAcquire(gate, 0));
                        push(out, Op::lockRelease(gate));
                    }
                    state.pendingHandshakes.clear();
                    // Bounded run-ahead: wait for the pruner to have
                    // committed this thread's region from a window
                    // ago, so the circular log is never lapped.
                    while (state.myRegions.size() >
                           prunerWindowRegions) {
                        auto done = static_cast<std::uint32_t>(
                            prunedLockBase + state.myRegions.front());
                        state.myRegions.pop_front();
                        push(out, Op::lockAcquire(done, 1));
                        push(out, Op::lockRelease(done));
                    }
                }
                break;

              case TraceEvent::Kind::RegionBegin: {
                LogType type = params.model == PersistencyModel::Txn
                                   ? LogType::TxBegin
                                   : LogType::Acquire;
                state.regionEntries.clear();
                state.regionFirstEntry = state.tail;
                emitSyncEntryOverhead(out);
                if (params.logStyle == LogStyle::Redo) {
                    // Each transaction runs on its own strand (§VII).
                    emitStrandSep(out);
                    emitLogEntry(out, state, tid, type, 0, 0, 0);
                    break;
                }
                emitLogEntry(out, state, tid, type, 0, 0, 0);
                emitPairOrder(out);
                emitStrandSep(out);
                break;
              }

              case TraceEvent::Kind::LoggedStore: {
                state.regionStores.emplace_back(ev.addr, ev.newValue);
                if (params.logStyle == LogStyle::Redo) {
                    // Redo: record the NEW value in the log now; the
                    // in-place update waits for the commit marker.
                    // Entries within the transaction's strand flush
                    // concurrently (no intervening barriers).
                    emitLogEntry(out, state, tid, LogType::RedoStore,
                                 ev.addr, ev.newValue, ev.storeSeq);
                    state.deferredUpdates.emplace_back(ev.addr,
                                                       ev.newValue);
                    break;
                }
                // Figure 5: log; flush; order; update; flush; new
                // strand. A run of consecutive stores to the same
                // cache line is batched (the coalescing real
                // instrumentation performs): its log entries flush
                // concurrently on the strand, one barrier orders
                // them before the run's stores, and the line is
                // flushed once.
                if (pendingRun > 0) {
                    --pendingRun;
                    break; // already lowered as part of the run
                }
                const TraceEvent *events = trace.threads[tid].data();
                std::size_t here = &ev - events;
                std::size_t runEnd = here + 1;
                // A batch must fit one strand buffer (4 entries):
                // two log flushes, the barrier, and the line flush.
                while (runEnd < here + 2 &&
                       runEnd < trace.threads[tid].size() &&
                       events[runEnd].kind ==
                           TraceEvent::Kind::LoggedStore &&
                       lineAlign(events[runEnd].addr) ==
                           lineAlign(ev.addr)) {
                    ++runEnd;
                }
                pendingRun = runEnd - here - 1;
                for (std::size_t i = here; i < runEnd; ++i) {
                    emitLogEntry(out, state, tid, LogType::Store,
                                 events[i].addr, events[i].oldValue,
                                 events[i].storeSeq);
                }
                emitPairOrder(out);
                for (std::size_t i = here; i < runEnd; ++i) {
                    push(out, Op::store(events[i].addr,
                                            events[i].newValue));
                    loweringStats.stores += 1;
                }
                push(out, Op::clwb(ev.addr));
                loweringStats.clwbs += 1;
                emitStrandSep(out);
                break;
              }

              case TraceEvent::Kind::RegionEnd: {
                LogType type = params.model == PersistencyModel::Txn
                                   ? LogType::TxEnd
                                   : LogType::Release;
                emitSyncEntryOverhead(out);
                // The end entry records the region's global sequence
                // so recovery can compare it against the pruner's
                // commit frontier.
                std::uint64_t idx = emitLogEntry(
                    out, state, tid, type, 0, 0, ev.globalSeq);
                if (params.logStyle != LogStyle::Redo) {
                    emitPairOrder(out);
                    emitStrandSep(out);
                }

                RegionCommitInfo info;
                info.owner = tid;
                info.globalSeq = ev.globalSeq;
                info.entries = state.regionEntries;
                info.lastEntry = idx;

                RegionLogInfo logInfo;
                logInfo.owner = tid;
                logInfo.globalSeq = ev.globalSeq;
                logInfo.firstEntry = state.regionFirstEntry;
                logInfo.lastEntry = idx;
                logInfo.stores = std::move(state.regionStores);
                regionLogInfos.push_back(std::move(logInfo));
                state.regionStores.clear();

                if (params.model == PersistencyModel::Txn) {
                    // Commit inside the critical section, before the
                    // locks release.
                    if (params.logStyle == LogStyle::Redo)
                        emitRedoCommit(out, state, tid, info);
                    else
                        emitTxnCommit(out, state, tid, info);
                } else {
                    regions.push_back(std::move(info));
                    state.pendingHandshakes.push_back(ev.globalSeq);
                    state.myRegions.push_back(ev.globalSeq);
                    // The windowed pruned-ticket wait bounds how far
                    // the log can run ahead of the pruner.
                    state.head = idx + 1;
                }
                state.regionEntries.clear();
                break;
              }
            }
        }

        // Hand over any regions whose enclosing sync pattern ended
        // the stream.
        if (usesPruner()) {
            for (std::uint64_t seq : state.pendingHandshakes) {
                auto gate = static_cast<std::uint32_t>(
                    regionDoneLockBase + seq);
                push(out, Op::lockAcquire(gate, 0));
                push(out, Op::lockRelease(gate));
            }
            state.pendingHandshakes.clear();
        }
        emitDrain(out);
    }

    if (usesPruner()) {
        std::sort(regions.begin(), regions.end(),
                  [](const RegionCommitInfo &a,
                     const RegionCommitInfo &b) {
                      return a.globalSeq < b.globalSeq;
                  });
        streams.push_back(buildPrunerStream(regions));
    }
    return streams;
}

} // namespace strand
