#include "cpu/core.hh"

#include <algorithm>

namespace strand
{

Core::Core(std::string name, EventQueue &eq, CoreId id, Hierarchy &hier,
           std::unique_ptr<PersistEngine> engine, LockTable &locks,
           const CoreParams &params, stats::StatGroup *parent)
    : ClockedObject(std::move(name), eq, params.clockPeriod, parent),
      numCycles(this, "cycles", "active cycles"),
      opsDispatched(this, "dispatched", "ops dispatched"),
      opsCommitted(this, "committed", "ops committed"),
      storesIssued(this, "storesIssued", "stores issued to the L1"),
      loadsIssued(this, "loadsIssued",
                  "load requests mailed to the L1 (retries included)"),
      stallCycles(this, "stallCycles", "dispatch stall cycles by cause",
                  static_cast<std::size_t>(StallCause::NumCauses)),
      sqOccupancy(this, "sqOccupancy", "store queue occupancy"),
      coreId(id), hier(hier), engine(std::move(engine)), locks(locks),
      params(params)
{
    stallCycles.subname(static_cast<unsigned>(StallCause::None), "none");
    stallCycles.subname(static_cast<unsigned>(StallCause::RobFull),
                        "robFull");
    stallCycles.subname(static_cast<unsigned>(StallCause::LqFull),
                        "lqFull");
    stallCycles.subname(
        static_cast<unsigned>(StallCause::SqFullPersist),
        "sqFullPersist");
    stallCycles.subname(static_cast<unsigned>(StallCause::SqFullMemory),
                        "sqFullMemory");
    stallCycles.subname(
        static_cast<unsigned>(StallCause::PersistQueueFull), "pqFull");
    stallCycles.subname(static_cast<unsigned>(StallCause::Lock), "lock");
    stallCycles.subname(static_cast<unsigned>(StallCause::Idle), "idle");

    StoreQueueView view;
    view.completed = [this](SeqNum seq) {
        const SqEntry *entry = findStore(seq);
        return !entry || entry->completed;
    };
    view.issued = [this](SeqNum seq) {
        const SqEntry *entry = findStore(seq);
        return !entry || entry->issued;
    };
    view.allCompletedBefore = [this](SeqNum seq) {
        return oldestStoreWithout(&SqEntry::completed) >= seq;
    };
    view.allIssuedBefore = [this](SeqNum seq) {
        return oldestStoreWithout(&SqEntry::issued) >= seq;
    };
    view.oldestIncompleteStore = [this] {
        return oldestStoreWithout(&SqEntry::completed);
    };
    this->engine->setStoreView(std::move(view));

    // Write-back and snoop interlocks capture this core's persist
    // drain points (§IV).
    hier.setDrainPointRecorder(id, [this] {
        return this->engine->recordDrainPoint();
    });
    // Anything that can unblock the core re-arms its clock.
    this->engine->setWakeCallback([this] { wake(); });
    locks.addReleaseObserver([this] { wake(); });

    port.init(eq, fullName() + ".port");
    port.bind(hier);
    port.setResponseHandler(
        [this](const MemResponse &resp) { onMemResponse(resp); });

    tickEvent.init(eq, [this] { tick(); }, EventPriority::CpuTick);
}

void
Core::onMemResponse(const MemResponse &resp)
{
    const SeqNum seq = resp.token;
    switch (resp.req) {
      case MemRequestKind::Load:
        if (resp.kind == MemResponseKind::Nack) {
            // No MSHR was free: clear the issue mark and retry from
            // the next cycle.
            for (LqEntry &e : loadQueue) {
                if (e.seq == seq) {
                    e.issued = false;
                    break;
                }
            }
            wake();
            return;
        }
        for (LqEntry &e : loadQueue) {
            if (e.seq == seq) {
                e.completed = true;
                break;
            }
        }
        markRobDone(seq);
        while (!loadQueue.empty() && loadQueue.front().completed)
            loadQueue.pop_front();
        ++workDone;
        wake();
        return;
      case MemRequestKind::Store:
        switch (resp.kind) {
          case MemResponseKind::Ack:
            // Admitted: the next store may go into the mail.
            for (SqEntry &e : storeQueue) {
                if (e.seq == seq) {
                    e.issued = true;
                    break;
                }
            }
            ++storesIssued;
            ++workDone;
            wake();
            return;
          case MemResponseKind::Nack:
            // No MSHR was free: the entry returns to the unsent pool
            // and is remailed once the core ticks again.
            for (SqEntry &e : storeQueue) {
                if (e.seq == seq) {
                    e.sent = false;
                    break;
                }
            }
            wake();
            return;
          case MemResponseKind::Done:
            for (SqEntry &e : storeQueue) {
                if (e.seq == seq) {
                    e.completed = true;
                    break;
                }
            }
            drainStoreQueue();
            ++workDone;
            wake();
            return;
          default:
            break;
        }
        break;
      default:
        break;
    }
    panic("{}: unexpected memory response kind", fullName());
}

void
Core::wake()
{
    if (!started || isFinished || !sleeping)
        return;
    sleeping = false;
    tickEvent.schedule(clockEdge(Cycles(1)));
}

void
Core::setStream(OpStream newStream)
{
    panicIf(started && !isFinished, "stream replaced while running");
    stream = std::move(newStream);
    pc = 0;
    isFinished = false;
    started = false;
}

void
Core::start()
{
    panicIf(started, "core started twice");
    started = true;
    tickEvent.schedule(clockEdge());
}

double
Core::persistStallCycles() const
{
    return stallCycles.value(
               static_cast<unsigned>(StallCause::SqFullPersist)) +
           stallCycles.value(
               static_cast<unsigned>(StallCause::PersistQueueFull));
}

SeqNum
Core::elderStoreTo(Addr addr) const
{
    Addr la = lineAlign(addr);
    SeqNum youngest = 0;
    for (const SqEntry &entry : storeQueue) {
        if (!entry.completed && lineAlign(entry.addr) == la)
            youngest = entry.seq;
    }
    return youngest;
}

const CoreState::SqEntry *
Core::findStore(SeqNum seq) const
{
    auto it = std::ranges::lower_bound(storeQueue, seq, {}, &SqEntry::seq);
    return it != storeQueue.end() && it->seq == seq ? &*it : nullptr;
}

SeqNum
Core::oldestStoreWithout(bool SqEntry::*flag) const
{
    auto it = std::ranges::find(storeQueue, false, flag);
    return it != storeQueue.end() ? it->seq : ~static_cast<SeqNum>(0);
}

void
Core::recordStall(StallCause cause)
{
    stallReason = cause;
}

namespace
{

PrimitiveKind
primitiveKindOf(OpType type)
{
    switch (type) {
      case OpType::Clwb:
        return PrimitiveKind::Clwb;
      case OpType::PersistBarrier:
      case OpType::Sfence:
      case OpType::Ofence:
        return PrimitiveKind::Barrier;
      case OpType::NewStrand:
        return PrimitiveKind::NewStrand;
      case OpType::JoinStrand:
      case OpType::Dfence:
        return PrimitiveKind::JoinStrand;
      default:
        return PrimitiveKind::Other;
    }
}

} // namespace

void
Core::notifyDispatch(const Op &op, SeqNum seq)
{
    if (!obsHub || !obsHub->active())
        return;
    const std::uint8_t intents = effectiveIntents(op);
    if (op.type != OpType::Clwb && intents == 0)
        return;
    PrimitiveEvent ev;
    ev.core = coreId;
    ev.kind = primitiveKindOf(op.type);
    ev.seq = seq;
    ev.lineAddr = op.type == OpType::Clwb ? lineAlign(op.addr) : 0;
    ev.when = curTick();
    ev.intents = intents;
    obsHub->primitiveDispatched(ev);
}

bool
Core::dispatchOne(const Op &op)
{
    if (rob.size() >= params.robEntries) {
        recordStall(StallCause::RobFull);
        return false;
    }

    bool sharedSq = engine->sharesStoreQueue();
    std::size_t sqUsed =
        storeQueue.size() + (sharedSq ? engine->queueOccupancy() : 0);

    switch (op.type) {
      case OpType::Load: {
        if (loadQueue.size() >= params.lqEntries) {
            recordStall(StallCause::LqFull);
            return false;
        }
        SeqNum seq = nextSeq++;
        rob.push_back({seq, false});
        loadQueue.push_back({seq, op.addr, false, false});
        notifyDispatch(op, seq);
        return true;
      }
      case OpType::Store: {
        if (sqUsed >= params.sqEntries) {
            // Attribute the back-pressure: is the oldest store that
            // has not yet issued held by the persist engine, or is
            // the queue draining at memory speed?
            bool persistGated = false;
            for (const SqEntry &entry : storeQueue) {
                if (entry.issued)
                    continue;
                persistGated = !engine->storeMayIssue(entry.seq);
                break;
            }
            recordStall(persistGated ? StallCause::SqFullPersist
                                     : StallCause::SqFullMemory);
            return false;
        }
        SeqNum seq = nextSeq++;
        rob.push_back({seq, true}); // retires into the SQ
        storeQueue.push_back({seq, op.addr, op.value, false, false});
        notifyDispatch(op, seq);
        return true;
      }
      case OpType::Clwb:
      case OpType::PersistBarrier:
      case OpType::NewStrand:
      case OpType::JoinStrand:
      case OpType::Sfence:
      case OpType::Ofence:
      case OpType::Dfence: {
        if (!engine->canAccept() ||
            (sharedSq && sqUsed >= params.sqEntries)) {
            recordStall(StallCause::PersistQueueFull);
            return false;
        }
        SeqNum seq = nextSeq++;
        rob.push_back({seq, true});
        SeqNum elder =
            op.type == OpType::Clwb ? elderStoreTo(op.addr) : 0;
        // Announce before handing to the engine: a primitive that
        // completes within dispatch still observes dispatch-before-
        // retirement order.
        notifyDispatch(op, seq);
        engine->dispatch(op, seq, elder);
        return true;
      }
      case OpType::Compute: {
        // Application work occupies the front end serially (a trace
        // has no registers to rename, so ILP within recorded compute
        // is already folded into its latency). Memory operations
        // issued earlier keep draining in the background.
        SeqNum seq = nextSeq++;
        rob.push_back({seq, true});
        Tick delay = cyclesToTicks(Cycles(std::max<std::uint32_t>(
            op.latency, 1)));
        computeBusyUntil = curTick() + delay;
        eq.scheduleIn(delay, [this] { wake(); },
                      EventPriority::CpuTick);
        notifyDispatch(op, seq);
        return true;
      }
      case OpType::LockAcquire: {
        if (!locks.tryAcquire(op.lockId, op.ticket)) {
            recordStall(StallCause::Lock);
            return false;
        }
        SeqNum seq = nextSeq++;
        rob.push_back({seq, false});
        Tick delay = cyclesToTicks(Cycles(params.lockAcquireCycles));
        eq.scheduleIn(delay, [this, seq] { markRobDone(seq); },
                      EventPriority::CpuTick);
        notifyDispatch(op, seq);
        return true;
      }
      case OpType::LockRelease: {
        // Program order: the unlock executes only after the critical
        // section's in-flight work (loads, compute) has finished.
        for (const RobEntry &entry : rob) {
            if (!entry.done) {
                recordStall(StallCause::Lock);
                return false;
            }
        }
        // The releasing core continues immediately (the release is
        // just a store into its queue); the lock hands off only once
        // prior stores are visible and any preceding drain primitive
        // (JS / SFENCE / dfence) has completed — so persist ordering
        // extends lock hold time, not the releaser's pipeline.
        SeqNum seq = nextSeq++;
        rob.push_back({seq, false});
        pendingReleases.push_back({op.lockId, seq});
        Tick delay = cyclesToTicks(Cycles(params.lockReleaseCycles));
        eq.scheduleIn(delay, [this, seq] { markRobDone(seq); },
                      EventPriority::CpuTick);
        notifyDispatch(op, seq);
        return true;
      }
    }
    panic("unhandled op type in dispatch");
}

void
Core::dispatchOps()
{
    stallReason = StallCause::None;
    if (curTick() < computeBusyUntil)
        return; // executing serial application work
    unsigned dispatched = 0;
    while (dispatched < params.dispatchWidth && pc < stream.size()) {
        if (!dispatchOne(stream[pc]))
            break;
        ++pc;
        ++dispatched;
        ++opsDispatched;
        if (curTick() < computeBusyUntil)
            break; // a compute op consumed the rest of this window
    }
    if (dispatched == 0 && pc < stream.size() &&
        stallReason != StallCause::None) {
        stallCycles[static_cast<unsigned>(stallReason)] += 1;
    }
}

void
Core::drainStoreQueue()
{
    while (!storeQueue.empty() && storeQueue.front().completed &&
           engine->oldestIncompleteSeq() > storeQueue.front().seq) {
        storeQueue.pop_front();
    }
}

void
Core::issueStores()
{
    // One store issue per cycle (single L1 store port); issue stays
    // in order, completions may overlap through MSHRs. In the
    // NO-PERSIST-QUEUE design the port is shared with persist-op
    // drain, so a cycle that issued a persist op issues no store.
    if (engine->portBusy())
        return;
    // Only the oldest store not yet accepted may go into the mail.
    // Admission is asynchronous: while its Ack/Nack is outstanding
    // (it is sent) no younger store may follow, or a Nacked elder
    // could be overtaken and acceptance would leave program order.
    auto entry = std::ranges::find(storeQueue, false, &SqEntry::issued);
    if (entry == storeQueue.end() || entry->sent ||
        !engine->storeMayIssue(entry->seq))
        return;
    entry->sent = true;
    MemRequest req;
    req.kind = MemRequestKind::Store;
    req.core = coreId;
    req.addr = entry->addr;
    req.value = entry->value;
    req.token = entry->seq;
    port.send(std::move(req));
}

void
Core::issueLoads()
{
    // Up to two load issues per cycle. Loads need no acceptance
    // ordering between each other; a Nack simply clears the issue
    // mark and the entry is remailed.
    unsigned issued = 0;
    for (LqEntry &entry : loadQueue) {
        if (issued >= 2)
            break;
        if (entry.issued)
            continue;
        entry.issued = true;
        ++loadsIssued;
        ++issued;
        MemRequest req;
        req.kind = MemRequestKind::Load;
        req.core = coreId;
        req.addr = entry.addr;
        req.token = entry.seq;
        port.send(std::move(req));
    }
}

void
Core::markRobDone(SeqNum seq)
{
    for (RobEntry &entry : rob) {
        if (entry.seq == seq) {
            entry.done = true;
            ++workDone;
            wake();
            return;
        }
    }
}

void
Core::serviceReleases()
{
    while (!pendingReleases.empty()) {
        const PendingRelease &head = pendingReleases.front();
        bool storesVisible =
            oldestStoreWithout(&SqEntry::completed) >= head.seq;
        if (!storesVisible || !engine->storeMayIssue(head.seq))
            return;
        locks.release(head.lockId);
        pendingReleases.pop_front();
    }
}

void
Core::commitOps()
{
    unsigned committed = 0;
    while (committed < params.commitWidth && !rob.empty() &&
           rob.front().done) {
        rob.pop_front();
        ++committed;
        ++opsCommitted;
    }
}

void
Core::tick()
{
    // Account a completed sleep period as stall cycles of the cause
    // that sent the core to sleep (Figure 8 accounting is preserved
    // even though idle cycles are skipped, not simulated).
    if (sleptSince != 0) {
        std::uint64_t slept =
            (curTick() - sleptSince) / clockPeriod();
        numCycles += static_cast<double>(slept);
        stallCycles[static_cast<unsigned>(sleepCause)] +=
            static_cast<double>(slept);
        sleptSince = 0;
    }
    ++numCycles;
    engine->beginCycle();

    double dispatchedBefore = opsDispatched.value();
    double committedBefore = opsCommitted.value();
    double storesBefore = storesIssued.value();
    double loadsBefore = loadsIssued.value();
    std::uint64_t engineBefore = engine->progressCount();
    std::uint64_t workBefore = workDone;

    engine->evaluate();
    drainStoreQueue();
    serviceReleases();
    issueLoads();
    issueStores();
    commitOps();
    dispatchOps();
    sqOccupancy.sample(static_cast<double>(storeQueue.size()));

    bool drained = pc >= stream.size() && rob.empty() &&
                   storeQueue.empty() && loadQueue.empty() &&
                   pendingReleases.empty() && engine->drained();
    if (drained) {
        isFinished = true;
        if (finishedCallback)
            finishedCallback();
        return;
    }

    bool progressed = opsDispatched.value() != dispatchedBefore ||
                      opsCommitted.value() != committedBefore ||
                      storesIssued.value() != storesBefore ||
                      loadsIssued.value() != loadsBefore ||
                      engine->progressCount() != engineBefore ||
                      workDone != workBefore;
    if (progressed) {
        tickEvent.scheduleIn(clockPeriod());
        return;
    }

    // No progress this cycle: sleep until a completion, lock
    // release, engine step, or hierarchy kick re-arms the clock. A
    // missed wake surfaces as an explicit deadlock panic when the
    // event queue drains, never as silent time skew.
    sleeping = true;
    sleptSince = curTick();
    sleepCause = stallReason == StallCause::None ? StallCause::Idle
                                                 : stallReason;
}

} // namespace strand
