/**
 * @file
 * The per-core persist engine interface.
 *
 * The persist engine owns the hardware that orders persists for one
 * core. The core dispatches CLWBs and ordering primitives into it,
 * and consults it before issuing stores from the store queue (the
 * cross-gating of §IV: persist barriers order prior stores before
 * subsequent CLWBs and prior CLWBs before subsequent stores).
 *
 * Five hardware designs from the paper's evaluation are implemented:
 *  - IntelX86Engine: CLWB + SFENCE epochs (also used, fence-free,
 *    for the NON-ATOMIC upper bound),
 *  - StrandEngine: the StrandWeaver persist queue + strand buffer
 *    unit; parameterized to also model NO-PERSIST-QUEUE (persist ops
 *    share the store queue) and HOPS (one persist buffer, delegated
 *    ofence, durable dfence).
 */

#ifndef PERSIST_PERSIST_ENGINE_HH
#define PERSIST_PERSIST_ENGINE_HH

#include <functional>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/observer.hh"
#include "cpu/op.hh"
#include "sim/sim_object.hh"

namespace strand
{

/**
 * Queries the engine makes against the core's store queue. Installed
 * by the core at construction; keeps the engine decoupled from the
 * store queue implementation.
 */
struct StoreQueueView
{
    /** Has the store with this dispatch seq written the L1? */
    std::function<bool(SeqNum)> completed;
    /** Has the store with this dispatch seq been issued to the L1? */
    std::function<bool(SeqNum)> issued;
    /** Have all stores dispatched before @p seq written the L1? */
    std::function<bool(SeqNum)> allCompletedBefore;
    /** Have all stores dispatched before @p seq been issued to L1? */
    std::function<bool(SeqNum)> allIssuedBefore;
    /** Seq of the oldest store not yet completed (max if none). */
    std::function<SeqNum()> oldestIncompleteStore;
};

/** Abstract persist engine. */
class PersistEngine : public SimObject
{
  public:
    using SimObject::SimObject;
    virtual ~PersistEngine() = default;

    void setStoreView(StoreQueueView view) { sq = std::move(view); }

    /** Invoked whenever the engine makes progress outside the core's
     * tick (e.g. a flush completion), so a sleeping core re-ticks. */
    void setWakeCallback(std::function<void()> cb)
    {
        wake = std::move(cb);
    }

    /** Monotonic count of issue/complete/retire steps; lets the core
     * detect engine progress made during its own tick. */
    std::uint64_t progressCount() const { return progress; }

    /** @return true if one more persist op can be dispatched. */
    virtual bool canAccept() const = 0;

    /**
     * Dispatch a persist op.
     * @param seq The op's position in the thread's dispatch order
     * (shared sequence space with stores).
     * @param elderStoreSeq Seq of the youngest earlier store to the
     * same cache line that is still outstanding, or 0.
     */
    virtual void dispatch(const Op &op, SeqNum seq,
                          SeqNum elderStoreSeq) = 0;

    /** May the store with dispatch seq @p seq be issued to the L1? */
    virtual bool storeMayIssue(SeqNum seq) const = 0;

    /** Called by the core at the top of each cycle. */
    virtual void beginCycle() {}

    /** @return true if the engine consumed the shared store-queue
     * drain port this cycle (NO-PERSIST-QUEUE design). */
    virtual bool portBusy() const { return false; }

    /** Issue whatever has become eligible. */
    virtual void evaluate() = 0;

    /** @return true when no persist work is pending. */
    virtual bool drained() const = 0;

    /** @return persist-queue entries currently occupied. */
    virtual std::size_t queueOccupancy() const = 0;

    /**
     * @return true if persist ops consume store-queue slots
     * (NO-PERSIST-QUEUE design).
     */
    virtual bool sharesStoreQueue() const { return false; }

    /** Seq of the oldest persist entry still occupying a slot (max
     * if none); shared-queue stores behind it cannot free theirs. */
    virtual SeqNum
    oldestIncompleteSeq() const
    {
        return ~static_cast<SeqNum>(0);
    }

    /** Capture a drain point for write-back / snoop interlocks. */
    virtual Hierarchy::Clearance recordDrainPoint() = 0;

    /**
     * Enable recording of persist-completion ticks. The crash
     * harness enumerates these as injectable crash points: every
     * tick at which this engine observed a flush reach the ADR
     * domain is a boundary where a failure may expose an ordering
     * bug.
     */
    void
    setRecordCompletions(bool enable)
    {
        recordCompletions = enable;
    }

    /** Ticks at which persists completed (when recording enabled). */
    const std::vector<Tick> &
    completionTicks() const
    {
        return completions;
    }

    /** Attach the system's observer hub; retirement events carry
     * @p core as their core id. */
    void
    setObserverHub(ObserverHub *hub, CoreId core)
    {
        obsHub = hub;
        obsCore = core;
    }

  protected:
    /** Publish a primitive-retired event (no-op without observers). */
    void
    emitRetired(PrimitiveKind kind, SeqNum seq, Addr lineAddr = 0,
                bool clean = false)
    {
        if (!obsHub || !obsHub->active())
            return;
        PrimitiveEvent ev;
        ev.core = obsCore;
        ev.kind = kind;
        ev.seq = seq;
        ev.lineAddr = lineAddr;
        ev.when = curTick();
        ev.clean = clean;
        obsHub->primitiveRetired(ev);
    }

    /** Engines call this when a CLWB/flush completes. */
    void
    noteCompletion()
    {
        if (recordCompletions)
            completions.push_back(curTick());
    }

    void
    noteProgress()
    {
        ++progress;
        if (wake)
            wake();
    }

    /**
     * Base-class engine state every concrete engine folds into its
     * own snapshot: the progress counter the core polls, and the
     * crash harness's completion-tick recording.
     */
    struct BaseState
    {
        std::uint64_t progress = 0;
        bool recordCompletions = false;
        std::vector<Tick> completions;
    };

    BaseState
    baseState() const
    {
        return {progress, recordCompletions, completions};
    }

    void
    restoreBaseState(const BaseState &s)
    {
        progress = s.progress;
        recordCompletions = s.recordCompletions;
        completions = s.completions;
    }

    StoreQueueView sq;
    std::function<void()> wake;
    std::uint64_t progress = 0;
    ObserverHub *obsHub = nullptr;
    CoreId obsCore = 0;

  private:
    bool recordCompletions = false;
    std::vector<Tick> completions;
};

} // namespace strand

#endif // PERSIST_PERSIST_ENGINE_HH
