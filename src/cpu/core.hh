/**
 * @file
 * The core timing model.
 *
 * Approximates the evaluated out-of-order core (Table I: 2 GHz,
 * 6-wide dispatch, 8-wide commit, 224-entry ROB, 72/64-entry
 * load/store queues) at the level the persistency mechanisms
 * exercise: bounded queues, in-order commit, TSO store drain, and a
 * persist engine that cross-gates store issue. Register renaming and
 * branch prediction are not modeled — replayed traces have no
 * control or data misspeculation — so dispatch stalls only on
 * structural back-pressure, which is exactly the effect the paper
 * measures (Figure 8).
 *
 * Stall accounting distinguishes persist-induced stalls (persist
 * queue full, or store queue full while its head is gated by the
 * persist engine) from cache-induced and lock-induced stalls.
 */

#ifndef CPU_CORE_HH
#define CPU_CORE_HH

#include <deque>
#include <memory>

#include "cache/hierarchy.hh"
#include "cpu/lock_table.hh"
#include "cpu/op.hh"
#include "mem/port.hh"
#include "persist/persist_engine.hh"
#include "sim/sim_object.hh"

namespace strand
{

/** Core configuration (Table I defaults). */
struct CoreParams
{
    Tick clockPeriod = coreClockPeriod; ///< 2 GHz.
    unsigned dispatchWidth = 6;
    unsigned commitWidth = 8;
    unsigned robEntries = 224;
    unsigned lqEntries = 72;
    unsigned sqEntries = 64;
    /** Cycles charged for acquiring / releasing a lock. */
    unsigned lockAcquireCycles = 40;
    unsigned lockReleaseCycles = 10;
};

/** Why dispatch could not proceed in a given cycle. */
enum class StallCause : unsigned
{
    None = 0,
    RobFull,
    LqFull,
    SqFullPersist, ///< SQ full, head gated by the persist engine.
    SqFullMemory,  ///< SQ full, head waiting on the cache.
    PersistQueueFull,
    Lock,
    /** Nothing dispatchable; waiting for in-flight completions. */
    Idle,
    NumCauses,
};

/**
 * A core's volatile pipeline state: the op-stream cursor, ROB, store
 * and load queues, pending releases and sleep state. Core derives
 * from it privately, so this one struct is both the live state and
 * the value Core::saveState() captures (DESIGN.md §6). The op stream
 * itself is fixed input and is not part of it.
 */
struct CoreState
{
    struct RobEntry
    {
        SeqNum seq;
        bool done;
    };

    struct SqEntry
    {
        SeqNum seq = 0;
        Addr addr = 0;
        std::uint64_t value = 0;
        /** Accepted by the L1 (the hierarchy Acked the request). */
        bool issued = false;
        bool completed = false;
        /** In the mail, awaiting the hierarchy's Ack/Nack decision. */
        bool sent = false;
    };

    struct LqEntry
    {
        SeqNum seq = 0;
        Addr addr = 0;
        bool issued = false;
        bool completed = false;
    };

    /**
     * A release that has retired from the pipeline but whose lock
     * handoff waits for prior stores to drain and for any preceding
     * drain primitive to complete (release-store semantics).
     */
    struct PendingRelease
    {
        std::uint32_t lockId;
        SeqNum seq;
    };

    std::size_t pc = 0;
    SeqNum nextSeq = 1;

    std::deque<RobEntry> rob;
    /**
     * In seq order. Stores are accepted one at a time and in order,
     * so the issued entries form a prefix, and an entry leaves only
     * once it has completed: a seq absent from the queue is a store
     * that has both issued and completed.
     */
    std::deque<SqEntry> storeQueue;
    std::deque<LqEntry> loadQueue;

    std::deque<PendingRelease> pendingReleases;

    /** Dispatch is busy executing serial application work. */
    Tick computeBusyUntil = 0;

    StallCause stallReason = StallCause::None;
    bool isFinished = false;
    bool started = false;
    /** True while no tick event is scheduled (idle core). */
    bool sleeping = false;
    /** Tick at which the core went to sleep (0 = not sleeping). */
    Tick sleptSince = 0;
    /** Stall cause attributed to the current sleep period. */
    StallCause sleepCause = StallCause::Idle;
    /** Bumped by completion callbacks; progress marker. */
    std::uint64_t workDone = 0;
};

/**
 * One simulated core executing a fixed operation stream.
 */
class Core : public ClockedObject, private CoreState
{
  public:
    Core(std::string name, EventQueue &eq, CoreId id, Hierarchy &hier,
         std::unique_ptr<PersistEngine> engine, LockTable &locks,
         const CoreParams &params,
         stats::StatGroup *parent = nullptr);

    /** Supply the stream to execute; resets progress. */
    void setStream(OpStream stream);

    /** Begin self-scheduled execution. */
    void start();

    /**
     * Re-arm the clock if the core went to sleep after a cycle with
     * no progress. Invoked by completion callbacks, the persist
     * engine, the lock table, and the cache hierarchy.
     */
    void wake();

    /** @return true once the whole stream has drained. */
    bool finished() const { return isFinished; }

    /** Invoked once when the core finishes. */
    void setFinishedCallback(std::function<void()> cb)
    {
        finishedCallback = std::move(cb);
    }

    CoreId id() const { return coreId; }
    PersistEngine &persistEngine() { return *engine; }

    /** Attach the system's observer hub (dispatch events). */
    void setObserverHub(ObserverHub *hub) { obsHub = hub; }

    /** Total persist-induced stall cycles (Figure 8 metric). */
    double persistStallCycles() const;

    /**
     * Capture / restore the pipeline. The persist engine is captured
     * on its own; restore targets the same loaded system.
     */
    CoreState
    saveState() const
    {
        return static_cast<const CoreState &>(*this);
    }

    void
    restoreState(const CoreState &state)
    {
        static_cast<CoreState &>(*this) = state;
    }

    /** @name Statistics @{ */
    stats::Scalar numCycles;
    stats::Scalar opsDispatched;
    stats::Scalar opsCommitted;
    stats::Scalar storesIssued;
    stats::Scalar loadsIssued;
    stats::Vector stallCycles;
    stats::Histogram sqOccupancy;
    /** @} */

  private:
    void tick();
    /** Route one port response (load/store Ack/Nack/Done). */
    void onMemResponse(const MemResponse &resp);
    void dispatchOps();
    /** Free completed store-queue slots (in order; in the shared
     * NO-PERSIST-QUEUE design a slot waits for older persist ops). */
    void drainStoreQueue();
    void issueStores();
    void issueLoads();
    void commitOps();
    void markRobDone(SeqNum seq);
    void recordStall(StallCause cause);

    /** @return seq of the youngest incomplete elder store to the
     * same line, or 0. */
    SeqNum elderStoreTo(Addr addr) const;

    /** @return the queued store with dispatch seq @p seq, or null if
     * it has left the queue (or was never a store). */
    const SqEntry *findStore(SeqNum seq) const;

    /** @return seq of the oldest queued store whose @p flag (issued or
     * completed) is still clear, or the maximum seq if there is none. */
    SeqNum oldestStoreWithout(bool SqEntry::*flag) const;

    /** Attempt to dispatch the op at the stream head.
     * @return true on success; sets stallReason otherwise. */
    bool dispatchOne(const Op &op);

    /**
     * Publish a primitive-dispatched event for @p op (just
     * dispatched as @p seq). Only successful dispatches are
     * announced — a stalled op retries next cycle and must not be
     * observed twice. CLWBs and any op carrying ordering intents are
     * interesting; plain data ops are not.
     */
    void notifyDispatch(const Op &op, SeqNum seq);

    /** Perform any pending releases whose ordering has resolved. */
    void serviceReleases();

    CoreId coreId;
    Hierarchy &hier;
    std::unique_ptr<PersistEngine> engine;
    LockTable &locks;
    CoreParams params;

    /** Mailbox to the hierarchy; all loads and stores travel here. */
    MemPort port;

    OpStream stream;

    /** The single per-cycle evaluation event, re-armed in place. */
    EventQueue::Recurring tickEvent;

    std::function<void()> finishedCallback;
    ObserverHub *obsHub = nullptr;
};

} // namespace strand

#endif // CPU_CORE_HH
