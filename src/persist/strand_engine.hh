/**
 * @file
 * StrandWeaver's persist queue plus strand buffer unit, and its two
 * parameterized siblings (§IV, §VI-A).
 *
 * The persist queue tracks in-flight CLWBs, persist barriers,
 * NewStrand and JoinStrand operations, issuing them to the strand
 * buffer unit in order. JoinStrand is not issued; it completes when
 * all earlier CLWBs and stores complete and, until then, gates issue
 * of younger stores and persist ops.
 *
 * Parameterizations:
 *  - StrandWeaver: separate 16-entry queue, 4x4 strand buffers,
 *    persist barriers gate younger stores until they issue.
 *  - NO-PERSIST-QUEUE: persist ops share the store queue, coupling
 *    store and CLWB issue into one FIFO.
 *  - HOPS: a single persist buffer; ofence is delegated (no
 *    CPU-side gating) and dfence enforces durability like
 *    JoinStrand.
 */

#ifndef PERSIST_STRAND_ENGINE_HH
#define PERSIST_STRAND_ENGINE_HH

#include <deque>
#include <utility>

#include "persist/persist_engine.hh"
#include "persist/strand_buffer_unit.hh"

namespace strand
{

/** Parameters selecting which design variant the engine models. */
struct StrandEngineParams
{
    /** Persist queue capacity (entries). */
    unsigned pqEntries = 16;
    StrandBufferUnitParams sbu;
    /**
     * Persist barriers stall younger stores until the barrier has
     * issued to the strand buffer unit (true for StrandWeaver;
     * false for HOPS's delegated ofence).
     */
    bool pbGatesStores = true;
    /**
     * Persist ops occupy store-queue slots and issue in one FIFO
     * with stores (NO-PERSIST-QUEUE design).
     */
    bool sharedStoreQueue = false;
    /**
     * Opt-in HOPS epoch interlock (see EngineConfig): write-back
     * drain points cover persist-queue CLWBs in addition to the
     * strand buffers, and ofences gate stores from draining into a
     * line whose in-flight older CLWB has not read it yet.
     */
    bool epochInterlock = false;
    /**
     * Opt-in HOPS strict log admission (see EngineConfig): stores
     * younger than an ofence wait until every pre-ofence CLWB has
     * completed, strictly ordering the log entry's ADR admission
     * before the guarded update can even enter the cache. Implies
     * the drain-point persist-queue coverage of the interlock.
     */
    bool strictAdmission = false;
    /** Fuzzing hook (non-owning); null leaves issue order untouched. */
    DrainAdversary *adversary = nullptr;
};

/** @return the StrandWeaver configuration (Table: 16-entry PQ, 4x4). */
StrandEngineParams strandWeaverParams();

/** @return the NO-PERSIST-QUEUE intermediate design. */
StrandEngineParams noPersistQueueParams();

/** @return the HOPS delegated epoch-persistency configuration. */
StrandEngineParams hopsParams();

/**
 * The strand engine's volatile state: the persist queue and the
 * shared-queue issue budget. StrandEngine derives from it privately
 * (DESIGN.md §6); its strand buffer unit captures itself.
 */
struct StrandEngineState
{
    struct Entry
    {
        OpType type = OpType::Clwb;
        Addr addr = 0;
        SeqNum seq = 0;
        SeqNum elderStoreSeq = 0;
        bool issued = false;
        /** CLWB has performed its cache read (flush started). */
        bool flushStarted = false;
        bool completed = false;
        /** Adversarial hold on this entry's issue (fuzzing). */
        Tick heldUntil = 0;
    };

    std::deque<Entry> queue;
    /** Shared-queue designs: issues left this cycle (one drain port). */
    unsigned issueBudget = ~0u;
};

/**
 * Persist engine built from a persist queue and strand buffer unit.
 */
class StrandEngine : public PersistEngine, private StrandEngineState
{
  public:
    StrandEngine(std::string name, EventQueue &eq, CoreId core,
                 Hierarchy &hier, const StrandEngineParams &params,
                 stats::StatGroup *parent = nullptr);

    bool canAccept() const override;
    void beginCycle() override;
    bool portBusy() const override;
    void dispatch(const Op &op, SeqNum seq,
                  SeqNum elderStoreSeq) override;
    bool storeMayIssue(SeqNum seq) const override;
    void evaluate() override;
    bool drained() const override;
    std::size_t queueOccupancy() const override;
    bool sharesStoreQueue() const override;
    SeqNum oldestIncompleteSeq() const override;
    Hierarchy::Clearance recordDrainPoint() override;

    /** @name Statistics @{ */
    stats::Scalar clwbsDispatched;
    stats::Scalar barriersDispatched;
    stats::Scalar newStrands;
    stats::Scalar joinStrands;
    stats::Histogram pqOccupancyHist;
    /** @} */

  private:
    /** The engine's own state and its buffer unit's. */
    using OwnState = std::pair<StrandEngineState, StrandBufferUnitState>;

    std::any saveOwnState() const override;
    void restoreOwnState(const std::any &own) override;

    /** True when the head entry's issue preconditions hold. */
    bool headMayIssue(const Entry &entry) const;

    void issueHead();
    void retire();
    void onClwbComplete(SeqNum seq, bool wrotePm);
    void onClwbStarted(SeqNum seq);

    /** @return true if a JoinStrand-like entry is complete. */
    bool joinComplete(const Entry &entry) const;

    CoreId core;
    StrandEngineParams params;
    StrandBufferUnit sbu;
    /** Prebuilt adversary-hold retry; built once, borrowed per query. */
    EventQueue::Callback retryEvaluate;
};

} // namespace strand

#endif // PERSIST_STRAND_ENGINE_HH
