/**
 * @file
 * The strand buffer unit (§IV of the paper).
 *
 * An array of strand buffers sits beside the L1 cache. Each buffer
 * manages persist ordering within one strand: CLWBs separated by a
 * persist barrier complete in order, while CLWBs in different
 * buffers issue to the PM controller concurrently. A NewStrand
 * operation advances the ongoing-buffer index (round-robin), so
 * subsequent CLWBs land in the next buffer.
 *
 * The same structure models HOPS's per-core persist buffer: a single
 * buffer whose persist barriers are ofences.
 *
 * The unit exposes recordDrainPoint(), which captures the current
 * tail index of every buffer and returns a predicate that holds once
 * all buffers have drained past the captured points — the interlock
 * used by the write-back buffer and snoop handling.
 */

#ifndef PERSIST_STRAND_BUFFER_UNIT_HH
#define PERSIST_STRAND_BUFFER_UNIT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"

namespace strand
{

class DrainAdversary;

/** Configuration of the strand buffer unit. */
struct StrandBufferUnitParams
{
    unsigned numBuffers = 4;
    unsigned entriesPerBuffer = 4;
    /** Fuzzing hook (non-owning); null leaves issue order untouched. */
    DrainAdversary *adversary = nullptr;
};

/**
 * The strand buffer unit for one core.
 */
class StrandBufferUnit : public SimObject
{
  public:
    /** Entry kinds tracked inside a strand buffer. */
    enum class Kind : std::uint8_t
    {
        Clwb,
        Barrier,
    };

    /**
     * @param core The owning core (used for cache requests).
     * @param hier The cache hierarchy used to perform flushes.
     */
    StrandBufferUnit(std::string name, EventQueue &eq, CoreId core,
                     Hierarchy &hier,
                     const StrandBufferUnitParams &params,
                     stats::StatGroup *parent = nullptr);

    /** @return true if the ongoing buffer can take another entry. */
    bool canAcceptClwb() const;

    /** @return true if the ongoing buffer can take a barrier. */
    bool canAcceptBarrier() const { return canAcceptClwb(); }

    /**
     * Append a CLWB to the ongoing strand buffer.
     * @param id Token reported back through the completion callback.
     * @param elderStoreSeq Seq of the elder same-line store that must
     * write the L1 before this flush may start, or 0 for none. The
     * wait is per-line: other entries and buffers proceed. Stored as
     * a plain descriptor (not a captured closure) so buffered
     * entries survive snapshot/restore; the owning engine installs
     * the store-queue query once via setElderQuery().
     */
    void pushClwb(Addr addr, std::uint64_t id,
                  SeqNum elderStoreSeq = 0);

    /**
     * Install the store-completion query used to resolve buffered
     * elder-store descriptors. Set once at engine construction;
     * unset, elder-store gating is disabled.
     */
    void
    setElderQuery(std::function<bool(SeqNum)> query)
    {
        elderCompleted = std::move(query);
    }

    /** Append a persist barrier to the ongoing strand buffer. */
    void pushBarrier();

    /**
     * Begin a new strand: advance the ongoing buffer index
     * (round-robin). Completes immediately.
     */
    void newStrand();

    /**
     * Invoked (with the CLWB id and whether the flush actually wrote
     * PM — false for a clean lookup) when a CLWB completes.
     */
    void
    setCompletionCallback(std::function<void(std::uint64_t, bool)> cb)
    {
        completionCallback = std::move(cb);
    }

    /**
     * Invoked (with the CLWB id) when a CLWB has performed its cache
     * read — the point after which post-barrier stores may safely
     * drain (§IV: persist barriers order prior CLWBs before
     * subsequent stores).
     */
    void
    setStartedCallback(std::function<void(std::uint64_t)> cb)
    {
        startedCallback = std::move(cb);
    }

    /** @return true once every buffer is empty. */
    bool drained() const;

    /** Number of CLWB entries currently buffered (all strands). */
    std::size_t occupancy() const;

    /**
     * Capture the current tail of every buffer; the returned
     * predicate holds once every buffer has retired everything that
     * was buffered at capture time (§IV write-back/snoop interlock).
     */
    Hierarchy::Clearance recordDrainPoint();

    /** Issue any entries whose dependencies have resolved. */
    void evaluate();

    /** Capture / restore buffered entries and the ongoing index. */
    void saveState(SimSnapshot &snap) const override;
    void restoreState(const SimSnapshot &snap) override;

    /** @name Statistics @{ */
    stats::Scalar clwbsIssued;
    stats::Scalar clwbsCompleted;
    stats::Scalar cleanFlushes;
    stats::Scalar barriersRetired;
    stats::Scalar strandsStarted;
    stats::Histogram flushLatency;
    /** @} */

  private:
    /** Plain data: snapshot/restore copies entries wholesale. */
    struct Entry
    {
        Kind kind = Kind::Clwb;
        Addr addr = 0;
        std::uint64_t id = 0;
        bool hasIssued = false;
        bool completed = false;
        Tick issuedAt = 0;
        /** Elder same-line store gating the flush (0 = none);
         * resolved against elderCompleted at issue time. */
        SeqNum elderStoreSeq = 0;
        /** Monotonic position used by drain-point predicates. */
        std::uint64_t position = 0;
        /** Adversarial hold on this entry's issue (fuzzing). */
        Tick heldUntil = 0;
    };

    struct Buffer
    {
        std::deque<Entry> entries;
        /** Position of the most recently retired entry. */
        std::uint64_t retiredUpTo = 0;
        /** Position assigned to the next appended entry. */
        std::uint64_t nextPosition = 1;
    };

    /** Volatile machine state captured by saveState(). */
    struct Snapshot
    {
        std::vector<Buffer> buffers;
        unsigned ongoing = 0;
    };

    void issueFrom(Buffer &buffer);
    void retireCompleted(Buffer &buffer);
    /** Route one flush response. The token encodes the entry's home:
     * (bufferIndex << 48) | position. */
    void onMemResponse(const MemResponse &resp);

    CoreId core;
    StrandBufferUnitParams params;
    /** Mailbox to the hierarchy; all flushes travel here. */
    MemPort port;
    std::vector<Buffer> buffers;
    unsigned ongoing = 0;
    std::function<void(std::uint64_t, bool)> completionCallback;
    std::function<void(std::uint64_t)> startedCallback;
    std::function<bool(SeqNum)> elderCompleted;
    /** Prebuilt adversary-hold retry; built once, borrowed per query. */
    EventQueue::Callback retryEvaluate;
};

} // namespace strand

#endif // PERSIST_STRAND_BUFFER_UNIT_HH
