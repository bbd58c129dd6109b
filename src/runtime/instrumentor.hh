/**
 * @file
 * The lowering pass: region traces to ISA op streams (§V, Figure 5).
 *
 * For each (hardware design, language-level persistency model) pair
 * the instrumentor expands runtime events into the exact primitive
 * sequences the paper prescribes:
 *
 *  - Every LoggedStore becomes: create + flush a 64-byte undo-log
 *    entry, a pairwise ordering primitive, the in-place update and
 *    its flush, and a strand separator:
 *      Intel x86:   log; CLWB; SFENCE; store; CLWB
 *      HOPS:        log; CLWB; ofence; store; CLWB
 *      StrandWeaver log; CLWB; PB;     store; CLWB; NewStrand
 *      non-atomic:  log; CLWB;         store; CLWB
 *  - Lock acquires are followed and releases preceded by the
 *    design's drain primitive (JoinStrand / SFENCE / dfence) so
 *    persists never leak across synchronization (§III).
 *  - TXN commits every region inside its critical section, before
 *    the enclosing locks release (Figure 6 protocol).
 *  - SFR and ATLAS do not stall program threads for log commits:
 *    each completed region is handed to a background *pruner* (an
 *    extra core, the role of Decoupled-SFR's log pruning) through a
 *    per-region ticket handshake. The pruner commits regions in
 *    global region-completion order — which keeps post-crash
 *    rollback a happens-before-consistent cut — and pays the
 *    commit-marker / invalidation / head-update PM traffic off the
 *    program threads' critical paths.
 */

#ifndef RUNTIME_INSTRUMENTOR_HH
#define RUNTIME_INSTRUMENTOR_HH

#include <deque>
#include <vector>

#include "cpu/op.hh"
#include "persist/design.hh"
#include "runtime/layout.hh"
#include "runtime/trace.hh"

namespace strand
{

/** Base lock id for the per-region completion handshake. */
constexpr std::uint32_t regionDoneLockBase = 0x4000'0000;

/** Base lock id for the pruner's per-region done tickets. */
constexpr std::uint32_t prunedLockBase = 0x8000'0000;

/** Regions a thread may run ahead of the pruner (bounds log use). */
constexpr unsigned prunerWindowRegions = 32;

/** Write-ahead logging style. */
enum class LogStyle
{
    /** Undo logging: old values, logs persist before updates. */
    Undo,
    /**
     * Redo logging (the paper's §VII sketch, implemented here): a
     * transaction records new values in its log on one strand,
     * issues a persist barrier, sets the commit marker, and only
     * then performs and flushes the in-place updates. Recovery
     * replays committed regions forward. TXN model only.
     */
    Redo,
};

/** Instrumentor configuration. */
struct InstrumentorParams
{
    HwDesign design = HwDesign::StrandWeaver;
    PersistencyModel model = PersistencyModel::Txn;
    LogStyle logStyle = LogStyle::Undo;
    LogLayout layout;
};

/**
 * One region's footprint in the per-thread log, recorded during
 * lowering. The crash harness's recovery oracle uses this to decide,
 * from post-crash log metadata alone, whether a region's updates must
 * (committed) or must not (rolled back) survive recovery.
 */
struct RegionLogInfo
{
    CoreId owner = 0;
    std::uint64_t globalSeq = 0;
    /** Monotonic index of the region's first log entry. */
    std::uint64_t firstEntry = 0;
    /** Monotonic index of the terminating (TxEnd/Release) entry. */
    std::uint64_t lastEntry = 0;
    /** Logged (addr, newValue) pairs, in program order. */
    std::vector<std::pair<Addr, std::uint64_t>> stores;
};

/** Per-run lowering statistics (for Table II style reporting). */
struct LoweringStats
{
    std::uint64_t clwbs = 0;
    std::uint64_t stores = 0;
    std::uint64_t loads = 0;
    std::uint64_t barriers = 0; ///< pairwise primitives emitted
    std::uint64_t drains = 0;   ///< JS / SFENCE / dfence emitted
    std::uint64_t logEntries = 0;
    std::uint64_t commits = 0;
};

/**
 * Lowers a RegionTrace into one op stream per thread, plus — for the
 * SFR and ATLAS models — a trailing pruner stream that must run on
 * an additional core.
 */
class Instrumentor
{
  public:
    explicit Instrumentor(const InstrumentorParams &params);

    /**
     * Lower all threads. For SFR/ATLAS the returned vector has
     * trace.threads.size() + 1 streams; the last is the pruner's.
     */
    std::vector<OpStream> lower(const RegionTrace &trace);

    const LoweringStats &stats() const { return loweringStats; }

    /** Region → log-entry map of the last lower() call, in per-
     * thread discovery order. */
    const std::vector<RegionLogInfo> &
    regionLog() const
    {
        return regionLogInfos;
    }

    /** @return true if lower() appends a pruner stream. */
    bool
    usesPruner() const
    {
        return params.model != PersistencyModel::Txn;
    }

  private:
    struct ThreadState
    {
        /** Monotonic index of the next log entry to allocate. */
        std::uint64_t tail = 0;
        /** Oldest entry not yet committed (monotonic). */
        std::uint64_t head = 0;
        /** Entries (monotonic indices) of the open/last region. */
        std::vector<std::uint64_t> regionEntries;
        /** First entry index of the open region. */
        std::uint64_t regionFirstEntry = 0;
        /** Current lock nesting depth (during lowering). */
        unsigned lockDepth = 0;
        /** Regions completed but not yet handed to the pruner. */
        std::vector<std::uint64_t> pendingHandshakes;
        /** This thread's region seqs not yet known-pruned. */
        std::deque<std::uint64_t> myRegions;
        /** Redo: in-place updates deferred to region commit. */
        std::vector<std::pair<Addr, std::uint64_t>> deferredUpdates;
        /** Logged (addr, newValue) pairs of the open region. */
        std::vector<std::pair<Addr, std::uint64_t>> regionStores;
    };

    /** A completed region, as the pruner needs to commit it. */
    struct RegionCommitInfo
    {
        CoreId owner = 0;
        std::uint64_t globalSeq = 0;
        std::vector<std::uint64_t> entries;
        std::uint64_t lastEntry = 0;
    };

    /**
     * Append @p op, stamping any pending ordering intents onto it.
     * All ops must be emitted through here: emitPairOrder /
     * emitStrandSep / emitDrain accumulate kIntent* bits in
     * pendingIntents, and the next emitted op carries them — which is
     * how designs without a dedicated primitive (e.g. no NewStrand op
     * on Intel x86 / HOPS) still record the intended strand
     * boundaries for PMO-san.
     */
    void push(OpStream &out, Op op);

    /** Emit the design's pairwise ordering primitive. */
    void emitPairOrder(OpStream &out);
    /** Emit the design's strand separator (NewStrand), if any. */
    void emitStrandSep(OpStream &out);
    /** Emit the design's durability drain (JS/SFENCE/dfence). */
    void emitDrain(OpStream &out);

    /**
     * Emit creation + flush of one log entry.
     * @return the entry's monotonic index.
     */
    std::uint64_t emitLogEntry(OpStream &out, ThreadState &state,
                               CoreId tid, LogType type, Addr addr,
                               std::uint64_t value,
                               std::uint64_t globalSeq);

    /** Model-specific extra work for sync log entries. */
    void emitSyncEntryOverhead(OpStream &out);

    /**
     * TXN: commit the just-ended region in place (Figure 6
     * protocol), inside the enclosing critical section.
     */
    void emitTxnCommit(OpStream &out, ThreadState &state, CoreId tid,
                       const RegionCommitInfo &region);

    /**
     * Redo: commit marker, then the deferred in-place updates, then
     * log truncation — all inside the critical section.
     */
    void emitRedoCommit(OpStream &out, ThreadState &state, CoreId tid,
                        const RegionCommitInfo &region);

    /**
     * The tail both commits share once the region is durable: drain,
     * invalidate the region's entries, drain, advance and flush the
     * persistent head pointer past the region, drain.
     */
    void emitTruncate(OpStream &out, ThreadState &state, CoreId tid,
                      const RegionCommitInfo &region);

    /** Build the background pruner's stream (SFR/ATLAS). */
    OpStream buildPrunerStream(
        const std::vector<RegionCommitInfo> &regions);

    InstrumentorParams params;
    LoweringStats loweringStats;
    std::vector<RegionLogInfo> regionLogInfos;
    /** kIntent* bits awaiting the next push()ed op. */
    std::uint8_t pendingIntents = 0;
};

} // namespace strand

#endif // RUNTIME_INSTRUMENTOR_HH
