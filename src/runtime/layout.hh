/**
 * @file
 * Persistent-memory layout used by the logging runtime.
 *
 * The PM range is carved into three areas:
 *  - a metadata page holding each thread's persistent log head
 *    pointer (one cache line per thread),
 *  - one circular undo-log buffer per thread (64-byte entries, §V
 *    "Log structure"),
 *  - the persistent heap used by workload data structures.
 *
 * Log entries occupy one cache line with one 8-byte word per field:
 * Type, Addr, Value, Checksum, Valid, CommitMarker (the paper's entry
 * format, with the Size word repurposed as an integrity checksum —
 * every entry is exactly one 8-byte word of payload, so the field
 * carried no information). The tail pointer lives only in volatile
 * state.
 */

#ifndef RUNTIME_LAYOUT_HH
#define RUNTIME_LAYOUT_HH

#include "mem/address_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/** Log entry types (§V). */
enum class LogType : std::uint64_t
{
    Free = 0, ///< Slot never used.
    Store = 1,
    Acquire = 2,
    Release = 3,
    TxBegin = 4,
    TxEnd = 5,
    /** Redo-log entry: value holds the NEW data (§VII future work:
     * redo logging under strand persistency). */
    RedoStore = 6,
};

/** Field offsets within a 64-byte log entry. */
namespace log_field
{
constexpr Addr type = 0;
constexpr Addr addr = 8;
constexpr Addr value = 16;
/**
 * Integrity checksum over the entry's immutable words (type, addr,
 * value, globalSeq, seq) — see entryChecksum(). valid and
 * commitMarker are deliberately NOT covered: both are flipped
 * in place by single-word stores after publication (commit,
 * invalidation), and folding them in would require a read-modify-
 * write of the checksum word alongside — destroying the single-store
 * crash atomicity those transitions rely on.
 */
constexpr Addr checksum = 24;
constexpr Addr valid = 32;
constexpr Addr commitMarker = 40;
/** Global creation order (scalar clock, consistent with
 * happens-before): cross-thread rollback order after a crash. */
constexpr Addr globalSeq = 48;
/**
 * Monotonic entry index; distinguishes live entries from stale
 * content of previous laps around the circular buffer.
 *
 * seq occupies the line's TOP word on purpose: torn-line injection
 * admits a low-index prefix of the written words, so any tear of an
 * entry line drops seq first and recovery's seq<->slot check rejects
 * the whole entry as unpublished. With globalSeq above seq (as the
 * layout once had it), a 7-word tear kept a valid-looking entry whose
 * globalSeq read as stale zero — and a torn region-end entry then
 * fell below the SFR/ATLAS commit frontier, masking uncommitted
 * updates from rollback.
 */
constexpr Addr seq = 56;
} // namespace log_field

/** One fold step of the entry checksum: xor, then a 64-bit mix. */
constexpr std::uint64_t
mixChecksumWord(std::uint64_t hash, std::uint64_t word)
{
    hash ^= word;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    return hash;
}

/**
 * Checksum over a log entry's immutable words, stored in the entry's
 * Checksum field at publication and verified by recovery. A media
 * bit flip in any covered word (or in the checksum itself) breaks
 * the equation and the entry is quarantined instead of trusted.
 *
 * Plain tears never reach this check: the seq word is admitted last
 * (prefix tearing, see log_field::seq), so a torn entry already
 * fails the seq<->slot publication gate. A checksum mismatch on a
 * gate-passing entry is therefore evidence of media corruption, not
 * of an interrupted write.
 *
 * The init constant is nonzero so an all-zero entry does not
 * checksum to its own (zero) checksum word.
 */
constexpr std::uint64_t
entryChecksum(std::uint64_t type, std::uint64_t addr,
              std::uint64_t value, std::uint64_t globalSeq,
              std::uint64_t seq)
{
    std::uint64_t hash = 0x5ca1ab1e0ddba11ULL;
    hash = mixChecksumWord(hash, type);
    hash = mixChecksumWord(hash, addr);
    hash = mixChecksumWord(hash, value);
    hash = mixChecksumWord(hash, globalSeq);
    hash = mixChecksumWord(hash, seq);
    return hash;
}

/** Geometry of the per-thread logs and the heap. */
struct LogLayout
{
    unsigned maxThreads = 8;
    /** Entries per thread's circular buffer. */
    std::uint64_t entriesPerThread = 8192;

    /** One cache line per thread for the persistent head pointer. */
    Addr
    headPtrAddr(CoreId tid) const
    {
        checkThread(tid);
        return pmBase + static_cast<Addr>(tid) * lineBytes;
    }

    /**
     * The global commit frontier: one past the globalSeq of the last
     * region committed by the background pruner (SFR/ATLAS batched
     * commits). Regions whose end-entry globalSeq is below the
     * frontier are durable and committed; recovery never rolls them
     * back.
     */
    Addr
    frontierAddr() const
    {
        return pmBase + static_cast<Addr>(maxThreads) * lineBytes;
    }

    /** Base of thread @p tid's log buffer. */
    Addr
    logBase(CoreId tid) const
    {
        checkThread(tid);
        return pmBase + 0x10000 +
               static_cast<Addr>(tid) * entriesPerThread * lineBytes;
    }

    /** Address of entry @p idx (mod capacity) in @p tid's buffer. */
    Addr
    entryAddr(CoreId tid, std::uint64_t idx) const
    {
        return logBase(tid) + (idx % entriesPerThread) * lineBytes;
    }

    /** First address past all log buffers: heap begins here. */
    Addr
    heapBase() const
    {
        return pmBase + 0x10000 +
               static_cast<Addr>(maxThreads) * entriesPerThread *
                   lineBytes;
    }

    Addr heapEnd() const { return pmBase + pmSize; }

    /**
     * Media-fault region classification: the metadata area (head
     * pointers + commit frontier) is the single point whose loss
     * recovery cannot degrade around, so a poisoned line here means
     * a FAILED verdict.
     */
    bool
    isMetadataLine(Addr lineAddr) const
    {
        return lineAddr >= pmBase &&
               lineAddr < frontierAddr() + lineBytes;
    }

    /** @return true when @p lineAddr falls in a per-thread log. */
    bool
    isLogLine(Addr lineAddr) const
    {
        return lineAddr >= pmBase + 0x10000 && lineAddr < heapBase();
    }

    bool
    isHeapLine(Addr lineAddr) const
    {
        return lineAddr >= heapBase() && lineAddr < heapEnd();
    }

    bool operator==(const LogLayout &) const = default;

    /** Owning thread of a log-region line (isLogLine() required). */
    CoreId
    logThreadOf(Addr lineAddr) const
    {
        panicIf(!isLogLine(lineAddr),
                "address {:#x} is not in a log region", lineAddr);
        return static_cast<CoreId>((lineAddr - (pmBase + 0x10000)) /
                                   (entriesPerThread * lineBytes));
    }

  private:
    void
    checkThread(CoreId tid) const
    {
        panicIf(tid >= maxThreads, "thread id {} out of range", tid);
    }
};

} // namespace strand

#endif // RUNTIME_LAYOUT_HH
