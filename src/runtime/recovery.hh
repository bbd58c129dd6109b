/**
 * @file
 * Post-crash recovery (§V "Log structure", Figure 6).
 *
 * Recovery reads only the persisted view of memory (what survived
 * the crash):
 *  1. Read each thread's persistent head pointer.
 *  2. If an entry at-or-after head has its commit marker set, the
 *     crash interrupted a commit: the entries up to the marker are
 *     committed — finish invalidating them and advance head.
 *  3. Roll back remaining valid entries — across all threads — in
 *     reverse global creation order (each store entry carries a
 *     scalar clock consistent with happens-before, the role the
 *     sync-entry metadata plays in ATLAS/SFR), restoring each
 *     logged old value durably.
 *
 * Entries store their monotonic sequence number, so stale content
 * from previous laps around the circular buffer (seq < head) is
 * ignored regardless of its valid bit.
 *
 * Under the media-fault model recovery additionally degrades
 * gracefully: entries whose checksum fails (bit flips), structurally
 * impossible Free slots, and poisoned log lines quarantine the owning
 * thread instead of being trusted or panicking; residual poisoned
 * heap lines are reported as unreadable addresses. The
 * RecoveryReport verdict (FULL / DEGRADED / FAILED) tells the caller
 * which guarantee survives.
 */

#ifndef RUNTIME_RECOVERY_HH
#define RUNTIME_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "mem/memory_image.hh"
#include "runtime/layout.hh"

namespace strand
{

/**
 * Overall recovery outcome under the media-fault model.
 *
 * Recovery degrades gracefully instead of panicking: damage it can
 * detect and fence off (checksum-failing entries, poisoned log
 * lines, unrepaired poisoned heap lines) quarantines the affected
 * thread or address range and yields Degraded; only loss of the
 * metadata area — the one structure recovery cannot reconstruct or
 * route around — yields Failed.
 */
enum class RecoveryVerdict
{
    /** No damage detected; every log entry was trusted. */
    Full,
    /** Damage detected and quarantined; the surviving state is
     * consistent outside the quarantined threads/addresses. */
    Degraded,
    /** The metadata area (head pointers / commit frontier) was
     * poisoned; recovery has no trustworthy starting point. */
    Failed,
};

/** Caller-selectable recovery behavior. */
struct RecoveryOptions
{
    /**
     * Verify each published entry's checksum word and quarantine
     * mismatches. Off reproduces the un-checksummed layout's
     * failure mode — recovery trusting silently corrupted entries
     * and "succeeding" over wrong data (pinned as a regression
     * test; the crash oracle catches the resulting bad rollbacks).
     */
    bool verifyChecksums = true;
};

/** Outcome of one recovery pass. */
struct RecoveryReport
{
    /** Store entries rolled back, over all threads. */
    std::uint64_t entriesRolledBack = 0;
    /** Redo entries of committed regions replayed forward. These are
     * not rollbacks: the marker made the region durable, so recovery
     * re-applies the new values. */
    std::uint64_t redoEntriesReplayed = 0;
    /** Entries that a crashed commit had left valid. */
    std::uint64_t entriesCommittedDuringRecovery = 0;
    /** Threads that had any uncommitted work. */
    unsigned threadsWithUncommittedWork = 0;
    /**
     * Entries dropped because their seq did not map back to the slot
     * holding them: the entry line itself tore at the crash (partial
     * ADR admission; see MemoryImage::clonePersistedTorn). The writer
     * always stores slot-consistent seqs, so a mismatch proves the
     * entry never fully persisted — and on designs that order entry
     * persist before the guarded update, that update is not durable
     * either, making the drop safe.
     */
    std::uint64_t tornEntriesSkipped = 0;

    /** Media-fault verdict; Full whenever no damage was detected. */
    RecoveryVerdict verdict = RecoveryVerdict::Full;
    /**
     * Published entries quarantined for failing their checksum, plus
     * structurally impossible slots (type reads Free while sibling
     * words are nonzero — a state no tear can produce, since the
     * type word is admitted first under prefix tearing).
     */
    std::uint64_t corruptEntriesQuarantined = 0;
    /** Poisoned log-region lines (each holds one entry). */
    std::uint64_t poisonedEntriesQuarantined = 0;
    /**
     * Threads whose logs held quarantined damage, ascending. Their
     * entries are not trusted at all: no commit completion and no
     * rollback — the thread's uncommitted region survives in
     * whatever state the crash left, fenced off rather than half
     * rolled back from corrupt undo values.
     */
    std::vector<CoreId> quarantinedThreads;
    /**
     * Word addresses on poisoned heap lines, ascending. Poison is
     * sticky — rollback's single-word rewrites cannot repair a
     * line's ECC block — so every poisoned heap line is fenced off
     * here. Reads of these fault on real hardware.
     */
    std::vector<Addr> quarantinedAddrs;

    /** Rolled-back (addr, restoredValue) pairs, for diagnostics. */
    std::vector<std::pair<Addr, std::uint64_t>> rollbacks;
    /** Replayed (addr, newValue) pairs, for diagnostics. */
    std::vector<std::pair<Addr, std::uint64_t>> replays;
};

/**
 * How recover() reads the per-thread log buffers. Both scans walk
 * each thread's log in one loop that takes every slot's words from
 * its persisted page (MemoryImage::persistedPage; an absent page is
 * the all-zero background) and decodes them in one place, so they
 * produce identical reports. They differ only in how many
 * consecutive slots one page lookup serves.
 */
enum class RecoveryScan
{
    /**
     * Look each slot's page up on its own. Only the reference that
     * the paged run arithmetic is tested against; no harness runs it.
     */
    Faithful,
    /**
     * Look a page up once per run of slots up to the page end (at
     * most 64) or the log's end, and skip an absent page's run
     * outright. Every harness recovers this way.
     */
    Paged,
};

/**
 * The recovery process. Stateless aside from its layout.
 */
class RecoveryManager
{
  public:
    explicit RecoveryManager(const LogLayout &layout) : layout(layout) {}

    /**
     * Recover @p image in place after a crash. Reads the persisted
     * view; writes restored values durably.
     */
    RecoveryReport
    recover(MemoryImage &image, unsigned numThreads,
            const RecoveryOptions &options = {}) const
    {
        return recover(image, numThreads, RecoveryScan::Paged, options);
    }

    /** recover() with the log read by @p scan. */
    RecoveryReport recover(MemoryImage &image, unsigned numThreads,
                           RecoveryScan scan,
                           const RecoveryOptions &options = {}) const;

  private:
    struct EntryView
    {
        std::uint64_t seq;
        std::uint64_t globalSeq;
        /** Physical slot the entry was read from. Invalidation must
         * target this slot; seq alone is a monotonic count that only
         * coincides with the slot through the layout's wrap. */
        std::uint64_t slot;
        CoreId tid;
        LogType type;
        Addr addr;
        std::uint64_t value;
        /** The stored checksum word (not yet verified). */
        std::uint64_t checksum;
        bool valid;
        bool commitMarker;
        /** Type reads Free but sibling words are nonzero: media
         * corruption, never a tear (type is admitted first). */
        bool freeAnomaly = false;
    };

    /**
     * Decode the log entry whose eight words start at @p words, read
     * from @p tid's log slot @p slot.
     */
    static EntryView decodeEntry(const std::uint64_t *words, CoreId tid,
                                 std::uint64_t slot);

    LogLayout layout;
};

} // namespace strand

#endif // RUNTIME_RECOVERY_HH
