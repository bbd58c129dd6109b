/**
 * @file
 * Recovery oracle for crash-point fault injection.
 *
 * Given a workload's region trace, the instrumentor's region -> log
 * mapping, and a snapshot of PM taken at an arbitrary crash point,
 * the oracle decides from the snapshot's log metadata alone which
 * failure-atomic regions were durably committed at the crash, and
 * checks that the post-recovery image reflects exactly those regions:
 *
 *  - committed regions' logged stores must survive recovery
 *    (durability), and
 *  - uncommitted regions' stores must be rolled back to the value of
 *    the last committed store (atomicity).
 *
 * A region counts as committed when any of the commit protocol's
 * durable outcomes is visible in the pre-recovery snapshot: its
 * owner's persistent head pointer has passed the region's terminating
 * entry, the terminating entry carries a durable commit marker
 * (Figure 6 step 2), or the region's global sequence lies below the
 * pruner's commit frontier (SFR/ATLAS batched commits). Because the
 * commit protocols drain all of a region's persists before making any
 * of these outcomes durable, "committed" implies every logged update
 * (undo) or log entry (redo) already reached PM.
 */

#ifndef CRASH_CRASH_ORACLE_HH
#define CRASH_CRASH_ORACLE_HH

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/memory_image.hh"
#include "runtime/instrumentor.hh"
#include "runtime/recovery.hh"
#include "runtime/trace.hh"

namespace strand
{

class CrashOracle
{
  public:
    /**
     * @param trace The recorded region trace (plain-store addresses
     * are excluded from value checks).
     * @param regionLog The instrumentor's region -> log-entry map
     * for the lowering under test.
     * @param preload Words durable before the run began.
     */
    CrashOracle(const RegionTrace &trace,
                const std::vector<RegionLogInfo> &regionLog,
                const std::unordered_map<Addr, std::uint64_t> &preload,
                const LogLayout &layout);

    /**
     * Classify every region against a pre-recovery snapshot.
     * @return one flag per region, in globalSeq order.
     */
    std::vector<bool>
    committedRegions(const MemoryImage &snapshot) const;

    /**
     * Check a recovered image against the expected per-address
     * values implied by @p committed.
     *
     * With a RecoveryReport, the oracle distinguishes "degraded but
     * consistent" from silent corruption: a mismatch is excused iff
     * recovery explicitly quarantined the address (residual poisoned
     * heap line) or every value in the address's history comes from
     * threads recovery quarantined (their logs were fenced off, so
     * their regions' outcomes are declared unknown rather than
     * wrong). A FULL verdict quarantines nothing, so recovery
     * claiming success over corrupted data still fails here — the
     * teeth behind the checksum regression test.
     *
     * @return empty string if consistent, else a description of the
     * first violation.
     */
    std::string
    checkRecovered(const MemoryImage &recovered,
                   const std::vector<bool> &committed,
                   const RecoveryReport *report = nullptr) const;

  private:
    /** One logged store, attributed to its region. */
    struct WriteRec
    {
        std::size_t region; ///< index into the sorted region vector
        std::uint64_t value;
    };

    std::vector<RegionLogInfo> regions; ///< sorted by globalSeq
    /** Per-address store history, in commit order. */
    std::unordered_map<Addr, std::vector<WriteRec>> writes;
    /** Pre-run durable value of each logged address. */
    std::unordered_map<Addr, std::uint64_t> initial;
    /** Addresses also touched by unlogged stores: not checkable. */
    std::unordered_set<Addr> excluded;
    LogLayout layout;
};

} // namespace strand

#endif // CRASH_CRASH_ORACLE_HH
