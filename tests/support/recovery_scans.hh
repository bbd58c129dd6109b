/**
 * @file
 * Test support: recover one persisted image with both RecoveryScans
 * and demand the same outcome. Every harness recovers with the paged
 * scan; the per-slot Faithful scan is the reference it is held to.
 */

#ifndef TESTS_SUPPORT_RECOVERY_SCANS_HH
#define TESTS_SUPPORT_RECOVERY_SCANS_HH

#include <gtest/gtest.h>

#include "runtime/recovery.hh"

namespace strand
{

/** Demand that @p a and @p b hold the same persisted words. */
inline void
expectSamePersisted(const MemoryImage &a, const MemoryImage &b)
{
    EXPECT_EQ(a.persistedWords(), b.persistedWords());
    std::size_t mismatched = 0;
    Addr first = 0;
    a.forEachPersisted([&](Addr addr, std::uint64_t value) {
        if (b.persistedContains(addr) && b.readPersisted(addr) == value)
            return;
        if (mismatched++ == 0)
            first = addr;
    });
    EXPECT_EQ(mismatched, 0u) << "first differing word at " << first;
}

/**
 * Recover copies of @p image with both scans and demand identical
 * reports, field by field, and identical recovered images. @p image
 * itself is not written.
 * @return the Faithful scan's report.
 */
inline RecoveryReport
recoverWithBothScans(const RecoveryManager &mgr, const MemoryImage &image,
                     unsigned numThreads)
{
    MemoryImage faithfulImg = image;
    MemoryImage pagedImg = image;
    RecoveryReport faithful =
        mgr.recover(faithfulImg, numThreads, RecoveryScan::Faithful);
    RecoveryReport paged =
        mgr.recover(pagedImg, numThreads, RecoveryScan::Paged);

    EXPECT_EQ(paged.entriesRolledBack, faithful.entriesRolledBack);
    EXPECT_EQ(paged.redoEntriesReplayed, faithful.redoEntriesReplayed);
    EXPECT_EQ(paged.entriesCommittedDuringRecovery,
              faithful.entriesCommittedDuringRecovery);
    EXPECT_EQ(paged.threadsWithUncommittedWork,
              faithful.threadsWithUncommittedWork);
    EXPECT_EQ(paged.tornEntriesSkipped, faithful.tornEntriesSkipped);
    EXPECT_EQ(paged.verdict, faithful.verdict);
    EXPECT_EQ(paged.corruptEntriesQuarantined,
              faithful.corruptEntriesQuarantined);
    EXPECT_EQ(paged.poisonedEntriesQuarantined,
              faithful.poisonedEntriesQuarantined);
    EXPECT_EQ(paged.quarantinedThreads, faithful.quarantinedThreads);
    EXPECT_EQ(paged.quarantinedAddrs, faithful.quarantinedAddrs);
    EXPECT_EQ(paged.rollbacks, faithful.rollbacks);
    EXPECT_EQ(paged.replays, faithful.replays);

    // Recovered persisted images are word-for-word identical.
    expectSamePersisted(pagedImg, faithfulImg);
    return faithful;
}

} // namespace strand

#endif // TESTS_SUPPORT_RECOVERY_SCANS_HH
