/**
 * @file
 * Unit tests for the recovery process (Figure 6), on hand-built
 * persisted images.
 */

#include <gtest/gtest.h>

#include <map>

#include "runtime/recovery.hh"

namespace strand
{
namespace
{

constexpr Addr dataA = pmBase + 0x2000000;
constexpr Addr dataB = pmBase + 0x2000040;

class RecoveryFixture : public ::testing::Test
{
  protected:
    void
    writeEntry(CoreId tid, std::uint64_t idx, LogType type, Addr addr,
               std::uint64_t oldValue, bool valid, bool cm = false)
    {
        Addr base = layout.entryAddr(tid, idx);
        img.writeDurable(base + log_field::type,
                         static_cast<std::uint64_t>(type));
        img.writeDurable(base + log_field::addr, addr);
        img.writeDurable(base + log_field::value, oldValue);
        img.writeDurable(base + log_field::checksum,
                         entryChecksum(static_cast<std::uint64_t>(type),
                                       addr, oldValue, 0, idx));
        img.writeDurable(base + log_field::seq, idx);
        img.writeDurable(base + log_field::valid, valid ? 1 : 0);
        img.writeDurable(base + log_field::commitMarker, cm ? 1 : 0);
    }

    /**
     * Recover copies of img with both scans and demand identical
     * reports, field by field, and identical recovered images.
     * @return the Faithful scan's report.
     */
    RecoveryReport
    recoverWithBothScans(unsigned numThreads)
    {
        MemoryImage faithfulImg = img;
        MemoryImage pagedImg = img;
        RecoveryReport faithful =
            mgr.recover(faithfulImg, numThreads, RecoveryScan::Faithful);
        RecoveryReport paged =
            mgr.recover(pagedImg, numThreads, RecoveryScan::Paged);

        EXPECT_EQ(paged.entriesRolledBack, faithful.entriesRolledBack);
        EXPECT_EQ(paged.redoEntriesReplayed,
                  faithful.redoEntriesReplayed);
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
        EXPECT_EQ(persistedWords(pagedImg), persistedWords(faithfulImg));
        return faithful;
    }

    static std::map<Addr, std::uint64_t>
    persistedWords(const MemoryImage &image)
    {
        std::map<Addr, std::uint64_t> words;
        image.forEachPersisted([&](Addr addr, std::uint64_t value) {
            words.emplace(addr, value);
        });
        return words;
    }

    LogLayout layout;
    MemoryImage img;
    RecoveryManager mgr{layout};
};

TEST_F(RecoveryFixture, CleanLogRecoversNothing)
{
    auto report = mgr.recover(img, 8);
    EXPECT_EQ(report.entriesRolledBack, 0u);
    EXPECT_EQ(report.threadsWithUncommittedWork, 0u);
}

TEST_F(RecoveryFixture, ValidStoreEntryRollsBack)
{
    img.writeDurable(dataA, 99); // partially-updated new value
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataA), 11u);
    EXPECT_EQ(report.threadsWithUncommittedWork, 1u);
}

TEST_F(RecoveryFixture, RollbackAppliesInReverseCreationOrder)
{
    // Two entries for the same address: the older old-value must win.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    writeEntry(0, 1, LogType::Store, dataA, 22, true);
    mgr.recover(img, 1);
    EXPECT_EQ(img.readPersisted(dataA), 11u);
}

TEST_F(RecoveryFixture, InvalidEntriesAreIgnored)
{
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, false);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 0u);
    EXPECT_EQ(img.readPersisted(dataA), 99u);
}

TEST_F(RecoveryFixture, GapsFromConcurrentPersistsAreStillRolledBack)
{
    // Entry 0 never persisted (crashed in flight); entry 1 did.
    // Recovery must still roll entry 1 back (its data may have
    // persisted), even though the log has a hole.
    img.writeDurable(dataB, 99);
    writeEntry(0, 1, LogType::Store, dataB, 22, true);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataB), 22u);
}

TEST_F(RecoveryFixture, CommitMarkerFinishesInterruptedCommit)
{
    // Figure 6(b): entries 0-2 belong to a committed region whose
    // invalidation was interrupted: 0 invalidated, 1 and 2 still
    // valid, CM on entry 2. Entry 3 belongs to a newer region.
    img.writeDurable(dataA, 50);
    img.writeDurable(dataB, 99);
    writeEntry(0, 0, LogType::Store, dataA, 1, false);
    writeEntry(0, 1, LogType::Store, dataA, 2, true);
    writeEntry(0, 2, LogType::TxEnd, 0, 0, true, /*cm=*/true);
    writeEntry(0, 3, LogType::Store, dataB, 7, true);

    auto report = mgr.recover(img, 1);
    // Entries 1-2: invalidated, not rolled back.
    EXPECT_EQ(report.entriesCommittedDuringRecovery, 2u);
    EXPECT_EQ(img.readPersisted(dataA), 50u);
    // Entry 3: uncommitted, rolled back.
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataB), 7u);
    // Head advanced past the committed region.
    EXPECT_EQ(img.readPersisted(layout.headPtrAddr(0)), 3u);
}

TEST_F(RecoveryFixture, StaleLapEntriesAreIgnored)
{
    // Head has advanced beyond entry seq 0; slot 0 still holds the
    // old entry content with valid=1 (invalidation raced the crash
    // after head moved). The seq guard must skip it.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    img.writeDurable(layout.headPtrAddr(0), 1);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 0u);
    EXPECT_EQ(img.readPersisted(dataA), 99u);
}

TEST_F(RecoveryFixture, WrappedSeqsResolveToCorrectSlots)
{
    // An entry whose monotonic seq exceeds the buffer capacity lives
    // in slot seq % capacity.
    std::uint64_t seq = layout.entriesPerThread + 5;
    img.writeDurable(dataA, 99);
    img.writeDurable(layout.headPtrAddr(0), seq - 1);
    writeEntry(0, seq, LogType::Store, dataA, 33, true);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataA), 33u);
}

TEST_F(RecoveryFixture, RecoveryIsIdempotent)
{
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    mgr.recover(img, 1);
    auto second = mgr.recover(img, 1);
    EXPECT_EQ(second.entriesRolledBack, 0u);
    EXPECT_EQ(img.readPersisted(dataA), 11u);
}

TEST_F(RecoveryFixture, SyncEntriesRollBackNoData)
{
    writeEntry(0, 0, LogType::Acquire, 42, 7, true);
    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.entriesRolledBack, 0u);
    EXPECT_EQ(report.threadsWithUncommittedWork, 1u);
}

TEST_F(RecoveryFixture, MultipleThreadsRecoverIndependently)
{
    img.writeDurable(dataA, 99);
    img.writeDurable(dataB, 98);
    writeEntry(0, 0, LogType::Store, dataA, 1, true);
    writeEntry(3, 0, LogType::Store, dataB, 2, true);
    auto report = mgr.recover(img, 8);
    EXPECT_EQ(report.entriesRolledBack, 2u);
    EXPECT_EQ(report.threadsWithUncommittedWork, 2u);
    EXPECT_EQ(img.readPersisted(dataA), 1u);
    EXPECT_EQ(img.readPersisted(dataB), 2u);
}

TEST_F(RecoveryFixture, PagedScanMatchesFaithfulScan)
{
    // The forked harness leans on RecoveryScan::Paged being
    // observationally identical to the per-slot Faithful scan.
    // Build a log exercising every gather-path branch — valid
    // rollbacks, invalidated entries, an interrupted commit, a stale
    // lap entry, a torn seq/slot mismatch, wrapped seqs, and slots
    // scattered widely enough that whole log pages are absent — and
    // demand identical reports and identical recovered images.
    img.writeDurable(dataA, 99);
    img.writeDurable(dataB, 98);
    writeEntry(0, 0, LogType::Store, dataA, 1, false);
    writeEntry(0, 1, LogType::Store, dataA, 2, true);
    writeEntry(0, 2, LogType::TxEnd, 0, 0, true, /*cm=*/true);
    writeEntry(0, 3, LogType::Store, dataB, 7, true);
    // Thread 1: stale lap — head already past the entry.
    writeEntry(1, 0, LogType::Store, dataA, 11, true);
    img.writeDurable(layout.headPtrAddr(1), 1);
    // Thread 2: torn entry — seq does not map back to its slot.
    writeEntry(2, 5, LogType::Store, dataB, 22, true);
    {
        Addr base = layout.entryAddr(2, 5);
        img.writeDurable(base + log_field::seq, 6);
    }
    // Thread 3: wrapped seq plus a far slot, leaving most of the
    // thread's log pages absent between the occupied ones.
    std::uint64_t wrapped = layout.entriesPerThread + 5;
    img.writeDurable(layout.headPtrAddr(3), wrapped - 1);
    writeEntry(3, wrapped, LogType::Store, dataA, 33, true);
    writeEntry(3, wrapped + 2000, LogType::Store, dataB, 44, true);

    RecoveryReport faithful = recoverWithBothScans(4);

    // The scans actually hit the interesting branches.
    EXPECT_GT(faithful.entriesRolledBack, 0u);
    EXPECT_GT(faithful.entriesCommittedDuringRecovery, 0u);
    EXPECT_GT(faithful.tornEntriesSkipped, 0u);
}

TEST_F(RecoveryFixture, ChecksumCatchesBitFlip)
{
    // A published entry with one flipped value bit: the publication
    // gates pass (seq intact), so only the checksum can tell this
    // apart from a good entry. The thread must be quarantined — the
    // corrupt undo value must never reach the heap.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    img.corruptWord(layout.entryAddr(0, 0) + log_field::value,
                    1ull << 17);

    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Degraded);
    EXPECT_EQ(report.corruptEntriesQuarantined, 1u);
    ASSERT_EQ(report.quarantinedThreads.size(), 1u);
    EXPECT_EQ(report.quarantinedThreads[0], 0u);
    EXPECT_EQ(report.entriesRolledBack, 0u);
    EXPECT_EQ(img.readPersisted(dataA), 99u);
}

TEST_F(RecoveryFixture, UncheckedRecoverySilentlyAppliesBitFlip)
{
    // Regression pin for the pre-checksum layout: with verification
    // off, the same flipped entry sails through and recovery writes
    // the corrupt undo value into the heap at verdict FULL — the
    // silent-corruption failure the checksum word exists to close.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    img.corruptWord(layout.entryAddr(0, 0) + log_field::value,
                    1ull << 17);

    RecoveryOptions noVerify;
    noVerify.verifyChecksums = false;
    auto report =
        mgr.recover(img, 1, RecoveryScan::Faithful, noVerify);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Full);
    EXPECT_EQ(report.corruptEntriesQuarantined, 0u);
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataA), 11u ^ (1ull << 17));
}

TEST_F(RecoveryFixture, PoisonedLogLineQuarantinesItsThread)
{
    // Thread 0's slot-0 entry line is unreadable; thread 1 is clean.
    // Thread 0 gets no rollback at all (its log cannot be trusted),
    // thread 1 recovers normally.
    img.writeDurable(dataA, 99);
    img.writeDurable(dataB, 98);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    writeEntry(1, 0, LogType::Store, dataB, 22, true);
    img.poisonLine(layout.entryAddr(0, 0));

    auto report = mgr.recover(img, 2);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Degraded);
    EXPECT_EQ(report.poisonedEntriesQuarantined, 1u);
    ASSERT_EQ(report.quarantinedThreads.size(), 1u);
    EXPECT_EQ(report.quarantinedThreads[0], 0u);
    EXPECT_EQ(report.entriesRolledBack, 1u);
    EXPECT_EQ(img.readPersisted(dataA), 99u); // fenced, not unwound
    EXPECT_EQ(img.readPersisted(dataB), 22u);
}

TEST_F(RecoveryFixture, PoisonedMetadataFailsRecovery)
{
    // Head pointers and the commit frontier have no redundancy: a
    // poisoned metadata line means no log can be interpreted at all.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    img.poisonLine(lineAlign(layout.headPtrAddr(0)));

    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Failed);
    EXPECT_EQ(report.entriesRolledBack, 0u);
}

TEST_F(RecoveryFixture, ResidualHeapPoisonIsQuarantinedByAddress)
{
    // A poisoned heap line outside the log area: rollback proceeds
    // normally elsewhere, but the line's words are handed back as
    // quarantined — poison is sticky, even where rollback rewrote a
    // word of the line.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    img.poisonLine(dataA);

    auto report = mgr.recover(img, 1);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Degraded);
    EXPECT_TRUE(report.quarantinedThreads.empty());
    EXPECT_EQ(report.entriesRolledBack, 1u);
    ASSERT_EQ(report.quarantinedAddrs.size(), wordsPerLine);
    EXPECT_EQ(report.quarantinedAddrs.front(), lineAlign(dataA));
    EXPECT_EQ(report.quarantinedAddrs.back(),
              lineAlign(dataA) + (wordsPerLine - 1) * wordBytes);
    // The rolled-back word itself was rewritten...
    EXPECT_EQ(img.readPersisted(dataA), 11u);
    // ...but the line stays marked unreadable for the caller.
    EXPECT_TRUE(img.isPoisoned(dataA));
}

TEST_F(RecoveryFixture, FreeSlotAnomalyIsQuarantinedWithoutChecksums)
{
    // A Free-typed slot with nonzero sibling words is structurally
    // impossible (no tear produces it — the type word is admitted
    // first), so it is quarantined even with verification off.
    img.writeDurable(dataA, 99);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    Addr base = layout.entryAddr(0, 1);
    img.writeDurable(base + log_field::value, 77); // type stays Free

    RecoveryOptions noVerify;
    noVerify.verifyChecksums = false;
    auto report =
        mgr.recover(img, 1, RecoveryScan::Faithful, noVerify);
    EXPECT_EQ(report.verdict, RecoveryVerdict::Degraded);
    EXPECT_EQ(report.corruptEntriesQuarantined, 1u);
    ASSERT_EQ(report.quarantinedThreads.size(), 1u);
    EXPECT_EQ(img.readPersisted(dataA), 99u);
}

TEST_F(RecoveryFixture, PagedScanMatchesFaithfulScanUnderMediaDamage)
{
    // The media-damage classification must also be scan-agnostic:
    // flip one published entry, plant a free-slot anomaly on a far
    // slot, and poison a heap line; both scans must agree on every
    // report field including the quarantine tallies.
    img.writeDurable(dataA, 99);
    img.writeDurable(dataB, 98);
    writeEntry(0, 0, LogType::Store, dataA, 11, true);
    writeEntry(1, 0, LogType::Store, dataB, 22, true);
    img.corruptWord(layout.entryAddr(0, 0) + log_field::addr,
                    1ull << 3);
    img.writeDurable(layout.entryAddr(1, 2000) + log_field::globalSeq,
                     5); // free-slot anomaly on an absent-page slot
    img.poisonLine(dataB);

    RecoveryReport faithful = recoverWithBothScans(2);

    EXPECT_EQ(faithful.verdict, RecoveryVerdict::Degraded);
    EXPECT_EQ(faithful.corruptEntriesQuarantined, 2u);
    ASSERT_EQ(faithful.quarantinedThreads.size(), 2u);
}

/**
 * A log of 100 entries per thread: thread 0's log ends 36 lines into
 * a page, so every other thread's log starts mid-page and the paged
 * scan's runs are clamped at a log's end as well as at a page's.
 */
class MidPageLogRecovery : public RecoveryFixture
{
  protected:
    MidPageLogRecovery()
    {
        layout.entriesPerThread = 100;
        mgr = RecoveryManager{layout};
    }

    /** @return the log page holding @p tid's slot @p slot. */
    Addr
    pageOf(CoreId tid, std::uint64_t slot) const
    {
        return WordStore::pageBase(layout.entryAddr(tid, slot));
    }
};

TEST_F(MidPageLogRecovery, PagedScanMatchesFaithfulScan)
{
    ASSERT_EQ(WordStore::slotOf(layout.logBase(1)),
              36 * wordsPerLine);
    constexpr Addr dataC = dataB + 0x40;
    constexpr Addr dataD = dataB + 0x80;
    img.writeDurable(dataA, 99);
    img.writeDurable(dataB, 98);
    img.writeDurable(dataC, 97);
    img.writeDurable(dataD, 96);

    // Thread 0: a committed region straddling the page boundary at
    // slot 64 (a redo entry replays, the rest is invalidated), then
    // an uncommitted store, and a store in the log's last slot, where
    // the paged run is clamped to the log's end.
    ASSERT_NE(pageOf(0, 63), pageOf(0, 64));
    writeEntry(0, 62, LogType::Store, dataA, 1, true);
    writeEntry(0, 63, LogType::RedoStore, dataC, 5, true);
    writeEntry(0, 64, LogType::TxEnd, 0, 0, true, /*cm=*/true);
    writeEntry(0, 65, LogType::Store, dataB, 7, true);
    writeEntry(0, 99, LogType::Store, dataD, 9, true);

    // Thread 1: wrapped seqs on both sides of the page boundary
    // between its slots 27 and 28, plus stale lap content below head.
    ASSERT_NE(pageOf(1, 27), pageOf(1, 28));
    std::uint64_t lap = layout.entriesPerThread;
    img.writeDurable(layout.headPtrAddr(1), lap + 27);
    writeEntry(1, 26, LogType::Store, dataA, 11, true);
    writeEntry(1, lap + 27, LogType::Store, dataB, 12, true);
    writeEntry(1, lap + 28, LogType::Store, dataC, 13, true);

    // Thread 2: a torn entry (its seq does not map back to its slot)
    // and a store in its last slot.
    writeEntry(2, 5, LogType::Store, dataD, 22, true);
    img.writeDurable(layout.entryAddr(2, 5) + log_field::seq, 6);
    writeEntry(2, 99, LogType::Store, dataA, 23, true);

    // Thread 3: one store past a whole absent page of its log.
    writeEntry(3, 90, LogType::Store, dataB, 31, true);
    ASSERT_EQ(pageOf(3, 20), pageOf(3, 83));
    ASSERT_EQ(img.persistedPage(pageOf(3, 20)), nullptr);

    RecoveryReport faithful = recoverWithBothScans(4);

    EXPECT_EQ(faithful.verdict, RecoveryVerdict::Full);
    EXPECT_EQ(faithful.entriesCommittedDuringRecovery, 3u);
    EXPECT_EQ(faithful.redoEntriesReplayed, 1u);
    EXPECT_EQ(faithful.entriesRolledBack, 6u);
    EXPECT_EQ(faithful.tornEntriesSkipped, 1u);
    EXPECT_EQ(faithful.threadsWithUncommittedWork, 4u);
}

} // namespace
} // namespace strand
