/**
 * @file
 * Unit tests for the media-fault primitives on a hand-built persisted
 * image: which words a bit flip may target, and what recovery makes
 * of every flip it can produce.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "crash/media_faults.hh"
#include "runtime/recovery.hh"

namespace strand
{
namespace
{

TEST(MediaFaults, BitFlipsHitOnlyChecksummedEntryWords)
{
    // One published, checksummed Store entry admitted as a whole line,
    // so the admission ring holds exactly that line.
    LogLayout layout;
    constexpr Addr data = pmBase + 0x2000000;
    const Addr entry = layout.entryAddr(0, 0);
    const std::uint64_t type = static_cast<std::uint64_t>(LogType::Store);
    MemoryImage published;
    published.writeDurable(data, 99);
    LineData line;
    line.lineAddr = entry;
    line.set(log_field::type / wordBytes, type);
    line.set(log_field::addr / wordBytes, data);
    line.set(log_field::value / wordBytes, 11);
    line.set(log_field::checksum / wordBytes,
             entryChecksum(type, data, 11, 0, 0));
    line.set(log_field::valid / wordBytes, 1);
    line.set(log_field::commitMarker / wordBytes, 0);
    line.set(log_field::globalSeq / wordBytes, 0);
    line.set(log_field::seq / wordBytes, 0);
    published.persistLine(line);
    const AdmissionRing ring = published.recentAdmissions();
    ASSERT_EQ(ring.size(), 1u);

    const std::set<Addr> flippable = {
        log_field::type, log_field::addr, log_field::value,
        log_field::checksum, log_field::globalSeq};
    std::set<Addr> hit;
    RecoveryManager recovery(layout);
    for (std::uint64_t entropy = 0; entropy < 64; ++entropy) {
        MemoryImage img = published;
        ASSERT_TRUE(mediaFlipBit(img, ring, 0, layout, entropy));

        unsigned changedWords = 0;
        for (Addr field = 0; field < lineBytes; field += wordBytes) {
            std::uint64_t diff = img.readPersisted(entry + field) ^
                                 published.readPersisted(entry + field);
            if (!diff)
                continue;
            ++changedWords;
            hit.insert(field);
            EXPECT_EQ(std::popcount(diff), 1) << "entropy " << entropy;
            EXPECT_TRUE(flippable.count(field))
                << "entropy " << entropy << " flipped word at offset "
                << field;
        }
        EXPECT_EQ(changedWords, 1u) << "entropy " << entropy;

        // Every reachable flip is caught: the one entry is quarantined
        // and its undo value never reaches the heap.
        RecoveryReport report = recovery.recover(img, 1);
        EXPECT_EQ(report.verdict, RecoveryVerdict::Degraded)
            << "entropy " << entropy;
        EXPECT_EQ(report.corruptEntriesQuarantined, 1u)
            << "entropy " << entropy;
        EXPECT_EQ(report.quarantinedThreads, std::vector<CoreId>{0})
            << "entropy " << entropy;
        EXPECT_EQ(report.entriesRolledBack, 0u) << "entropy " << entropy;
        EXPECT_EQ(img.readPersisted(data), 99u) << "entropy " << entropy;
    }
    // 64 entropies reach every flippable word.
    EXPECT_EQ(hit, flippable);
}

} // namespace
} // namespace strand
