/**
 * @file
 * Unit tests for the functional memory image: architectural vs
 * persisted views, line snapshots, and crash semantics.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/memory_image.hh"

namespace strand
{
namespace
{

constexpr Addr pmLine = pmBase + 0x1000;

TEST(AddressMap, LineAndWordHelpers)
{
    EXPECT_EQ(lineAlign(pmBase + 100), pmBase + 64);
    EXPECT_EQ(wordAlign(pmBase + 100), pmBase + 96);
    EXPECT_EQ(wordIndex(pmBase + 100), 4u);
    EXPECT_TRUE(isPersistentAddr(pmBase));
    EXPECT_TRUE(isPersistentAddr(pmBase + pmSize - 1));
    EXPECT_FALSE(isPersistentAddr(pmBase - 1));
    EXPECT_FALSE(isPersistentAddr(dramBase));
}

TEST(MemoryImage, ArchWriteReadRoundTrip)
{
    MemoryImage img;
    EXPECT_FALSE(img.archContains(pmLine));
    EXPECT_EQ(img.readArch(pmLine), 0u);
    img.writeArch(pmLine, 0xdeadbeef);
    EXPECT_TRUE(img.archContains(pmLine));
    EXPECT_EQ(img.readArch(pmLine), 0xdeadbeefu);
    // Unaligned access resolves to the containing word.
    EXPECT_EQ(img.readArch(pmLine + 3), 0xdeadbeefu);
}

TEST(MemoryImage, SnapshotCapturesOnlyWrittenWords)
{
    MemoryImage img;
    img.writeArch(pmLine + 0, 11);
    img.writeArch(pmLine + 16, 22);
    LineData snap = img.snapshotLine(pmLine + 16);
    EXPECT_EQ(snap.lineAddr, pmLine);
    EXPECT_TRUE(snap.valid(0));
    EXPECT_FALSE(snap.valid(1));
    EXPECT_TRUE(snap.valid(2));
    EXPECT_EQ(snap.words[0], 11u);
    EXPECT_EQ(snap.words[2], 22u);
}

TEST(MemoryImage, PersistAppliesSnapshotNotLaterStores)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    LineData snap = img.snapshotLine(pmLine);
    // A later architectural store must not leak into the snapshot.
    img.writeArch(pmLine, 2);
    img.persistLine(snap);
    EXPECT_EQ(img.readPersisted(pmLine), 1u);
    EXPECT_EQ(img.readArch(pmLine), 2u);
}

TEST(MemoryImage, PersistedViewStartsEmpty)
{
    MemoryImage img;
    img.writeArch(pmLine, 42);
    EXPECT_FALSE(img.persistedContains(pmLine));
    EXPECT_EQ(img.readPersisted(pmLine), 0u);
}

TEST(MemoryImage, CrashDiscardsUnpersistedData)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    img.persistLine(img.snapshotLine(pmLine));
    img.writeArch(pmLine, 2);
    img.writeArch(pmLine + 8, 99); // never persisted

    img.crash();

    // Post-crash architectural state equals the persisted view.
    EXPECT_EQ(img.readArch(pmLine), 1u);
    EXPECT_FALSE(img.archContains(pmLine + 8));
}

TEST(MemoryImage, PersistToVolatileAddressPanics)
{
    MemoryImage img;
    img.writeArch(dramBase + 64, 5);
    LineData snap = img.snapshotLine(dramBase + 64);
    EXPECT_THROW(img.persistLine(snap), std::logic_error);
}

TEST(MemoryImage, EmptySnapshotPersistIsNoop)
{
    MemoryImage img;
    LineData empty;
    empty.lineAddr = dramBase; // invalid range but no valid words
    EXPECT_NO_THROW(img.persistLine(empty));
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST(MemoryImage, LineDataSetAndValidMask)
{
    LineData data;
    data.set(0, 7);
    data.set(7, 9);
    EXPECT_TRUE(data.valid(0));
    EXPECT_TRUE(data.valid(7));
    EXPECT_FALSE(data.valid(3));
    EXPECT_THROW(data.set(8, 1), std::logic_error);
}

TEST(MemoryImage, ClonePersistedTornRevertsUnadmittedWords)
{
    MemoryImage img;
    // Word 0 persists once before the torn admission; word 1 never
    // persisted before it.
    img.writeArch(pmLine + 0, 1);
    img.persistLine(img.snapshotLine(pmLine));
    img.writeArch(pmLine + 0, 2);
    img.writeArch(pmLine + 8, 3);
    img.persistLine(img.snapshotLine(pmLine)); // the torn admission
    ASSERT_EQ(img.lastAdmissionMask(), 0b11u);

    // Admit only word 1: word 0 reverts to its pre-admission value.
    MemoryImage tornHigh = img.clonePersistedTorn(0b10);
    EXPECT_EQ(tornHigh.readPersisted(pmLine + 0), 1u);
    EXPECT_EQ(tornHigh.readPersisted(pmLine + 8), 3u);

    // Admit only word 0: word 1 had no pre-image, so it vanishes
    // from both the persisted and the post-crash architectural view.
    MemoryImage tornLow = img.clonePersistedTorn(0b01);
    EXPECT_EQ(tornLow.readPersisted(pmLine + 0), 2u);
    EXPECT_FALSE(tornLow.persistedContains(pmLine + 8));
    EXPECT_FALSE(tornLow.archContains(pmLine + 8));

    // A full mask admits everything; the source image is untouched.
    MemoryImage full = img.clonePersistedTorn(0xff);
    EXPECT_EQ(full.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(full.readPersisted(pmLine + 8), 3u);
    EXPECT_EQ(img.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(img.readPersisted(pmLine + 8), 3u);
}

TEST(MemoryImage, ClonePersistedTornWithoutAdmissionIsPlainClone)
{
    MemoryImage img;
    img.writeDurable(pmLine, 7);
    MemoryImage torn = img.clonePersistedTorn(0);
    EXPECT_EQ(torn.readPersisted(pmLine), 7u);
    EXPECT_EQ(torn.readArch(pmLine), 7u);
}

TEST(WordStore, SparseWritesAcrossPageBoundaries)
{
    // Words straddling a 4 KiB page boundary land in different pages
    // of the sparse store; neighbors within the same pages stay
    // unoccupied and read as zero.
    MemoryImage img;
    const Addr boundary = pmBase + WordStore::pageBytes;
    img.writeArch(boundary - wordBytes, 0x11);
    img.writeArch(boundary, 0x22);
    EXPECT_EQ(img.readArch(boundary - wordBytes), 0x11u);
    EXPECT_EQ(img.readArch(boundary), 0x22u);
    EXPECT_EQ(img.archWords(), 2u);
    EXPECT_FALSE(img.archContains(boundary - 2 * wordBytes));
    EXPECT_FALSE(img.archContains(boundary + wordBytes));
    EXPECT_EQ(img.readArch(boundary + wordBytes), 0u);

    // Widely scattered pages: one word each, no cross-talk.
    for (unsigned i = 0; i < 64; ++i)
        img.writeArch(pmBase + i * 16 * WordStore::pageBytes, i + 1);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(
            img.readArch(pmBase + i * 16 * WordStore::pageBytes),
            i + 1);
    }
    EXPECT_EQ(img.archWords(), 66u);
}

TEST(WordStore, SnapshotAndPersistRoundTripNearPageEdges)
{
    // Cache lines never span pages (pageBytes is a multiple of
    // lineBytes), so the one-page-lookup fast path in snapshotLine /
    // persistLine must behave identically for the first and last
    // line of a page.
    MemoryImage img;
    const Addr lastLine =
        pmBase + WordStore::pageBytes - lineBytes;
    const Addr firstLine = pmBase + WordStore::pageBytes;
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        img.writeArch(lastLine + w * wordBytes, 100 + w);
        img.writeArch(firstLine + w * wordBytes, 200 + w);
    }
    img.persistLine(img.snapshotLine(lastLine));
    img.persistLine(img.snapshotLine(firstLine));
    for (unsigned w = 0; w < wordsPerLine; ++w) {
        EXPECT_EQ(img.readPersisted(lastLine + w * wordBytes),
                  100u + w);
        EXPECT_EQ(img.readPersisted(firstLine + w * wordBytes),
                  200u + w);
    }
    EXPECT_EQ(img.persistedWords(), 2u * wordsPerLine);
}

TEST(WordStore, ForEachEnumeratesEveryOccupiedWordOnce)
{
    MemoryImage img;
    // Two partial lines in different pages plus one full line.
    img.writeDurable(pmLine, 1);
    img.writeDurable(pmLine + 24, 2);
    img.writeDurable(pmLine + 4 * WordStore::pageBytes, 3);
    std::map<Addr, std::uint64_t> seen;
    img.forEachPersisted([&seen](Addr addr, std::uint64_t value) {
        EXPECT_TRUE(seen.emplace(addr, value).second);
    });
    std::map<Addr, std::uint64_t> expected{
        {pmLine, 1},
        {pmLine + 24, 2},
        {pmLine + 4 * WordStore::pageBytes, 3},
    };
    EXPECT_EQ(seen, expected);
}

TEST(WordStore, TornCloneMatchesWordMapSemanticsOnPagedStore)
{
    // The paged store must reproduce the word-map semantics
    // ClonePersistedTornRevertsUnadmittedWords pins down, here with
    // the torn line sitting at the very end of a page and the
    // pre-image of one word living only in an earlier admission.
    MemoryImage img;
    const Addr line = pmBase + 7 * WordStore::pageBytes - lineBytes;
    img.writeArch(line + 0, 1);
    img.persistLine(img.snapshotLine(line));
    img.writeArch(line + 0, 2);
    img.writeArch(line + 8, 3);
    img.persistLine(img.snapshotLine(line));
    ASSERT_EQ(img.lastAdmissionMask(), 0b11u);

    MemoryImage torn = img.clonePersistedTorn(0b10);
    EXPECT_EQ(torn.readPersisted(line + 0), 1u);
    EXPECT_EQ(torn.readPersisted(line + 8), 3u);

    // Reverting a word with no pre-image erases it from the page;
    // the slot reads as zero and reports unoccupied.
    MemoryImage tornLow = img.clonePersistedTorn(0b01);
    EXPECT_EQ(tornLow.readPersisted(line + 0), 2u);
    EXPECT_FALSE(tornLow.persistedContains(line + 8));
    EXPECT_EQ(tornLow.readPersisted(line + 8), 0u);
    EXPECT_EQ(tornLow.persistedWords(), 1u);

    // Clones deep-copy pages: writing the clone leaves the source
    // image untouched.
    torn.writeDurable(line + 16, 77);
    EXPECT_FALSE(img.persistedContains(line + 16));
}

TEST(WordStore, TornMaskSpanningPageBoundaryRevertsBothSides)
{
    // Admissions on the last line of one page and the first line of
    // the next: the torn-word revert walks prevValid/prevWords for a
    // line whose page neighbours hold earlier admissions. The
    // boundary must not leak reverts into the adjacent page, and the
    // erase path must vacate the first/last slot of a page cleanly.
    MemoryImage img;
    const Addr boundary = pmBase + 3 * WordStore::pageBytes;
    const Addr lastLine = boundary - lineBytes;
    const Addr firstLine = boundary;

    // Earlier admission fills the last line of the low page.
    for (unsigned w = 0; w < wordsPerLine; ++w)
        img.writeArch(lastLine + w * wordBytes, 100 + w);
    img.persistLine(img.snapshotLine(lastLine));

    // The torn admission sits on the first line of the high page:
    // word 0 has a pre-image from an earlier admission, word 7 does
    // not.
    img.writeArch(firstLine + 0, 1);
    img.persistLine(img.snapshotLine(firstLine));
    img.writeArch(firstLine + 0, 2);
    img.writeArch(firstLine + 7 * wordBytes, 3);
    img.persistLine(img.snapshotLine(firstLine));
    ASSERT_EQ(img.lastAdmissionMask(), 0b1000'0001u);

    // Admit nothing of the final line: word 0 reverts to its
    // pre-image, word 7 is erased from the high page's first slots.
    MemoryImage torn = img.clonePersistedTorn(0);
    EXPECT_EQ(torn.readPersisted(firstLine + 0), 1u);
    EXPECT_FALSE(torn.persistedContains(firstLine + 7 * wordBytes));
    // The low page — the other side of the boundary — is untouched.
    for (unsigned w = 0; w < wordsPerLine; ++w)
        EXPECT_EQ(torn.readPersisted(lastLine + w * wordBytes),
                  100u + w);
    EXPECT_EQ(torn.persistedWords(), wordsPerLine + 1u);

    // Mirror image: tear an admission on the LAST line of the low
    // page with the high page already populated.
    MemoryImage mirror;
    mirror.writeArch(firstLine, 55);
    mirror.persistLine(mirror.snapshotLine(firstLine));
    mirror.writeArch(lastLine + 7 * wordBytes, 9);
    mirror.persistLine(mirror.snapshotLine(lastLine));
    MemoryImage mirrorTorn = mirror.clonePersistedTorn(0);
    EXPECT_FALSE(
        mirrorTorn.persistedContains(lastLine + 7 * wordBytes));
    EXPECT_EQ(mirrorTorn.readPersisted(firstLine), 55u);
    EXPECT_EQ(mirrorTorn.persistedWords(), 1u);
}

TEST(MemoryImage, UndoAdmissionRestoresPreAdmissionImage)
{
    // The forked harness rewinds a completed run's image by undoing
    // admissions newest-first. One step of that: fork the image
    // mid-admission (pre-image recorded, line admitted), undo, and
    // land exactly on the pre-admission persisted state.
    MemoryImage img;
    img.writeArch(pmLine + 0, 1);
    img.persistLine(img.snapshotLine(pmLine));
    MemoryImage before = img; // fork: pre-admission state

    img.writeArch(pmLine + 0, 2);
    img.writeArch(pmLine + 8, 3);
    img.persistLine(img.snapshotLine(pmLine)); // the admission
    MemoryImage::AdmissionUndo undo = img.lastAdmissionUndo();

    MemoryImage rewound = img; // fork: post-admission state
    rewound.undoAdmission(undo);
    EXPECT_EQ(rewound.readPersisted(pmLine + 0), 1u);
    EXPECT_FALSE(rewound.persistedContains(pmLine + 8));
    EXPECT_EQ(rewound.persistedWords(), before.persistedWords());
    // The source fork is untouched by the rewind.
    EXPECT_EQ(img.readPersisted(pmLine + 0), 2u);
    EXPECT_EQ(img.readPersisted(pmLine + 8), 3u);
}

TEST(MemoryImage, UndoAdmissionsNewestFirstAcrossPages)
{
    // Three admissions on two pages, undone newest-first, must strip
    // the image back to empty — including vacating a page whose only
    // occupant came from an undone admission.
    MemoryImage img;
    const Addr lineA = pmBase + WordStore::pageBytes - lineBytes;
    const Addr lineB = pmBase + WordStore::pageBytes;
    std::vector<MemoryImage::AdmissionUndo> undos;

    img.writeArch(lineA, 1);
    img.persistLine(img.snapshotLine(lineA));
    undos.push_back(img.lastAdmissionUndo());
    img.writeArch(lineB, 2);
    img.persistLine(img.snapshotLine(lineB));
    undos.push_back(img.lastAdmissionUndo());
    img.writeArch(lineA, 3);
    img.persistLine(img.snapshotLine(lineA));
    undos.push_back(img.lastAdmissionUndo());

    img.undoAdmission(undos[2]);
    EXPECT_EQ(img.readPersisted(lineA), 1u);
    img.undoAdmission(undos[1]);
    EXPECT_FALSE(img.persistedContains(lineB));
    img.undoAdmission(undos[0]);
    EXPECT_FALSE(img.persistedContains(lineA));
    EXPECT_EQ(img.persistedWords(), 0u);
}

TEST(MemoryImage, SetLastAdmissionRebindsTornCloneAfterRewind)
{
    // After rewinding past an admission, the newest remaining undo
    // must become the last admission again, so torn clones tear the
    // RIGHT line — the same line a run crashed at that point would
    // have torn. setLastAdmission() rebinds it alone; the forked
    // harness restores the whole admission ring instead.
    MemoryImage img;
    img.writeArch(pmLine + 0, 1);
    img.writeArch(pmLine + 8, 2);
    img.persistLine(img.snapshotLine(pmLine));
    MemoryImage::AdmissionUndo first = img.lastAdmissionUndo();
    MemoryImage atFirst = img; // oracle: image right after admission 1

    img.writeArch(pmLine + 64, 9);
    img.persistLine(img.snapshotLine(pmLine + 64));

    MemoryImage rewound = img;
    rewound.undoAdmission(rewound.lastAdmissionUndo());
    MemoryImage ringRewound = rewound;
    rewound.setLastAdmission(first);
    ringRewound.setRecentAdmissions({first});

    MemoryImage tornOracle = atFirst.clonePersistedTorn(0b01);
    for (const MemoryImage *image : {&rewound, &ringRewound}) {
        EXPECT_EQ(image->lastAdmissionMask(),
                  atFirst.lastAdmissionMask());
        MemoryImage torn = image->clonePersistedTorn(0b01);
        EXPECT_EQ(torn.readPersisted(pmLine + 0),
                  tornOracle.readPersisted(pmLine + 0));
        EXPECT_EQ(torn.persistedContains(pmLine + 8),
                  tornOracle.persistedContains(pmLine + 8));
        EXPECT_EQ(torn.persistedWords(), tornOracle.persistedWords());
    }
}

TEST(MemoryImage, LastAdmissionIsTheNewestRingEntry)
{
    // The image keeps each admission once: the last admission is the
    // newest entry of the admission ring, empty-mask admissions
    // included, and an image that admitted nothing has none.
    MemoryImage img;
    EXPECT_EQ(img.lastAdmissionMask(), 0u);
    EXPECT_TRUE(img.recentAdmissions().empty());

    img.writeArch(pmLine + 8, 5);
    img.persistLine(img.snapshotLine(pmLine));
    EXPECT_EQ(img.lastAdmissionMask(), 0b10u);
    EXPECT_EQ(&img.lastAdmissionUndo(), &img.recentAdmissions().back());

    LineData empty;
    empty.lineAddr = pmLine + 64;
    img.persistLine(empty);
    ASSERT_EQ(img.recentAdmissions().size(), 2u);
    EXPECT_EQ(img.lastAdmissionUndo().lineAddr, pmLine + 64);
    EXPECT_EQ(img.lastAdmissionMask(), 0u);

    img.setRecentAdmissions({});
    EXPECT_EQ(img.lastAdmissionMask(), 0u);
    EXPECT_EQ(img.clonePersistedTorn(0).readPersisted(pmLine + 8), 5u);
}

TEST(MemoryImage, AdmissionRingKeepsTheNewestAdmissions)
{
    // The ring models the ADR buffer: partial-drain media faults can
    // only strike what was still in flight, so the image retains the
    // last admissionRingDepth undos, oldest evicted first.
    MemoryImage img;
    const unsigned depth = MemoryImage::admissionRingDepth;
    for (unsigned i = 0; i < depth + 4; ++i) {
        img.writeArch(pmLine + i * lineBytes, i + 1);
        img.persistLine(img.snapshotLine(pmLine + i * lineBytes));
    }
    const auto &ring = img.recentAdmissions();
    ASSERT_EQ(ring.size(), depth);
    EXPECT_EQ(ring.front().lineAddr, pmLine + 4 * lineBytes);
    EXPECT_EQ(ring.back().lineAddr,
              pmLine + (depth + 3) * lineBytes);

    // Undoing ring entries newest-first (the partial-drain model)
    // reconstructs earlier admission-boundary images exactly.
    MemoryImage snapshot = img;
    unsigned dropped = 0;
    while (dropped < 2) {
        snapshot.undoAdmission(ring[ring.size() - 1 - dropped]);
        ++dropped;
    }
    EXPECT_FALSE(
        snapshot.persistedContains(pmLine + (depth + 3) * lineBytes));
    EXPECT_FALSE(
        snapshot.persistedContains(pmLine + (depth + 2) * lineBytes));
    EXPECT_EQ(snapshot.readPersisted(pmLine + (depth + 1) * lineBytes),
              depth + 2);
}

TEST(MemoryImage, PoisonScramblesAndSticksThroughPartialRewrites)
{
    MemoryImage img;
    img.writeDurable(pmLine, 7);
    img.writeDurable(pmLine + 8, 9);
    img.poisonLine(pmLine + 8); // any address in the line
    EXPECT_TRUE(img.isPoisoned(pmLine));
    EXPECT_TRUE(img.isPoisoned(pmLine + 56));
    EXPECT_FALSE(img.isPoisoned(pmLine + lineBytes));
    // Occupied words are scrambled so code that trusts them fails
    // loudly instead of reading back clean values.
    EXPECT_NE(img.readPersisted(pmLine), 7u);
    EXPECT_NE(img.readPersisted(pmLine + 8), 9u);
    ASSERT_EQ(img.poisonedLines().size(), 1u);
    EXPECT_EQ(*img.poisonedLines().begin(), pmLine);

    // Poison is sticky: a single-word durable rewrite repairs that
    // word's content but not the line's ECC block, so the marker
    // survives and recovery's residual pass still fences the line.
    img.writeDurable(pmLine, 7);
    EXPECT_EQ(img.readPersisted(pmLine), 7u);
    EXPECT_TRUE(img.isPoisoned(pmLine));
    EXPECT_NE(img.readPersisted(pmLine + 8), 9u);
}

TEST(MemoryImage, CorruptWordFlipsPersistedBits)
{
    MemoryImage img;
    img.writeDurable(pmLine, 0xff);
    img.corruptWord(pmLine, 1ull << 3);
    EXPECT_EQ(img.readPersisted(pmLine), 0xffull ^ (1ull << 3));
    // Flips are silent: no poison marker, nothing for the residual
    // pass to fence — exactly the class only checksums can catch.
    EXPECT_FALSE(img.isPoisoned(pmLine));
}

TEST(MemoryImage, OverlappingPersistsLastWriterWins)
{
    MemoryImage img;
    img.writeArch(pmLine, 1);
    LineData first = img.snapshotLine(pmLine);
    img.writeArch(pmLine, 2);
    LineData second = img.snapshotLine(pmLine);
    img.persistLine(first);
    img.persistLine(second);
    EXPECT_EQ(img.readPersisted(pmLine), 2u);
    // Reversed order models a strong-persist-atomicity violation; the
    // image records whatever order the timing model produced.
    img.persistLine(first);
    EXPECT_EQ(img.readPersisted(pmLine), 1u);
}

} // namespace
} // namespace strand
