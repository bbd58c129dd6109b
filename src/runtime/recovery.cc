#include "runtime/recovery.hh"

#include <algorithm>

namespace strand
{

RecoveryManager::EntryView
RecoveryManager::decodeEntry(const std::uint64_t *words, CoreId tid,
                             std::uint64_t slot)
{
    auto field = [words](Addr offset) {
        return words[offset / wordBytes];
    };
    EntryView view;
    view.seq = field(log_field::seq);
    view.type = static_cast<LogType>(field(log_field::type));
    view.addr = field(log_field::addr);
    view.value = field(log_field::value);
    view.checksum = field(log_field::checksum);
    view.valid = field(log_field::valid) != 0;
    view.commitMarker = field(log_field::commitMarker) != 0;
    view.globalSeq = field(log_field::globalSeq);
    view.slot = slot;
    view.tid = tid;
    // A Free type with any nonzero sibling word is impossible both
    // for fresh slots (all-zero background) and for tears (the type
    // word is admitted first, and a used slot's type never returns
    // to Free — invalidation clears only the valid word).
    view.freeAnomaly =
        view.type == LogType::Free &&
        ((view.seq | view.addr | view.value | view.checksum |
          view.globalSeq) != 0 ||
         view.valid || view.commitMarker);
    return view;
}

RecoveryReport
RecoveryManager::recover(MemoryImage &image, unsigned numThreads,
                         RecoveryScan scan,
                         const RecoveryOptions &options) const
{
    RecoveryReport report;
    std::vector<EntryView> allLive;

    // Invalidate an entry in the slot it was read from, so recovery
    // is idempotent.
    auto invalidate = [&](const EntryView &entry) {
        image.writeDurable(
            layout.entryAddr(entry.tid, entry.slot) + log_field::valid,
            0);
    };

    // Media-fault pre-pass: classify every poisoned line before any
    // interpretation. The metadata area is unrecoverable (head
    // pointers and the commit frontier have no redundancy), poisoned
    // log lines quarantine their owning thread, and poisoned heap
    // lines are fenced off after rollback.
    std::vector<bool> threadQuarantined(numThreads, false);
    for (Addr line : image.poisonedLines()) {
        if (layout.isMetadataLine(line)) {
            report.verdict = RecoveryVerdict::Failed;
            return report;
        }
        if (layout.isLogLine(line)) {
            ++report.poisonedEntriesQuarantined;
            CoreId tid = layout.logThreadOf(line);
            if (tid < numThreads)
                threadQuarantined[tid] = true;
        }
    }

    std::uint64_t frontier =
        image.readPersisted(layout.frontierAddr());

    for (CoreId tid = 0; tid < numThreads; ++tid) {
        if (threadQuarantined[tid]) {
            report.quarantinedThreads.push_back(tid);
            continue;
        }
        std::uint64_t head =
            image.readPersisted(layout.headPtrAddr(tid));

        // Gather live entries: one pass over the whole buffer.
        std::vector<EntryView> live;
        std::uint64_t committedUpTo = 0; // seq+1 of CM entry, if any
        bool corrupt = false;
        auto consider = [&](const EntryView &entry) {
            // Structurally impossible Free slot: media corruption
            // regardless of checksum verification (no tear produces
            // it — the type word is admitted first).
            if (entry.freeAnomaly) {
                ++report.corruptEntriesQuarantined;
                corrupt = true;
                return;
            }
            // Stale lap content: ignore.
            if (entry.seq < head)
                return;
            // A live entry's monotonic seq must map back to the slot
            // it occupies; the writer guarantees that, so a mismatch
            // means the entry line itself tore at the crash — it was
            // only partially admitted to the ADR domain. The entry
            // never fully persisted, so drop it: on recoverable
            // designs the update it guards cannot be durable yet,
            // and on NON-ATOMIC the orphaned update is exactly what
            // the oracle must catch.
            if (entry.seq % layout.entriesPerThread != entry.slot) {
                ++report.tornEntriesSkipped;
                return;
            }
            // Publication gates passed: the entry fully persisted,
            // so a checksum mismatch is media corruption, not an
            // interrupted write. Quarantine the thread — a corrupt
            // undo value must not be rolled back into the heap.
            if (options.verifyChecksums &&
                entry.checksum !=
                    entryChecksum(
                        static_cast<std::uint64_t>(entry.type),
                        entry.addr, entry.value, entry.globalSeq,
                        entry.seq)) {
                ++report.corruptEntriesQuarantined;
                corrupt = true;
                return;
            }
            if (entry.commitMarker && entry.seq + 1 > committedUpTo)
                committedUpTo = entry.seq + 1;
            if (entry.valid)
                live.push_back(entry);
        };

        // Entry lines never span pages (pageBytes % lineBytes == 0),
        // so one page lookup can serve a run of consecutive slots:
        // one slot for the Faithful scan, the rest of the page for
        // the Paged one. An absent page is the all-zero background,
        // where every slot reads as a never-used Free entry.
        std::uint64_t slot = 0;
        while (slot < layout.entriesPerThread) {
            Addr lineAddr = layout.entryAddr(tid, slot);
            std::uint64_t run = 1;
            if (scan == RecoveryScan::Paged) {
                Addr pageOffset = lineAddr & (WordStore::pageBytes - 1);
                run = std::min<std::uint64_t>(
                    (WordStore::pageBytes - pageOffset) / lineBytes,
                    layout.entriesPerThread - slot);
            }
            const WordStore::Page *page = image.persistedPage(lineAddr);
            if (!page) {
                slot += run;
                continue;
            }
            const std::uint64_t *words =
                &page->words[WordStore::slotOf(lineAddr)];
            for (std::uint64_t end = slot + run; slot < end;
                 ++slot, words += wordsPerLine) {
                EntryView entry = decodeEntry(words, tid, slot);
                if (entry.type != LogType::Free || entry.freeAnomaly)
                    consider(entry);
            }
        }

        // Detected damage fences off the whole thread: its log
        // cannot be trusted, so neither commit completion nor
        // rollback runs. The thread's region survives as the crash
        // left it — degraded, but never silently wrong.
        if (corrupt) {
            report.quarantinedThreads.push_back(tid);
            continue;
        }

        // Seqs of gate-passing entries map to distinct slots, so this
        // order is total; every erase below keeps it.
        std::sort(live.begin(), live.end(),
                  [](const EntryView &a, const EntryView &b) {
                      return a.seq < b.seq;
                  });

        // Step 2 (Figure 6(b)): a crash during commit left a marker;
        // everything up to it is committed — finish invalidating.
        // Undo entries are simply dropped; redo entries of committed
        // regions are REPLAYED forward (their in-place updates may
        // not have persisted yet).
        if (committedUpTo > head) {
            for (auto it = live.begin(); it != live.end();) {
                if (it->seq < committedUpTo) {
                    if (it->type == LogType::RedoStore) {
                        image.writeDurable(it->addr, it->value);
                        ++report.redoEntriesReplayed;
                        report.replays.emplace_back(it->addr,
                                                    it->value);
                    }
                    invalidate(*it);
                    ++report.entriesCommittedDuringRecovery;
                    it = live.erase(it);
                } else {
                    ++it;
                }
            }
            head = committedUpTo;
            image.writeDurable(layout.headPtrAddr(tid), head);
        }

        // Uncommitted redo entries carry no obligation: their
        // in-place updates were held back until the commit marker,
        // so dropping them is the correct outcome.
        for (auto it = live.begin(); it != live.end();) {
            if (it->type == LogType::RedoStore) {
                invalidate(*it);
                it = live.erase(it);
            } else {
                ++it;
            }
        }

        // Frontier filtering (SFR/ATLAS batched commits): regions
        // whose end entry is below the pruner's durable commit
        // frontier are committed; their surviving entries are dead.
        std::vector<EntryView> uncommitted;
        std::vector<EntryView> pending;
        for (const EntryView &entry : live) {
            if (entry.type == LogType::Release ||
                entry.type == LogType::TxEnd) {
                if (entry.globalSeq < frontier) {
                    pending.clear(); // committed region
                } else {
                    uncommitted.insert(uncommitted.end(),
                                       pending.begin(), pending.end());
                    pending.clear();
                }
                continue;
            }
            pending.push_back(entry);
        }
        // Entries after the last region end: crashed mid-region.
        uncommitted.insert(uncommitted.end(), pending.begin(),
                           pending.end());

        if (uncommitted.empty())
            continue;
        ++report.threadsWithUncommittedWork;
        allLive.insert(allLive.end(), uncommitted.begin(),
                       uncommitted.end());
    }

    // Step 3: roll back store entries across all threads in reverse
    // global creation order; conflicting updates from different
    // threads unwind newest-first, leaving the oldest displaced
    // value in place.
    std::sort(allLive.begin(), allLive.end(),
              [](const EntryView &a, const EntryView &b) {
                  if (a.globalSeq != b.globalSeq)
                      return a.globalSeq > b.globalSeq;
                  return a.seq > b.seq;
              });
    for (const EntryView &entry : allLive) {
        if (entry.type == LogType::Store) {
            image.writeDurable(entry.addr, entry.value);
            ++report.entriesRolledBack;
            report.rollbacks.emplace_back(entry.addr, entry.value);
        }
        invalidate(entry);
    }

    // Poisoned heap lines stay unreadable — a partial rollback
    // rewrite repairs single words but not the line's ECC block —
    // so hand their word addresses to the caller as quarantined.
    for (Addr line : image.poisonedLines()) {
        if (!layout.isHeapLine(line))
            continue;
        for (unsigned i = 0; i < wordsPerLine; ++i)
            report.quarantinedAddrs.push_back(line + i * wordBytes);
    }

    report.verdict = (report.corruptEntriesQuarantined ||
                      report.poisonedEntriesQuarantined ||
                      !report.quarantinedThreads.empty() ||
                      !report.quarantinedAddrs.empty())
                         ? RecoveryVerdict::Degraded
                         : RecoveryVerdict::Full;
    return report;
}

} // namespace strand
