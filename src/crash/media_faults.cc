#include "crash/media_faults.hh"

#include <algorithm>

#include "sim/random.hh"

namespace strand
{

namespace
{

/**
 * Candidate lines for content faults: the surviving (not dropped)
 * ring admissions that actually wrote something, deduplicated in
 * ring order. Metadata lines are excluded outright; @p entryOnly
 * further restricts to log-entry lines (bit flips), otherwise
 * log-entry and heap lines both qualify (poison).
 */
std::vector<Addr>
candidateLines(const AdmissionRing &ring, unsigned dropped,
               const LogLayout &layout, bool entryOnly)
{
    std::vector<Addr> lines;
    std::size_t live =
        ring.size() > dropped ? ring.size() - dropped : 0;
    for (std::size_t i = 0; i < live; ++i) {
        const MemoryImage::AdmissionUndo &undo = ring[i];
        if (!undo.writtenMask)
            continue;
        if (layout.isMetadataLine(undo.lineAddr))
            continue;
        if (entryOnly && !layout.isLogLine(undo.lineAddr))
            continue;
        if (!entryOnly && !layout.isLogLine(undo.lineAddr) &&
            !layout.isHeapLine(undo.lineAddr)) {
            continue;
        }
        if (std::find(lines.begin(), lines.end(), undo.lineAddr) ==
            lines.end()) {
            lines.push_back(undo.lineAddr);
        }
    }
    return lines;
}

} // namespace

bool
mediaDropNewest(MemoryImage &snapshot, const AdmissionRing &ring,
                unsigned &dropped)
{
    if (dropped >= ring.size())
        return false;
    const MemoryImage::AdmissionUndo &undo =
        ring[ring.size() - 1 - dropped];
    snapshot.undoAdmission(undo);
    ++dropped;
    return true;
}

bool
mediaFlipBit(MemoryImage &snapshot, const AdmissionRing &ring,
             unsigned dropped, const LogLayout &layout,
             std::uint64_t entropy)
{
    std::vector<Addr> lines =
        candidateLines(ring, dropped, layout, /*entryOnly=*/true);
    if (lines.empty())
        return false;
    // Flippable words of an entry line: type, addr, value, checksum,
    // globalSeq. seq aliases a tear; valid/commitMarker are the
    // uncheckummable mutable commit words (see media_faults.hh).
    static constexpr unsigned flipWords[] = {0, 1, 2, 3, 6};
    Addr line = lines[mixSeed(entropy, 1) % lines.size()];
    unsigned word = flipWords[mixSeed(entropy, 2) % 5];
    unsigned bit = static_cast<unsigned>(mixSeed(entropy, 3) % 64);
    snapshot.corruptWord(line + word * wordBytes,
                         std::uint64_t{1} << bit);
    return true;
}

bool
mediaPoisonLine(MemoryImage &snapshot, const AdmissionRing &ring,
                unsigned dropped, const LogLayout &layout,
                std::uint64_t entropy)
{
    std::vector<Addr> lines =
        candidateLines(ring, dropped, layout, /*entryOnly=*/false);
    if (lines.empty())
        return false;
    snapshot.poisonLine(lines[mixSeed(entropy, 1) % lines.size()]);
    return true;
}

MediaFaultOutcome
applyMediaFaults(MemoryImage &snapshot, const AdmissionRing &ring,
                 const MediaFaultConfig &config,
                 const LogLayout &layout, Tick when)
{
    MediaFaultOutcome outcome;
    Rng rng(mixSeed(mixSeed(config.seed, 0xfa017), when));
    if (config.dropAdmissions) {
        unsigned n = rng.nextRange(0, config.dropAdmissions);
        for (unsigned i = 0; i < n; ++i) {
            if (mediaDropNewest(snapshot, ring, outcome.dropped))
                continue;
            break;
        }
    }
    if (config.bitFlips) {
        unsigned n = rng.nextRange(0, config.bitFlips);
        for (unsigned i = 0; i < n; ++i) {
            if (mediaFlipBit(snapshot, ring, outcome.dropped, layout,
                             rng.next())) {
                ++outcome.flipped;
            }
        }
    }
    if (config.poisonLines) {
        unsigned n = rng.nextRange(0, config.poisonLines);
        for (unsigned i = 0; i < n; ++i) {
            if (mediaPoisonLine(snapshot, ring, outcome.dropped,
                                layout, rng.next())) {
                ++outcome.poisoned;
            }
        }
    }
    return outcome;
}

} // namespace strand
