/**
 * @file
 * Set-associative tag array with MESI state and LRU replacement.
 *
 * The timing model is tag-only: functional data lives in the global
 * MemoryImage and is snapshotted when a line departs toward the
 * memory controllers. The array tracks presence, coherence state,
 * and dirtiness, which is all the persistency mechanisms need.
 */

#ifndef CACHE_CACHE_ARRAY_HH
#define CACHE_CACHE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address_map.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/** MESI coherence states. */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** @return a short name for tracing. */
const char *coherenceStateName(CoherenceState state);

/** One cache line's bookkeeping. */
struct CacheLineInfo
{
    Addr lineAddr = 0;
    CoherenceState state = CoherenceState::Invalid;
    /** LRU timestamp; larger is more recent. */
    std::uint64_t lastUse = 0;

    bool valid() const { return state != CoherenceState::Invalid; }
    bool dirty() const { return state == CoherenceState::Modified; }
};

/**
 * Tag array for one cache. Geometry is (sizeBytes / 64) lines,
 * arranged as sets of @p ways lines each.
 *
 * The lines live in fixed blocks of setsPerBlock sets, and a
 * snapshot shares the blocks instead of copying them: capturing or
 * restoring costs one handle per block, and the first write to a
 * block still shared with a capture copies that block alone. A
 * probe reads the block's line pointer and scans the set's ways; it
 * never touches a reference count.
 *
 * Because a write may move a block, a CacheLineInfo pointer or
 * reference obtained from findLine() or victimFor() is valid only
 * within the event that obtained it (DESIGN.md §6).
 */
class CacheArray
{
  public:
    /** Sets per copy-on-write block. */
    static constexpr unsigned setsPerBlock = 16;

    /**
     * @param sizeBytes Total capacity; must be a multiple of
     * ways * 64.
     * @param ways Set associativity.
     */
    CacheArray(std::uint64_t sizeBytes, unsigned ways);

    /** A copy would share blocks that neither side marks shared;
     * captures go through snapshotState() instead. */
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray(CacheArray &&) = default;
    CacheArray &operator=(CacheArray &&) = default;

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways; }

    /**
     * @return the line's info if present, else nullptr. The mutable
     * overload first gives this array its own copy of the line's
     * block if a capture shares it, so probes that only read should
     * use the const overload (or contains()), which never copies.
     */
    CacheLineInfo *findLine(Addr addr);
    const CacheLineInfo *findLine(Addr addr) const;

    /** @return true if the line of @p addr is present. */
    bool contains(Addr addr) const { return findLine(addr) != nullptr; }

    /** Record a use for LRU purposes. */
    void touch(CacheLineInfo &line) { line.lastUse = ++useClock; }

    /**
     * Choose a victim way in the set of @p addr. Prefers invalid
     * lines; otherwise the least recently used. The returned line may
     * be valid and dirty — the caller must handle the eviction.
     */
    CacheLineInfo &victimFor(Addr addr);

    /**
     * Install @p addr into @p victim (which must belong to the right
     * set) with the given state.
     */
    void
    install(CacheLineInfo &victim, Addr addr, CoherenceState state)
    {
        victim.lineAddr = lineAlign(addr);
        victim.state = state;
        touch(victim);
    }

    /** Invalidate a line if present. @return true if it was valid. */
    bool invalidate(Addr addr);

    /** Tag state captured by the hierarchy's snapshot. */
    struct State
    {
        unsigned sets = 0;
        unsigned ways = 0;
        std::uint64_t useClock = 0;
        /** One handle per block, shared with the array it came from. */
        std::vector<std::shared_ptr<const CacheLineInfo[]>> blocks;
    };

    /** Capture the tag state by sharing every block (snapshot
     * support); the array's later writes copy the blocks they touch,
     * so the capture never changes. */
    State snapshotState() const;

    /** Adopt a captured tag state, sharing its blocks. Geometry is
     * fixed at construction, so a snapshot only restores into an
     * array with the same sets and ways. */
    void restoreState(const State &state);

    /** @return number of valid lines (linear scan; tests only). */
    std::uint64_t countValid() const;

    /** Iterate all valid lines (tests and draining). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        // Only blocks holding a valid line are made writable.
        for (Block &block : blocks) {
            const CacheLineInfo *lines = block.lines.get();
            if (std::none_of(lines, lines + linesPerBlock,
                             [](const CacheLineInfo &line) {
                                 return line.valid();
                             }))
                continue;
            CacheLineInfo *own = ownBlock(block);
            for (std::size_t i = 0; i < linesPerBlock; ++i)
                if (own[i].valid())
                    fn(own[i]);
        }
    }

  private:
    /** One copy-on-write block: setsPerBlock sets of ways lines. */
    struct Block
    {
        std::shared_ptr<CacheLineInfo[]> lines;
        /** The lines may be shared with a capture or another block,
         * so they must be copied before a write. Set by the const
         * snapshotState(). */
        mutable bool shared = false;
    };

    std::uint64_t setIndex(Addr addr) const;

    /** @return the first way of @p set, for reading. */
    const CacheLineInfo *
    setLines(std::uint64_t set) const
    {
        return blocks[set / setsPerBlock].lines.get() +
               (set % setsPerBlock) * ways;
    }

    /** @return the first way of @p set, for writing. */
    CacheLineInfo *
    ownSet(std::uint64_t set)
    {
        return ownBlock(blocks[set / setsPerBlock]) +
               (set % setsPerBlock) * ways;
    }

    /** @return @p block's lines, copied first if they are shared. */
    CacheLineInfo *
    ownBlock(Block &block)
    {
        if (block.shared) [[unlikely]]
            unshare(block);
        return block.lines.get();
    }

    /** Give @p block lines of its own (copying only if some other
     * handle still refers to them). */
    void unshare(Block &block);

    /** Unshare @p block. @return where @p line, one of its lines,
     * now lives. */
    CacheLineInfo *ownLine(Block &block, const CacheLineInfo *line);

    unsigned sets;
    unsigned ways;
    std::size_t linesPerBlock = 0;
    std::uint64_t useClock = 0;
    std::vector<Block> blocks;
};

} // namespace strand

#endif // CACHE_CACHE_ARRAY_HH
