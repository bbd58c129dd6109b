#include "cache/cache_array.hh"

namespace strand
{

const char *
coherenceStateName(CoherenceState state)
{
    switch (state) {
      case CoherenceState::Invalid:
        return "I";
      case CoherenceState::Shared:
        return "S";
      case CoherenceState::Exclusive:
        return "E";
      case CoherenceState::Modified:
        return "M";
    }
    return "?";
}

CacheArray::CacheArray(std::uint64_t sizeBytes, unsigned ways)
    : ways(ways)
{
    fatalIf(ways == 0, "cache must have at least one way");
    std::uint64_t numLines = sizeBytes / lineBytes;
    fatalIf(numLines == 0 || numLines % ways != 0,
            "cache size {} not divisible into {}-way sets", sizeBytes,
            ways);
    sets = static_cast<unsigned>(numLines / ways);
    linesPerBlock = std::size_t{setsPerBlock} * ways;
    // Every block starts out sharing one all-invalid block; a block
    // gets lines of its own on its first write.
    auto empty = std::make_shared<CacheLineInfo[]>(linesPerBlock);
    blocks.assign((sets + setsPerBlock - 1) / setsPerBlock,
                  Block{empty, true});
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (lineAlign(addr) / lineBytes) % sets;
}

namespace
{

/** @return the valid way of the @p ways lines at @p set that holds
 * line @p la, or nullptr. */
template <typename Line>
Line *
findWay(Line *set, unsigned ways, Addr la)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (set[w].valid() && set[w].lineAddr == la)
            return &set[w];
    }
    return nullptr;
}

} // namespace

CacheLineInfo *
CacheArray::findLine(Addr addr)
{
    Addr la = lineAlign(addr);
    std::uint64_t set = setIndex(la);
    Block &block = blocks[set / setsPerBlock];
    CacheLineInfo *line =
        findWay(block.lines.get() + (set % setsPerBlock) * ways, ways, la);
    if (line && block.shared) [[unlikely]]
        return ownLine(block, line);
    return line;
}

const CacheLineInfo *
CacheArray::findLine(Addr addr) const
{
    Addr la = lineAlign(addr);
    return findWay(setLines(setIndex(la)), ways, la);
}

CacheLineInfo &
CacheArray::victimFor(Addr addr)
{
    CacheLineInfo *lines = ownSet(setIndex(addr));
    CacheLineInfo *victim = lines;
    for (unsigned w = 0; w < ways; ++w) {
        CacheLineInfo &line = lines[w];
        if (!line.valid())
            return line;
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    return *victim;
}

bool
CacheArray::invalidate(Addr addr)
{
    CacheLineInfo *line = findLine(addr);
    if (!line)
        return false;
    line->state = CoherenceState::Invalid;
    return true;
}

// Out of line, so that findLine()'s common path stays a leaf call.
[[gnu::noinline]] CacheLineInfo *
CacheArray::ownLine(Block &block, const CacheLineInfo *line)
{
    std::ptrdiff_t index = line - block.lines.get();
    unshare(block);
    return block.lines.get() + index;
}

void
CacheArray::unshare(Block &block)
{
    // Lines nobody else holds any more (their capture was dropped)
    // are adopted in place; otherwise the block is copied. Captures
    // stay on the thread of the machine they came from, so a count of
    // one cannot be stale.
    if (block.lines.use_count() > 1) {
        auto copy =
            std::make_shared_for_overwrite<CacheLineInfo[]>(linesPerBlock);
        std::copy_n(block.lines.get(), linesPerBlock, copy.get());
        block.lines = std::move(copy);
    }
    block.shared = false;
}

CacheArray::State
CacheArray::snapshotState() const
{
    State state{sets, ways, useClock, {}};
    state.blocks.reserve(blocks.size());
    for (const Block &block : blocks) {
        state.blocks.push_back(block.lines);
        block.shared = true;
    }
    return state;
}

void
CacheArray::restoreState(const State &state)
{
    panicIf(state.sets != sets || state.ways != ways,
            "cache array geometry changed across a snapshot ({} sets "
            "x {} ways captured, {} x {} here)",
            state.sets, state.ways, sets, ways);
    useClock = state.useClock;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        // The capture's lines are only ever read: the array copies a
        // shared block before its first write.
        blocks[b].lines =
            std::const_pointer_cast<CacheLineInfo[]>(state.blocks[b]);
        blocks[b].shared = true;
    }
}

std::uint64_t
CacheArray::countValid() const
{
    std::uint64_t count = 0;
    for (const Block &block : blocks)
        count += std::count_if(
            block.lines.get(), block.lines.get() + linesPerBlock,
            [](const CacheLineInfo &line) { return line.valid(); });
    return count;
}

} // namespace strand
