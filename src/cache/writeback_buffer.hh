/**
 * @file
 * The L1 write-back buffer, extended per the paper (§IV, "Managing
 * cache writebacks").
 *
 * When a dirty line leaves an L1, the departing write-back records a
 * drain point in the core's persist engine (the tail indices of all
 * strand buffers). The write-back may only drain below the L1 once
 * the strand buffers have drained past the recorded indices,
 * guaranteeing that CLWBs that were in flight when the write-back was
 * initiated persist first.
 */

#ifndef CACHE_WRITEBACK_BUFFER_HH
#define CACHE_WRITEBACK_BUFFER_HH

#include <deque>
#include <functional>

#include "mem/memory_image.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/**
 * A bounded FIFO of in-progress write-backs for one L1 cache.
 */
class WritebackBuffer
{
  public:
    /** Predicate that reports whether the recorded drain point has
     * been passed. An empty function means "no constraint". */
    using Clearance = std::function<bool()>;

    /** Action performed when an entry drains (move data to L2). */
    using DrainFn = std::function<void(Addr, const LineData &)>;

    explicit WritebackBuffer(unsigned capacity) : capacity(capacity)
    {
        panicIf(capacity == 0, "write-back buffer needs capacity");
    }

    /**
     * Copies carry the buffered entries, which is how the hierarchy's
     * snapshot captures and restores them. A clearance is a
     * this-plus-values closure from the persist engine, so a copy
     * stays valid when restored into the same machine. The capacity
     * is fixed at construction: assignment panics when it differs,
     * since the source then comes from a different machine.
     */
    WritebackBuffer(const WritebackBuffer &) = default;

    WritebackBuffer &
    operator=(const WritebackBuffer &other)
    {
        panicIf(other.capacity != capacity,
                "write-back buffer capacity changed across a copy");
        entries = other.entries;
        return *this;
    }

    bool full() const { return entries.size() >= capacity; }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /**
     * Add a departing dirty line. @p clearance is evaluated lazily;
     * the entry drains only once it returns true.
     */
    void
    push(Addr lineAddr, LineData data, Clearance clearance)
    {
        panicIf(full(), "write-back buffer overflow");
        entries.push_back({lineAddr, std::move(data),
                           std::move(clearance)});
    }

    /**
     * Drain every leading entry whose clearance has been met. Entries
     * drain strictly in FIFO order so a blocked write-back also
     * blocks younger ones (conservative, deadlock-free: CLWBs never
     * wait on write-backs).
     *
     * @param hold Optional extra gate, evaluated per drainable head
     * (after its clearance passes); returning true stops the drain.
     * The fuzzer's adversarial delays enter through here.
     * @return the number of entries drained.
     */
    unsigned
    drain(const DrainFn &drainFn,
          const std::function<bool()> &hold = {})
    {
        unsigned drained = 0;
        while (!entries.empty()) {
            Entry &head = entries.front();
            if (head.clearance && !head.clearance())
                break;
            if (hold && hold())
                break;
            drainFn(head.lineAddr, head.data);
            entries.pop_front();
            ++drained;
        }
        return drained;
    }

    /** @return true if @p lineAddr is waiting in the buffer. */
    bool
    contains(Addr lineAddr) const
    {
        for (const Entry &entry : entries)
            if (entry.lineAddr == lineAddr)
                return true;
        return false;
    }

  private:
    struct Entry
    {
        Addr lineAddr;
        LineData data;
        Clearance clearance;
    };

    unsigned capacity;
    std::deque<Entry> entries;
};

} // namespace strand

#endif // CACHE_WRITEBACK_BUFFER_HH
