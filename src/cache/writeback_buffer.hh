/**
 * @file
 * The L1 write-back buffer, extended per the paper (§IV, "Managing
 * cache writebacks"), and the drain point its entries wait for.
 *
 * When a dirty line leaves an L1, the departing write-back records a
 * drain point in the core's persist engine: the position of the
 * youngest strand-buffer entry (and, for HOPS under its interlocks,
 * of the youngest persist-queue entry) at that moment. The
 * write-back may only drain below the L1 once the engine has drained
 * past that point, guaranteeing that CLWBs that were in flight when
 * the write-back was initiated persist first. A drain point is a
 * plain value, so an entry is plain data; the hierarchy asks the
 * owning core's engine about the head entry's point when it drains.
 */

#ifndef CACHE_WRITEBACK_BUFFER_HH
#define CACHE_WRITEBACK_BUFFER_HH

#include <deque>
#include <type_traits>

#include "mem/memory_image.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/**
 * The position a core's persist engine had reached when a dirty line
 * left its L1 or a read-exclusive snoop stole it (§IV). Positions and
 * seqs start at 1, so the zero point constrains nothing.
 */
struct DrainPoint
{
    /** The youngest strand-buffer position handed out at capture. */
    std::uint64_t buffered = 0;
    /** The youngest persist-queue seq the point also covers. */
    SeqNum queued = 0;
};
static_assert(std::is_trivially_copyable_v<DrainPoint>);

/**
 * A core's persist engine as the write-back and snoop interlocks see
 * it. PersistEngine implements it; the hierarchy holds one per core.
 */
class PersistDrain
{
  public:
    /** The point everything buffered right now must drain past. */
    virtual DrainPoint recordDrainPoint() const = 0;

    /** @return true once everything buffered when @p point was
     * recorded has left the engine. */
    virtual bool drainedPast(const DrainPoint &point) const = 0;

  protected:
    ~PersistDrain() = default;
};

/**
 * A bounded FIFO of in-progress write-backs for one L1 cache. Entries
 * leave strictly in FIFO order, so a blocked write-back also blocks
 * younger ones (conservative, deadlock-free: CLWBs never wait on
 * write-backs).
 */
class WritebackBuffer
{
  public:
    /** A departing dirty line and the owning core's drain point. */
    struct Entry
    {
        Addr lineAddr = 0;
        LineData data;
        DrainPoint point;
    };
    static_assert(std::is_trivially_copyable_v<Entry>);

    explicit WritebackBuffer(unsigned capacity) : capacity(capacity)
    {
        panicIf(capacity == 0, "write-back buffer needs capacity");
    }

    /**
     * Copies carry the buffered entries, which is how the hierarchy's
     * snapshot captures and restores them. The capacity is fixed at
     * construction: assignment panics when it differs, since the
     * source then comes from a different machine.
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

    /** Add a departing dirty line behind every waiting one. */
    void
    push(const Entry &entry)
    {
        panicIf(full(), "write-back buffer overflow");
        entries.push_back(entry);
    }

    /** The oldest waiting write-back; the buffer must not be empty. */
    const Entry &front() const { return entries.front(); }

    /** Drop the oldest waiting write-back. */
    void pop() { entries.pop_front(); }

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
    unsigned capacity;
    std::deque<Entry> entries;
};

} // namespace strand

#endif // CACHE_WRITEBACK_BUFFER_HH
