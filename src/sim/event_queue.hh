/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue dispatches callbacks in (tick, priority, insertion
 * order) order, so simulations are fully deterministic for a given
 * seed and schedule. Events are scheduled by value and may be
 * descheduled through the handle returned by schedule().
 *
 * Performance model: event records live in a free-list arena owned by
 * the queue, so the steady state of a simulation — cores rescheduling
 * their tick every cycle, memory controllers completing requests —
 * allocates nothing per event. The dispatch heap stores (tick,
 * priority, seq) keys by value; a record's current seq is the source
 * of truth, so cancelled or superseded heap entries are recognized as
 * carcasses when popped and lazy compaction bounds how many carcasses
 * a cancel-heavy workload (e.g. the fuzz adversary's holds) can
 * accumulate. Because the comparator is a total order (seq is
 * unique), compaction never changes dispatch order.
 *
 * Components with a permanent periodic callback should use Recurring:
 * one record, allocated at init() and reused for every firing, with
 * the callback constructed exactly once.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace strand
{

/**
 * Relative ordering of events scheduled for the same tick. Lower
 * values run first.
 */
enum class EventPriority : int
{
    /** Coherence and memory responses run before CPU progress. */
    MemoryResponse = 10,
    Default = 20,
    /** Per-cycle CPU evaluation. */
    CpuTick = 30,
    /** Stat sampling and end-of-quantum bookkeeping run last. */
    Stat = 40,
};

/**
 * The central event queue. One instance drives a whole simulated
 * system; components hold a reference and schedule callbacks.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    class Recurring;

    /** Handle used to deschedule a pending one-shot event. */
    class Handle
    {
      public:
        Handle() = default;

        /** @return true if this handle refers to a scheduled event. */
        bool
        scheduled() const
        {
            return record && record->state == State::Scheduled &&
                   record->seq == seq;
        }

      private:
        friend class EventQueue;
        friend class Recurring;

        enum class State : std::uint8_t
        {
            /** On the free list (or never allocated). */
            Free,
            /** Live in the heap, will fire unless descheduled. */
            Scheduled,
            /** Allocated (recurring) but not currently armed. */
            Idle,
        };

        struct Record
        {
            Tick when = 0;
            int priority = 0;
            std::uint64_t seq = 0;
            State state = State::Free;
            /** Owned by a Recurring; survives firing, callback kept. */
            bool recurring = false;
            Callback callback;
        };

        Handle(Record *record, std::uint64_t seq)
            : record(record), seq(seq)
        {
        }

        Record *record = nullptr;
        /**
         * The seq this handle was issued for. Records are recycled,
         * so a handle is valid only while the record still carries
         * its seq; a stale handle compares unequal and reads as
         * not-scheduled.
         */
        std::uint64_t seq = 0;
    };

    /**
     * A first-class recurring event: one reusable record that can be
     * re-armed in place from its own callback, with no allocation
     * after init(). This is the intended form for permanent periodic
     * work (per-cycle core ticks, controller completion slots, the
     * hierarchy kick): the callback is constructed exactly once and
     * never copied or moved afterwards.
     *
     * At most one firing may be pending at a time; schedule() panics
     * if the event is already armed. The owning object must not
     * outlive the EventQueue, and the callback must not destroy the
     * Recurring it runs on.
     */
    class Recurring
    {
      public:
        Recurring() = default;
        ~Recurring();

        Recurring(const Recurring &) = delete;
        Recurring &operator=(const Recurring &) = delete;

        /**
         * Bind to @p eq with @p cb. Must be called exactly once
         * before the first schedule().
         */
        void init(EventQueue &eq, Callback cb,
                  EventPriority prio = EventPriority::Default);

        /** @return true once init() has run. */
        bool initialized() const { return owner != nullptr; }

        /** Arm at an absolute tick. Panics if already armed. */
        void schedule(Tick when);

        /** Arm @p delta ticks in the future. */
        void scheduleIn(Tick delta);

        /**
         * Re-arm @p delta ticks ahead, in place. Identical to
         * scheduleIn(); the name documents call sites inside the
         * event's own callback.
         */
        void reschedule(Tick delta) { scheduleIn(delta); }

        /** Cancel the pending firing, if any. */
        void deschedule();

        /** @return true while a firing is pending. */
        bool scheduled() const;

        /** @return the armed tick; only meaningful when scheduled(). */
        Tick when() const { return rec ? rec->when : 0; }

      private:
        EventQueue *owner = nullptr;
        Handle::Record *rec = nullptr;
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick curTick() const { return now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must not be in the past.
     * @param cb Callback invoked when the event fires.
     * @param prio Same-tick ordering class.
     * @return Handle that can cancel the event before it fires.
     */
    Handle schedule(Tick when, Callback cb,
                    EventPriority prio = EventPriority::Default);

    /** Schedule a callback @p delta ticks in the future. */
    Handle
    scheduleIn(Tick delta, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(now + delta, std::move(cb), prio);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired or
     * already-cancelled event is a no-op. The record is returned to
     * the arena immediately; only its heap entry lingers as a carcass
     * until popped or compacted.
     */
    void deschedule(Handle &handle);

    /** @return true if no live events remain. */
    bool empty() const { return liveEvents == 0; }

    /** @return the number of scheduled, not-yet-fired events. */
    std::uint64_t pending() const { return liveEvents; }

    /** @return total events serviced since construction. */
    std::uint64_t serviced() const { return servicedEvents; }

    /**
     * The tick of the earliest live event, or maxTick when none is
     * pending. Prunes cancelled carcasses off the heap top exactly as
     * serviceOne() would; dispatch order is unaffected. Lets a
     * driver step the queue one live tick at a time.
     */
    Tick nextLiveTick();

    /**
     * Service the single next event.
     * @return true if an event was serviced, false if empty.
     */
    bool serviceOne();

    /** Run until the queue drains. */
    void run();

    /**
     * Run until the queue drains or simulated time would pass
     * @p limit, whichever is first. Events scheduled exactly at
     * @p limit are serviced.
     */
    void runUntil(Tick limit);

    /** @name Snapshot support (forked crash exploration) @{ */

    /**
     * A point-in-time capture of the queue: the clock and counters,
     * every arena record's dispatch key and state, and the free-list
     * order. One-shot callbacks are captured by copy; recurring
     * records stay owned by their live Recurring objects, whose
     * callbacks are constructed once and never move — so a restore
     * is only valid against the SAME component graph the capture was
     * taken from (restore() panics when a record's recurring
     * ownership changed across the capture).
     */
    struct Snapshot
    {
        struct RecordState
        {
            Tick when = 0;
            int priority = 0;
            std::uint64_t seq = 0;
            /** Handle::State, stored raw (the enum is private). */
            std::uint8_t state = 0;
            bool recurring = false;
            /** Copied for scheduled one-shots; empty otherwise. */
            Callback callback;
        };

        Tick now = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t liveEvents = 0;
        std::uint64_t servicedEvents = 0;
        std::uint64_t compactionRuns = 0;
        /** One entry per arena record, in allocation order. */
        std::vector<RecordState> records;
        /** Free list as arena indices, preserving pop order. */
        std::vector<std::size_t> freeList;
    };

    /** Capture the queue. The queue itself is not perturbed. */
    Snapshot snapshot() const;

    /**
     * Rewind the queue to @p snap. Records allocated after the
     * capture are recycled onto the free list; the dispatch heap is
     * rebuilt from the restored records (the comparator is a strict
     * total order, so the pop sequence is exactly the captured one).
     */
    void restore(const Snapshot &snap);

    /** @} */

    /** @name Arena and heap observability (tests, simperf) @{ */

    /** Records ever allocated; stable once the pool has warmed up. */
    std::size_t arenaRecords() const { return arena.size(); }

    /** Records currently on the free list. */
    std::size_t freeRecords() const { return freeList.size(); }

    /**
     * Heap entries whose event was descheduled or superseded and
     * that have not been popped or compacted yet.
     */
    std::size_t
    cancelledPending() const
    {
        return heap.size() - static_cast<std::size_t>(liveEvents);
    }

    /** Total heap entries, live plus carcasses. */
    std::size_t heapEntries() const { return heap.size(); }

    /** Lazy compaction sweeps performed so far. */
    std::uint64_t compactions() const { return compactionRuns; }

    /** @} */

  private:
    using Record = Handle::Record;
    using State = Handle::State;

    /**
     * Dispatch key, copied out of the record at arm time. The record
     * holds the authoritative (seq, state); an entry whose key no
     * longer matches is a carcass and never fires.
     */
    struct HeapEntry
    {
        Tick when = 0;
        int priority = 0;
        std::uint64_t seq = 0;
        Record *rec = nullptr;
    };

    /** Max-heap comparator inverted so the earliest key pops first. */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    static bool
    live(const HeapEntry &entry)
    {
        return entry.rec->state == State::Scheduled &&
               entry.rec->seq == entry.seq;
    }

    Record *allocRecord();
    void releaseRecord(Record *rec);
    /** Push @p rec's current key; common tail of every arm path. */
    void armRecord(Record *rec, Tick when);
    /** Drop carcass entries once they outnumber the live ones. */
    void maybeCompact();

    friend class Recurring;

    std::vector<HeapEntry> heap;
    /** Arena: deque for pointer stability; records are never freed. */
    std::deque<Record> arena;
    std::vector<Record *> freeList;

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t liveEvents = 0;
    std::uint64_t servicedEvents = 0;
    std::uint64_t compactionRuns = 0;
};

} // namespace strand

#endif // SIM_EVENT_QUEUE_HH
