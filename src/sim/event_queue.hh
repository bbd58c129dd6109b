/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue dispatches callbacks in (tick, priority, insertion
 * order) order, so simulations are fully deterministic for a given
 * seed and schedule. The kernel has no cancellation: a scheduled event
 * fires unless it is an armed Recurring destroyed first, which takes
 * its heap entry with it, so every heap entry is live.
 *
 * Performance model: event records live in a free-list arena owned by
 * the queue, so the steady state of a simulation — cores rescheduling
 * their tick every cycle, memory controllers completing requests —
 * allocates nothing per event. The dispatch heap stores (tick,
 * priority, seq) keys by value; seq is unique, so the comparator is a
 * strict total order and any rebuild of the heap pops in the same
 * sequence.
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
    struct Record;

  public:
    using Callback = std::function<void()>;

    /**
     * A first-class recurring event: one reusable record that can be
     * re-armed in place from its own callback, with no allocation
     * after init(). This is the intended form for permanent periodic
     * work (per-cycle core ticks, controller completion slots, the
     * hierarchy kick): the callback is constructed exactly once and
     * never copied or moved afterwards.
     *
     * At most one firing may be pending at a time; schedule() panics
     * if the event is already armed. Destroying an armed Recurring
     * removes its pending firing (a machine torn down mid-run). The
     * owning object must not outlive the EventQueue, and the callback
     * must not destroy the Recurring it runs on.
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

        /** Arm at an absolute tick. Panics if already armed. */
        void schedule(Tick when);

        /** Arm @p delta ticks in the future. */
        void scheduleIn(Tick delta);

        /** @return true while a firing is pending. */
        bool scheduled() const;

        /** @return the armed tick; only meaningful when scheduled(). */
        Tick when() const { return rec ? rec->when : 0; }

      private:
        EventQueue *owner = nullptr;
        Record *rec = nullptr;
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
     */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /** Schedule a callback @p delta ticks in the future. */
    void
    scheduleIn(Tick delta, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now + delta, std::move(cb), prio);
    }

    /** @return true if no events remain. */
    bool empty() const { return heap.empty(); }

    /** @return the number of scheduled, not-yet-fired events. */
    std::uint64_t pending() const { return heap.size(); }

    /** @return total events serviced since construction. */
    std::uint64_t serviced() const { return servicedEvents; }

    /**
     * The tick of the earliest pending event, or maxTick when none
     * is. Lets a caller step the queue one tick at a time.
     */
    Tick
    nextLiveTick() const
    {
        return heap.empty() ? maxTick : heap.front().when;
    }

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
     * A point-in-time capture of the queue: the clock and counters
     * and every arena record's dispatch key and state. One-shot
     * callbacks are captured by copy; recurring records stay owned by
     * their live Recurring objects, whose callbacks are constructed
     * once and never move — so a restore is only valid against the
     * SAME component graph the capture was taken from (restore()
     * panics when a record's recurring ownership changed across the
     * capture).
     */
    struct Snapshot
    {
        struct RecordState
        {
            Tick when = 0;
            int priority = 0;
            std::uint64_t seq = 0;
            /** EventQueue::State, stored raw (the enum is private). */
            std::uint8_t state = 0;
            bool recurring = false;
            /** Copied for scheduled one-shots; empty otherwise. */
            Callback callback;
        };

        Tick now = 0;
        std::uint64_t nextSeq = 0;
        std::uint64_t servicedEvents = 0;
        /** One entry per arena record, in allocation order. */
        std::vector<RecordState> records;
    };

    /** Capture the queue. The queue itself is not perturbed. */
    Snapshot snapshot() const;

    /**
     * Rewind the queue to @p snap. The dispatch heap and the free
     * list are rebuilt from the restored records, and records
     * allocated after the capture join the free list. Dispatch is
     * keyed on (when, priority, seq), never on which pooled record a
     * later schedule() reuses, so the pop sequence is exactly the
     * captured one.
     */
    void restore(const Snapshot &snap);

    /** @} */

    /** @name Arena observability (tests, simperf) @{ */

    /** Records ever allocated; stable once the pool has warmed up. */
    std::size_t arenaRecords() const { return arena.size(); }

    /** Records currently on the free list. */
    std::size_t freeRecords() const { return freeList.size(); }

    /** @} */

  private:
    enum class State : std::uint8_t
    {
        /** On the free list. */
        Free,
        /** In the heap; will fire. */
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

    /** Dispatch key, copied out of the record at arm time. */
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

    Record *allocRecord();
    void releaseRecord(Record *rec);
    /** Push @p rec's current key; common tail of every arm path. */
    void armRecord(Record *rec, Tick when);

    std::vector<HeapEntry> heap;
    /** Arena: deque for pointer stability; records are never freed. */
    std::deque<Record> arena;
    std::vector<Record *> freeList;

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t servicedEvents = 0;
};

} // namespace strand

#endif // SIM_EVENT_QUEUE_HH
