/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue dispatches callbacks in (tick, priority, insertion
 * order) order, so simulations are fully deterministic for a given
 * seed and schedule. The kernel has no cancellation: a scheduled event
 * fires unless it is an armed Recurring destroyed first, which takes
 * its pending firing with it, so every queued record is live.
 *
 * Dispatch structure: nearly every event a timing or crash run arms
 * lands on a core-cycle boundary (coreClockPeriod ticks), most of them
 * one cycle out. Such a record goes on a timing wheel of wheelSlots
 * one-cycle slots, each holding one intrusive FIFO per EventPriority
 * class, with a bitmap of the FIFOs that are not empty. Every other
 * record (an off-cycle tick, such as a fuzz trial's traffic after an
 * adversary hold, or a cycle at or past the wheel's horizon) goes to
 * a binary heap of (tick, priority, seq) keys, and dispatch pops the
 * smaller of the wheel's head and the heap's top. The wheel keeps the
 * heap's order exactly, for four reasons:
 *   1. seq grows with every arm, so each FIFO is in seq order;
 *   2. now never passes a pending event, so every wheel record lies
 *      within wheelSlots cycles of the first cycle at or after now,
 *      and a slot never holds two ticks (the scan starts at that
 *      cycle, so an off-cycle now is handled);
 *   3. restore() re-inserts the scheduled records sorted by key;
 *   4. an armed Recurring destroyed mid-run is unlinked from its FIFO
 *      or erased from the heap.
 *
 * Performance model: event records live in a free-list arena owned by
 * the queue, so once the pool has warmed up an arm allocates no
 * record, and a Recurring's callback is constructed once and never
 * copied. A one-shot schedule() still moves its callback into the
 * record's std::function, which allocates for a closure larger than
 * the function's local buffer (16 bytes in libstdc++).
 *
 * Components with a permanent periodic callback should use Recurring:
 * one record, allocated at init() and reused for every firing, with
 * the callback constructed exactly once.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <array>
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
    bool empty() const { return wheelCount == 0 && heap.empty(); }

    /** @return the number of scheduled, not-yet-fired events. */
    std::uint64_t pending() const { return wheelCount + heap.size(); }

    /** @return total events serviced since construction. */
    std::uint64_t serviced() const { return servicedEvents; }

    /**
     * The tick of the earliest pending event, or maxTick when none
     * is. Lets a caller step the queue one tick at a time.
     */
    Tick nextLiveTick() const;

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
     * Rewind the queue to @p snap. The wheel, the heap and the free
     * list are rebuilt from the restored records, the scheduled ones
     * placed in key order, and records allocated after the capture
     * join the free list. Dispatch is keyed on (when, priority, seq),
     * never on which pooled record a later schedule() reuses, so the
     * pop sequence is exactly the captured one.
     */
    void restore(const Snapshot &snap);

    /** @} */

    /** @name Arena observability (tests, simperf) @{ */

    /** Records ever allocated; stable once the pool has warmed up. */
    std::size_t arenaRecords() const { return arena.size(); }

    /** Records currently on the free list. */
    std::size_t freeRecords() const { return freeList.size(); }

    /**
     * Arms that went on the wheel, and to the heap, since
     * construction. restore() re-places records without counting
     * them.
     */
    std::uint64_t wheelArms() const { return armedOnWheel; }
    std::uint64_t heapArms() const { return armedInHeap; }

    /** @} */

  private:
    enum class State : std::uint8_t
    {
        /** On the free list. */
        Free,
        /** On the wheel or in the heap; will fire. */
        Scheduled,
        /** Allocated (recurring) but not currently armed. */
        Idle,
    };

    struct Record
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        /** The next record in the same wheel FIFO. */
        Record *next = nullptr;
        int priority = 0;
        State state = State::Free;
        /** Owned by a Recurring; survives firing, callback kept. */
        bool recurring = false;
        /** Scheduled on the wheel, not in the heap. */
        bool onWheel = false;
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

    /** One wheel FIFO: the records of one slot and priority class. */
    struct Fifo
    {
        Record *head = nullptr;
        Record *tail = nullptr;
    };

    /**
     * A wheel slot's span: one core cycle. A core built with another
     * CoreParams::clockPeriod arms off-cycle, so in the heap.
     */
    static constexpr Tick wheelTicks = coreClockPeriod;
    /** Slots on the wheel; the horizon is this many cycles. */
    static constexpr std::size_t wheelSlots = 1024;
    /** FIFOs per slot, one per EventPriority class. */
    static constexpr std::size_t wheelLanes = 4;
    static constexpr std::size_t wheelFifos = wheelSlots * wheelLanes;

    /** The first cycle that starts at or after now. */
    Tick
    firstCycle() const
    {
        return now / wheelTicks + (now % wheelTicks != 0);
    }

    Record *allocRecord();
    void releaseRecord(Record *rec);
    /** Stamp @p rec's key and queue it; common tail of every arm. */
    void armRecord(Record *rec, Tick when);
    /** Queue a scheduled @p rec on the wheel or in the heap. */
    void place(Record *rec);
    /** Take a scheduled @p rec out of the wheel or the heap. */
    void unlink(Record *rec);
    /** The index of the earliest non-empty FIFO; wheelCount > 0. */
    std::size_t wheelHead() const;
    /** Service the next event if its tick is at most @p limit. */
    bool serviceNext(Tick limit);

    /** wheelFifos FIFOs, slot-major: slot * wheelLanes + lane. */
    std::vector<Fifo> wheel = std::vector<Fifo>(wheelFifos);
    /** Bit i set: wheel[i] is not empty. */
    std::array<std::uint64_t, wheelFifos / 64> occupied{};
    /** Records on the wheel. */
    std::uint64_t wheelCount = 0;
    std::vector<HeapEntry> heap;
    /** Arena: deque for pointer stability; records are never freed. */
    std::deque<Record> arena;
    std::vector<Record *> freeList;

    Tick now = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t servicedEvents = 0;
    std::uint64_t armedOnWheel = 0;
    std::uint64_t armedInHeap = 0;
};

} // namespace strand

#endif // SIM_EVENT_QUEUE_HH
