#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <tuple>

namespace strand
{

namespace
{

/**
 * The wheel lane of a priority class, 0-3 in dispatch order. A
 * record's priority is always an EventPriority class: schedule() and
 * Recurring::init() set it from one, and restore() from a capture of
 * such values.
 */
constexpr std::size_t
laneOf(int priority)
{
    switch (static_cast<EventPriority>(priority)) {
      case EventPriority::MemoryResponse:
        return 0;
      case EventPriority::Default:
        return 1;
      case EventPriority::CpuTick:
        return 2;
      case EventPriority::Stat:
        return 3;
    }
    panic("event priority {} is no EventPriority class", priority);
}

} // namespace

EventQueue::Record *
EventQueue::allocRecord()
{
    if (!freeList.empty()) {
        Record *rec = freeList.back();
        freeList.pop_back();
        return rec;
    }
    arena.emplace_back();
    return &arena.back();
}

void
EventQueue::releaseRecord(Record *rec)
{
    rec->callback = nullptr;
    rec->state = State::Free;
    rec->recurring = false;
    freeList.push_back(rec);
}

void
EventQueue::armRecord(Record *rec, Tick when)
{
    rec->when = when;
    rec->seq = nextSeq++;
    rec->state = State::Scheduled;
    place(rec);
    ++(rec->onWheel ? armedOnWheel : armedInHeap);
}

void
EventQueue::place(Record *rec)
{
    static_assert(laneOf(static_cast<int>(EventPriority::Stat)) + 1 ==
                  wheelLanes);
    const Tick cycle = rec->when / wheelTicks;
    rec->onWheel = rec->when % wheelTicks == 0 &&
                   cycle - firstCycle() < wheelSlots;
    if (!rec->onWheel) {
        heap.push_back({rec->when, rec->priority, rec->seq, rec});
        std::push_heap(heap.begin(), heap.end(), Later{});
        return;
    }
    const std::size_t index =
        (cycle % wheelSlots) * wheelLanes + laneOf(rec->priority);
    Fifo &fifo = wheel[index];
    rec->next = nullptr;
    (fifo.tail ? fifo.tail->next : fifo.head) = rec;
    fifo.tail = rec;
    occupied[index / 64] |= std::uint64_t{1} << (index % 64);
    ++wheelCount;
}

void
EventQueue::unlink(Record *rec)
{
    if (!rec->onWheel) {
        heap.erase(std::find_if(heap.begin(), heap.end(),
                                [rec](const HeapEntry &entry) {
                                    return entry.rec == rec;
                                }));
        std::make_heap(heap.begin(), heap.end(), Later{});
        return;
    }
    const std::size_t index =
        (rec->when / wheelTicks % wheelSlots) * wheelLanes +
        laneOf(rec->priority);
    Fifo &fifo = wheel[index];
    Record *prev = nullptr;
    for (Record *it = fifo.head; it != rec; it = it->next)
        prev = it;
    (prev ? prev->next : fifo.head) = rec->next;
    if (fifo.tail == rec)
        fifo.tail = prev;
    if (!fifo.head)
        occupied[index / 64] &= ~(std::uint64_t{1} << (index % 64));
    --wheelCount;
}

std::size_t
EventQueue::wheelHead() const
{
    // Every wheel record lies within wheelSlots cycles of the first
    // cycle at or after now, so the first set bit from that cycle's
    // slot on, wrapping once, is the earliest (tick, priority) FIFO.
    const std::size_t start = firstCycle() % wheelSlots * wheelLanes;
    std::size_t word = start / 64;
    std::uint64_t bits = occupied[word] & (~std::uint64_t{0} << (start % 64));
    while (!bits) {
        word = (word + 1) % occupied.size();
        bits = occupied[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

Tick
EventQueue::nextLiveTick() const
{
    const Tick heapTick = heap.empty() ? maxTick : heap.front().when;
    if (wheelCount == 0)
        return heapTick;
    return std::min(heapTick, wheel[wheelHead()].head->when);
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    panicIf(when < now,
            "event scheduled in the past: when={} now={}", when, now);
    panicIf(!cb, "event scheduled with empty callback");

    Record *rec = allocRecord();
    rec->priority = static_cast<int>(prio);
    rec->callback = std::move(cb);
    armRecord(rec, when);
}

bool
EventQueue::serviceNext(Tick limit)
{
    Record *rec = nullptr;
    std::size_t index = 0;
    if (wheelCount != 0) {
        index = wheelHead();
        rec = wheel[index].head;
    }
    if (!heap.empty()) {
        const HeapEntry &top = heap.front();
        if (!rec || std::tie(top.when, top.priority, top.seq) <
                        std::tie(rec->when, rec->priority, rec->seq))
            rec = top.rec;
    }
    if (!rec || rec->when > limit)
        return false;

    if (rec->onWheel) {
        Fifo &fifo = wheel[index];
        fifo.head = rec->next;
        if (!fifo.head) {
            fifo.tail = nullptr;
            occupied[index / 64] &= ~(std::uint64_t{1} << (index % 64));
        }
        --wheelCount;
    } else {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
    }
    panicIf(rec->when < now, "event queue went backwards");
    now = rec->when;
    ++servicedEvents;

    if (rec->recurring) {
        // Park the record so the callback can re-arm it.
        rec->state = State::Idle;
        rec->callback();
    } else {
        // Release before invoking: the callback has been moved out,
        // so the record is immediately reusable by anything the
        // callback schedules.
        Callback cb = std::move(rec->callback);
        releaseRecord(rec);
        cb();
    }
    return true;
}

bool
EventQueue::serviceOne()
{
    return serviceNext(maxTick);
}

void
EventQueue::run()
{
    while (serviceNext(maxTick)) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    while (serviceNext(limit)) {
    }
    if (now < limit)
        now = limit;
}

EventQueue::Snapshot
EventQueue::snapshot() const
{
    Snapshot snap;
    snap.now = now;
    snap.nextSeq = nextSeq;
    snap.servicedEvents = servicedEvents;

    snap.records.reserve(arena.size());
    for (const Record &rec : arena) {
        Snapshot::RecordState state;
        state.when = rec.when;
        state.priority = rec.priority;
        state.seq = rec.seq;
        state.state = static_cast<std::uint8_t>(rec.state);
        state.recurring = rec.recurring;
        // Recurring callbacks stay with their owning Recurring and
        // are reused on restore; a fired one-shot's callback has
        // already been moved out, so only scheduled one-shots carry
        // one worth copying.
        if (!rec.recurring && rec.state == State::Scheduled)
            state.callback = rec.callback;
        snap.records.push_back(std::move(state));
    }
    return snap;
}

void
EventQueue::restore(const Snapshot &snap)
{
    panicIf(arena.size() < snap.records.size(),
            "event queue arena shrank across a snapshot");
    now = snap.now;
    nextSeq = snap.nextSeq;
    servicedEvents = snap.servicedEvents;

    // Clear only the FIFOs the bitmap marks: a forked crash campaign
    // restores once per point and should not pay for the whole wheel.
    for (std::size_t word = 0; word < occupied.size(); ++word)
        for (std::uint64_t bits = occupied[word]; bits; bits &= bits - 1)
            wheel[word * 64 + static_cast<std::size_t>(
                                  std::countr_zero(bits))] = Fifo{};
    occupied.fill(0);
    wheelCount = 0;
    heap.clear();
    freeList.clear();
    std::vector<Record *> scheduled;
    std::size_t i = 0;
    for (Record &rec : arena) {
        if (i < snap.records.size()) {
            const Snapshot::RecordState &state = snap.records[i];
            // A record whose Recurring owner was created or destroyed
            // after the capture cannot be rewound: the callback lives
            // in (or died with) the owner. Restore only into the
            // component graph the snapshot was taken from.
            panicIf(rec.recurring != state.recurring,
                    "cannot restore: record {} changed recurring "
                    "ownership across the snapshot", i);
            rec.when = state.when;
            rec.priority = state.priority;
            rec.seq = state.seq;
            rec.state = static_cast<State>(state.state);
            if (!state.recurring)
                rec.callback = state.callback;
        } else {
            // Allocated after the capture, so unknown to it: recycle.
            panicIf(rec.recurring,
                    "cannot restore: a recurring event was bound after "
                    "the snapshot");
            rec.state = State::Free;
            rec.callback = nullptr;
        }
        if (rec.state == State::Scheduled)
            scheduled.push_back(&rec);
        else if (rec.state == State::Free)
            freeList.push_back(&rec);
        ++i;
    }
    // In key order, so each wheel FIFO is in seq order again.
    std::sort(scheduled.begin(), scheduled.end(),
              [](const Record *a, const Record *b) {
                  return std::tie(a->when, a->priority, a->seq) <
                         std::tie(b->when, b->priority, b->seq);
              });
    for (Record *rec : scheduled)
        place(rec);
}

EventQueue::Recurring::~Recurring()
{
    if (!owner)
        return;
    // Torn down while armed (a machine destroyed mid-run): drop the
    // pending firing so every queued record stays live.
    if (scheduled())
        owner->unlink(rec);
    owner->releaseRecord(rec);
}

void
EventQueue::Recurring::init(EventQueue &eq, Callback cb,
                            EventPriority prio)
{
    panicIf(owner, "recurring event initialized twice");
    panicIf(!cb, "recurring event initialized with empty callback");
    owner = &eq;
    rec = eq.allocRecord();
    rec->priority = static_cast<int>(prio);
    rec->recurring = true;
    rec->state = State::Idle;
    rec->callback = std::move(cb);
}

void
EventQueue::Recurring::schedule(Tick when)
{
    panicIf(!owner, "recurring event scheduled before init");
    panicIf(rec->state == State::Scheduled,
            "recurring event scheduled while already pending");
    panicIf(when < owner->now,
            "event scheduled in the past: when={} now={}", when,
            owner->now);
    owner->armRecord(rec, when);
}

void
EventQueue::Recurring::scheduleIn(Tick delta)
{
    panicIf(!owner, "recurring event scheduled before init");
    schedule(owner->now + delta);
}

bool
EventQueue::Recurring::scheduled() const
{
    return rec && rec->state == State::Scheduled;
}

} // namespace strand
