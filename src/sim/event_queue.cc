#include "sim/event_queue.hh"

#include <algorithm>

namespace strand
{

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
    heap.push_back({when, rec->priority, rec->seq, rec});
    std::push_heap(heap.begin(), heap.end(), Later{});
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
EventQueue::serviceOne()
{
    if (heap.empty())
        return false;
    const HeapEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
    panicIf(top.when < now, "event queue went backwards");
    now = top.when;
    ++servicedEvents;

    Record *rec = top.rec;
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

void
EventQueue::run()
{
    while (serviceOne()) {
    }
}

void
EventQueue::runUntil(Tick limit)
{
    while (!heap.empty() && heap.front().when <= limit)
        serviceOne();
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

    heap.clear();
    freeList.clear();
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
            heap.push_back({rec.when, rec.priority, rec.seq, &rec});
        else if (rec.state == State::Free)
            freeList.push_back(&rec);
        ++i;
    }
    std::make_heap(heap.begin(), heap.end(), Later{});
}

EventQueue::Recurring::~Recurring()
{
    if (!owner)
        return;
    if (scheduled()) {
        // Torn down while armed (a machine destroyed mid-run): drop
        // the pending firing so every heap entry stays live.
        std::vector<HeapEntry> &heap = owner->heap;
        heap.erase(std::find_if(heap.begin(), heap.end(),
                                [this](const HeapEntry &entry) {
                                    return entry.rec == rec;
                                }));
        std::make_heap(heap.begin(), heap.end(), Later{});
    }
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
