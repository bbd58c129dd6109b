/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * time-limited execution, the pooled record arena, Recurring events,
 * snapshot/restore, and the timing wheel's equivalence to a plain
 * (tick, priority, seq) priority queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace strand
{
namespace
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.serviceOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] { order.push_back(2); }, EventPriority::CpuTick);
    eq.schedule(50, [&] { order.push_back(0); },
                EventPriority::MemoryResponse);
    eq.schedule(50, [&] { order.push_back(3); }, EventPriority::CpuTick);
    eq.schedule(50, [&] { order.push_back(1); },
                EventPriority::MemoryResponse);
    eq.schedule(50, [&] { order.push_back(4); }, EventPriority::Stat);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleInIsRelativeToNow)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(25, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 125u);
}

TEST(EventQueue, EventsScheduledFromCallbacksRun)
{
    EventQueue eq;
    std::vector<Tick> fires;
    // A self-rescheduling event, the pattern used by clocked
    // components.
    std::function<void()> tick = [&] {
        fires.push_back(eq.curTick());
        if (fires.size() < 5)
            eq.scheduleIn(500, tick);
    };
    eq.schedule(0, tick);
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{0, 500, 1000, 1500, 2000}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.schedule(300, [&] { order.push_back(3); });
    eq.runUntil(200);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 200u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue eq;
    eq.runUntil(12345);
    EXPECT_EQ(eq.curTick(), 12345u);
}

TEST(EventQueue, PendingAndServicedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(10 * (i + 1), [] {});
    EXPECT_EQ(eq.pending(), 10u);
    eq.serviceOne();
    eq.serviceOne();
    EXPECT_EQ(eq.pending(), 8u);
    EXPECT_EQ(eq.serviced(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.serviced(), 10u);
}

TEST(EventQueue, RecurringMatchesOneShotOrdering)
{
    // The same clocked pattern expressed twice — as a Recurring
    // rescheduling itself in place and as chained one-shots — must
    // interleave identically with competing same-tick events.
    auto runPattern = [](bool recurring) {
        EventQueue eq;
        std::vector<int> order;
        for (Tick t = 0; t < 5; ++t) {
            eq.schedule(t * 100, [&order] { order.push_back(-1); },
                        EventPriority::MemoryResponse);
            eq.schedule(t * 100, [&order] { order.push_back(+1); },
                        EventPriority::Stat);
        }
        EventQueue::Recurring ev;
        int fires = 0;
        std::function<void()> chained;
        if (recurring) {
            ev.init(eq, [&] {
                order.push_back(0);
                if (++fires < 5)
                    ev.scheduleIn(100);
            }, EventPriority::CpuTick);
            ev.schedule(0);
        } else {
            chained = [&] {
                order.push_back(0);
                if (++fires < 5)
                    eq.scheduleIn(100, chained,
                                  EventPriority::CpuTick);
            };
            eq.schedule(0, chained, EventPriority::CpuTick);
        }
        eq.run();
        return order;
    };
    EXPECT_EQ(runPattern(true), runPattern(false));
}

TEST(EventQueue, SchedulingRecurringWhilePendingPanics)
{
    EventQueue eq;
    EventQueue::Recurring ev;
    ev.init(eq, [] {});
    ev.schedule(10);
    EXPECT_THROW(ev.schedule(20), std::logic_error);
}

TEST(EventQueue, DestroyingArmedRecurringDropsItsFiring)
{
    // A machine torn down mid-run destroys its Recurrings while they
    // are armed: the pending firing leaves with its owner, and the
    // record goes back to the pool.
    EventQueue eq;
    std::vector<int> order;
    for (int i : {3, 0, 5, 1, 4, 2})
        eq.schedule(100 * (i + 1), [&order, i] { order.push_back(i); });
    auto ev = std::make_unique<EventQueue::Recurring>();
    ev->init(eq, [&order] { order.push_back(-1); });
    ev->schedule(250);
    ASSERT_TRUE(eq.serviceOne());
    ASSERT_TRUE(ev->scheduled());
    const std::uint64_t pending = eq.pending();
    const std::size_t arena = eq.arenaRecords();
    const std::size_t free = eq.freeRecords();

    ev.reset();
    EXPECT_EQ(eq.pending(), pending - 1);
    EXPECT_EQ(eq.freeRecords(), free + 1);

    eq.schedule(eq.curTick() + 50, [&order] { order.push_back(9); });
    EXPECT_EQ(eq.arenaRecords(), arena);
    EXPECT_EQ(eq.freeRecords(), free);
    ASSERT_TRUE(eq.serviceOne());
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, PoolReusesRecordsAcrossDrainAndRefill)
{
    EventQueue eq;
    for (int i = 0; i < 64; ++i)
        eq.schedule(i + 1, [] {});
    eq.run();
    const std::size_t arena = eq.arenaRecords();
    EXPECT_EQ(eq.freeRecords(), arena);
    // A second wave of the same size must come entirely from the
    // free list: the arena does not grow.
    for (int i = 0; i < 64; ++i)
        eq.scheduleIn(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.arenaRecords(), arena);
    EXPECT_EQ(eq.freeRecords(), arena);
}

TEST(EventQueue, RecurringSteadyStateAllocatesNoRecords)
{
    // The zero-allocation acceptance bar for the tick path: after
    // warm-up, N recurring fires grow the record arena by exactly
    // zero records.
    EventQueue eq;
    EventQueue::Recurring ev;
    int fires = 0;
    ev.init(eq, [&] {
        if (++fires < 10000)
            ev.scheduleIn(500);
    }, EventPriority::CpuTick);
    ev.schedule(0);
    // Warm-up: let the pool reach steady state.
    for (int i = 0; i < 16; ++i)
        eq.serviceOne();
    const std::size_t arena = eq.arenaRecords();
    eq.run();
    EXPECT_EQ(fires, 10000);
    EXPECT_EQ(eq.arenaRecords(), arena);
}

TEST(EventQueue, SnapshotRestoreReplaysIdenticalDrain)
{
    // Capture mid-run, drain to completion, rewind, drain again: the
    // second drain must reproduce the first event-for-event,
    // including same-tick priority/insertion ordering and events
    // scheduled from inside callbacks.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> trace;
    auto emit = [&](int id) {
        trace.push_back({eq.curTick(), id});
    };
    eq.schedule(100, [&] {
        emit(1);
        eq.scheduleIn(50, [&] { emit(4); });
    });
    eq.schedule(200, [&] { emit(2); }, EventPriority::Stat);
    eq.schedule(200, [&] { emit(3); },
                EventPriority::MemoryResponse);
    eq.schedule(300, [&] { emit(5); });

    eq.serviceOne(); // fire the tick-100 event only
    EventQueue::Snapshot snap = eq.snapshot();
    const std::uint64_t servicedAtSnap = eq.serviced();

    eq.run();
    std::vector<std::pair<Tick, int>> first(
        trace.begin() + 1, trace.end());

    eq.restore(snap);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_EQ(eq.serviced(), servicedAtSnap);
    EXPECT_EQ(eq.pending(), 4u);
    trace.clear();
    eq.run();
    EXPECT_EQ(trace, first);
    EXPECT_EQ(trace, (std::vector<std::pair<Tick, int>>{
                         {150, 4}, {200, 3}, {200, 2}, {300, 5}}));
}

TEST(EventQueue, SnapshotRestoreRewindsRecurringEvents)
{
    // A Recurring's record is owned by the component and survives
    // restore in place: rewinding re-arms it at the captured tick
    // and the re-drain fires it the captured number of times.
    EventQueue eq;
    EventQueue::Recurring ev;
    int fires = 0;
    // The stop condition reads the simulated clock, which restore
    // rewinds (a host-side counter would not be).
    ev.init(eq, [&] {
        ++fires;
        if (eq.curTick() < 700)
            ev.scheduleIn(100);
    }, EventPriority::CpuTick);
    ev.schedule(0);
    for (int i = 0; i < 3; ++i)
        eq.serviceOne();
    EventQueue::Snapshot snap = eq.snapshot();
    ASSERT_EQ(fires, 3);

    eq.run();
    EXPECT_EQ(fires, 8);

    eq.restore(snap);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 300u);
    eq.run();
    EXPECT_EQ(fires, 13); // five more fires, exactly as before
}

TEST(EventQueue, RestoreRecyclesPostSnapshotRecords)
{
    // Events scheduled after the capture are unknown to the
    // snapshot: restore must cancel them and recycle their records
    // into the pool without growing the arena.
    EventQueue eq;
    int late = 0;
    eq.schedule(10, [] {});
    EventQueue::Snapshot snap = eq.snapshot();
    for (int i = 0; i < 32; ++i)
        eq.schedule(20 + i, [&] { ++late; });
    const std::size_t arena = eq.arenaRecords();

    eq.restore(snap);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.arenaRecords(), arena);
    EXPECT_EQ(eq.freeRecords(), arena - 1);
    eq.run();
    EXPECT_EQ(late, 0);

    // The recycled records are reusable for a fresh wave.
    for (int i = 0; i < 32; ++i)
        eq.scheduleIn(1 + i, [&] { ++late; });
    EXPECT_EQ(eq.arenaRecords(), arena);
    eq.run();
    EXPECT_EQ(late, 32);
}

TEST(EventQueue, RestoreAfterPostSnapshotRecurringBindPanics)
{
    // A Recurring bound after the capture owns a record the snapshot
    // cannot rewind — restoring into a mutated component graph is a
    // hard error, not silent corruption.
    EventQueue eq;
    eq.schedule(10, [] {});
    EventQueue::Snapshot snap = eq.snapshot();
    EventQueue::Recurring ev;
    ev.init(eq, [] {});
    EXPECT_THROW(eq.restore(snap), std::logic_error);
}

TEST(EventQueue, ManyEventsStaySorted)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    // Insert ticks in a scrambled deterministic pattern.
    for (std::uint64_t i = 0; i < 1000; ++i) {
        Tick when = (i * 7919) % 10007;
        eq.schedule(when, [&, when] {
            if (eq.curTick() < last)
                monotonic = false;
            last = eq.curTick();
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
}

// --- The timing wheel against a reference priority queue ----------

constexpr Tick cycle = coreClockPeriod;
constexpr Tick horizon = 1024 * cycle;

/** A firing as a trace sees it: (tick, event id). */
using Firing = std::pair<Tick, int>;

/**
 * The reference dispatcher: an ordered set of (tick, priority, seq,
 * id) keys, popped smallest first. Recurring events are ids too; at
 * most one key per recurring id is pending.
 */
class ReferenceQueue
{
  public:
    using Key = std::tuple<Tick, int, std::uint64_t, int>;

    Tick curTick() const { return now; }
    std::uint64_t pending() const { return keys.size(); }

    Tick
    nextLiveTick() const
    {
        return keys.empty() ? maxTick : std::get<0>(*keys.begin());
    }

    void
    arm(Tick when, EventPriority prio, int id)
    {
        keys.insert({when, static_cast<int>(prio), seq++, id});
    }

    /** Drop @p id's pending key (a destroyed armed Recurring). */
    void
    drop(int id)
    {
        std::erase_if(keys, [id](const Key &k) {
            return std::get<3>(k) == id;
        });
    }

    bool
    armed(int id) const
    {
        return std::any_of(keys.begin(), keys.end(),
                           [id](const Key &k) {
                               return std::get<3>(k) == id;
                           });
    }

    /** Pop the next key if its tick is at most @p limit. */
    bool
    popNext(Tick limit, int &id)
    {
        if (keys.empty() || std::get<0>(*keys.begin()) > limit)
            return false;
        now = std::get<0>(*keys.begin());
        id = std::get<3>(*keys.begin());
        keys.erase(keys.begin());
        return true;
    }

    void
    advanceTo(Tick limit)
    {
        now = std::max(now, limit);
    }

  private:
    std::set<Key> keys;
    Tick now = 0;
    std::uint64_t seq = 0;
};

/**
 * The randomized schedule both dispatchers run. Every firing appends
 * to the trace and draws its follow-up arms from an Rng keyed on its
 * place in the trace, so a rewound run re-draws exactly the arms it
 * drew before.
 *
 * Ids below recurringIds name the Recurring events (one per
 * priority class); one-shots take ids from nextId.
 */
struct Script
{
    static constexpr int recurringIds = 4;
    static constexpr EventPriority prios[] = {
        EventPriority::MemoryResponse, EventPriority::Default,
        EventPriority::CpuTick, EventPriority::Stat};

    std::uint64_t seed = 0;
    int maxOneShots = 0;
    /** Recurring firings re-arm only before this tick. */
    Tick recurringUntil = 0;
    int nextId = recurringIds;
    std::vector<Firing> trace;

    /**
     * A target tick drawn from now: the same tick, a cycle boundary
     * near or far (within the wheel, wrapping it, or past its
     * horizon), or an off-cycle tick.
     */
    static Tick
    drawWhen(Rng &rng, Tick now)
    {
        const Tick next = (now + cycle - 1) / cycle;
        switch (rng.nextBounded(8)) {
          case 0:
            return now;
          case 1:
          case 2:
            return (next + rng.nextRange(0, 4)) * cycle;
          case 3:
            return (next + rng.nextRange(5, 1023)) * cycle;
          case 4:
            return (next + rng.nextRange(1020, 1030)) * cycle;
          case 5:
            return (next + rng.nextRange(1024, 4000)) * cycle;
          default:
            return now + rng.nextRange(1, 3 * cycle);
        }
    }

    /** Run @p id's firing against @p q, which has just fired it. */
    template <class Queue>
    void
    fire(Queue &q, int id)
    {
        // Keyed on the firing's place in the trace, which a rewind
        // truncates, so every firing draws afresh and a replayed one
        // draws the same.
        Rng rng(mixSeed(seed, trace.size()));
        trace.push_back({q.curTick(), id});
        if (id < recurringIds) {
            if (q.curTick() < recurringUntil)
                q.armRecurring(id, drawWhen(rng, q.curTick()));
            return;
        }
        const unsigned arms = static_cast<unsigned>(rng.nextBounded(4));
        for (unsigned i = 0; i < arms && nextId < maxOneShots; ++i) {
            const EventPriority prio = prios[rng.nextBounded(4)];
            q.arm(drawWhen(rng, q.curTick()), prio, nextId++);
        }
    }
};

/** The kernel under test, driving Script through real callbacks. */
struct KernelSide
{
    EventQueue eq;
    Script script;
    std::vector<std::unique_ptr<EventQueue::Recurring>> recurring;

    explicit KernelSide(const Script &s) : script(s)
    {
        for (int r = 0; r < Script::recurringIds; ++r) {
            recurring.push_back(std::make_unique<EventQueue::Recurring>());
            recurring.back()->init(
                eq, [this, r] { script.fire(*this, r); },
                Script::prios[r]);
        }
    }

    Tick curTick() const { return eq.curTick(); }

    void
    arm(Tick when, EventPriority prio, int id)
    {
        eq.schedule(when, [this, id] { script.fire(*this, id); }, prio);
    }

    void armRecurring(int r, Tick when) { recurring[r]->schedule(when); }
};

/** The reference, driving the same Script by popping keys. */
struct ReferenceSide
{
    ReferenceQueue q;
    Script script;

    explicit ReferenceSide(const Script &s) : script(s) {}

    Tick curTick() const { return q.curTick(); }

    void
    arm(Tick when, EventPriority prio, int id)
    {
        q.arm(when, prio, id);
    }

    void
    armRecurring(int r, Tick when)
    {
        q.arm(when, Script::prios[r], r);
    }

    void
    runUntil(Tick limit)
    {
        int id = 0;
        while (q.popNext(limit, id))
            script.fire(*this, id);
        q.advanceTo(limit);
    }
};

/** Expect the two sides to agree on the clock and what is pending. */
void
expectSameState(const KernelSide &k, const ReferenceSide &r)
{
    EXPECT_EQ(k.eq.curTick(), r.q.curTick());
    EXPECT_EQ(k.eq.pending(), r.q.pending());
    EXPECT_EQ(k.eq.nextLiveTick(), r.q.nextLiveTick());
    for (int id = 0; id < Script::recurringIds; ++id)
        EXPECT_EQ(k.recurring[id] && k.recurring[id]->scheduled(),
                  r.q.armed(id));
}

/** Advance both sides to @p limit, off-cycle or not. */
void
runBothUntil(KernelSide &k, ReferenceSide &r, Tick limit)
{
    k.eq.runUntil(limit);
    r.runUntil(limit);
    expectSameState(k, r);
}

/**
 * Bind a Recurring, arm it at @p when, which decides whether it sits
 * on the wheel or in the heap, and destroy it before it fires. The
 * reference arms nothing, so the two sides must still agree.
 */
void
destroyArmedRecurring(KernelSide &k, const ReferenceSide &r, Tick when,
                      bool onWheel)
{
    const std::uint64_t wheel = k.eq.wheelArms();
    {
        EventQueue::Recurring doomed;
        doomed.init(k.eq, [] { ADD_FAILURE() << "destroyed event fired"; });
        doomed.schedule(when);
        EXPECT_EQ(k.eq.wheelArms() - wheel, onWheel ? 1u : 0u);
        EXPECT_EQ(k.eq.pending(), r.q.pending() + 1);
    }
    expectSameState(k, r);
}

TEST(EventQueueWheel, DispatchMatchesReferenceOrder)
{
    for (std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
        SCOPED_TRACE(seed);
        Script script;
        script.seed = seed;
        script.maxOneShots = 6000;
        script.recurringUntil = 3000 * cycle;
        KernelSide k(script);
        ReferenceSide r(script);
        Rng steps(mixSeed(seed, 0x57e9));

        // The seed wave: one-shots of every priority spread over the
        // wheel, its wrap and past the horizon, and each Recurring
        // armed at a cycle boundary.
        for (int i = 0; i < 48; ++i) {
            const EventPriority prio = Script::prios[i % 4];
            const Tick when = Script::drawWhen(steps, 0);
            k.arm(when, prio, k.script.nextId++);
            r.arm(when, prio, r.script.nextId++);
        }
        for (int id = 0; id < Script::recurringIds; ++id) {
            k.armRecurring(id, (id + 1) * cycle);
            r.armRecurring(id, (id + 1) * cycle);
        }
        expectSameState(k, r);

        // Advance in steps whose limits are mostly off-cycle, checking
        // the clock, the pending count and the next tick after each.
        for (int i = 0; i < 40; ++i)
            runBothUntil(k, r, k.eq.curTick() + steps.nextRange(0, 5000));

        // A capture mid-run: run on, rewind, and run on again. The
        // script's host-side state is rewound with the queue.
        const EventQueue::Snapshot snap = k.eq.snapshot();
        const Script atSnap = k.script;
        for (int i = 0; i < 20; ++i)
            k.eq.runUntil(k.eq.curTick() + steps.nextRange(0, 5000));
        k.eq.restore(snap);
        k.script = atSnap;
        expectSameState(k, r);

        for (int i = 0; i < 40; ++i)
            runBothUntil(k, r, k.eq.curTick() + steps.nextRange(0, 5000));

        // Destroy armed Recurrings mid-run: one bound now and armed on
        // the wheel, one armed in the heap (an off-cycle tick), and
        // two of the script's own wherever their last firing put
        // them. Then drain.
        const Tick next = k.eq.curTick() / cycle + 1;
        destroyArmedRecurring(k, r, (next + 7) * cycle, true);
        destroyArmedRecurring(k, r, next * cycle + 123, false);
        for (int id : {0, 1}) {
            k.recurring[id].reset();
            r.q.drop(id);
        }
        expectSameState(k, r);
        k.eq.run();
        r.runUntil(maxTick - 1);
        EXPECT_TRUE(k.eq.empty());
        EXPECT_EQ(k.script.trace, r.script.trace);
        EXPECT_EQ(k.eq.serviced(), r.script.trace.size());
        // The schedule reached every path it exists to test.
        EXPECT_GT(k.eq.wheelArms(), 1000u);
        EXPECT_GT(k.eq.heapArms(), 1000u);
    }
}

TEST(EventQueueWheel, DestroyedArmedRecurringLeavesWheelAndHeap)
{
    // One Recurring armed on the wheel and one in the heap, each
    // between two one-shots at the same tick: destroying both leaves
    // exactly the one-shots, in order.
    EventQueue eq;
    std::vector<int> order;
    auto onWheel = std::make_unique<EventQueue::Recurring>();
    auto inHeap = std::make_unique<EventQueue::Recurring>();
    onWheel->init(eq, [&order] { order.push_back(-1); });
    inHeap->init(eq, [&order] { order.push_back(-2); });
    eq.schedule(1000, [&order] { order.push_back(1); });
    onWheel->schedule(1000);
    eq.schedule(1000, [&order] { order.push_back(2); });
    eq.schedule(1250, [&order] { order.push_back(3); });
    inHeap->schedule(1250);
    eq.schedule(1250, [&order] { order.push_back(4); });
    EXPECT_EQ(eq.wheelArms(), 3u);
    EXPECT_EQ(eq.heapArms(), 3u);
    EXPECT_EQ(eq.pending(), 6u);

    onWheel.reset();
    inHeap.reset();
    EXPECT_EQ(eq.pending(), 4u);
    EXPECT_EQ(eq.nextLiveTick(), 1000u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueWheel, OffCycleNow)
{
    // runUntil to an off-cycle limit leaves now between two cycle
    // boundaries; the wheel must still find the next boundary's
    // events, and arms at that boundary must join them in key order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(500, [&order] { order.push_back(1); });
    eq.schedule(1000, [&order] { order.push_back(3); },
                EventPriority::CpuTick);
    eq.schedule(700, [&order] { order.push_back(2); });
    eq.runUntil(800);
    EXPECT_EQ(eq.curTick(), 800u);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.nextLiveTick(), 1000u);

    // From now = 800: a same-boundary arm of higher priority runs
    // first, one of equal priority after the earlier arm.
    eq.schedule(1000, [&order] { order.push_back(4); },
                EventPriority::CpuTick);
    eq.schedule(1000, [&order] { order.push_back(0); },
                EventPriority::MemoryResponse);
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.nextLiveTick(), 1000u);
    eq.runUntil(999);
    EXPECT_EQ(eq.curTick(), 999u);
    EXPECT_EQ(eq.pending(), 3u);
    eq.runUntil(1250);
    EXPECT_EQ(eq.curTick(), 1250u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextLiveTick(), maxTick);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4}));

    // A boundary a full horizon past the next one wraps onto the
    // same slot; it goes to the heap and still pops after it.
    eq.schedule(1500 + horizon, [&order] { order.push_back(6); });
    eq.schedule(1500, [&order] { order.push_back(5); });
    EXPECT_EQ(eq.nextLiveTick(), 1500u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 4, 5, 6}));
    EXPECT_EQ(eq.curTick(), 1500 + horizon);
}

TEST(EventQueueWheel, Fig7CellArmsOnTheWheel)
{
    // The wheel pays off only if the simulator's own traffic lands on
    // it: a fig7-shaped cell (Queue, 4 threads x 80 ops, StrandWeaver
    // under SFR) must arm at least 95% of its events there.
    WorkloadParams params;
    params.numThreads = 4;
    params.opsPerThread = 80;
    params.seed = 1;
    const RecordedWorkload rec = recordWorkload(WorkloadKind::Queue, params);
    std::unique_ptr<System> sys = buildSystem(
        rec,
        lowerWorkload(rec, HwDesign::StrandWeaver, PersistencyModel::Sfr,
                      LogStyle::Undo),
        ExperimentConfig{});
    sys->run();
    const EventQueue &eq = sys->eventQueue();
    const std::uint64_t arms = eq.wheelArms() + eq.heapArms();
    EXPECT_EQ(arms, eq.serviced());
    EXPECT_GE(static_cast<double>(eq.wheelArms()),
              0.95 * static_cast<double>(arms));
}

} // namespace
} // namespace strand
