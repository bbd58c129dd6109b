/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, priorities,
 * time-limited execution, the pooled record arena, Recurring events,
 * and snapshot/restore.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

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

} // namespace
} // namespace strand
