/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include "simcore/event_queue.hh"

#include <gtest/gtest.h>

#include <vector>

namespace qoserve {
namespace {

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), SimTime{0.0});
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, FiresEventsInTimestampOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(SimTime{3.0}, [&] { order.push_back(3); });
    eq.schedule(SimTime{1.0}, [&] { order.push_back(1); });
    eq.schedule(SimTime{2.0}, [&] { order.push_back(2); });

    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), SimTime{3.0});
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(SimTime{1.0}, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesToFiredEvent)
{
    EventQueue eq;
    SimTime seen{-1.0};
    eq.schedule(SimTime{2.5}, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, SimTime{2.5});
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime seen{-1.0};
    eq.schedule(SimTime{1.0}, [&] {
        eq.scheduleAfter(0.5, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(seen.seconds(), 1.5);
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(SimTime{1.0}, [&] { ++fired; });
    eq.schedule(SimTime{2.0}, [&] { ++fired; });
    eq.schedule(SimTime{3.0}, [&] { ++fired; });

    EXPECT_EQ(eq.run(SimTime{2.0}), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pendingEvents(), 1u);
}

TEST(EventQueue, EventScheduledExactlyAtUntilFires)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(SimTime{2.0}, [&] { fired = true; });
    eq.run(SimTime{2.0});
    EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(SimTime{1.0}, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pendingEvents(), 0u);
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsNoOp)
{
    EventQueue eq;
    EventId id = eq.schedule(SimTime{1.0}, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(0));
    EXPECT_FALSE(eq.cancel(12345));
}

TEST(EventQueue, EventsScheduledDuringRunAreExecuted)
{
    EventQueue eq;
    int depth = 0;
    eq.schedule(SimTime{1.0}, [&] {
        ++depth;
        eq.scheduleAfter(1.0, [&] { ++depth; });
    });
    eq.run();
    EXPECT_EQ(depth, 2);
    EXPECT_EQ(eq.now(), SimTime{2.0});
}

TEST(EventQueue, PoolSlotsBoundedByPeakConcurrency)
{
    // The arena property: slots are recycled on fire/cancel, so the
    // pool grows to the peak number of *simultaneously pending*
    // events, not the number ever scheduled. A self-rescheduling
    // chain of bounded width must leave the pool small no matter how
    // many events pass through it.
    EventQueue eq;
    constexpr int kWidth = 8;
    constexpr int kRounds = 5000;
    int fired = 0;
    int reschedules = kWidth * (kRounds - 1);
    std::function<void()> tick = [&] {
        ++fired;
        if (reschedules > 0) {
            --reschedules;
            eq.scheduleAfter(0.001, tick);
        }
    };
    for (int i = 0; i < kWidth; ++i)
        eq.schedule(SimTime{0.0}, tick);
    eq.run();

    EXPECT_EQ(fired, kWidth * kRounds);
    EXPECT_EQ(eq.firedEvents(), static_cast<std::uint64_t>(fired));
    // Allow a little headroom over the exact peak for growth policy,
    // but 40k events through an O(width) pool must not grow it.
    EXPECT_LE(eq.poolSlots(), static_cast<std::size_t>(4 * kWidth));
}

TEST(EventQueue, CancelRecyclesSlotImmediately)
{
    EventQueue eq;
    eq.schedule(SimTime{1.0}, [] {});
    std::size_t baseline = eq.poolSlots();
    for (int i = 0; i < 1000; ++i) {
        EventId id = eq.schedule(SimTime{2.0}, [] {});
        EXPECT_TRUE(eq.cancel(id));
    }
    // Cancelled slots return to the free list, so the churn above
    // reuses one slot instead of growing the pool.
    EXPECT_LE(eq.poolSlots(), baseline + 1);
    eq.run();
    EXPECT_EQ(eq.firedEvents(), 1u);
}

TEST(EventQueue, FiredEventsCountsLifetimeNotPending)
{
    EventQueue eq;
    eq.schedule(SimTime{1.0}, [] {});
    eq.schedule(SimTime{2.0}, [] {});
    EventId id = eq.schedule(SimTime{3.0}, [] {});
    eq.cancel(id);
    eq.run();
    // Cancelled events never fire; the counter is the kernel's unit
    // of work for per-event cost reporting (bench/ext_scale).
    EXPECT_EQ(eq.firedEvents(), 2u);
    EXPECT_EQ(eq.pendingEvents(), 0u);
}

TEST(EventQueue, LongChainTerminates)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 10000)
            eq.scheduleAfter(0.001, tick);
    };
    eq.schedule(SimTime{0.0}, tick);
    eq.run();
    EXPECT_EQ(count, 10000);
    EXPECT_NEAR(eq.now().seconds(), 9.999, 1e-6);
}

} // namespace
} // namespace qoserve
