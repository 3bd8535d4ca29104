/**
 * @file
 * The scheduling iteration allocates nothing in steady state: decode
 * iterations, with or without a request finishing, reuse the batch's
 * and the scheduler's capacity. A binary of its own, because it
 * replaces the global operator new to count calls.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sched/qoserve_scheduler.hh"
#include "sched_test_util.hh"

namespace {

/** Global operator new calls, so a test can assert that a region of
 *  code allocated nothing. */
std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every non-aligned form is replaced, so each allocation and its
// release pair as malloc/free (sanitizers check the pairing).
void *
operator new(std::size_t n)
{
    return countedAllocOrThrow(n);
}

void *
operator new[](std::size_t n)
{
    return countedAllocOrThrow(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace qoserve {
namespace {

using test::SchedEnvFixture;

/** One iteration into the reused @p batch, as Replica runs it. */
void
iterate(Scheduler &sched, const PerfModel &perf, Batch &batch,
        SimTime &now)
{
    sched.formBatchInto(batch, now);
    now += perf.iterationTime(batch.work());
    sched.onBatchComplete(batch, now);
}

/** Admit @p n interactive requests with ids from @p first_id whose
 *  prompts all fit one iteration; the i-th decodes decode_base +
 *  i * decode_step tokens. */
void
admit(SchedEnvFixture &fx, Scheduler &sched, SimTime now,
      std::uint64_t first_id, int n, int decode_base, int decode_step)
{
    for (int i = 0; i < n; ++i) {
        sched.enqueue(fx.makeRequest(first_id + static_cast<std::uint64_t>(i),
                                     now, 64, decode_base + i * decode_step,
                                     0),
                      now);
    }
}

TEST(SchedulerAllocation, SteadyDecodeIterationsAllocateNothing)
{
    SchedEnvFixture fx;
    QoServeScheduler sched(fx.env);
    Batch batch;
    SimTime now{0.0};
    admit(fx, sched, now, 0, 8, 400, 0);
    for (int i = 0; i < 8; ++i)
        iterate(sched, fx.perf, batch, now);
    ASSERT_EQ(sched.prefillQueueSize(), 0u);
    ASSERT_EQ(sched.decodeQueueSize(), 8u);

    // No gtest assertion inside the window: only the scheduler runs.
    std::uint64_t before = gAllocations.load();
    bool all_decoding = true;
    for (int i = 0; i < 200; ++i) {
        iterate(sched, fx.perf, batch, now);
        all_decoding = all_decoding && sched.decodeQueueSize() == 8;
    }
    std::uint64_t allocations = gAllocations.load() - before;
    EXPECT_TRUE(all_decoding) << "a request finished inside the window";
    EXPECT_EQ(allocations, 0u);
}

TEST(SchedulerAllocation, RetiringDecodesAllocateNothing)
{
    SchedEnvFixture fx;
    QoServeScheduler sched(fx.env);

    // A first wave runs to completion, so the KV manager's free-slot
    // list and the scheduler's scratch of finished decodes have grown
    // to this load's peak, as they do early in a long run.
    Batch batch;
    SimTime now{0.0};
    admit(fx, sched, now, 0, 8, 20, 2);
    while (sched.hasWork() && now < SimTime{60.0})
        iterate(sched, fx.perf, batch, now);
    ASSERT_FALSE(sched.hasWork());

    // Second wave: request i retires 10 iterations after request
    // i - 1, and the window spans six retirements.
    admit(fx, sched, now, 8, 8, 100, 10);
    while (sched.decodeQueueSize() != 7 && now < SimTime{120.0})
        iterate(sched, fx.perf, batch, now);
    ASSERT_EQ(sched.decodeQueueSize(), 7u);
    ASSERT_EQ(sched.prefillQueueSize(), 0u);

    std::uint64_t before = gAllocations.load();
    while (sched.decodeQueueSize() > 1 && now < SimTime{120.0})
        iterate(sched, fx.perf, batch, now);
    std::uint64_t allocations = gAllocations.load() - before;
    EXPECT_EQ(sched.decodeQueueSize(), 1u);
    EXPECT_EQ(allocations, 0u);
}

} // namespace
} // namespace qoserve
