/**
 * @file
 * Unit tests for the deterministic parallel runner (qoserve::par).
 *
 * The pool's contract is that N-thread execution is observationally
 * identical to the serial loop: index-ordered results, index-ordered
 * exception propagation, and per-task RNG streams that are pure
 * functions of (seed, index). These tests exercise the contract at
 * several thread counts, including more threads than tasks.
 */

#include "simcore/thread_pool.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/rng.hh"

namespace qoserve {
namespace {

TEST(ThreadPool, ResolveJobsMapsZeroToHardware)
{
    EXPECT_EQ(par::resolveJobs(0), par::hardwareJobs());
    EXPECT_EQ(par::resolveJobs(1), 1);
    EXPECT_EQ(par::resolveJobs(7), 7);
    EXPECT_EQ(par::resolveJobs(-3), 1);
    EXPECT_GE(par::hardwareJobs(), 1);
}

TEST(ThreadPool, SubmitAndWaitRunsEveryTask)
{
    par::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4);

    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork)
{
    std::atomic<int> counter{0};
    {
        par::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must finish the queue.
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (int jobs : {1, 2, 4, 9}) {
        std::vector<std::atomic<int>> hits(257);
        par::parallelFor(jobs, hits.size(),
                         [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndSingleton)
{
    int calls = 0;
    par::parallelFor(4, 0, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    par::parallelFor(4, 1, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelMapJoinsInIndexOrder)
{
    auto square = [](std::size_t i) { return i * i; };
    std::vector<std::size_t> serial = par::parallelMap(1, 100, square);
    for (int jobs : {2, 4, 16}) {
        std::vector<std::size_t> parallel =
            par::parallelMap(jobs, 100, square);
        EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
    }
}

TEST(ThreadPool, SplitRngStreamsMatchAcrossJobCounts)
{
    // A fan-out that sums one draw per task, each task splitting its
    // stream from (seed, index), must reduce to the same total at any
    // thread count — the determinism contract end to end.
    auto draw_sum = [](int jobs) {
        std::vector<std::uint64_t> draws = par::parallelMap(
            jobs, 64, [](std::size_t i) {
                return Rng(7).split("task" + std::to_string(i)).nextU64();
            });
        return std::accumulate(draws.begin(), draws.end(),
                               std::uint64_t{0});
    };
    std::uint64_t serial = draw_sum(1);
    EXPECT_EQ(draw_sum(2), serial);
    EXPECT_EQ(draw_sum(8), serial);
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    // Indices 10 and 60 both throw; the serial loop would surface 10
    // first, so the parallel loop must too — at every job count.
    for (int jobs : {1, 3, 8}) {
        try {
            par::parallelFor(jobs, 100, [](std::size_t i) {
                if (i == 60)
                    throw std::runtime_error("index 60");
                if (i == 10)
                    throw std::runtime_error("index 10");
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 10") << "jobs=" << jobs;
        }
    }
}

TEST(ThreadPool, PoolSurvivesThrowingTasks)
{
    // An exception must not wedge the pool: later fan-outs on fresh
    // pools and the throwing call's own join both complete.
    EXPECT_THROW(par::parallelFor(4, 8,
                                  [](std::size_t) {
                                      throw std::logic_error("boom");
                                  }),
                 std::logic_error);

    std::atomic<int> counter{0};
    par::parallelFor(4, 8, [&counter](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, MoreThreadsThanTasks)
{
    std::vector<int> out(3, 0);
    par::parallelFor(16, out.size(),
                     [&out](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(out, (std::vector<int>{1, 1, 1}));
}

} // namespace
} // namespace qoserve
