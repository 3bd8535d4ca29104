/**
 * @file
 * Deterministic parallel execution for independent simulations.
 *
 * Every evaluation artifact in this reproduction is produced by
 * sweeping dozens of fully independent simulations — (policy, QPS,
 * seed) runs in the benches, probe runs inside the goodput search,
 * per-tree bagging in the forest predictor. qoserve::par runs those
 * fan-outs on a small work-queue thread pool while preserving
 * bit-for-bit determinism:
 *
 *  - tasks never share mutable state; each splits any randomness it
 *    needs from (seed, index) — Rng(seed).split(<name><index>) — not
 *    from a shared stream;
 *  - results are joined in index order, so reductions see the same
 *    operand order regardless of completion order;
 *  - exceptions are re-thrown in index order (the lowest failing
 *    index wins), so error behavior is reproducible too.
 *
 * Under this contract, parallelFor/parallelMap with N threads produce
 * exactly the output of the serial loop, and jobs = 1 *is* the serial
 * loop (no threads are spawned).
 */

#ifndef QOSERVE_SIMCORE_THREAD_POOL_HH
#define QOSERVE_SIMCORE_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace qoserve {
namespace par {

/**
 * Number of worker threads to use by default: the hardware
 * concurrency, or 1 when the runtime cannot report it.
 */
int hardwareJobs();

/**
 * Resolve a user-facing --jobs value: 0 means "auto" (hardware
 * concurrency); anything else is clamped to at least 1.
 */
int resolveJobs(int jobs);

/**
 * A small fixed-size work-queue thread pool.
 *
 * Tasks submitted via submit() are executed by the worker threads in
 * FIFO order; wait() blocks until the queue is drained and all
 * workers are idle. The pool itself imposes no result ordering —
 * parallelFor/parallelMap build the deterministic join on top.
 */
class ThreadPool
{
  public:
    /** @param threads Worker count; 0 means hardwareJobs(). */
    explicit ThreadPool(int threads);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. Must not be called after shutdown began. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Number of worker threads. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    std::size_t active_ = 0;
    bool stopping_ = false;
};

namespace detail {

/** Run body(0..n-1) across up to @p jobs threads; rethrow in order. */
void runIndexed(int jobs, std::size_t n,
                const std::function<void(std::size_t)> &body);

} // namespace detail

/**
 * Parallel loop over [0, n). With jobs <= 1 this is exactly the
 * serial `for` loop in the calling thread. With jobs > 1, iterations
 * run on a work-queue pool; the call returns once all have finished.
 * If iterations throw, the exception of the lowest index is
 * re-thrown after the loop drains.
 *
 * @param jobs Worker threads (0 = hardware concurrency).
 * @param n Iteration count.
 * @param body Iteration body; must not share mutable state across
 *        indices (split per-task randomness from (seed, index)).
 */
template <typename Body>
void
parallelFor(int jobs, std::size_t n, Body &&body)
{
    detail::runIndexed(resolveJobs(jobs), n,
                       std::function<void(std::size_t)>(
                           std::forward<Body>(body)));
}

/**
 * Parallel map over [0, n): returns {fn(0), ..., fn(n-1)} with
 * results joined in index order, independent of completion order.
 * Same execution and exception contract as parallelFor.
 */
template <typename Fn>
auto
parallelMap(int jobs, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> out(n);
    parallelFor(jobs, n,
                [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace par
} // namespace qoserve

#endif // QOSERVE_SIMCORE_THREAD_POOL_HH
