/**
 * @file
 * Work-queue thread pool implementation.
 */

#include "simcore/thread_pool.hh"

#include <atomic>

#include "simcore/logging.hh"

namespace qoserve {
namespace par {

int
hardwareJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
resolveJobs(int jobs)
{
    if (jobs == 0)
        return hardwareJobs();
    return jobs < 1 ? 1 : jobs;
}

ThreadPool::ThreadPool(int threads)
{
    int count = resolveJobs(threads);
    workers_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    QOSERVE_ASSERT(task != nullptr, "null task submitted");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        QOSERVE_ASSERT(!stopping_, "submit() after pool shutdown");
        queue_.push_back(std::move(task));
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock,
                  [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                allIdle_.notify_all();
        }
    }
}

namespace detail {

void
runIndexed(int jobs, std::size_t n,
           const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;

    // Serial path: jobs = 1 is the plain loop, bit-for-bit.
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::size_t thread_count =
        std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};

    auto drain = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    {
        ThreadPool pool(static_cast<int>(thread_count));
        for (std::size_t t = 0; t < thread_count; ++t)
            pool.submit(drain);
        pool.wait();
    }

    // Deterministic error behavior: the lowest failing index wins,
    // exactly as in the serial loop (which would have thrown there
    // first).
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace detail

} // namespace par
} // namespace qoserve
