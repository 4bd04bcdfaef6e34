#include "util/thread_pool.hh"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "obs/cpu_time.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/assert.hh"

namespace dnastore
{

namespace
{

std::string
summarise(const std::vector<std::string> &messages, std::size_t total)
{
    std::string text = std::to_string(messages.size()) + " of " +
        std::to_string(total) + " parallel chunks failed:";
    for (const auto &message : messages)
        text += " [" + message + "]";
    return text;
}

/** Registry handles fetched once; workers then only touch atomics. */
struct PoolMetrics
{
    obs::Counter &tasks_total;
    obs::Gauge &queue_depth;
    obs::FixedHistogram &task_seconds;
    obs::FixedHistogram &queue_wait_seconds;
    obs::FixedHistogram &task_cpu_seconds;
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics handles{
        obs::metrics().counter("util.thread_pool.tasks_total"),
        obs::metrics().gauge("util.thread_pool.queue_depth"),
        obs::metrics().histogram("util.thread_pool.task_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("util.thread_pool.queue_wait_seconds",
                                 obs::latencyBucketsSeconds()),
        obs::metrics().histogram("util.thread_pool.task_cpu_seconds",
                                 obs::latencyBucketsSeconds()),
    };
    return handles;
}

} // namespace

ParallelError::ParallelError(std::vector<std::string> messages,
                             std::size_t total_chunks)
    : std::runtime_error(summarise(messages, total_chunks)),
      messages_(std::move(messages)),
      total_chunks_(total_chunks)
{
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    workers.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex);
        stopping = true;
    }
    available.notifyAll();
    for (auto &worker : workers)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    PoolMetrics &pm = poolMetrics();
    for (;;) {
        PendingTask task;
        {
            // Manual predicate loop (not the lambda-predicate overload)
            // so the thread-safety analysis sees the guarded reads of
            // `stopping` and `tasks` happen with `mutex` held.
            MutexLock lock(mutex);
            while (!stopping && tasks.empty())
                available.wait(mutex);
            if (tasks.empty())
                return; // stopping and drained
            task = std::move(tasks.front());
            tasks.pop();
            pm.queue_depth.set(static_cast<double>(tasks.size()));
        }
        const std::uint64_t begin_us = obs::traceNowMicros();
        pm.queue_wait_seconds.observe(
            begin_us > task.enqueue_us
                ? static_cast<double>(begin_us - task.enqueue_us) * 1e-6
                : 0.0);
        pm.tasks_total.add();
        const std::uint64_t cpu_begin_ns = obs::threadCpuNanos();
        {
            // Adopt the submitter's stage tag so allocation attribution
            // follows the work onto the worker thread.
            obs::StageTagScope tag(task.stage_tag);
            task.fn();
        }
        const std::uint64_t cpu_end_ns = obs::threadCpuNanos();
        const std::uint64_t end_us = obs::traceNowMicros();
        pm.task_seconds.observe(
            static_cast<double>(end_us - begin_us) * 1e-6);
        pm.task_cpu_seconds.observe(
            cpu_end_ns > cpu_begin_ns
                ? static_cast<double>(cpu_end_ns - cpu_begin_ns) * 1e-9
                : 0.0);
    }
}

namespace
{

/** Set in a child forked after the shared pool started. */
std::atomic<bool> g_forked_child{false};

std::string
whatOf(const std::exception_ptr &error)
{
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

/**
 * One parallelChunks call.  Helpers share it by shared_ptr, so a helper
 * that starts after every chunk was claimed still finds it alive, claims
 * nothing and returns without touching fn.
 */
struct Loop
{
    /** Claim and run chunks until none is left to claim. */
    void
    runChunks()
    {
        std::size_t c = 0;
        while ((c = next.fetch_add(1, std::memory_order_acq_rel)) < chunks) {
            const std::size_t lo = begin + c * chunk_size;
            try {
                fn(lo, std::min(end, lo + chunk_size));
            } catch (...) {
                errors[c] = std::current_exception();
            }
            if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks)
                done.notify_all();
        }
    }

    const std::function<void(std::size_t, std::size_t)> &fn;
    const std::size_t begin;
    const std::size_t end;
    const std::size_t chunk_size;
    const std::size_t chunks;
    // Slot c is written only by whoever ran chunk c, before it counts
    // the chunk done.
    std::vector<std::exception_ptr> errors;
    std::atomic<std::size_t> next{0}; //!< Next chunk to claim.
    std::atomic<std::size_t> done{0}; //!< Chunks finished.
};

} // namespace

ThreadPool &
sharedThreadPool()
{
    // Never destroyed: loops may still run on other threads during
    // static destruction, and a forked child could not join its workers.
    static ThreadPool *const pool = [] {
        ::pthread_atfork(nullptr, nullptr, [] {
            g_forked_child.store(true, std::memory_order_release);
        });
        const unsigned cores = std::thread::hardware_concurrency();
        return new ThreadPool(cores > 2 ? cores - 1 : 1);
    }();
    return *pool;
}

void
parallelChunks(std::size_t num_threads, std::size_t begin, std::size_t end,
               const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (begin >= end)
        return;
    const std::size_t total = end - begin;
    if (num_threads <= 1 || total == 1 ||
        g_forked_child.load(std::memory_order_acquire)) {
        fn(begin, end);
        return;
    }
    // Over-decompose a little so uneven work balances out.
    const std::size_t planned = std::min(total, num_threads * 4);
    const std::size_t chunk_size = (total + planned - 1) / planned;
    const std::size_t chunks = (total + chunk_size - 1) / chunk_size;
    const auto loop = std::make_shared<Loop>(
        fn, begin, end, chunk_size, chunks,
        std::vector<std::exception_ptr>(chunks));
    ThreadPool &pool = sharedThreadPool();
    for (std::size_t h = 1; h < std::min(num_threads, chunks); ++h)
        (void)pool.submit([loop] { loop->runChunks(); });
    loop->runChunks();
    // Nothing is left to claim: wait only for chunks that started
    // helpers claimed.  Helpers that never started are not waited for.
    std::size_t done = 0;
    while ((done = loop->done.load(std::memory_order_acquire)) < chunks)
        loop->done.wait(done, std::memory_order_acquire);

    // The caller takes the exceptions so it alone releases them.  A
    // single failure rethrows unchanged; several become a ParallelError.
    std::vector<std::exception_ptr> errors = std::move(loop->errors);
    errors.erase(std::remove(errors.begin(), errors.end(), nullptr),
                 errors.end());
    if (errors.size() == 1)
        std::rethrow_exception(errors.front());
    if (!errors.empty()) {
        std::vector<std::string> messages;
        messages.reserve(errors.size());
        for (const std::exception_ptr &error : errors)
            messages.push_back(whatOf(error));
        throw ParallelError(std::move(messages), chunks);
    }
}

void
parallelFor(std::size_t num_threads, std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &fn)
{
    parallelChunks(num_threads, begin, end,
                   [&fn](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i)
                           fn(i);
                   });
}

} // namespace dnastore
