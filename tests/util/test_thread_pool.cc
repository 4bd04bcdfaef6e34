/**
 * @file
 * Tests for the worker thread pool and the shared executor behind the
 * free parallelFor/parallelChunks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/stage_tag.hh"
#include "util/sync.hh"
#include "util/thread_pool.hh"

namespace dnastore
{
namespace
{

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    auto f1 = pool.submit([] { return 21 * 2; });
    auto f2 = pool.submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(4, 0, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop)
{
    bool touched = false;
    parallelFor(2, 5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    EXPECT_THROW(parallelFor(2, 0, 100,
                             [](std::size_t i) {
                                 if (i == 57)
                                     throw std::logic_error("57");
                             }),
                 std::logic_error);
}

TEST(ThreadPool, SingleChunkFailureKeepsOriginalExceptionType)
{
    // One failing chunk must rethrow the original exception unchanged,
    // not wrap it.
    try {
        parallelFor(4, 0, 64, [](std::size_t i) {
            if (i == 3) // all failures inside one chunk
                throw std::out_of_range("only-me");
        });
        FAIL() << "expected an exception";
    } catch (const std::out_of_range &error) {
        EXPECT_STREQ(error.what(), "only-me");
    }
}

TEST(ThreadPool, AggregatesAllWorkerExceptions)
{
    // Regression: only the first worker exception used to surface; the
    // rest vanished.  With every chunk failing, the aggregate must
    // report each one.
    try {
        // 64 items on 2 threads -> min(64, 2*4) = 8 chunks of 8.
        parallelChunks(2, 0, 64, [](std::size_t lo, std::size_t) {
            throw std::runtime_error("chunk@" + std::to_string(lo));
        });
        FAIL() << "expected a ParallelError";
    } catch (const ParallelError &error) {
        EXPECT_EQ(error.totalChunks(), 8u);
        ASSERT_EQ(error.messages().size(), 8u);
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(error.messages()[c],
                      "chunk@" + std::to_string(c * 8));
        }
        // The summary mentions the failure count and each message.
        const std::string what = error.what();
        EXPECT_NE(what.find("8 of 8"), std::string::npos);
        EXPECT_NE(what.find("chunk@56"), std::string::npos);
    }
}

TEST(ThreadPool, AggregatesMixedSuccessAndFailure)
{
    std::atomic<std::size_t> completed{0};
    try {
        parallelChunks(2, 0, 64, [&](std::size_t lo, std::size_t hi) {
            if (lo == 8 || lo == 40)
                throw std::runtime_error("bad@" + std::to_string(lo));
            completed.fetch_add(hi - lo);
        });
        FAIL() << "expected a ParallelError";
    } catch (const ParallelError &error) {
        EXPECT_EQ(error.messages().size(), 2u);
    }
    // Every healthy chunk still ran to completion.
    EXPECT_EQ(completed.load(), 48u);
}

TEST(ThreadPool, ParallelChunksCoversRangeOnce)
{
    std::atomic<std::size_t> total{0};
    parallelChunks(3, 10, 250, [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 240u);
}

TEST(ThreadPool, SizeReportsWorkers)
{
    ThreadPool pool(5);
    EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, DefaultUsesAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    auto f = pool.submit([] { return 1; });
    EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, PublishesQueueWaitAndBusyAccounting)
{
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    {
        ThreadPool pool(2);
        std::vector<std::future<void>> empty_tasks;
        for (int i = 0; i < 64; ++i)
            empty_tasks.push_back(pool.submit([] {}));
        for (auto &task : empty_tasks)
            task.get();
        // One task with measurable wall time so busy_micros must move.
        pool.submit([] {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }).get();
    } // destructor joins: busy/idle totals are final
    const obs::MetricsSnapshot delta =
        obs::metrics().snapshot().delta(before);

    const auto tasks =
        delta.counters.find("util.thread_pool.tasks_total");
    ASSERT_NE(tasks, delta.counters.end());
    EXPECT_GT(tasks->second, 0u);

    // Every dequeued task recorded exactly one enqueue->dequeue wait.
    const auto wait =
        delta.histograms.find("util.thread_pool.queue_wait_seconds");
    ASSERT_NE(wait, delta.histograms.end());
    EXPECT_EQ(wait->second.total_count, tasks->second);
    EXPECT_GE(wait->second.sum, 0.0);

    const auto cpu =
        delta.histograms.find("util.thread_pool.task_cpu_seconds");
    ASSERT_NE(cpu, delta.histograms.end());
    EXPECT_EQ(cpu->second.total_count, tasks->second);

    // The sleeping task makes >= ~10ms of busy wall time; idle is
    // whatever the other worker accumulated waiting for work.
    const auto busy =
        delta.counters.find("util.thread_pool.busy_micros_total");
    ASSERT_NE(busy, delta.counters.end());
    EXPECT_GE(busy->second, 5000u);

    const auto utilization =
        delta.gauges.find("util.thread_pool.utilization");
    ASSERT_NE(utilization, delta.gauges.end());
    EXPECT_GE(utilization->second.value, 0.0);
    EXPECT_LE(utilization->second.value, 1.0);
}

TEST(ThreadPool, PropagatesSubmitterStageTagIntoWorkers)
{
    ThreadPool pool(2);
    std::string observed;
    {
        obs::StageTagScope tag("test.pool_stage");
        observed = pool.submit([] {
                           return std::string(obs::currentStageTag());
                       })
                       .get();
    }
    EXPECT_EQ(observed, "test.pool_stage");
    // Outside any scope, submitted work runs untagged.
    EXPECT_EQ(pool.submit([] {
                      return std::string(obs::currentStageTag());
                  })
                  .get(),
              "");
}

/**
 * Occupies every worker of the shared pool until release(); the
 * constructor returns once all of them are inside a blocking task, so
 * every task queued before it has been dequeued and counted.
 */
class SaturatedSharedPool
{
  public:
    SaturatedSharedPool()
    {
        ThreadPool &pool = sharedThreadPool();
        for (std::size_t w = 0; w < pool.size(); ++w) {
            blockers_.push_back(pool.submit([this] {
                started_.fetch_add(1);
                gate_.wait();
            }));
        }
        while (started_.load() < pool.size())
            std::this_thread::yield();
    }

    SaturatedSharedPool(const SaturatedSharedPool &) = delete;
    SaturatedSharedPool &operator=(const SaturatedSharedPool &) = delete;

    ~SaturatedSharedPool() { release(); }

    void
    release()
    {
        if (released_)
            return;
        released_ = true;
        open_.set_value();
        for (auto &blocker : blockers_)
            blocker.get();
    }

  private:
    std::promise<void> open_;
    std::shared_future<void> gate_ = open_.get_future().share();
    std::atomic<std::size_t> started_{0};
    std::vector<std::future<void>> blockers_;
    bool released_ = false;
};

std::uint64_t
sharedTasksTotal()
{
    return obs::metrics().counter("util.thread_pool.tasks_total").value();
}

TEST(SharedThreadPool, SizedFromHostLeavingTheCallerACore)
{
    const unsigned cores = std::thread::hardware_concurrency();
    EXPECT_EQ(sharedThreadPool().size(), cores > 2 ? cores - 1 : 1u);
    EXPECT_EQ(&sharedThreadPool(), &sharedThreadPool());
}

TEST(SharedThreadPool, SingleThreadLoopRunsOnCallerAndSubmitsNoTask)
{
    // Settle the pool first so no earlier task lands in the window.
    SaturatedSharedPool settle;
    settle.release();
    const std::uint64_t before = sharedTasksTotal();

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(100);
    parallelFor(1, 0, ran_on.size(), [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
    });
    // A single item runs inline whatever the thread budget.
    std::thread::id single;
    parallelFor(8, 41, 42,
                [&](std::size_t) { single = std::this_thread::get_id(); });

    EXPECT_EQ(sharedTasksTotal() - before, 0u);
    for (const std::thread::id &id : ran_on)
        EXPECT_EQ(id, caller);
    EXPECT_EQ(single, caller);
}

TEST(SharedThreadPool, NumThreadsCapsThreadsIncludingCaller)
{
    Mutex mutex{"test.thread_ids"};
    std::set<std::thread::id> ids;
    parallelFor(2, 0, 400, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        MutexLock lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    MutexLock lock(mutex);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 2u);
}

TEST(SharedThreadPool, NestedLoopsCompleteWhilePoolSaturated)
{
    // Every worker is blocked, so no helper can start: the callers must
    // run every chunk of the outer and the inner loops themselves.
    SaturatedSharedPool saturated;
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::atomic<int>> hits(16 * 16);
    std::atomic<int> off_caller{0};
    parallelFor(4, 0, 16, [&](std::size_t i) {
        parallelFor(4, 0, 16, [&](std::size_t j) {
            hits[i * 16 + j].fetch_add(1);
            if (std::this_thread::get_id() != caller)
                off_caller.fetch_add(1);
        });
    });
    saturated.release();
    for (auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
    EXPECT_EQ(off_caller.load(), 0);
}

TEST(SharedThreadPool, ForkedChildRunsLoopsAfterParentUsedPool)
{
    std::atomic<std::uint64_t> parent_sum{0};
    parallelFor(4, 0, 1000, [&](std::size_t i) { parent_sum.fetch_add(i); });
    ASSERT_EQ(parent_sum.load(), 999u * 1000u / 2u);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // The pool's workers did not survive the fork; a hang here
        // would be killed by the alarm and fail the exit-code check.
        ::alarm(30);
        std::atomic<std::uint64_t> sum{0};
        parallelFor(4, 0, 1000, [&](std::size_t i) { sum.fetch_add(i); });
        parallelChunks(4, 0, 1000, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                sum.fetch_add(i);
        });
        ::_exit(sum.load() == 999u * 1000u ? 0 : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit normally";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

#if defined(DNASTORE_ENABLE_DCHECKS)
TEST(ThreadPoolDeathTest, SubmitDuringShutdownTripsAssertNotDeadlock)
{
    // A worker task that keeps submitting while the pool is being
    // destroyed must hit the DNASTORE_ASSERT in submit() (a loud,
    // actionable abort), not hang the destructor's join forever.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            std::promise<void> running;
            auto started = running.get_future();
            ThreadPool pool(2);
            auto chatter = pool.submit([&pool, &running] {
                running.set_value();
                for (;;) {
                    pool.submit([] {});
                    std::this_thread::yield();
                }
            });
            started.wait();
            // Scope exit destroys the pool: stopping flips under the
            // mutex, and the chatter task's next submit asserts.
        },
        "stopping ThreadPool");
}
#endif

} // namespace
} // namespace dnastore
