/**
 * @file
 * Sampled lock-contention timing: the tri-state gate, guaranteed
 * contended waits through the profiled Mutex::lock() path, a seeded
 * two-thread storm, and snapshot delta semantics.  Every test restores
 * the disabled state so profiling never leaks into other tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/lock_timing.hh"
#include "util/sync.hh"

namespace
{

namespace locktime = dnastore::obs::locktime;
using dnastore::Mutex;
using dnastore::MutexLock;

/** RAII guard: every test leaves the profiler disarmed and zeroed. */
struct LockTimingReset
{
    LockTimingReset() { locktime::reset(); }
    ~LockTimingReset() { locktime::reset(); }
};

/** Snapshot entry for @p name, nullptr when absent. */
const locktime::MutexWaitSnapshot *
findMutex(const locktime::ContentionSnapshot &snapshot, const char *name)
{
    for (const locktime::MutexWaitSnapshot &m : snapshot.mutexes)
        if (m.name == name)
            return &m;
    return nullptr;
}

/**
 * Force one deterministic contended wait on @p mutex: the main thread
 * holds it while a second thread blocks in lock().
 */
void
forceContendedWait(Mutex &mutex)
{
    std::atomic<bool> thread_started{false};
    std::thread blocked;
    {
        MutexLock hold(mutex);
        blocked = std::thread([&] {
            thread_started.store(true);
            MutexLock lock(mutex);
        });
        while (!thread_started.load())
            std::this_thread::yield();
        // The peer is at (or arriving at) the contended lock(); give it
        // time to fail try_lock and start timing the blocking acquire.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    blocked.join();
}

/** Recorded wait count for @p name, 0 when the mutex has no slot yet. */
std::uint64_t
recordedWaits(const char *name)
{
    // Keep the snapshot alive: findMutex points into it.
    const locktime::ContentionSnapshot snapshot =
        locktime::contentionSnapshot();
    const locktime::MutexWaitSnapshot *m = findMutex(snapshot, name);
    return m == nullptr ? 0 : m->total_count;
}

/**
 * Drive contended waits on @p mutex until @p min_count are recorded.
 * A single forceContendedWait round can theoretically miss (the blocked
 * thread may be descheduled past the holder's release and win its
 * try_lock), so retry with a generous cap instead of asserting on one
 * racy round.
 */
void
stormUntilRecorded(Mutex &mutex, const char *name,
                   std::uint64_t min_count)
{
    for (int round = 0; round < 200; ++round) {
        if (recordedWaits(name) >= min_count)
            return;
        forceContendedWait(mutex);
    }
}

TEST(LockTiming, DisabledByDefaultAndRecordsNothing)
{
    const LockTimingReset guard;
    EXPECT_FALSE(locktime::enabled());

    static Mutex mutex{"test.lock_timing_disabled"};
    forceContendedWait(mutex);

    const locktime::ContentionSnapshot snapshot =
        locktime::contentionSnapshot();
    EXPECT_FALSE(snapshot.enabled);
    EXPECT_EQ(findMutex(snapshot, "test.lock_timing_disabled"), nullptr);
}

TEST(LockTiming, RecordsContendedWaitByMutexName)
{
    const LockTimingReset guard;
    locktime::enable(1);
    ASSERT_TRUE(locktime::enabled());

    static Mutex mutex{"test.lock_timing_contended"};
    stormUntilRecorded(mutex, "test.lock_timing_contended", 1);

    const locktime::ContentionSnapshot snapshot =
        locktime::contentionSnapshot();
    EXPECT_TRUE(snapshot.enabled);
    EXPECT_EQ(snapshot.sample_every, 1u);
    const locktime::MutexWaitSnapshot *m =
        findMutex(snapshot, "test.lock_timing_contended");
    ASSERT_NE(m, nullptr);
    EXPECT_GE(m->total_count, 1u);
    // The blocked thread waited ~5ms; the sum must reflect a real wait,
    // and the histogram must carry bounds+1 buckets summing to count.
    EXPECT_GT(m->sum_seconds, 0.0);
    EXPECT_EQ(m->counts.size(),
              locktime::waitBucketBoundsSeconds().size() + 1);
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t c : m->counts)
        bucket_total += c;
    EXPECT_EQ(bucket_total, m->total_count);
}

TEST(LockTiming, UncontendedLocksAreNotRecorded)
{
    const LockTimingReset guard;
    locktime::enable(1);

    static Mutex mutex{"test.lock_timing_uncontended"};
    for (int i = 0; i < 100; ++i) {
        MutexLock lock(mutex);
    }

    const locktime::ContentionSnapshot snapshot =
        locktime::contentionSnapshot();
    // try_lock succeeds every time, so the profiled path never fires.
    EXPECT_EQ(findMutex(snapshot, "test.lock_timing_uncontended"),
              nullptr);
}

TEST(LockTiming, TwoThreadStormAccumulatesWaits)
{
    const LockTimingReset guard;
    locktime::enable(1);

    static Mutex mutex{"test.lock_timing_storm"};
    constexpr std::uint64_t kWaits = 8;
    stormUntilRecorded(mutex, "test.lock_timing_storm", kWaits);

    const locktime::ContentionSnapshot snapshot =
        locktime::contentionSnapshot();
    const locktime::MutexWaitSnapshot *m =
        findMutex(snapshot, "test.lock_timing_storm");
    ASSERT_NE(m, nullptr);
    EXPECT_GE(m->total_count, kWaits);
    // Each wait blocked for ~5ms, so the aggregate is well clear of 0
    // and the per-wait mean lands in a plausible bucket range.
    EXPECT_GT(m->sum_seconds, 0.001);
}

TEST(LockTiming, DeltaDropsQuietMutexesAndSubtracts)
{
    const LockTimingReset guard;
    locktime::enable(1);

    static Mutex mutex{"test.lock_timing_delta"};
    stormUntilRecorded(mutex, "test.lock_timing_delta", 1);
    const locktime::ContentionSnapshot before =
        locktime::contentionSnapshot();
    const locktime::ContentionSnapshot quiet =
        locktime::contentionSnapshot().delta(before);
    EXPECT_EQ(findMutex(quiet, "test.lock_timing_delta"), nullptr);

    stormUntilRecorded(mutex, "test.lock_timing_delta",
                       recordedWaits("test.lock_timing_delta") + 1);
    const locktime::ContentionSnapshot active =
        locktime::contentionSnapshot().delta(before);
    const locktime::MutexWaitSnapshot *m =
        findMutex(active, "test.lock_timing_delta");
    ASSERT_NE(m, nullptr);
    EXPECT_GE(m->total_count, 1u);
}

TEST(LockTiming, SamplingIntervalIsReported)
{
    const LockTimingReset guard;
    locktime::enable(8);
    EXPECT_EQ(locktime::sampleEvery(), 8u);
    EXPECT_EQ(locktime::contentionSnapshot().sample_every, 8u);
    locktime::disable();
    EXPECT_FALSE(locktime::enabled());
}

} // namespace
