/**
 * @file
 * Annotated synchronisation primitives for Clang Thread Safety Analysis.
 *
 * libstdc++'s std::mutex carries no capability attributes, so
 * -Wthread-safety cannot see std::lock_guard acquisitions at all.  These
 * thin wrappers make every lock operation visible to the analysis:
 *
 *   Mutex      — std::mutex as a DNASTORE_CAPABILITY
 *   MutexLock  — std::lock_guard as a DNASTORE_SCOPED_CAPABILITY
 *
 * A Mutex may carry a name (string literal): when the lock-wait
 * profiler is armed (obs::lockWaitProfiler in obs/profiler.hh, env
 * DNASTORE_PROFILE_LOCKS), contended acquisitions are timed and
 * recorded per name.  The profiling check costs one relaxed
 * atomic load when disarmed, and the whole contended path lives inline
 * in this header — the one place dnalint R6 sanctions raw lock calls.
 *   CondVar    — std::condition_variable_any over Mutex; wait(m) is
 *                annotated DNASTORE_REQUIRES(m), so the canonical
 *                pattern stays analysable:
 *
 *                    MutexLock lock(mutex_);
 *                    while (!ready_)       // guarded read: lock held
 *                        cond_.wait(mutex_);
 *
 * Zero-cost: all annotation macros expand to nothing outside Clang, and
 * the wrappers add no state beyond the wrapped std primitive.
 *
 * This header (with util/thread_annotations.hh) is the one sanctioned
 * home of a bare std::mutex member — dnalint R6 flags bare mutex
 * members everywhere else under src/, and R8 exempts both headers from
 * the module layering DAG so even the bottom obs layer can use them.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "obs/profiler.hh"
#include "util/thread_annotations.hh"

namespace dnastore
{

/** std::mutex, visible to the thread-safety analysis as a capability. */
class DNASTORE_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    /** @param name string literal keying this mutex's wait histogram. */
    explicit Mutex(const char *name)
        : name_(name)
    {
    }
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock() DNASTORE_ACQUIRE()
    {
        if (!obs::lockWaitProfiler.enabled()) {
            raw_.lock();
            return;
        }
        // Profiled path: an uncontended acquisition stays clock-free;
        // only a failed try_lock reads the clock and blocks.
        if (raw_.try_lock())
            return;
        const std::uint64_t begin_ns = obs::monotonicNanos();
        raw_.lock();
        obs::lockWaitProfiler.record(name_,
                                     obs::monotonicNanos() - begin_ns);
    }
    void unlock() DNASTORE_RELEASE() { raw_.unlock(); }
    [[nodiscard]] bool
    tryLock() DNASTORE_TRY_ACQUIRE(true)
    {
        return raw_.try_lock();
    }

    /** The name this mutex's contended waits are recorded under. */
    const char *name() const { return name_; }

  private:
    std::mutex raw_;
    const char *name_ = "unnamed";
};

/** RAII scope lock over Mutex (std::lock_guard shape, annotated). */
class DNASTORE_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) DNASTORE_ACQUIRE(mutex)
        : mutex_(mutex)
    {
        mutex_.lock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    ~MutexLock() DNASTORE_RELEASE() { mutex_.unlock(); }

  private:
    Mutex &mutex_;
};

/**
 * Condition variable over Mutex.  wait() requires the mutex held and
 * returns with it held again (it is released only inside the wait), so
 * the analysis treats the capability as continuously held across the
 * call — exactly the guarantee the caller's predicate loop relies on.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Block until notified; @p mutex must be held by the caller. */
    void
    wait(Mutex &mutex) DNASTORE_REQUIRES(mutex)
    {
        cv_.wait(mutex);
    }

    void notifyOne() { cv_.notify_one(); }
    void notifyAll() { cv_.notify_all(); }

  private:
    std::condition_variable_any cv_;
};

} // namespace dnastore
