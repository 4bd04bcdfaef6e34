/**
 * @file
 * Opt-in sampled profilers: one lock-free table of tallies keyed by a
 * string-literal name, and its two process-wide instances.
 *
 *   lockWaitProfiler  contended Mutex::lock() waits (util/sync.hh), by
 *                     mutex name; the value is the wait in ns, bucketed
 *                     on a 1 us .. 1 s ladder.  DNASTORE_PROFILE_LOCKS.
 *   allocProfiler     heap allocations through the replacement global
 *                     operator new (profiler.cc), by stage tag
 *                     (obs/stage_tag.hh); the value is the size in
 *                     bytes, with no buckets.  DNASTORE_PROFILE_ALLOC.
 *
 * Each profiler is off until enable() or its environment variable arms
 * it (unset/0 = off, 1 = record every event, N = every Nth event per
 * thread, capped at 2^20).  Disabled cost: one inline relaxed load of
 * a constant-initialised gate per check, after a one-time env read on
 * the first check — the crashpoint-style tri-state gate of
 * obs/crashpoint.hh.  Each profiler keeps its own per-thread sampling
 * tick, so arming both at N still records every Nth wait and every Nth
 * allocation.
 *
 * The table is a fixed slot array claimed by CAS on the name pointer,
 * not the metrics registry: registering there takes a Mutex and
 * allocates, so recording through it would re-enter the very lock()
 * or operator new being profiled.  record() is lock free and
 * allocation free, safe from any locking context and inside operator
 * new.  Names must be string literals (slots store the pointer).
 */

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dnastore::obs
{

/** One name's recorded tally. */
struct ProfileEntry
{
    std::string name;
    std::uint64_t count = 0;             //!< Sampled events.
    std::uint64_t sum = 0;               //!< Sum of sampled values.
    std::vector<std::uint64_t> buckets;  //!< bounds + 1 (overflow last);
                                         //!< empty without bounds.
};

/** Point-in-time copy of one profiler's table. */
struct ProfileSnapshot
{
    bool enabled = false;
    std::uint32_t sample_every = 1;
    std::vector<ProfileEntry> entries; //!< Sorted by name.

    /**
     * Per-run delta: every tally becomes (this - before), clamped at
     * zero; names absent from @p before pass through unchanged, and
     * names whose delta is all-zero are dropped.
     */
    [[nodiscard]] ProfileSnapshot delta(const ProfileSnapshot &before) const;
};

/** A sampled, lock-free tally table keyed by string-literal name. */
class Profiler
{
  public:
    /** Most bucket upper bounds a profiler may carry. */
    static constexpr std::size_t kMaxBounds = 7;
    /** Distinct names recorded; later names are not recorded. */
    static constexpr std::size_t kMaxNames = 64;
    /** Per-thread sampling ticks available (one per profiler). */
    static constexpr std::size_t kMaxProfilers = 2;

    /**
     * @param env_var  environment variable read on the first check.
     * @param fallback name recorded for a null or empty name.
     * @param bounds   ascending bucket upper bounds, at most kMaxBounds
     *                 (empty: no histogram).
     * @param tick     this profiler's per-thread sampling tick, below
     *                 kMaxProfilers and unique per profiler.
     */
    constexpr Profiler(const char *env_var, const char *fallback,
                       std::span<const std::uint64_t> bounds,
                       std::size_t tick)
        : env_var_(env_var), fallback_(fallback), bounds_(bounds),
          tick_(tick)
    {
    }

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * True when armed.  Disabled cost: one relaxed load of the gate
     * (after the one-time env bootstrap on the first call).
     */
    bool
    enabled()
    {
        const int state = state_.load(std::memory_order_relaxed);
        if (state == kDisabled)
            return false;
        if (state == kEnabled)
            return true;
        return bootstrap();
    }

    /** Arm, recording every @p sample_every-th event per thread
     *  (1 = every event; 0 is treated as 1). */
    void enable(std::uint32_t sample_every = 1);

    /** Disarm (recorded tallies are kept). */
    void disable();

    /** Current per-thread sampling interval. */
    std::uint32_t sampleEvery() const;

    /** Disarm and zero every tally (tests and benchmarks). */
    void reset();

    /**
     * Record one event of @p value under @p name (string literal).
     * Applies the sampling interval; lock free and allocation free.
     * Callers check enabled() first.
     */
    void record(const char *name, std::uint64_t value);

    /** Bucket upper bounds, in the unit of the recorded values. */
    std::span<const std::uint64_t> bounds() const { return bounds_; }

    /** Copy every recorded tally (sorted by name). */
    [[nodiscard]] ProfileSnapshot snapshot();

  private:
    /** Tri-state gate: bootstrap pending / disabled / enabled. */
    static constexpr int kUnconfigured = 0;
    static constexpr int kDisabled = 1;
    static constexpr int kEnabled = 2;

    /** One name's tallies; claimed by CAS on `name`. */
    struct Slot
    {
        std::atomic<const char *> name{nullptr};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::array<std::atomic<std::uint64_t>, kMaxBounds + 1> buckets{};
    };

    /** One-time env bootstrap; returns the resulting enabled state. */
    bool bootstrap();
    Slot *findOrClaim(const char *name);

    std::atomic<int> state_{kUnconfigured};
    std::atomic<std::uint32_t> sample_every_{1};
    const char *env_var_;
    const char *fallback_;
    std::span<const std::uint64_t> bounds_;
    std::size_t tick_;
    std::array<Slot, kMaxNames> slots_{};
};

/** Contended Mutex::lock() waits in ns, by mutex name. */
extern constinit Profiler lockWaitProfiler;

/** Heap allocations in bytes, by stage tag ("untagged" outside one). */
extern constinit Profiler allocProfiler;

/** Monotonic nanoseconds for timing a contended wait. */
std::uint64_t monotonicNanos();

} // namespace dnastore::obs
