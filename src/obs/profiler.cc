#include "obs/profiler.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>

#include "obs/stage_tag.hh"

namespace dnastore::obs
{

namespace
{

// Wait-time ladder in nanoseconds: 1us .. 1s, then overflow.
constexpr std::array<std::uint64_t, 7> kWaitBoundsNs = {
    1000ull,       10000ull,      100000ull,    1000000ull,
    10000000ull,   100000000ull,  1000000000ull,
};
static_assert(kWaitBoundsNs.size() <= Profiler::kMaxBounds);

// One sampling tick per profiler per thread: a shared tick would mix
// the lock-wait and allocation streams.  Only the owning thread reads
// or writes its ticks.
thread_local std::array<std::uint32_t, Profiler::kMaxProfilers> t_ticks{};

} // namespace

// Relaxed ordering throughout: the gate and the sampling interval are
// lone flags with no dependent data, and the tallies are monotone
// counters read only by snapshot().  Slot-name publication uses an
// acquire/release CAS, so a reader that sees a name sees its slot.
constinit Profiler lockWaitProfiler{"DNASTORE_PROFILE_LOCKS", "unnamed",
                                    kWaitBoundsNs, 0};
constinit Profiler allocProfiler{"DNASTORE_PROFILE_ALLOC", "untagged", {},
                                 1};

bool
Profiler::bootstrap()
{
    // Racing first calls may both parse the env; both write the same
    // result, so the last store winning is benign.
    const char *env = std::getenv(env_var_);
    std::uint64_t every = 0;
    if (env != nullptr && *env != '\0') {
        char *end = nullptr;
        every = std::strtoull(env, &end, 10);
        if (end == nullptr || *end != '\0')
            every = 0;
    }
    if (every == 0) {
        state_.store(kDisabled, std::memory_order_relaxed);
        return false;
    }
    sample_every_.store(static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(every, 1u << 20)),
                        std::memory_order_relaxed);
    state_.store(kEnabled, std::memory_order_relaxed);
    return true;
}

void
Profiler::enable(std::uint32_t sample_every)
{
    sample_every_.store(sample_every == 0 ? 1 : sample_every,
                        std::memory_order_relaxed);
    state_.store(kEnabled, std::memory_order_relaxed);
}

void
Profiler::disable()
{
    state_.store(kDisabled, std::memory_order_relaxed);
}

std::uint32_t
Profiler::sampleEvery() const
{
    return sample_every_.load(std::memory_order_relaxed);
}

void
Profiler::reset()
{
    state_.store(kDisabled, std::memory_order_relaxed);
    sample_every_.store(1, std::memory_order_relaxed);
    for (Slot &slot : slots_) {
        slot.name.store(nullptr, std::memory_order_release);
        slot.count.store(0, std::memory_order_relaxed);
        slot.sum.store(0, std::memory_order_relaxed);
        for (auto &bucket : slot.buckets)
            bucket.store(0, std::memory_order_relaxed);
    }
}

Profiler::Slot *
Profiler::findOrClaim(const char *name)
{
    for (Slot &slot : slots_) {
        const char *have = slot.name.load(std::memory_order_acquire);
        if (have == nullptr) {
            const char *expected = nullptr;
            if (slot.name.compare_exchange_strong(
                    expected, name, std::memory_order_acq_rel))
                return &slot;
            have = expected;
        }
        if (have == name || std::strcmp(have, name) == 0)
            return &slot;
    }
    return nullptr;
}

void
Profiler::record(const char *name, std::uint64_t value)
{
    const std::uint32_t every =
        sample_every_.load(std::memory_order_relaxed);
    if (every > 1 && ++t_ticks[tick_] % every != 0)
        return;
    if (name == nullptr || *name == '\0')
        name = fallback_;
    Slot *slot = findOrClaim(name);
    if (slot == nullptr)
        return;
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->sum.fetch_add(value, std::memory_order_relaxed);
    if (!bounds_.empty()) {
        std::size_t bucket = 0;
        while (bucket < bounds_.size() && value > bounds_[bucket])
            ++bucket;
        slot->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    }
}

ProfileSnapshot
Profiler::snapshot()
{
    ProfileSnapshot snapshot;
    snapshot.enabled = enabled();
    snapshot.sample_every = sampleEvery();
    for (const Slot &slot : slots_) {
        const char *name = slot.name.load(std::memory_order_acquire);
        if (name == nullptr)
            continue;
        ProfileEntry entry;
        entry.name = name;
        entry.count = slot.count.load(std::memory_order_relaxed);
        entry.sum = slot.sum.load(std::memory_order_relaxed);
        entry.buckets.resize(bounds_.empty() ? 0 : bounds_.size() + 1);
        for (std::size_t i = 0; i < entry.buckets.size(); ++i)
            entry.buckets[i] =
                slot.buckets[i].load(std::memory_order_relaxed);
        snapshot.entries.push_back(std::move(entry));
    }
    std::sort(snapshot.entries.begin(), snapshot.entries.end(),
              [](const ProfileEntry &a, const ProfileEntry &b) {
                  return a.name < b.name;
              });
    return snapshot;
}

ProfileSnapshot
ProfileSnapshot::delta(const ProfileSnapshot &before) const
{
    const auto minus = [](std::uint64_t a, std::uint64_t b) {
        return a > b ? a - b : 0;
    };
    ProfileSnapshot out;
    out.enabled = enabled;
    out.sample_every = sample_every;
    for (const ProfileEntry &after : entries) {
        const auto it = std::find_if(
            before.entries.begin(), before.entries.end(),
            [&after](const ProfileEntry &e) { return e.name == after.name; });
        ProfileEntry d = after;
        if (it != before.entries.end()) {
            d.count = minus(d.count, it->count);
            d.sum = minus(d.sum, it->sum);
            for (std::size_t i = 0;
                 i < d.buckets.size() && i < it->buckets.size(); ++i)
                d.buckets[i] = minus(d.buckets[i], it->buckets[i]);
        }
        if (d.count > 0 || d.sum > 0)
            out.entries.push_back(std::move(d));
    }
    return out;
}

std::uint64_t
monotonicNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace dnastore::obs

// ---------------------------------------------------------------------
// Replacement global allocation functions, the hook of allocProfiler.
// The full matched set is provided so profiled and unprofiled paths can
// never pair a custom new with a default delete.  Frees are deliberately
// not tracked: a free cannot be attributed to a size or stage without a
// per-block header, and the profiler's question is "who allocates", not
// "who leaks" (sanitizers own that).
// ---------------------------------------------------------------------

namespace
{

/** The operator-new hook: disabled, one relaxed load and no call. */
inline void
noteAllocation(std::size_t size)
{
    using dnastore::obs::allocProfiler;
    if (allocProfiler.enabled())
        allocProfiler.record(dnastore::obs::currentStageTag(), size);
}

void *
profiledAlloc(std::size_t size)
{
    // malloc(0) may return nullptr legally; operator new must not.
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p != nullptr)
        noteAllocation(size);
    return p;
}

void *
profiledAlignedAlloc(std::size_t size, std::size_t align)
{
    void *p = nullptr;
    if (posix_memalign(&p, align < sizeof(void *) ? sizeof(void *) : align,
                       size == 0 ? 1 : size) != 0)
        return nullptr;
    noteAllocation(size);
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    void *p = profiledAlloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size)
{
    void *p = profiledAlloc(size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return profiledAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return profiledAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    void *p = profiledAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    void *p = profiledAlignedAlloc(size, static_cast<std::size_t>(align));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return profiledAlignedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return profiledAlignedAlloc(size, static_cast<std::size_t>(align));
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

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}
