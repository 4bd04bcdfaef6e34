/**
 * @file
 * Sampled allocation profiling (obs::allocProfiler): stage-tag
 * attribution through the replacement operator new, the sampling
 * interval, delta semantics, the disabled default, and sampling that
 * stays independent of the lock-wait profiler.  Every test restores
 * the disabled state.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hh"
#include "core/run_report.hh"
#include "obs/profiler.hh"
#include "obs/stage_tag.hh"

namespace
{

using dnastore::obs::ProfileEntry;
using dnastore::obs::ProfileSnapshot;
using dnastore::obs::StageTagScope;
using dnastore::obs::currentStageTag;
dnastore::obs::Profiler &alloc = dnastore::obs::allocProfiler;

/** RAII guard: every test leaves the profiler disarmed and zeroed. */
struct AllocProfilerReset
{
    AllocProfilerReset() { alloc.reset(); }
    ~AllocProfilerReset() { alloc.reset(); }
};

/** Snapshot entry for @p stage, nullptr when absent. */
const ProfileEntry *
findStage(const ProfileSnapshot &snapshot, const char *stage)
{
    for (const ProfileEntry &s : snapshot.entries)
        if (s.name == stage)
            return &s;
    return nullptr;
}

/** Heap-allocate @p count blocks of @p bytes, defeating elision. */
void
churn(std::size_t count, std::size_t bytes)
{
    std::vector<std::unique_ptr<char[]>> blocks;
    blocks.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        blocks.push_back(std::make_unique<char[]>(bytes));
}

TEST(AllocProfiler, DisabledByDefaultRecordsNothing)
{
    const AllocProfilerReset guard;
    EXPECT_FALSE(alloc.enabled());
    {
        StageTagScope tag("test.alloc_disabled");
        churn(16, 1024);
    }
    const ProfileSnapshot snapshot = alloc.snapshot();
    EXPECT_FALSE(snapshot.enabled);
    EXPECT_EQ(findStage(snapshot, "test.alloc_disabled"), nullptr);
}

TEST(AllocProfiler, AttributesBytesToActiveStageTag)
{
    const AllocProfilerReset guard;
    alloc.enable(1);
    ASSERT_TRUE(alloc.enabled());
    {
        StageTagScope tag("test.alloc_stage");
        churn(32, 4096);
    }
    alloc.disable();

    const ProfileSnapshot snapshot = alloc.snapshot();
    const ProfileEntry *s =
        findStage(snapshot, "test.alloc_stage");
    ASSERT_NE(s, nullptr);
    // At least the 32 payload blocks (the vector's buffer and libc
    // internals may add more).
    EXPECT_GE(s->count, 32u);
    EXPECT_GE(s->sum, 32u * 4096u);
    EXPECT_EQ(snapshot.sample_every, 1u);
    EXPECT_TRUE(s->buckets.empty());
}

TEST(AllocProfiler, UntaggedAllocationsCollectUnderUntagged)
{
    const AllocProfilerReset guard;
    ASSERT_STREQ(currentStageTag(), "");
    alloc.enable(1);
    churn(8, 512);
    alloc.disable();

    const ProfileSnapshot snapshot = alloc.snapshot();
    const ProfileEntry *s = findStage(snapshot, "untagged");
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->count, 8u);
}

TEST(AllocProfiler, SamplingScalesEstimatesUp)
{
    const AllocProfilerReset guard;
    alloc.enable(4);
    {
        StageTagScope tag("test.alloc_sampled");
        churn(400, 256);
    }
    alloc.disable();

    const ProfileSnapshot snapshot = alloc.snapshot();
    EXPECT_EQ(snapshot.sample_every, 4u);
    const ProfileEntry *s = findStage(snapshot, "test.alloc_sampled");
    ASSERT_NE(s, nullptr);
    // Every 4th allocation recorded: ~100 samples for 400+ allocs.
    EXPECT_GE(s->count, 50u);
    EXPECT_LT(s->count, 400u);

    // The run report scales the samples back up by the interval.
    dnastore::PipelineResult result;
    result.alloc = snapshot;
    const std::string report = dnastore::runReportJson(result, {});
    EXPECT_NE(report.find("\"estimated_allocs\":" +
                          std::to_string(s->count * 4) + ","),
              std::string::npos);
    EXPECT_NE(report.find("\"estimated_bytes\":" +
                          std::to_string(s->sum * 4) + ","),
              std::string::npos);
}

TEST(AllocProfiler, DeltaIsolatesARegionOfInterest)
{
    const AllocProfilerReset guard;
    alloc.enable(1);
    {
        StageTagScope tag("test.alloc_delta");
        churn(10, 128);
    }
    const ProfileSnapshot before = alloc.snapshot();
    const ProfileSnapshot quiet = alloc.snapshot().delta(before);
    EXPECT_EQ(findStage(quiet, "test.alloc_delta"), nullptr);

    {
        StageTagScope tag("test.alloc_delta");
        churn(20, 128);
    }
    alloc.disable();
    const ProfileSnapshot active = alloc.snapshot().delta(before);
    const ProfileEntry *s = findStage(active, "test.alloc_delta");
    ASSERT_NE(s, nullptr);
    EXPECT_GE(s->count, 20u);
    EXPECT_LT(s->count, 100u);
}

TEST(AllocProfiler, SamplesIndependentlyOfLockWaits)
{
    // Both profilers armed at 2, each thread interleaving one lock wait
    // and one allocation per step: each profiler must keep exactly half
    // of its own events.  A sampling tick shared between the two would
    // keep every event of one stream and none of the other.
    const AllocProfilerReset guard;
    dnastore::obs::Profiler &waits = dnastore::obs::lockWaitProfiler;
    waits.reset();
    constexpr std::uint64_t kThreads = 4;
    constexpr std::uint64_t kSteps = 1000;
    waits.enable(2);
    alloc.enable(2);
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            // record() neither locks nor allocates, so nothing else
            // ticks either stream inside the loop.
            for (std::uint64_t i = 0; i < kSteps; ++i) {
                waits.record("test.both_wait", 1000);
                alloc.record("test.both_alloc", 64);
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    waits.disable();
    alloc.disable();

    const ProfileSnapshot wait_snapshot = waits.snapshot();
    const ProfileEntry *w = findStage(wait_snapshot, "test.both_wait");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->count, kThreads * kSteps / 2);
    EXPECT_EQ(w->sum, kThreads * kSteps / 2 * 1000);
    const ProfileSnapshot alloc_snapshot = alloc.snapshot();
    const ProfileEntry *a = findStage(alloc_snapshot, "test.both_alloc");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count, kThreads * kSteps / 2);
    EXPECT_EQ(a->sum, kThreads * kSteps / 2 * 64);
    waits.reset();
}

TEST(AllocProfiler, StageTagScopeRestoresOuterTag)
{
    ASSERT_STREQ(currentStageTag(), "");
    {
        StageTagScope outer("test.outer");
        EXPECT_STREQ(currentStageTag(), "test.outer");
        {
            StageTagScope inner("test.inner");
            EXPECT_STREQ(currentStageTag(), "test.inner");
        }
        EXPECT_STREQ(currentStageTag(), "test.outer");
    }
    EXPECT_STREQ(currentStageTag(), "");
}

} // namespace
