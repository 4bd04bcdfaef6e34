// Metrics registry: handle stability, atomicity under parallelFor,
// histogram bucket edges, snapshot determinism and delta semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "util/thread_pool.hh"

namespace
{

using dnastore::parallelFor;
using dnastore::obs::Counter;
using dnastore::obs::FixedHistogram;
using dnastore::obs::Gauge;
using dnastore::obs::MetricsRegistry;
using dnastore::obs::MetricsSnapshot;

TEST(MetricsRegistry, HandlesAreStableAndNamed)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("alpha");
    Counter &b = reg.counter("beta");
    EXPECT_NE(&a, &b);
    // Same name -> same handle, even after other registrations.
    reg.gauge("gamma");
    EXPECT_EQ(&a, &reg.counter("alpha"));
    a.add(3);
    EXPECT_EQ(reg.counter("alpha").value(), 3u);
    EXPECT_EQ(reg.counter("beta").value(), 0u);
}

TEST(MetricsRegistry, CounterIsAtomicUnderParallelFor)
{
    MetricsRegistry reg;
    Counter &hits = reg.counter("hits");
    constexpr std::size_t kIterations = 20000;
    parallelFor(4, 0, kIterations, [&](std::size_t) { hits.add(); });
    EXPECT_EQ(hits.value(), kIterations);
}

TEST(MetricsRegistry, HistogramIsAtomicUnderParallelFor)
{
    MetricsRegistry reg;
    FixedHistogram &hist = reg.histogram("lat", {1.0, 2.0, 3.0});
    constexpr std::size_t kIterations = 12000;
    parallelFor(4, 0, kIterations, [&](std::size_t i) {
        hist.observe(static_cast<double>(i % 4) + 0.5);
    });
    EXPECT_EQ(hist.totalCount(), kIterations);
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < hist.numBuckets(); ++b)
        total += hist.bucketCount(b);
    EXPECT_EQ(total, kIterations);
    // i % 4 is uniform, so each bucket (incl. overflow at 3.5) gets 1/4.
    for (std::size_t b = 0; b < hist.numBuckets(); ++b)
        EXPECT_EQ(hist.bucketCount(b), kIterations / 4) << "bucket " << b;
}

TEST(MetricsRegistry, HistogramBucketEdges)
{
    MetricsRegistry reg;
    FixedHistogram &hist = reg.histogram("edges", {10.0, 20.0});
    ASSERT_EQ(hist.numBuckets(), 3u); // two bounds + overflow

    hist.observe(10.0); // on the boundary: v <= bound -> first bucket
    EXPECT_EQ(hist.bucketCount(0), 1u);
    hist.observe(10.5);
    EXPECT_EQ(hist.bucketCount(1), 1u);
    hist.observe(20.0);
    EXPECT_EQ(hist.bucketCount(1), 2u);
    hist.observe(20.0001); // above the last bound -> overflow bucket
    EXPECT_EQ(hist.bucketCount(2), 1u);
    hist.observe(-5.0); // below everything -> first bucket
    EXPECT_EQ(hist.bucketCount(0), 2u);

    EXPECT_EQ(hist.totalCount(), 5u);
    EXPECT_NEAR(hist.sum(), 10.0 + 10.5 + 20.0 + 20.0001 - 5.0, 1e-9);
}

TEST(MetricsRegistry, HistogramRejectsBadBounds)
{
    MetricsRegistry reg;
    EXPECT_THROW(FixedHistogram({}), std::invalid_argument);
    EXPECT_THROW(FixedHistogram({1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(FixedHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, GaugeTracksValueAndMax)
{
    MetricsRegistry reg;
    Gauge &depth = reg.gauge("depth");
    depth.set(3.0);
    depth.set(9.0);
    depth.set(2.0);
    EXPECT_EQ(depth.value(), 2.0);
    EXPECT_EQ(depth.max(), 9.0);
}

TEST(MetricsSnapshot, IsDeterministicAndComplete)
{
    MetricsRegistry reg;
    reg.counter("z_last").add(1);
    reg.counter("a_first").add(2);
    reg.gauge("mid").set(5.0);
    reg.histogram("hist", {1.0}).observe(0.5);

    const MetricsSnapshot snap1 = reg.snapshot();
    const MetricsSnapshot snap2 = reg.snapshot();
    EXPECT_EQ(snap1.counters, snap2.counters);
    ASSERT_EQ(snap1.counters.size(), 2u);
    // std::map iteration: sorted names regardless of insert order.
    EXPECT_EQ(snap1.counters.begin()->first, "a_first");
    EXPECT_EQ(snap1.gauges.at("mid").value, 5.0);
    EXPECT_EQ(snap1.histograms.at("hist").total_count, 1u);
    EXPECT_FALSE(snap1.empty());
}

TEST(MetricsSnapshot, DeltaIsolatesOneRun)
{
    MetricsRegistry reg;
    reg.counter("runs").add(10);
    reg.histogram("h", {1.0, 2.0}).observe(0.5);
    const MetricsSnapshot before = reg.snapshot();

    reg.counter("runs").add(4);
    reg.counter("fresh").add(7); // not present in `before`
    reg.gauge("level").set(3.0);
    reg.histogram("h", {}).observe(1.5);

    const MetricsSnapshot delta = reg.snapshot().delta(before);
    EXPECT_EQ(delta.counters.at("runs"), 4u);
    EXPECT_EQ(delta.counters.at("fresh"), 7u);
    // Gauges are levels, not totals: passed through unchanged.
    EXPECT_EQ(delta.gauges.at("level").value, 3.0);
    EXPECT_EQ(delta.histograms.at("h").total_count, 1u);
    EXPECT_EQ(delta.histograms.at("h").counts[0], 0u);
    EXPECT_EQ(delta.histograms.at("h").counts[1], 1u);
}

TEST(MetricsRegistry, ResetAllZeroesEverything)
{
    MetricsRegistry reg;
    reg.counter("c").add(5);
    reg.gauge("g").set(2.0);
    reg.histogram("h", {1.0}).observe(0.5);
    reg.resetAll();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.gauge("g").max(), 0.0);
    EXPECT_EQ(reg.histogram("h", {}).totalCount(), 0u);
}

TEST(MetricsRegistry, GlobalRegistryIsASingleton)
{
    EXPECT_EQ(&dnastore::obs::metrics(), &dnastore::obs::metrics());
}

TEST(MetricsRegistry, BucketLadders)
{
    const std::vector<double> latency =
        dnastore::obs::latencyBucketsSeconds();
    ASSERT_FALSE(latency.empty());
    for (std::size_t i = 1; i < latency.size(); ++i)
        EXPECT_LT(latency[i - 1], latency[i]);
    const std::vector<double> percent = dnastore::obs::percentBuckets();
    ASSERT_FALSE(percent.empty());
    EXPECT_EQ(percent.front(), 0.0);
    EXPECT_EQ(percent.back(), 90.0);
}

} // namespace
