/**
 * @file
 * Shared pieces of the benchmark driver: options, the result every
 * workload returns, latency statistics, host probes and the timing
 * decorators that wrap the toolkit's module interfaces in traced runs.
 */

#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "clustering/accuracy.hh"
#include "clustering/clusterer.hh"
#include "codec/codec.hh"
#include "codec/matrix_codec.hh"
#include "obs/metrics.hh"
#include "reconstruction/reconstructor.hh"
#include "simulator/channel.hh"
#include "trace.hh"
#include "util/random.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string workdir;   //!< Scratch directory for archives.
    std::string trace_out; //!< Chrome-trace path (traced runs).

    /** Set-ups per run; setup_s is their median.  A traced run reports
     *  no set-up time, so one set-up is enough. */
    std::size_t setups() const { return trace ? 1 : 5; }
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Work counters of the measured phase; repeat exactly per seed on
     *  the single-threaded workloads. */
    std::map<std::string, std::uint64_t> counters;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Seed of the warm-up input: the same for every run seed, so the
 *  warm-up that set-up time includes does the same work each run. */
constexpr std::uint64_t kWarmUpSeed = 0x3a7e;

/** The codec geometry of bench/archive_throughput and Table III. */
dnastore::MatrixCodecConfig codecConfig();

/** Independent seed for stream @p stream of run seed @p seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

std::vector<std::uint8_t> randomBytes(dnastore::Rng &rng, std::size_t n);

double mean(const std::vector<double> &values);

double secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns);

std::uint64_t counterDelta(const dnastore::obs::MetricsSnapshot &delta,
                           const std::string &name);

/** Samples the process thread count from /proc/self/status. */
class ThreadSampler
{
  public:
    ThreadSampler();
    ~ThreadSampler();
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    /** Highest count seen, not counting the sampler's own thread. */
    std::uint64_t peak() const { return peak_.load() - 1; }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> peak_{1};
    std::thread thread_;
};

/**
 * Moves the thread that creates it round all usable CPUs, one CPU every
 * few milliseconds, until destroyed.  On a shared host the cores run at
 * different speeds (one measured 1.4x slower than another), so a
 * single-threaded run's figures would depend on the core the scheduler
 * happened to pick; rotating gives every core the same share of every
 * operation.
 */
class CpuRotation
{
  public:
    CpuRotation();
    /** Stops rotating and restores the thread's former affinity. */
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    std::vector<int> cpus_;
    pthread_t target_;
    std::atomic<bool> stop_{false};
    std::thread thread_; // Declared last: starts after the members above.
};

/**
 * Wall time, process CPU and registry delta of one measured phase.
 */
struct Phase
{
    std::uint64_t start_ns = 0;
    double cpu_start = 0.0;
    dnastore::obs::MetricsSnapshot before;

    void begin();
    /** Ends the phase; returns the registry delta. */
    dnastore::obs::MetricsSnapshot end();

    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/**
 * Work counters of a measured phase from its registry delta: edit
 * distance calls, signature comparisons, reconstruction reads, RS fixes
 * and decoded bytes.
 */
void addWorkCounters(Outcome &out,
                     const dnastore::obs::MetricsSnapshot &delta);

/**
 * The end-to-end metrics of an untraced run: median set-up time,
 * verified KiB per second of the measured phase, get latency p50/p90
 * and RS fixes per decoded KiB.
 */
void addEndToEndMetrics(Outcome &out,
                        const std::vector<double> &setup_seconds, double kib,
                        const Phase &phase,
                        const std::vector<double> &latencies,
                        const dnastore::obs::MetricsSnapshot &delta);

/** Registry counts common to all workloads, as per-KiB layer metrics. */
void addRegistryLayerMetrics(Outcome &out,
                             const dnastore::obs::MetricsSnapshot &delta,
                             double kib);

/** Adds the util.* metrics of a measured phase. */
void addUtilMetrics(Outcome &out, const Phase &phase,
                    const dnastore::obs::MetricsSnapshot &delta,
                    std::uint64_t threads_peak);

// ---------------------------------------------------------------------
// Timing decorators.  Each forwards to the wrapped module and records a
// span around the call; single-threaded use only (the decode workloads
// run on one thread).
// ---------------------------------------------------------------------

class TimedEncoder final : public dnastore::FileEncoder
{
  public:
    explicit TimedEncoder(const dnastore::FileEncoder &inner)
        : inner_(inner)
    {
    }

    std::vector<dnastore::Strand>
    encode(const std::vector<std::uint8_t> &data) const override;

    std::size_t
    unitsForSize(std::size_t bytes) const override
    {
        return inner_.unitsForSize(bytes);
    }

    std::string name() const override { return inner_.name(); }

    /** Every strand encoded so far: ground truth for exact_frac. */
    mutable std::unordered_set<dnastore::Strand> truth;
    mutable std::uint64_t bytes = 0;

  private:
    const dnastore::FileEncoder &inner_;
};

class TimedDecoder final : public dnastore::FileDecoder
{
  public:
    explicit TimedDecoder(const dnastore::FileDecoder &inner)
        : inner_(inner)
    {
    }

    dnastore::DecodeReport
    decode(const std::vector<dnastore::Strand> &strands,
           std::size_t expected_units) const override
    {
        const Scope span("codec.decode");
        return inner_.decode(strands, expected_units);
    }

    std::string name() const override { return inner_.name(); }

  private:
    const dnastore::FileDecoder &inner_;
};

class TimedChannel final : public dnastore::Channel
{
  public:
    explicit TimedChannel(const dnastore::Channel &inner) : inner_(inner) {}

    dnastore::Strand
    transmit(const dnastore::Strand &clean,
             dnastore::Rng &rng) const override
    {
        const std::uint64_t start = nowNs();
        dnastore::Strand read = inner_.transmit(clean, rng);
        recordLeaf("simulator.transmit", start, nowNs());
        return read;
    }

    std::string name() const override { return inner_.name(); }

  private:
    const dnastore::Channel &inner_;
};

class TimedClusterer final : public dnastore::Clusterer
{
  public:
    explicit TimedClusterer(dnastore::Clusterer &inner) : inner_(inner) {}

    dnastore::Clustering
    cluster(const std::vector<dnastore::Strand> &reads) override;

    std::string name() const override { return inner_.name(); }

    /** Origin of each read to be clustered next; null skips accuracy. */
    const std::vector<std::uint32_t> *origins = nullptr;
    double accuracy_sum = 0.0;
    std::uint64_t accuracy_runs = 0;

  private:
    dnastore::Clusterer &inner_;
};

class TimedReconstructor final : public dnastore::Reconstructor
{
  public:
    explicit TimedReconstructor(const dnastore::Reconstructor &inner)
        : inner_(inner)
    {
    }

    dnastore::Strand
    reconstruct(const std::vector<dnastore::Strand> &reads,
                std::size_t expected_length) const override
    {
        const std::uint64_t start = nowNs();
        dnastore::Strand out = inner_.reconstruct(reads, expected_length);
        recordLeaf("reconstruction.reconstruct", start, nowNs());
        ++calls;
        if (truth != nullptr && truth->count(out) != 0)
            ++exact;
        return out;
    }

    std::string name() const override { return inner_.name(); }

    const std::unordered_set<dnastore::Strand> *truth = nullptr;
    mutable std::uint64_t calls = 0;
    mutable std::uint64_t exact = 0;

  private:
    const dnastore::Reconstructor &inner_;
};

} // namespace perfbench
