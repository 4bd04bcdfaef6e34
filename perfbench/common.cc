#include "common.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>

#include "util/random.hh"

namespace perfbench
{

using namespace dnastore;

MatrixCodecConfig
codecConfig()
{
    MatrixCodecConfig cfg;
    cfg.payload_nt = 120;
    cfg.index_nt = 12;
    cfg.rs_n = 60;
    cfg.rs_k = 40;
    return cfg;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix64 mixer(seed * 0x9e3779b97f4a7c15ULL + stream);
    return mixer.next();
}

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t n)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.below(256));
    return bytes;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
secondsBetween(std::uint64_t start_ns, std::uint64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::uint64_t
counterDelta(const obs::MetricsSnapshot &delta, const std::string &name)
{
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
}

namespace
{

/** Nearest-rank quantile; an empty sample gives 0. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * p99 of a histogram in a registry delta, interpolated linearly inside
 * its bucket (the registry's own quantile reports the bucket's upper
 * bound, which reads the same on every run).  0 when absent or empty.
 */
double
histogramP99(const obs::MetricsSnapshot &delta, const std::string &name)
{
    const auto it = delta.histograms.find(name);
    if (it == delta.histograms.end() || it->second.total_count == 0)
        return 0.0;
    const obs::HistogramSnapshot &h = it->second;
    const double target = 0.99 * static_cast<double>(h.total_count);
    double below = 0.0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const double count = static_cast<double>(h.counts[i]);
        if (below + count >= target && count > 0.0) {
            if (i >= h.upper_bounds.size()) // Overflow bucket: no bound.
                return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
            const double lower = i == 0 ? 0.0 : h.upper_bounds[i - 1];
            return lower +
                   (h.upper_bounds[i] - lower) * (target - below) / count;
        }
        below += count;
    }
    return h.upper_bounds.empty() ? 0.0 : h.upper_bounds.back();
}

std::uint64_t
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoull(line.substr(8));
    }
    return 0;
}

} // namespace

ThreadSampler::ThreadSampler()
    : thread_([this] {
          while (!stop_.load()) {
              const std::uint64_t now = threadCount();
              if (now > peak_.load())
                  peak_.store(now);
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
      })
{
}

ThreadSampler::~ThreadSampler()
{
    stop_.store(true);
    thread_.join();
}

namespace
{

void
pin(pthread_t thread, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus)
        CPU_SET(cpu, &set);
    pthread_setaffinity_np(thread, sizeof(set), &set);
}

} // namespace

CpuRotation::CpuRotation() : target_(pthread_self())
{
    cpu_set_t set;
    CPU_ZERO(&set);
    pthread_getaffinity_np(target_, sizeof(set), &set);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            cpus_.push_back(cpu);
    thread_ = std::thread([this] {
        for (std::size_t turn = 0; !stop_.load(); ++turn) {
            pin(target_, {cpus_[turn % cpus_.size()]});
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
}

CpuRotation::~CpuRotation()
{
    stop_.store(true);
    thread_.join();
    pin(target_, cpus_);
}

void
Phase::begin()
{
    before = obs::metrics().snapshot();
    cpu_start = processCpuSeconds();
    start_ns = nowNs();
}

obs::MetricsSnapshot
Phase::end()
{
    wall_s = secondsBetween(start_ns, nowNs());
    cpu_s = processCpuSeconds() - cpu_start;
    return obs::metrics().snapshot().delta(before);
}

void
addWorkCounters(Outcome &out, const obs::MetricsSnapshot &delta)
{
    out.counters["clustering.edit_distance_calls"] =
        counterDelta(delta, "clustering.edit_distance_calls_total");
    out.counters["clustering.signature_comparisons"] =
        counterDelta(delta, "clustering.signature_comparisons_total");
    out.counters["reconstruction.reads"] =
        counterDelta(delta, "reconstruction.reads_total");
    out.counters["ecc.rs_fixes"] =
        counterDelta(delta, "decoding.rs_symbols_corrected_total") +
        counterDelta(delta, "decoding.rs_erasures_total");
    out.counters["decoding.bytes"] = counterDelta(delta, "decoding.bytes_total");
}

void
addEndToEndMetrics(Outcome &out, const std::vector<double> &setup_seconds,
                   double kib, const Phase &phase,
                   const std::vector<double> &latencies,
                   const obs::MetricsSnapshot &delta)
{
    const double fixes = static_cast<double>(
        counterDelta(delta, "decoding.rs_symbols_corrected_total") +
        counterDelta(delta, "decoding.rs_erasures_total"));
    const double decoded_kib =
        static_cast<double>(counterDelta(delta, "decoding.bytes_total")) /
        1024.0;
    out.add("setup_s", median(setup_seconds), "s");
    out.add("kib_per_s", kib / phase.wall_s, "KiB/s");
    out.add("get_p50_s", quantile(latencies, 0.50), "s");
    out.add("get_p90_s", quantile(latencies, 0.90), "s");
    out.add("rs_fixes_per_kib", fixes / decoded_kib, "1/KiB");
    out.add("peak_rss_mib", peakRssMib(), "MiB");
}

void
addRegistryLayerMetrics(Outcome &out, const obs::MetricsSnapshot &delta,
                        double kib)
{
    const auto perKib = [&](const char *counter) {
        return static_cast<double>(counterDelta(delta, counter)) / kib;
    };
    out.add("reconstruction.reads_per_kib",
            perKib("reconstruction.reads_total"), "1/KiB");
    out.add("clustering.edit_distance_calls_per_kib",
            perKib("clustering.edit_distance_calls_total"), "1/KiB");
    out.add("clustering.signature_comparisons_per_kib",
            perKib("clustering.signature_comparisons_total"), "1/KiB");
    out.add("simulator.reads_per_kib", perKib("simulation.reads_total"),
            "1/KiB");
    out.add("ecc.rs_symbols_corrected_per_kib",
            perKib("decoding.rs_symbols_corrected_total"), "1/KiB");
    out.add("ecc.rs_erasures_per_kib", perKib("decoding.rs_erasures_total"),
            "1/KiB");
    out.add("core.decode_retries",
            static_cast<double>(
                counterDelta(delta, "pipeline.recovery_attempts_total")),
            "count");
}

void
addUtilMetrics(Outcome &out, const Phase &phase,
               const obs::MetricsSnapshot &delta, std::uint64_t threads_peak)
{
    out.add("util.threads_peak", static_cast<double>(threads_peak), "count");
    out.add("util.pool_queue_wait_p99_s",
            histogramP99(delta, "util.thread_pool.queue_wait_seconds"), "s");
    out.add("util.cpu_per_wall",
            phase.wall_s > 0.0 ? phase.cpu_s / phase.wall_s : 0.0, "ratio");
}

std::vector<Strand>
TimedEncoder::encode(const std::vector<std::uint8_t> &data) const
{
    std::vector<Strand> strands;
    {
        const Scope span("codec.encode");
        strands = inner_.encode(data);
    }
    bytes += data.size();
    truth.insert(strands.begin(), strands.end());
    return strands;
}

Clustering
TimedClusterer::cluster(const std::vector<Strand> &reads)
{
    Clustering clustering;
    {
        const Scope span("clustering.cluster");
        clustering = inner_.cluster(reads);
    }
    if (origins != nullptr && origins->size() == reads.size()) {
        const Scope span("perfbench.bookkeeping");
        accuracy_sum += clusteringAccuracy(clustering, *origins);
        ++accuracy_runs;
    }
    return clustering;
}

} // namespace perfbench
