/**
 * @file
 * Workload pipeline_dbma: seeded Pipeline::run round trips of ~10 KB
 * files through Table III's q-gram Rashtchian clusterer and the
 * double-sided BMA reconstructor, over a 4 % iid channel at coverage 10,
 * on one thread.  Clustering dominates; the path bypasses NW consensus,
 * the archive and the server, so a change there should leave it alone.
 *
 * The traced run repeats the measured pass with every module wrapped in
 * a timing decorator.  The seeds are the same, so it does the same work.
 */

#include <stdexcept>

#include "core/pipeline.hh"
#include "reconstruction/bma.hh"
#include "simulator/iid_channel.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace dnastore;

namespace
{

// Table III runs at 6 %; at 6 % and at 5 % about one ~10 KB file in a
// hundred fails RS decoding (one row past its correction limit), and a
// run must not fail.  At 4 % none of 1350 files failed.
constexpr double kErrorRate = 0.04;

std::vector<std::uint8_t>
makeFile(Rng &rng)
{
    return randomBytes(rng, 9000 + static_cast<std::size_t>(rng.below(2001)));
}

/** The five modules of one file's run, plain or wrapped for tracing. */
struct Modules
{
    const FileEncoder *encoder = nullptr;
    const FileDecoder *decoder = nullptr;
    const Channel *channel = nullptr;
    const Reconstructor *reconstructor = nullptr;
    bool timed = false;
};

struct FileRun
{
    PipelineResult result;
    double seconds = 0.0;
    bool ok = false;
};

FileRun
runFile(const Modules &mods, const std::vector<std::uint8_t> &data,
        std::uint64_t seed)
{
    RashtchianClustererConfig ccfg = RashtchianClustererConfig::forErrorRate(
        kErrorRate, codecConfig().strandLength());
    ccfg.signature = SignatureKind::QGram;
    ccfg.seed = subSeed(seed, 11);
    RashtchianClusterer clusterer(ccfg);
    TimedClusterer timed_clusterer(clusterer);

    PipelineConfig pcfg;
    pcfg.coverage = CoverageModel(10.0, CoverageDistribution::Poisson);
    pcfg.seed = subSeed(seed, 12);
    pcfg.min_cluster_size = 2;
    pcfg.max_decode_retries = 1; // The archive's default recovery budget.
    pcfg.num_threads = 1;
    Pipeline pipeline({mods.encoder, mods.decoder, mods.channel,
                       mods.timed ? static_cast<Clusterer *>(&timed_clusterer)
                                  : &clusterer,
                       mods.reconstructor},
                      pcfg);
    FileRun run;
    const std::uint64_t start = nowNs();
    {
        const Scope span("core.pipeline");
        run.result = pipeline.run(data);
    }
    run.seconds = secondsBetween(start, nowNs());
    run.ok = run.result.report.ok && run.result.report.data == data;
    return run;
}

struct Pass
{
    std::vector<double> latencies; //!< Failed files count as +inf.
    std::uint64_t failed = 0;
    double kib = 0.0;
    double accuracy_sum = 0.0;
    Phase phase;
    obs::MetricsSnapshot delta;
    std::uint64_t threads_peak = 0;
};

Pass
measure(const Modules &mods, const std::vector<std::vector<std::uint8_t>> &files,
        std::uint64_t seed)
{
    Pass pass;
    const ThreadSampler sampler;
    pass.phase.begin();
    for (std::size_t i = 0; i < files.size(); ++i) {
        const FileRun run = runFile(mods, files[i], subSeed(seed, 100 + i));
        if (run.ok) {
            pass.latencies.push_back(run.seconds);
            pass.kib += static_cast<double>(files[i].size()) / 1024.0;
        } else {
            pass.latencies.push_back(std::numeric_limits<double>::infinity());
            ++pass.failed;
        }
        pass.accuracy_sum += run.result.clustering_accuracy;
    }
    pass.delta = pass.phase.end();
    pass.threads_peak = sampler.peak() - 1; // Minus the CPU rotation's.
    return pass;
}

} // namespace

Outcome
runPipelineDbma(const Options &opt)
{
    // About two files in a hundred hit a clustering blow-up (50-60x the
    // edit-distance calls); 7 files per second of run keeps the number
    // of such files per run, and so the run's figure, steady.
    const std::size_t count = std::max<std::size_t>(100, 7 * opt.seconds);
    const MatrixEncoder encoder(codecConfig());
    const MatrixDecoder decoder(codecConfig());
    const IidChannel channel(IidChannelConfig::fromTotalErrorRate(kErrorRate));
    const DoubleSidedBmaReconstructor dbma;
    const Modules plain{&encoder, &decoder, &channel, &dbma, false};
    const CpuRotation rotation;

    // Set-up: generate the files and warm up on one extra file.
    std::vector<double> setup_seconds;
    std::vector<std::vector<std::uint8_t>> files;
    for (std::size_t s = 0; s < opt.setups(); ++s) {
        const std::uint64_t start = nowNs();
        Rng rng(subSeed(opt.seed, 10));
        files.clear();
        for (std::size_t i = 0; i < count; ++i)
            files.push_back(makeFile(rng));
        Rng warm_rng(kWarmUpSeed);
        if (!runFile(plain, makeFile(warm_rng), kWarmUpSeed).ok)
            throw std::runtime_error("warm-up round trip failed");
        setup_seconds.push_back(secondsBetween(start, nowNs()));
    }

    const Pass pass = measure(plain, files, opt.seed);
    Outcome out;
    out.attempted = count;
    out.failed = pass.failed;
    out.correct = pass.failed == 0;
    out.counters["files"] = count;
    addWorkCounters(out, pass.delta);
    if (!opt.trace) {
        addEndToEndMetrics(out, setup_seconds, pass.kib, pass.phase,
                           pass.latencies, pass.delta);
        return out;
    }

    TimedEncoder timed_encoder(encoder);
    const TimedDecoder timed_decoder(decoder);
    const TimedChannel timed_channel(channel);
    TimedReconstructor timed_dbma(dbma);
    timed_dbma.truth = &timed_encoder.truth;
    const Modules timed{&timed_encoder, &timed_decoder, &timed_channel,
                        &timed_dbma, true};
    setTracing(true);
    const Pass traced = measure(timed, files, opt.seed);
    setTracing(false);
    if (traced.failed != 0) {
        out.correct = false;
        out.failed += traced.failed;
    }
    const std::vector<SpanRecord> spans = recordedSpans();
    if (!opt.trace_out.empty())
        writeChromeTrace(opt.trace_out, spans);
    std::map<std::string, double> by_name = selfSecondsByName(spans);
    const double kib = pass.kib;

    out.add("reconstruction.self_s_per_kib", by_name["reconstruction.reconstruct"] / kib,
            "s/KiB");
    out.add("reconstruction.exact_frac",
            static_cast<double>(timed_dbma.exact) /
                static_cast<double>(std::max<std::uint64_t>(1, timed_dbma.calls)),
            "ratio");
    out.add("clustering.self_s_per_kib", by_name["clustering.cluster"] / kib, "s/KiB");
    out.add("clustering.accuracy",
            traced.accuracy_sum / static_cast<double>(files.size()), "ratio");
    out.add("simulator.self_s_per_kib", by_name["simulator.transmit"] / kib, "s/KiB");
    // No primer trim, PCR selection, archive or server on this path.
    out.add("wetlab.preprocess_s_per_kib", 0.0, "s/KiB");
    out.add("core.pcr_s_per_kib", 0.0, "s/KiB");
    out.add("codec.encode_s_per_kib", by_name["codec.encode"] / kib, "s/KiB");
    out.add("codec.decode_s_per_kib", by_name["codec.decode"] / kib, "s/KiB");
    addRegistryLayerMetrics(out, traced.delta, kib);
    out.add("archive.fetch_s_per_kib", 0.0, "s/KiB");
    out.add("archive.put_s_mean", 0.0, "s");
    out.add("archive.decodes_per_get", 0.0, "count");
    out.add("server.wait_s_mean", 0.0, "s");
    out.add("server.coalesced_frac", 0.0, "ratio");
    out.add("server.batch_size_mean", 0.0, "count");
    out.add("server.rejected_frac", 0.0, "ratio");
    addUtilMetrics(out, pass.phase, pass.delta, pass.threads_peak);
    out.add("trace.overhead_frac",
            (traced.phase.wall_s - pass.phase.wall_s) / pass.phase.wall_s,
            "ratio");
    out.add("trace.layer_share", selfSecondsOutside(by_name, "perfbench") / pass.phase.wall_s,
            "ratio");
    return out;
}

} // namespace perfbench
