/**
 * @file
 * Workload archive_get: one closed-loop caller gets every object of a
 * seeded corpus exactly once, in seeded order, from an archive with
 * 512-byte shards, through a 5 % iid channel at coverage 10 on one
 * thread.  No object repeats, so caching or coalescing cannot help;
 * NW consensus dominates a get, and at 5 % error RS corrects real
 * symbol errors and erasures.
 *
 * The traced run replays each shard through the public calls that
 * Archive::get makes (amplify, simulateSequencing, preprocessReads,
 * Pipeline::runFromReads with the Rashtchian clusterer, NW consensus,
 * DBMA fallback and the matrix decoder), on the pool read back from
 * pool.fasta, with every call timed from outside.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "archive/archive.hh"
#include "codec/primer.hh"
#include "core/pipeline.hh"
#include "core/pool.hh"
#include "dna/fastx.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "wetlab/preprocess.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace dnastore;

namespace
{

constexpr std::size_t kShardBytes = 512;

archive::RetrievalConfig
retrievalConfig(std::uint64_t seed)
{
    archive::RetrievalConfig cfg;
    cfg.error_rate = 0.05;
    cfg.coverage = 10.0;
    cfg.num_threads = 1;
    cfg.seed = subSeed(seed, 1);
    return cfg;
}

struct Corpus
{
    std::vector<std::string> names;
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::size_t> order; //!< Get order of the measured pass.
};

/**
 * Objects of 1-4 shards, mostly small: 60/25/10/5 %.  The mix and the
 * spread of last-shard sizes are stratified, so every seed stores the
 * same amount of work; the seed picks contents, exact sizes and order.
 */
Corpus
makeCorpus(std::uint64_t seed, std::size_t count)
{
    Rng rng(subSeed(seed, 2));
    Corpus corpus;
    const std::size_t per_class[4] = {count - count * 4 / 10, count / 4,
                                      count / 10, count * 4 / 10 - count / 4 -
                                                      count / 10};
    for (std::size_t shards = 1; shards <= 4; ++shards) {
        const std::size_t n = per_class[shards - 1];
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t tail =
                1 + (j * kShardBytes + static_cast<std::size_t>(
                                           rng.below(kShardBytes))) / n;
            const std::size_t size = (shards - 1) * kShardBytes +
                                     std::min(tail, kShardBytes);
            corpus.names.push_back("obj-" + std::to_string(corpus.names.size()));
            corpus.payloads.push_back(randomBytes(rng, size));
        }
    }
    for (std::size_t i = 0; i < count; ++i)
        corpus.order.push_back(i);
    for (std::size_t i = count; i > 1; --i)
        std::swap(corpus.order[i - 1], corpus.order[rng.below(i)]);
    return corpus;
}

struct Stored
{
    Corpus corpus;
    std::optional<archive::Archive> archive;
    std::vector<double> put_seconds;
    double setup_seconds = 0.0;
};

/** Corpus generation, archive create, puts and one warm-up get. */
Stored
setUp(const Options &opt, std::size_t gets, const std::string &dir)
{
    const std::uint64_t start = nowNs();
    Stored stored;
    stored.corpus = makeCorpus(opt.seed, gets);
    std::filesystem::remove_all(dir);
    archive::ArchiveParams params;
    params.codec = codecConfig();
    params.max_shard_bytes = kShardBytes;
    auto opened = archive::Archive::create(dir, params);
    if (!opened.ok())
        throw std::runtime_error("archive create: " + opened.error);
    stored.archive = std::move(opened.archive);
    for (std::size_t i = 0; i < gets; ++i) {
        const std::uint64_t put_start = nowNs();
        const auto put = stored.archive->put(stored.corpus.names[i],
                                             stored.corpus.payloads[i]);
        stored.put_seconds.push_back(secondsBetween(put_start, nowNs()));
        if (!put.ok())
            throw std::runtime_error("put: " + put.error);
    }
    // The warm-up object is not part of the measured corpus, so the
    // measured pass still fetches every object for the first time.  Its
    // content is the same for every seed, to keep set-up time steady.
    Rng rng(kWarmUpSeed);
    const std::vector<std::uint8_t> warm = randomBytes(rng, kShardBytes);
    if (!stored.archive->put("warm-up", warm).ok())
        throw std::runtime_error("warm-up put failed");
    const auto got = stored.archive->get("warm-up", retrievalConfig(opt.seed));
    if (!got.ok() || got.data != warm)
        throw std::runtime_error("warm-up get failed");
    stored.setup_seconds = secondsBetween(start, nowNs());
    return stored;
}

struct Pass
{
    std::vector<double> latencies; //!< Failed gets count as +inf.
    std::uint64_t failed = 0;
    double kib = 0.0;
    Phase phase;
    obs::MetricsSnapshot delta;
    std::uint64_t threads_peak = 0;
};

Pass
measure(const Stored &stored, const archive::RetrievalConfig &cfg)
{
    Pass pass;
    const ThreadSampler sampler;
    pass.phase.begin();
    for (const std::size_t i : stored.corpus.order) {
        const std::uint64_t start = nowNs();
        const auto got = stored.archive->get(stored.corpus.names[i], cfg);
        const double seconds = secondsBetween(start, nowNs());
        if (got.ok() && got.data == stored.corpus.payloads[i]) {
            pass.latencies.push_back(seconds);
            pass.kib += static_cast<double>(got.data.size()) / 1024.0;
        } else {
            pass.latencies.push_back(std::numeric_limits<double>::infinity());
            ++pass.failed;
        }
    }
    pass.delta = pass.phase.end();
    pass.threads_peak = sampler.peak() - 1; // Minus the CPU rotation's.
    return pass;
}

/** Archive::get's per-shard seed mixing (archive/archive.cc). */
std::uint64_t
shardSeed(std::uint64_t base, std::uint32_t pair_id)
{
    SplitMix64 mixer(base ^ (static_cast<std::uint64_t>(pair_id) *
                             0x9e3779b97f4a7c15ULL));
    return mixer.next();
}

/** Reads that preprocessReads keeps, as a mask over @p raw. */
std::vector<bool>
keptReads(const std::vector<Strand> &raw, const PrimerPair &pair,
          const WetlabPreprocessConfig &cfg)
{
    std::vector<bool> kept(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
        kept[i] = preprocessReads({raw[i]}, pair, cfg).reads.size() == 1;
    return kept;
}

struct Replay
{
    double wall_s = 0.0;
    obs::MetricsSnapshot delta;
    std::uint64_t mismatched = 0; //!< Objects not decoded byte-exact.
    std::uint64_t encoded_bytes = 0;
    std::uint64_t recon_calls = 0;
    std::uint64_t recon_exact = 0;
    double accuracy_sum = 0.0;
    std::uint64_t accuracy_runs = 0;
};

/** Traced replay of the measured pass through the public calls. */
Replay
replay(const Stored &stored, const archive::RetrievalConfig &cfg)
{
    const archive::Archive &tube = *stored.archive;
    const archive::ArchiveParams &params = tube.manifest().params;
    const std::size_t strand_length = params.codec.strandLength();

    std::ifstream pool_file(tube.dir() + "/pool.fasta");
    std::map<std::uint32_t, std::vector<Strand>> by_pair;
    for (FastaRecord &record : readFasta(pool_file)) {
        const auto pair = archive::tryParsePoolRecordPair(record.id);
        if (!pair)
            throw std::runtime_error("bad pool record " + record.id);
        by_pair[*pair].push_back(std::move(record.sequence));
    }
    Rng primer_rng(params.primer_seed);
    const PrimerLibrary library = PrimerLibrary::design(
        primer_rng, 2 * std::size_t{tube.manifest().nextPairId()},
        params.primer);

    const MatrixEncoder encoder(params.codec);
    const MatrixDecoder decoder(params.codec);
    TimedEncoder timed_encoder(encoder);
    // Ground truth for exact_frac: every shard re-encoded, which is
    // also what codec.encode_s_per_kib measures.
    for (const std::size_t i : stored.corpus.order) {
        const auto &payload = stored.corpus.payloads[i];
        for (std::size_t begin = 0; begin < payload.size();
             begin += kShardBytes) {
            const auto end = std::min(payload.size(), begin + kShardBytes);
            (void)timed_encoder.encode(
                {payload.begin() + static_cast<std::ptrdiff_t>(begin),
                 payload.begin() + static_cast<std::ptrdiff_t>(end)});
        }
    }

    const NwConsensusReconstructor nw;
    const DoubleSidedBmaReconstructor dbma;
    TimedReconstructor timed_nw(nw);
    TimedReconstructor timed_dbma(dbma);
    timed_nw.truth = &timed_encoder.truth;
    timed_dbma.truth = &timed_encoder.truth;
    const TimedDecoder timed_decoder(decoder);
    const IidChannel channel(
        IidChannelConfig::fromTotalErrorRate(cfg.error_rate));
    const CoverageModel coverage(cfg.coverage, CoverageDistribution::Poisson);
    const WetlabPreprocessConfig prep_cfg{cfg.primer_max_edit};

    Replay out;
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    const std::uint64_t start = nowNs();
    for (std::size_t k = 0; k < stored.corpus.order.size(); ++k) {
        const std::size_t i = stored.corpus.order[k];
        const Scope get_span("archive.get", k + 1);
        const archive::ObjectEntry *object =
            tube.stat(stored.corpus.names[i]);
        std::vector<std::uint8_t> data;
        bool ok = object != nullptr;
        for (std::size_t s = 0; ok && s < object->shards.size(); ++s) {
            const archive::ShardEntry &shard = object->shards[s];
            const PrimerPair pair = library.pairFor(shard.pair_id);
            Rng rng(shardSeed(cfg.seed, shard.pair_id));
            PcrProduct product;
            {
                const Scope span("core.pcr");
                DnaPool pool;
                pool.addTagged(pair, by_pair[shard.pair_id]);
                product = amplify(pool, pair, rng, {cfg.pcr_off_target});
            }
            SequencingRun run;
            {
                const Scope span("simulator.sequence");
                run = simulateSequencing(product.molecules, channel,
                                         coverage, rng);
            }
            for (std::size_t r = 1; r < run.reads.size(); r += 2)
                run.reads[r] = strand::reverseComplement(run.reads[r]);
            PreprocessResult prep;
            {
                const Scope span("wetlab.preprocess");
                prep = preprocessReads(run.reads, pair, prep_cfg);
            }

            RashtchianClustererConfig ccfg =
                RashtchianClustererConfig::forErrorRate(cfg.error_rate,
                                                        strand_length);
            ccfg.seed = shardSeed(cfg.seed ^ 0xc105ULL, shard.pair_id);
            RashtchianClusterer clusterer(ccfg);
            TimedClusterer timed_clusterer(clusterer);
            std::vector<std::uint32_t> origins;
            {
                const Scope span("perfbench.bookkeeping");
                const std::vector<bool> kept =
                    prep.rejected == 0
                        ? std::vector<bool>(run.reads.size(), true)
                        : keptReads(run.reads, pair, prep_cfg);
                for (std::size_t r = 0; r < run.reads.size(); ++r)
                    if (kept[r])
                        origins.push_back(run.origin[r]);
            }
            timed_clusterer.origins = &origins;

            PipelineModules mods;
            mods.decoder = &timed_decoder;
            mods.clusterer = &timed_clusterer;
            mods.reconstructor = &timed_nw;
            mods.fallback_reconstructor = &timed_dbma;
            PipelineConfig pcfg;
            pcfg.coverage = coverage;
            pcfg.num_threads = 1;
            pcfg.seed = shardSeed(cfg.seed ^ 0x5eedULL, shard.pair_id);
            pcfg.min_cluster_size = cfg.min_cluster_size;
            pcfg.max_decode_retries = cfg.max_decode_retries;
            PipelineResult result;
            {
                const Scope span("core.pipeline");
                Pipeline pipeline(mods, pcfg);
                result = pipeline.runFromReads(prep.reads, strand_length,
                                               shard.units);
            }
            out.accuracy_sum += timed_clusterer.accuracy_sum;
            out.accuracy_runs += timed_clusterer.accuracy_runs;
            ok = result.report.ok &&
                 result.report.data.size() == shard.size_bytes;
            data.insert(data.end(), result.report.data.begin(),
                        result.report.data.end());
        }
        if (!ok || data != stored.corpus.payloads[i])
            ++out.mismatched;
    }
    out.wall_s = secondsBetween(start, nowNs());
    out.delta = obs::metrics().snapshot().delta(before);
    out.encoded_bytes = timed_encoder.bytes;
    out.recon_calls = timed_nw.calls + timed_dbma.calls;
    out.recon_exact = timed_nw.exact + timed_dbma.exact;
    return out;
}

} // namespace

Outcome
runArchiveGet(const Options &opt)
{
    const std::size_t gets = std::max<std::size_t>(100, 5 * opt.seconds);
    const archive::RetrievalConfig cfg = retrievalConfig(opt.seed);
    const std::string dir = opt.workdir + "/archive_get";
    const CpuRotation rotation;

    std::vector<double> setup_seconds;
    Stored stored;
    for (std::size_t i = 0; i < opt.setups(); ++i) {
        stored = setUp(opt, gets, dir);
        setup_seconds.push_back(stored.setup_seconds);
    }
    const Pass pass = measure(stored, cfg);

    Outcome out;
    out.attempted = gets;
    out.failed = pass.failed;
    out.correct = pass.failed == 0;
    out.counters["gets"] = gets;
    addWorkCounters(out, pass.delta);
    if (!opt.trace) {
        addEndToEndMetrics(out, setup_seconds, pass.kib, pass.phase,
                           pass.latencies, pass.delta);
        return out;
    }

    // The replay runs twice, untraced and traced, so that the overhead
    // compares one code path with itself.
    const Replay plain = replay(stored, cfg);
    setTracing(true);
    const Replay rep = replay(stored, cfg);
    setTracing(false);
    if (plain.mismatched + rep.mismatched != 0) {
        out.correct = false;
        out.failed += plain.mismatched + rep.mismatched;
    }
    // The replay must do the measured pass's work, not merely decode.
    Outcome replayed;
    addWorkCounters(replayed, rep.delta);
    for (const auto &[name, value] : replayed.counters) {
        if (value != out.counters[name]) {
            std::cerr << "perfbench: replay " << name << " " << value
                      << " != measured " << out.counters[name] << "\n";
            out.correct = false;
        }
    }
    const std::vector<SpanRecord> spans = recordedSpans();
    if (!opt.trace_out.empty())
        writeChromeTrace(opt.trace_out, spans);
    std::map<std::string, double> by_name = selfSecondsByName(spans);
    // Re-encoding for ground truth happens before the replay, outside
    // the wall time the share is taken of.
    const double replay_layers = selfSecondsOutside(by_name, "perfbench") -
                                 by_name["codec.encode"];
    const double kib = pass.kib;
    double fetch_s = 0.0;
    for (const double l : pass.latencies)
        fetch_s += l;

    out.add("reconstruction.self_s_per_kib",
            by_name["reconstruction.reconstruct"] / kib, "s/KiB");
    out.add("reconstruction.exact_frac",
            static_cast<double>(rep.recon_exact) /
                static_cast<double>(std::max<std::uint64_t>(1, rep.recon_calls)),
            "ratio");
    out.add("clustering.self_s_per_kib", by_name["clustering.cluster"] / kib,
            "s/KiB");
    out.add("clustering.accuracy",
            rep.accuracy_sum /
                static_cast<double>(std::max<std::uint64_t>(1, rep.accuracy_runs)),
            "ratio");
    out.add("simulator.self_s_per_kib", by_name["simulator.sequence"] / kib,
            "s/KiB");
    out.add("wetlab.preprocess_s_per_kib", by_name["wetlab.preprocess"] / kib,
            "s/KiB");
    out.add("core.pcr_s_per_kib", by_name["core.pcr"] / kib, "s/KiB");
    out.add("codec.encode_s_per_kib",
            by_name["codec.encode"] /
                (static_cast<double>(rep.encoded_bytes) / 1024.0),
            "s/KiB");
    out.add("codec.decode_s_per_kib", by_name["codec.decode"] / kib, "s/KiB");
    addRegistryLayerMetrics(out, rep.delta, kib);
    out.add("archive.fetch_s_per_kib", fetch_s / kib, "s/KiB");
    out.add("archive.put_s_mean", mean(stored.put_seconds), "s");
    out.add("archive.decodes_per_get",
            static_cast<double>(
                counterDelta(pass.delta, "archive.shards_decoded_total")) /
                static_cast<double>(gets),
            "count");
    // No server on this path.
    out.add("server.wait_s_mean", 0.0, "s");
    out.add("server.coalesced_frac", 0.0, "ratio");
    out.add("server.batch_size_mean", 0.0, "count");
    out.add("server.rejected_frac", 0.0, "ratio");
    addUtilMetrics(out, pass.phase, pass.delta, pass.threads_peak);
    out.add("trace.overhead_frac", (rep.wall_s - plain.wall_s) / plain.wall_s,
            "ratio");
    out.add("trace.layer_share", replay_layers / plain.wall_s, "ratio");
    return out;
}

} // namespace perfbench
