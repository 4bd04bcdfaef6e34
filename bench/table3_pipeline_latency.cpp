/**
 * @file
 * Reproduces paper Table III: per-stage latency of the full pipeline
 * for every {q-gram, w-gram} x {BMA, DBMA, NWA} module combination at
 * coverage 10 and coverage 50 (payload length 120 nt, 6% error rate).
 *
 * Absolute numbers differ from the paper (their testbed is a 24-core
 * Xeon and a larger file); the *shape* must hold:
 *  - encoding cost is identical across combinations;
 *  - clustering grows with coverage and is slower for w-gram at high
 *    coverage;
 *  - DBMA reconstruction costs about twice BMA; NWA is fastest at high
 *    coverage (it caps the reads it aligns);
 *  - decoding is small and constant.
 *
 * Usage:
 *   table3_pipeline_latency [--file-bytes=N] [--csv=path] [--json=path]
 *
 * --json writes a schema-versioned machine-readable document
 * (schema dnastore.bench_table3) with one entry per module combination,
 * including the per-run metrics snapshot deltas; the checked-in
 * baseline lives at bench/baselines/BENCH_table3_pipeline_latency.json
 * (regeneration command in README.md).
 */

#include <iostream>
#include <stdexcept>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "reconstruction/bma.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dnastore;

namespace
{

/** Counter value from a snapshot, 0 when absent. */
std::uint64_t
counterValue(const obs::MetricsSnapshot &snapshot, const std::string &name)
{
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
}

struct ComboResult
{
    std::string name;
    double coverage = 0.0;
    PipelineResult result;
    bool round_trip_ok = false;
};

/** Machine-readable bench document (schema dnastore.bench_table3). */
std::string
benchJson(const std::vector<ComboResult> &combos, std::size_t file_bytes)
{
    obs::JsonWriter json;
    json.beginObject();
    json.key("schema");
    json.value("dnastore.bench_table3");
    json.key("schema_version");
    json.value(std::int64_t{obs::kSchemaVersion});
    json.key("file_bytes");
    json.value(std::uint64_t{file_bytes});
    json.key("combinations");
    json.beginArray();
    for (const ComboResult &combo : combos) {
        json.beginObject();
        json.key("pipeline");
        json.value(combo.name);
        json.key("coverage");
        json.value(combo.coverage);
        json.key("stages");
        json.beginObject();
        json.key("encoding_seconds");
        json.value(combo.result.latency.encoding);
        json.key("encoding_cpu_seconds");
        json.value(combo.result.cpu.encoding);
        json.key("simulation_seconds");
        json.value(combo.result.latency.simulation);
        json.key("simulation_cpu_seconds");
        json.value(combo.result.cpu.simulation);
        json.key("clustering_seconds");
        json.value(combo.result.latency.clustering);
        json.key("clustering_cpu_seconds");
        json.value(combo.result.cpu.clustering);
        json.key("reconstruction_seconds");
        json.value(combo.result.latency.reconstruction);
        json.key("reconstruction_cpu_seconds");
        json.value(combo.result.cpu.reconstruction);
        json.key("decoding_seconds");
        json.value(combo.result.latency.decoding);
        json.key("decoding_cpu_seconds");
        json.value(combo.result.cpu.decoding);
        json.key("total_seconds");
        json.value(combo.result.latency.total() -
                   combo.result.latency.simulation);
        json.key("total_cpu_seconds");
        json.value(combo.result.cpu.total() -
                   combo.result.cpu.simulation);
        json.endObject();
        // Driving-thread CPU over wall for the paper-comparable total;
        // < 1 means the run waited (I/O, scheduling, pool hand-offs).
        const double wall_total = combo.result.latency.total() -
                                  combo.result.latency.simulation;
        const double cpu_total =
            combo.result.cpu.total() - combo.result.cpu.simulation;
        json.key("utilization");
        json.value(wall_total > 0.0 ? cpu_total / wall_total : 0.0);
        json.key("dropped_clusters");
        json.value(std::uint64_t{combo.result.dropped_clusters});
        json.key("round_trip_ok");
        json.value(combo.round_trip_ok);
        json.key("metrics");
        obs::writeMetricsValue(json, combo.result.metrics);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.text();
}

} // namespace

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t file_bytes = args.getCount("file-bytes", 50000);
    const std::string csv_path = args.get("csv", "");
    const std::string json_path = args.get("json", "");
    const double error_rate = 0.06;

    MatrixCodecConfig codec_cfg;
    codec_cfg.payload_nt = 120; // the paper's payload length
    codec_cfg.index_nt = 12;
    codec_cfg.rs_n = 60;
    codec_cfg.rs_k = 40;
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));

    std::cout << "=== Table III: pipeline latency breakdown (seconds) ==="
              << "\nfile size " << file_bytes << " bytes, payload 120 nt, "
              << "error rate 6%\n\n";

    Rng rng(3333);
    std::vector<std::uint8_t> data(file_bytes);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));

    BmaReconstructor bma;
    DoubleSidedBmaReconstructor dbma;
    NwConsensusReconstructor nwa;
    const std::vector<std::pair<std::string, const Reconstructor *>>
        recons = {{"BMA", &bma}, {"DBMA", &dbma}, {"NWA", &nwa}};

    Table table;
    table.header({"pipeline", "coverage", "encoding", "clustering",
                  "recon", "decoding", "total", "edit calls", "rs fixed",
                  "dropped", "decode ok"});

    std::vector<ComboResult> combos;
    for (const double coverage : {10.0, 50.0}) {
        for (const SignatureKind kind :
             {SignatureKind::QGram, SignatureKind::WGram}) {
            for (const auto &[recon_name, recon] : recons) {
                auto clu_cfg = RashtchianClustererConfig::forErrorRate(
                    error_rate, codec_cfg.strandLength());
                clu_cfg.signature = kind;
                RashtchianClusterer clusterer(clu_cfg);

                PipelineConfig pipe_cfg;
                pipe_cfg.coverage = CoverageModel(
                    coverage, CoverageDistribution::Poisson);
                pipe_cfg.seed = 7;
                pipe_cfg.min_cluster_size = 2;
                Pipeline pipeline({&encoder, &decoder, &channel,
                                   &clusterer, recon},
                                  pipe_cfg);
                const auto result = pipeline.run(data);

                const std::string name =
                    std::string(kind == SignatureKind::QGram ? "q-gram"
                                                             : "w-gram") +
                    " + " + recon_name;
                // Module-level columns come straight from the run's
                // metrics snapshot delta.
                const obs::MetricsSnapshot &snap = result.metrics;
                const bool ok =
                    result.report.ok && result.report.data == data;
                table.row(
                    {name, Table::fmt(coverage, 0),
                     Table::fmt(result.latency.encoding, 2),
                     Table::fmt(result.latency.clustering, 2),
                     Table::fmt(result.latency.reconstruction, 2),
                     Table::fmt(result.latency.decoding, 2),
                     Table::fmt(result.latency.total() -
                                    result.latency.simulation,
                                2),
                     std::to_string(counterValue(
                         snap, "clustering.edit_distance_calls_total")),
                     std::to_string(counterValue(
                         snap, "decoding.rs_symbols_corrected_total")),
                     std::to_string(result.dropped_clusters),
                     ok ? "yes" : "NO"});
                combos.push_back({name, coverage, result, ok});
                std::cout << "finished " << name << " @ coverage "
                          << coverage << "\n";
            }
        }
    }

    std::cout << "\n" << table.text();
    if (!csv_path.empty() && table.writeCsv(csv_path))
        std::cout << "wrote " << csv_path << "\n";
    if (!json_path.empty()) {
        if (obs::writeTextFile(json_path, benchJson(combos, file_bytes)))
            std::cout << "wrote " << json_path << "\n";
        else
            std::cerr << "could not write " << json_path << "\n";
    }
    std::cout << "\n(Totals exclude the simulation stage, which has no "
                 "wetlab counterpart in the paper's table.)\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
