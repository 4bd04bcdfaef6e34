/**
 * @file
 * Quickstart: store a message in simulated DNA and get it back.
 *
 * This walks the entire pipeline of the toolkit (paper Fig. 1) in its
 * default configuration:
 *
 *   encode -> simulate wetlab -> cluster -> reconstruct -> decode
 *
 * Usage:
 *   quickstart [--message="text"] [--coverage=N] [--error-rate=P]
 *              [--metrics-json=PATH] [--trace-json=PATH]
 *
 * --metrics-json writes the machine-readable run report (schema
 * dnastore.run_report); --trace-json writes a Chrome trace_event file
 * for chrome://tracing or Perfetto.  See docs/OBSERVABILITY.md.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "core/run_report.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"
#include "reconstruction/nw_consensus.hh"
#include "simulator/iid_channel.hh"
#include "util/args.hh"

using namespace dnastore;

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::string message = args.get(
        "message",
        "DNA data storage: write bytes as A/C/G/T, read them back with "
        "sequencing, fix the noise with clustering, consensus and "
        "Reed-Solomon codes.");
    const double coverage = args.getDouble("coverage", 10.0);
    const double error_rate = args.getDouble("error-rate", 0.06);

    // 1. Configure the codec: 120-nt payloads (30 bytes per molecule),
    //    RS(60, 40) across molecules, 12-nt index field.
    MatrixCodecConfig codec_cfg;
    codec_cfg.payload_nt = 120;
    codec_cfg.index_nt = 12;
    codec_cfg.rs_n = 60;
    codec_cfg.rs_k = 40;
    MatrixEncoder encoder(codec_cfg);
    MatrixDecoder decoder(codec_cfg);

    // 2. Pick a wetlab model: the classic i.i.d. IDS channel here.
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));

    // 3. Clustering and trace reconstruction modules.
    RashtchianClusterer clusterer(
        RashtchianClustererConfig::forErrorRate(
            error_rate, codec_cfg.strandLength()));
    NwConsensusReconstructor reconstructor;

    // 4. Wire the pipeline.
    PipelineConfig pipe_cfg;
    pipe_cfg.coverage =
        CoverageModel(coverage, CoverageDistribution::Poisson);
    Pipeline pipeline(
        {&encoder, &decoder, &channel, &clusterer, &reconstructor},
        pipe_cfg);

    // 5. Store and retrieve — optionally with the observability layer
    //    capturing a span trace and a metrics report of the run.
    const std::string metrics_path = args.get("metrics-json", "");
    const std::string trace_path = args.get("trace-json", "");
    obs::TraceSink trace_sink;
    if (!trace_path.empty())
        obs::installTraceSink(&trace_sink);

    const std::vector<std::uint8_t> data(message.begin(), message.end());
    const PipelineResult result = pipeline.run(data);

    if (!trace_path.empty()) {
        obs::installTraceSink(nullptr);
        if (!obs::writeChromeTrace(trace_sink, trace_path)) {
            std::cerr << "could not write " << trace_path << "\n";
            return 1;
        }
        std::cout << "trace written       : " << trace_path << " ("
                  << trace_sink.size() << " events)\n";
    }
    if (!metrics_path.empty()) {
        RunInfo info;
        info["tool"] = "quickstart";
        info["channel"] = channel.name();
        info["clusterer"] = clusterer.name();
        info["reconstructor"] = reconstructor.name();
        info["coverage"] = std::to_string(coverage);
        info["error_rate"] = std::to_string(error_rate);
        info["input_bytes"] = std::to_string(data.size());
        if (!writeRunReport(metrics_path, result, info)) {
            std::cerr << "could not write " << metrics_path << "\n";
            return 1;
        }
        std::cout << "metrics written     : " << metrics_path << "\n";
    }

    std::cout << "encoded strands     : " << result.encoded_strands << "\n"
              << "sequenced reads     : " << result.reads << "\n"
              << "clusters found      : " << result.clusters << " ("
              << result.dropped_clusters << " below min size)\n"
              << "clustering accuracy : " << result.clustering_accuracy
              << "\n"
              << "perfect consensus   : " << result.perfect_reconstructions
              << "\n"
              << "RS rows failed      : " << result.report.failed_rows
              << "\n"
              << "decoding stage      : "
              << stageStatusName(result.status.decoding) << "\n"
              << "decode ok           : "
              << (result.report.ok ? "yes" : "NO") << "\n";

    const std::string recovered(result.report.data.begin(),
                                result.report.data.end());
    std::cout << "recovered message   : " << recovered << "\n";

    if (!result.report.ok || recovered != message) {
        std::cerr << "round trip FAILED\n";
        return 1;
    }
    std::cout << "round trip OK\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
