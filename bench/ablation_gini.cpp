/**
 * @file
 * Ablation: Baseline vs Gini vs DNAMapper layouts under the reliability
 * skew of double-sided BMA (paper Sections IV-B/C).
 *
 * DBMA concentrates reconstruction errors in the middle strand indexes,
 * i.e. the middle matrix rows.  With the Baseline layout those rows are
 * whole RS codewords and fail first; Gini spreads every codeword across
 * all strand positions, equalising reliability.  The experiment sweeps
 * coverage and reports failed RS rows and decode success for each
 * layout — Gini should reach reliable decoding at lower coverage.
 *
 * Usage:
 *   ablation_gini [--file-bytes=N] [--error-rate=P] [--csv=path]
 */

#include <iostream>
#include <stdexcept>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "reconstruction/bma.hh"
#include "simulator/iid_channel.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dnastore;

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t file_bytes = args.getCount("file-bytes", 20000);
    const double error_rate = args.getDouble("error-rate", 0.06);
    const std::string csv_path = args.get("csv", "");

    std::cout << "=== Ablation: layout scheme vs DBMA reliability skew ==="
              << "\nfile " << file_bytes << " bytes, error rate "
              << error_rate << ", thin parity RS(60, 48)\n\n";

    Rng rng(99);
    std::vector<std::uint8_t> data(file_bytes);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));

    Table table;
    table.header({"coverage", "baseline failed", "gini failed",
                  "dnamapper failed", "baseline ok", "gini ok",
                  "dnamapper ok", "dropped b/g/d"});

    for (const double coverage : {8.0, 9.0, 10.0, 11.0, 12.0}) {
        std::vector<std::string> row = {Table::fmt(coverage, 0)};
        std::vector<std::string> oks;
        std::vector<std::string> drops;
        for (const LayoutScheme scheme :
             {LayoutScheme::Baseline, LayoutScheme::Gini,
              LayoutScheme::DNAMapper}) {
            MatrixCodecConfig codec_cfg;
            codec_cfg.payload_nt = 120;
            codec_cfg.index_nt = 12;
            codec_cfg.rs_n = 60;
            codec_cfg.rs_k = 48; // thin parity exposes the skew
            codec_cfg.scheme = scheme;
            if (scheme == LayoutScheme::DNAMapper)
                codec_cfg.priorities.assign(data.size(), 0);
            MatrixEncoder encoder(codec_cfg);
            MatrixDecoder decoder(codec_cfg);
            IidChannel channel(
                IidChannelConfig::fromTotalErrorRate(error_rate));
            DoubleSidedBmaReconstructor recon;

            const std::size_t seeds = args.getCount("seeds", 3);
            double failed = 0;
            std::size_t total_rows = 0, ok_count = 0, dropped = 0;
            for (std::size_t seed = 0; seed < seeds; ++seed) {
                RashtchianClusterer clusterer(
                    RashtchianClustererConfig::forErrorRate(
                        error_rate, codec_cfg.strandLength()));
                PipelineConfig pipe_cfg;
                pipe_cfg.coverage = CoverageModel(
                    coverage, CoverageDistribution::Poisson);
                pipe_cfg.seed = 31337 + seed;
                pipe_cfg.min_cluster_size = 2;
                Pipeline pipeline(
                    {&encoder, &decoder, &channel, &clusterer, &recon},
                    pipe_cfg);
                const auto result = pipeline.run(data);
                failed += static_cast<double>(result.report.failed_rows);
                total_rows = result.report.total_rows;
                ok_count +=
                    result.report.ok && result.report.data == data;
                dropped += result.dropped_clusters;
            }
            row.push_back(
                Table::fmt(failed / static_cast<double>(seeds), 1) + "/" +
                Table::fmt(total_rows));
            oks.push_back(Table::fmt(ok_count) + "/" + Table::fmt(seeds));
            drops.push_back(Table::fmt(dropped));
            // At one moderate coverage, record where the failures sit:
            // the positional story behind Gini (Fig. 2b).
            if (coverage == 9.0 && scheme != LayoutScheme::DNAMapper) {
                RashtchianClusterer clusterer(
                    RashtchianClustererConfig::forErrorRate(
                        error_rate, codec_cfg.strandLength()));
                PipelineConfig pipe_cfg;
                pipe_cfg.coverage = CoverageModel(
                    coverage, CoverageDistribution::Poisson);
                pipe_cfg.seed = 777;
                pipe_cfg.min_cluster_size = 2;
                Pipeline pipeline(
                    {&encoder, &decoder, &channel, &clusterer, &recon},
                    pipe_cfg);
                const auto result = pipeline.run(data);
                const std::size_t rows = codec_cfg.bytesPerMolecule();
                std::vector<std::size_t> by_third(3, 0);
                for (const auto &[unit, r] : result.report.failed_row_ids)
                    ++by_third[std::min<std::size_t>(2, r * 3 / rows)];
                std::cout << layoutSchemeName(scheme)
                          << " failed rows by strand third "
                          << "(top/middle/bottom): " << by_third[0] << "/"
                          << by_third[1] << "/" << by_third[2] << "\n";
            }
        }
        row.insert(row.end(), oks.begin(), oks.end());
        row.push_back(drops[0] + "/" + drops[1] + "/" + drops[2]);
        table.row(row);
        std::cout << "finished coverage " << coverage << "\n";
    }

    std::cout << "\n" << table.text();
    if (!csv_path.empty() && table.writeCsv(csv_path))
        std::cout << "wrote " << csv_path << "\n";
    std::cout << "\nExpected shape: under DBMA's mid-strand skew, Gini "
                 "fails fewer rows than\nBaseline at the same coverage "
                 "and decodes successfully at lower coverage.\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
