/**
 * @file
 * Quality-aware archival with DNAMapper (paper Section IV-C).
 *
 * A synthetic 16-bit grayscale image is stored twice under harsh
 * conditions (low coverage, high error rate) that leave some
 * Reed-Solomon rows uncorrectable:
 *
 *  - Baseline layout: corrupted rows hit high and low pixel bytes alike;
 *  - DNAMapper: the significant (high) bytes of each pixel are mapped to
 *    reliable strand positions, so residual corruption lands in the
 *    low-order bytes and the image degrades gracefully.
 *
 * The example reports the mean absolute pixel error of both layouts.
 *
 * Usage:
 *   image_archive [--width=N] [--height=N] [--error-rate=P] [--coverage=N]
 */

#include <cmath>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "reconstruction/bma.hh"
#include "simulator/iid_channel.hh"
#include "util/args.hh"
#include "util/random.hh"
#include "util/table.hh"

using namespace dnastore;

namespace
{

/** A synthetic image: smooth gradient plus concentric rings. */
std::vector<std::uint16_t>
makeImage(std::size_t width, std::size_t height)
{
    std::vector<std::uint16_t> pixels(width * height);
    for (std::size_t y = 0; y < height; ++y) {
        for (std::size_t x = 0; x < width; ++x) {
            const double cx = static_cast<double>(x) -
                static_cast<double>(width) / 2.0;
            const double cy = static_cast<double>(y) -
                static_cast<double>(height) / 2.0;
            const double r = std::sqrt(cx * cx + cy * cy);
            const double v = 0.5 + 0.25 * std::sin(r / 3.0) +
                0.25 * static_cast<double>(x + y) /
                    static_cast<double>(width + height);
            pixels[y * width + x] =
                static_cast<std::uint16_t>(v * 65535.0);
        }
    }
    return pixels;
}

/** Pixels to bytes: big-endian, so even offsets are significant. */
std::vector<std::uint8_t>
toBytes(const std::vector<std::uint16_t> &pixels)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(pixels.size() * 2);
    for (std::uint16_t p : pixels) {
        bytes.push_back(static_cast<std::uint8_t>(p >> 8));
        bytes.push_back(static_cast<std::uint8_t>(p));
    }
    return bytes;
}

std::vector<std::uint16_t>
fromBytes(const std::vector<std::uint8_t> &bytes)
{
    std::vector<std::uint16_t> pixels(bytes.size() / 2);
    for (std::size_t i = 0; i < pixels.size(); ++i) {
        pixels[i] = static_cast<std::uint16_t>(
            (bytes[2 * i] << 8) | bytes[2 * i + 1]);
    }
    return pixels;
}

double
meanAbsoluteError(const std::vector<std::uint16_t> &a,
                  const std::vector<std::uint16_t> &b)
{
    double total = 0;
    const std::size_t n = std::min(a.size(), b.size());
    if (n == 0)
        return 65535.0;
    for (std::size_t i = 0; i < n; ++i)
        total += std::abs(static_cast<double>(a[i]) -
                          static_cast<double>(b[i]));
    total += 65535.0 * static_cast<double>(a.size() - n); // missing tail
    return total / static_cast<double>(a.size());
}

} // namespace

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t width = args.getCount("width", 48);
    const std::size_t height = args.getCount("height", 48);
    const double error_rate = args.getDouble("error-rate", 0.07);
    const double coverage = args.getDouble("coverage", 8.0);

    const auto image = makeImage(width, height);
    const auto bytes = toBytes(image);

    // Priorities for the quality-aware run: the high byte of each pixel
    // is class 0 (important), the low byte class 1.  The control run
    // uses a single class for all data bytes, which protects the stream
    // header identically but spreads pixel bytes blindly — isolating
    // exactly the effect of quality-aware mapping.
    std::vector<std::uint32_t> quality_aware(bytes.size());
    for (std::size_t i = 0; i < quality_aware.size(); ++i)
        quality_aware[i] = static_cast<std::uint32_t>(i % 2);
    const std::vector<std::uint32_t> uniform(bytes.size(), 0);

    Table table;
    table.header({"mapping", "decode ok", "decoding stage", "failed rows",
                  "dropped clusters", "mean abs pixel error"});

    for (const bool aware : {false, true}) {
        MatrixCodecConfig codec_cfg;
        codec_cfg.payload_nt = 120;
        codec_cfg.index_nt = 12;
        codec_cfg.rs_n = 60;
        codec_cfg.rs_k = 48; // thin parity: harsh conditions WILL break rows
        codec_cfg.scheme = LayoutScheme::DNAMapper;
        codec_cfg.priorities = aware ? quality_aware : uniform;
        // Single-sided BMA reconstructs early strand positions reliably
        // and degrades toward the 3' end, so reliability rank == row
        // order (unlike the double-sided default, which favours edges).
        codec_cfg.row_reliability_order.resize(
            codec_cfg.bytesPerMolecule());
        for (std::size_t r = 0; r < codec_cfg.bytesPerMolecule(); ++r)
            codec_cfg.row_reliability_order[r] = r;

        MatrixEncoder encoder(codec_cfg);
        MatrixDecoder decoder(codec_cfg);
        IidChannel channel(
            IidChannelConfig::fromTotalErrorRate(error_rate));
        RashtchianClusterer clusterer(
            RashtchianClustererConfig::forErrorRate(
                error_rate, codec_cfg.strandLength()));
        // Single-sided BMA on purpose: its strong positional reliability
        // skew is exactly what DNAMapper exploits.
        BmaReconstructor reconstructor;

        PipelineConfig pipe_cfg;
        pipe_cfg.coverage =
            CoverageModel(coverage, CoverageDistribution::Poisson);
        pipe_cfg.seed = 2024;
        // Tiny clusters are mostly clustering junk; reconstructing them
        // yields strands with valid-looking but wrong indexes.
        pipe_cfg.min_cluster_size = 3;
        Pipeline pipeline(
            {&encoder, &decoder, &channel, &clusterer, &reconstructor},
            pipe_cfg);

        const auto result = pipeline.run(bytes);
        const auto recovered_pixels = fromBytes(result.report.data);
        const double error = meanAbsoluteError(image, recovered_pixels);

        table.row({aware ? "quality-aware" : "uniform",
                   result.report.ok ? "yes" : "no",
                   stageStatusName(result.status.decoding),
                   Table::fmt(result.report.failed_rows),
                   Table::fmt(result.dropped_clusters),
                   Table::fmt(error, 1)});
    }

    std::cout << "Storing a " << width << "x" << height
              << " 16-bit image at error rate " << error_rate
              << ", coverage " << coverage << ":\n\n"
              << table.text()
              << "\nDNAMapper keeps the significant bytes on reliable "
                 "strand positions,\nso the same wetlab damage costs far "
                 "less image quality.\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
