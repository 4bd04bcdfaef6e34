/**
 * @file
 * Ablation: automatic threshold configuration vs a manual sweep (paper
 * Section VI-B).  The clusterer is run with a range of hand-picked
 * theta_high values and with the auto-configured thresholds; the auto
 * choice should land near the accuracy/edit-call sweet spot without any
 * tuning.
 *
 * Usage:
 *   ablation_thresholds [--strands=N] [--error-rate=P] [--coverage=N]
 */

#include <iostream>
#include <stdexcept>
#include <vector>

#include "clustering/accuracy.hh"
#include "clustering/clusterer.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "util/args.hh"
#include "util/table.hh"

using namespace dnastore;

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t num_strands = args.getCount("strands", 800);
    const double error_rate = args.getDouble("error-rate", 0.09);
    const double coverage = args.getDouble("coverage", 10.0);

    std::cout << "=== Ablation: auto vs manual clustering thresholds ==="
              << "\n" << num_strands << " strands, error rate "
              << error_rate << ", coverage " << coverage << "\n\n";

    Rng rng(123);
    std::vector<Strand> strands;
    for (std::size_t s = 0; s < num_strands; ++s)
        strands.push_back(strand::random(rng, 132));
    IidChannel channel(IidChannelConfig::fromTotalErrorRate(error_rate));
    CoverageModel cov(coverage, CoverageDistribution::Poisson);
    const auto run = simulateSequencing(strands, channel, cov, rng);

    Table table;
    table.header({"thresholds", "accuracy(0.9)", "clusters",
                  "edit calls", "seconds"});

    auto run_once = [&](std::int64_t theta_low, std::int64_t theta_high,
                        const std::string &label) {
        auto cfg = RashtchianClustererConfig::forErrorRate(error_rate, 132);
        cfg.theta_low = theta_low;
        cfg.theta_high = theta_high;
        RashtchianClusterer clusterer(cfg);
        const auto clustering = clusterer.cluster(run.reads);
        const auto &stats = clusterer.stats();
        table.row({label,
                   Table::fmt(
                       clusteringAccuracy(clustering, run.origin, 0.9), 4),
                   Table::fmt(clustering.numClusters()),
                   Table::fmt(stats.edit_distance_calls),
                   Table::fmt(stats.clustering_seconds +
                                  stats.signature_seconds,
                              2)});
        return std::make_pair(stats.theta_low, stats.theta_high);
    };

    // Manual sweep of theta_high with a fixed conservative theta_low.
    for (const std::int64_t theta_high : {6, 10, 14, 18, 22, 26, 30}) {
        run_once(3, theta_high,
                 "manual low=3 high=" + std::to_string(theta_high));
    }
    // Auto-configured thresholds.
    const auto chosen = run_once(-1, -1, "auto");

    std::cout << table.text() << "\nauto-configured thresholds: low="
              << chosen.first << " high=" << chosen.second
              << "\nExpected shape: accuracy saturates once theta_high "
                 "clears the same-cluster\nmode; wider settings only add "
                 "edit-distance calls. The auto choice sits at\nthe "
                 "saturated plateau without manual tuning.\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
