/**
 * @file
 * Ablation: the iterative Rashtchian merge clusterer vs the single-pass
 * greedy online clusterer (Clover-style design point, paper Section X).
 * The merge clusterer revisits reads over many rounds and wins on
 * accuracy; the online clusterer touches each read once and keeps only
 * per-cluster state, trading accuracy for throughput and memory.
 *
 * Usage:
 *   ablation_clusterers [--strands=N] [--coverage=N]
 */

#include <iostream>
#include <stdexcept>

#include "clustering/accuracy.hh"
#include "clustering/clusterer.hh"
#include "clustering/greedy_clusterer.hh"
#include "simulator/iid_channel.hh"
#include "simulator/sequencing_run.hh"
#include "util/args.hh"
#include "util/table.hh"
#include "util/timer.hh"

using namespace dnastore;

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t num_strands = args.getCount("strands", 1500);
    const double coverage = args.getDouble("coverage", 10.0);

    std::cout << "=== Ablation: merge clustering vs single-pass online "
                 "clustering ===\n"
              << num_strands << " strands, coverage " << coverage
              << "\n\n";

    Table table;
    table.header({"error rate", "algorithm", "accuracy(0.9)", "clusters",
                  "seconds", "reads/s"});

    for (const double error_rate : {0.03, 0.06, 0.09, 0.12}) {
        Rng rng(static_cast<std::uint64_t>(error_rate * 10000));
        std::vector<Strand> strands;
        for (std::size_t s = 0; s < num_strands; ++s)
            strands.push_back(strand::random(rng, 132));
        IidChannel channel(
            IidChannelConfig::fromTotalErrorRate(error_rate));
        CoverageModel cov(coverage, CoverageDistribution::Poisson);
        const auto run = simulateSequencing(strands, channel, cov, rng);

        {
            RashtchianClusterer clusterer(
                RashtchianClustererConfig::forErrorRate(error_rate, 132));
            WallTimer timer;
            const auto clustering = clusterer.cluster(run.reads);
            const double seconds = timer.seconds();
            table.row({Table::fmt(error_rate, 2), "rashtchian-merge",
                       Table::fmt(clusteringAccuracy(clustering,
                                                     run.origin, 0.9),
                                  4),
                       Table::fmt(clustering.numClusters()),
                       Table::fmt(seconds, 2),
                       Table::fmt(static_cast<double>(run.reads.size()) /
                                      seconds,
                                  0)});
        }
        {
            GreedyClustererConfig cfg;
            cfg.edit_threshold =
                RashtchianClustererConfig::forErrorRate(error_rate, 132)
                    .edit_threshold;
            GreedyOnlineClusterer clusterer(cfg);
            WallTimer timer;
            const auto clustering = clusterer.cluster(run.reads);
            const double seconds = timer.seconds();
            table.row({Table::fmt(error_rate, 2), "greedy-online",
                       Table::fmt(clusteringAccuracy(clustering,
                                                     run.origin, 0.9),
                                  4),
                       Table::fmt(clustering.numClusters()),
                       Table::fmt(seconds, 2),
                       Table::fmt(static_cast<double>(run.reads.size()) /
                                      seconds,
                                  0)});
        }
        std::cout << "finished error rate " << error_rate << "\n";
    }

    std::cout << "\n" << table.text()
              << "\nExpected shape: the merge clusterer is more accurate "
                 "(especially as error\nrates rise); the online clusterer "
                 "processes each read once and sustains a\nhigher "
                 "read rate at low error.\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
