/**
 * @file
 * Random access in a shared DNA pool via the archive layer (paper
 * Sections II-E/F).
 *
 * Three files are stored into ONE archive — one mixed test tube of
 * primer-tagged molecules plus a CRC-guarded manifest.  Every file
 * shard carries its own PCR primer pair, so the pool behaves as a
 * key-value store whose keys are primer pairs.  One file is then
 * retrieved by name: the archive PCR-selects its shards, sequences the
 * amplified product through a noisy channel, preprocesses the reads
 * (orientation + primer trimming) and runs the retrieval half of the
 * pipeline per shard.
 *
 * Usage:
 *   random_access [--fetch=0|1|2] [--error-rate=P] [--coverage=N]
 *                 [--dir=PATH]
 */

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "archive/archive.hh"
#include "util/args.hh"

using namespace dnastore;

int
main(int argc, char **argv)
try {
    const ArgParser args(argc, argv);
    const std::size_t fetch = args.getCount("fetch", 1);
    if (fetch > 2) {
        std::cerr << "--fetch must be 0, 1 or 2\n";
        return 1;
    }

    const std::vector<std::string> names = {"climate", "fox", "backup"};
    const std::vector<std::string> contents = {
        "file-0: climate sensor archive, 2031-01",
        "file-1: the quick brown fox jumps over the lazy dog, forever "
        "archived in nucleotides",
        "file-2: backup of the backup of the backup",
    };

    // One archive = one test tube.  Small shards so even these short
    // files demonstrate per-shard primer addressing.
    archive::ArchiveParams params;
    params.codec.payload_nt = 120;
    params.codec.index_nt = 12;
    params.codec.rs_n = 60;
    params.codec.rs_k = 40;
    params.max_shard_bytes = 64;

    const std::string dir =
        args.get("dir", "/tmp/dnastore_random_access_example");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec); // fresh demo archive each run
    auto opened = archive::Archive::create(dir, params);
    if (!opened.ok()) {
        std::cerr << "cannot create archive: " << opened.error << "\n";
        return 1;
    }
    archive::Archive &tube = *opened.archive;

    for (std::size_t f = 0; f < contents.size(); ++f) {
        const std::vector<std::uint8_t> data(contents[f].begin(),
                                             contents[f].end());
        const auto put = tube.put(names[f], data);
        if (!put.ok()) {
            std::cerr << "put failed: " << put.error << "\n";
            return 1;
        }
        std::cout << "stored '" << names[f] << "' as " << put.shards
                  << " shard(s), " << put.strands << " molecules\n";
    }
    std::cout << "pool holds " << tube.poolSize()
              << " molecules from 3 files (plus the DNA manifest)\n";

    // Random access by name: PCR + sequencing + per-shard decode.
    archive::RetrievalConfig retrieval;
    retrieval.error_rate = args.getDouble("error-rate", 0.04);
    retrieval.coverage = args.getDouble("coverage", 12.0);
    retrieval.pcr_off_target = 0.002; // a touch of contamination
    const auto result = tube.get(names[fetch], retrieval);
    for (const auto &shard : result.shards)
        std::cout << "shard pair " << shard.pair_id << ": "
                  << (shard.ok ? "ok" : "FAILED") << " (" << shard.reads
                  << " reads, " << shard.clusters << " clusters, decoding "
                  << stageStatusName(shard.stages.decoding) << ")\n";

    const std::string recovered(result.data.begin(), result.data.end());
    std::cout << "recovered: " << recovered << "\n";
    if (!result.ok() || recovered != contents[fetch]) {
        std::cerr << "random access FAILED: " << result.error << "\n";
        return 1;
    }

    // Bonus: the archive is self-describing — decode the manifest copy
    // stored in DNA under the reserved primer pair 0.
    const auto manifest = tube.decodeManifestFromDna(retrieval);
    if (manifest.manifest) {
        std::cout << "DNA-decoded manifest lists "
                  << manifest.manifest->objects.size() << " objects\n";
    } else {
        std::cerr << "DNA manifest decode FAILED: " << manifest.error
                  << "\n";
        return 1;
    }

    std::cout << "random access OK: retrieved '" << names[fetch]
              << "' without touching the others\n";
    return 0;
} catch (const std::invalid_argument &error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 2;
}
