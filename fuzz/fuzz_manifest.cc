/**
 * @file
 * Fuzz harness for the archive manifest parser — manifest.json is
 * untrusted on-disk input that Archive::open, fsck and `dnastore report
 * check` all read through tryParseJson + tryParseManifest.
 *
 * Properties checked:
 *  - neither parser crashes, hangs or throws (both are no-throw);
 *  - tryParseManifest returns a manifest or an error message, never
 *    both and never neither;
 *  - an accepted manifest upholds the pair-id invariant loaders size
 *    their per-pair tables from (ids are exactly 1..totalShards());
 *  - an accepted manifest re-serialises to a document that parses back
 *    to the same canonical text (writer and parser agree).
 */

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "archive/json_reader.hh"
#include "archive/manifest.hh"

namespace
{

void
check(bool condition)
{
    if (!condition)
        std::abort();
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string_view text(reinterpret_cast<const char *>(data), size);
    (void)dnastore::archive::tryParseJson(text);

    const auto parsed = dnastore::archive::tryParseManifest(text);
    check(parsed.manifest.has_value() == parsed.error.empty());
    if (!parsed.manifest.has_value())
        return 0;

    const auto &manifest = *parsed.manifest;
    std::vector<bool> seen(manifest.totalShards() + 1, false);
    for (const auto &object : manifest.objects) {
        for (const auto &shard : object.shards) {
            check(shard.pair_id >= 1 && shard.pair_id < seen.size());
            check(!seen[shard.pair_id]);
            seen[shard.pair_id] = true;
        }
    }

    const std::string canonical = dnastore::archive::manifestJson(manifest);
    const auto again = dnastore::archive::tryParseManifest(canonical);
    check(again.manifest.has_value());
    check(dnastore::archive::manifestJson(*again.manifest) == canonical);
    return 0;
}
