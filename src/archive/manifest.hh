/**
 * @file
 * The archive manifest: the schema-versioned, CRC-guarded table of
 * contents of a multi-object DNA archive (schema
 * `dnastore.archive_manifest`, see docs/ARCHIVE.md).
 *
 * The manifest maps object names to primer-pair addresses: every shard
 * of every object is tagged with its own primer pair, so a pair id is a
 * PCR-selectable "key" into the mixed pool (paper Sections II-E/F;
 * Yazdi et al., rewritable random-access DNA storage).  Pair id 0 is
 * reserved for the manifest itself, which is also encoded into the pool
 * as a DNA object so the archive stays self-describing.
 *
 * Serialisation uses obs::JsonWriter (canonical, sorted keys); the
 * document embeds a CRC-32 of the canonical payload section, so a
 * truncated or hand-edited manifest is rejected on load.  Parsing never
 * throws: tryParseManifest returns an error message instead.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codec/matrix_codec.hh"
#include "codec/primer.hh"

namespace dnastore::archive
{

/** Primer pair id reserved for the DNA-encoded manifest object. */
inline constexpr std::uint32_t kManifestPairId = 0;

/**
 * On-disk manifest format version.  Deliberately independent of
 * obs::kSchemaVersion: report documents may evolve freely, but bumping
 * this invalidates every stored archive, so it moves only when the
 * manifest payload layout itself changes.
 */
inline constexpr std::uint32_t kManifestSchemaVersion = 1;

/** One shard of an object: an independent codec run under its own pair. */
struct ShardEntry
{
    std::uint32_t pair_id = 0;     //!< Primer pair addressing this shard.
    std::uint64_t size_bytes = 0;  //!< Payload bytes stored in this shard.
    std::uint32_t units = 0;       //!< Encoding units of the codec run.
    std::uint32_t strands = 0;     //!< Tagged molecules in the pool.
};

/** One stored object (file) and its shard list. */
struct ObjectEntry
{
    std::string name;              //!< Unique user-visible key.
    std::uint32_t id = 0;          //!< Monotonic archive-local id.
    std::uint64_t size_bytes = 0;  //!< Total payload bytes.
    std::uint32_t crc32_value = 0; //!< CRC-32 of the whole payload.
    std::vector<ShardEntry> shards;
};

/** Immutable per-archive parameters, fixed at create time. */
struct ArchiveParams
{
    MatrixCodecConfig codec;       //!< Geometry of every shard's codec run.
    PrimerConstraints primer;      //!< Design constraints for pair library.
    std::uint64_t primer_seed = 0xa5c111e5eedULL; //!< Library design seed.
    std::uint64_t max_shard_bytes = 2048; //!< Shard payload upper bound.
};

/** The archive's table of contents. */
struct ArchiveManifest
{
    ArchiveParams params;
    std::vector<ObjectEntry> objects;

    /** Object lookup by name; nullptr when absent. */
    const ObjectEntry *findObject(std::string_view name) const;

    /** Id for the next stored object (max existing + 1). */
    std::uint32_t nextObjectId() const;

    /** Shard count across all objects. */
    std::size_t totalShards() const;

    /**
     * First unused primer pair id.  Pair 0 is the manifest's; object
     * shards consume ids 1..totalShards() in allocation order (objects
     * are never deleted, so ids are never reused).
     */
    std::uint32_t nextPairId() const;
};

/**
 * Canonical JSON of the CRC-guarded payload section ("objects" +
 * "params").  The stored crc32 is computed over exactly this string.
 */
[[nodiscard]] std::string manifestPayloadJson(const ArchiveManifest &m);

/** Full manifest document (schema header + crc32 + payload). */
[[nodiscard]] std::string manifestJson(const ArchiveManifest &m);

/** Outcome of parsing a manifest document. */
struct ManifestParseResult
{
    std::optional<ArchiveManifest> manifest; //!< Set on success.
    std::string error; //!< Human-readable reason on failure.
};

/**
 * Parse and CRC-verify a manifest document.  Never throws; any schema
 * mismatch, missing field, type error or CRC mismatch is reported in
 * ManifestParseResult::error.  The CRC is checked before the cross-field
 * invariants (shard sizes, unique names, pair ids), so a corrupted byte
 * is named as corruption.
 */
[[nodiscard]] ManifestParseResult tryParseManifest(std::string_view text);

} // namespace dnastore::archive
