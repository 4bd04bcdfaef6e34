/**
 * @file
 * `archive fsck`: offline scrub and repair of an archive directory.
 *
 * The archive's crash-safety protocol (pool.fasta first, manifest.json
 * rename as the commit point, unique per-writer staging names) means a
 * kill at any instant leaves one of a small set of states.  fsck audits
 * a directory against the full taxonomy — stale atomic-write staging
 * files, orphaned pool records from an interrupted save, pool/manifest
 * strand-count divergence, unparsable manifests — and repairs what is
 * safely repairable: staging files are deleted, orphaned and malformed
 * pool records dropped by an atomic pool rewrite.  `--deep` extends the
 * audit through the codec: every shard is decoded out of the pool and
 * every object CRC-verified, plus the DNA-encoded manifest copy.
 *
 * fsck never throws and never mutates anything unless options.repair is
 * set.  It assumes exclusive access to the directory (no concurrent
 * writer), like any filesystem fsck.
 *
 * Findings are also emitted as a schema-versioned JSON document
 * (`dnastore.fsck_report`, validated by `dnastore report check`) so the
 * chaos harness and CI can assert on them mechanically.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "archive/archive.hh"

namespace dnastore::archive
{

/** Everything fsck knows how to detect. */
enum class FsckFindingKind : std::uint8_t
{
    StaleTempFile = 0,    //!< Orphaned atomic-write staging file.
    OrphanPoolRecord,     //!< Pool pair id the manifest never references.
    MalformedPoolRecord,  //!< Pool record without a parsable pair id.
    StrandCountMismatch,  //!< Pool strand count != manifest shard count.
    MissingManifest,      //!< manifest.json absent.
    CorruptManifest,      //!< manifest.json unparsable / bad CRC / schema.
    MissingPool,          //!< pool.fasta absent.
    UnreadablePool,       //!< pool.fasta not parsable as FASTA.
    MissingDnaManifest,   //!< No pair-0 molecules (DNA self-description).
    StaleDnaManifest,     //!< Deep: DNA copy decodes but differs from JSON.
    UndecodableDnaManifest, //!< Deep: DNA manifest copy failed to decode.
    ShardUndecodable,     //!< Deep: a shard failed to decode byte-exactly.
    ObjectCrcMismatch,    //!< Deep: reassembled object failed its CRC.
};

/** Stable kind name used in reports and the JSON document. */
const char *fsckFindingKindName(FsckFindingKind kind);

enum class FsckSeverity : std::uint8_t
{
    Note = 0, //!< Informational; expected after clean crash recovery.
    Warning,  //!< Inconsistent but recoverable; repair can fix it.
    Error,    //!< Data loss or an unusable archive; not auto-repairable.
};

const char *fsckSeverityName(FsckSeverity severity);

/** One audited inconsistency. */
struct FsckFinding
{
    FsckFindingKind kind = FsckFindingKind::StaleTempFile;
    FsckSeverity severity = FsckSeverity::Note;
    bool repairable = false; //!< fsck knows a safe repair for this.
    bool repaired = false;   //!< The repair ran (options.repair).
    std::string path;        //!< File / record / object concerned.
    std::string detail;      //!< Human-readable explanation.
};

struct FsckOptions
{
    bool repair = false; //!< Apply safe repairs (temps, orphan records).
    bool deep = false;   //!< Decode every shard + object CRC + DNA copy.
    /** Simulated-retrieval knobs for the deep scrub decode runs. */
    RetrievalConfig retrieval{};
};

/** Outcome of one fsck run. */
struct FsckReport
{
    /** Ok when the archive is usable (possibly after repair). */
    ArchiveStatus status = ArchiveStatus::Ok;
    std::string error; //!< Detail when status != Ok.
    std::vector<FsckFinding> findings;

    // What was audited.
    std::size_t objects = 0;
    std::size_t shards = 0;
    std::size_t pool_records = 0;
    std::size_t repaired_count = 0; //!< Findings actually repaired.

    /** No findings at all: byte-perfect archive. */
    bool clean() const { return findings.empty(); }

    /** No Error-severity findings: archive fully usable. */
    bool healthy() const;
};

/**
 * Audit (and optionally repair) the archive at @p dir.  Never throws;
 * IO and parse failures become findings + a non-Ok status.
 */
[[nodiscard]] FsckReport fsckArchive(const std::string &dir,
                                     const FsckOptions &options = {});

/**
 * The report as a `dnastore.fsck_report` JSON document (schema_version
 * from obs::kSchemaVersion, canonical sorted-key emission).
 */
[[nodiscard]] std::string fsckReportJson(const FsckReport &report,
                                         const std::string &dir,
                                         const FsckOptions &options);

} // namespace dnastore::archive
