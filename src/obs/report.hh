/**
 * @file
 * Machine-readable metrics serialisation.  A MetricsSnapshot becomes a
 * canonical JSON value with stable (sorted) key order:
 *
 *   {"counters": {"name": 123, ...},
 *    "gauges":   {"name": {"value": v, "max": m}, ...},
 *    "histograms": {"name": {"upper_bounds": [...], "counts": [...],
 *                            "count": N, "sum": S}, ...}}
 *
 * The full run-report document (schema `dnastore.run_report`, see
 * docs/OBSERVABILITY.md) is assembled by core/run_report, which embeds
 * this value under its "metrics" key; benches embed it per row.
 */

#pragma once

#include <string>

#include "obs/json.hh"
#include "obs/metrics.hh"

namespace dnastore::obs
{

/**
 * Current version of every JSON *report* document this layer emits
 * (run reports, metrics documents, fsck reports, bench documents).
 *
 * Version history:
 *   1 — PR-4 shape: stages carry {status, seconds}; metrics value.
 *   2 — performance attribution: stages gain cpu_seconds/utilization,
 *       run reports gain "contention" and "alloc" sections, the thread
 *       pool publishes queue-wait/busy/idle/utilization metrics.
 *
 * Consumers (`dnastore report check`, `dnastore report diff`) accept
 * both versions; on-disk archive manifests version independently
 * (archive::kManifestSchemaVersion) so bumping this never invalidates
 * stored archives.
 */
inline constexpr int kSchemaVersion = 2;

/** Emit @p snapshot as a JSON value into @p json. */
void writeMetricsValue(JsonWriter &json, const MetricsSnapshot &snapshot);

/** @p snapshot as a standalone JSON document (for tests and tools). */
[[nodiscard]] std::string metricsJson(const MetricsSnapshot &snapshot);

/**
 * Write @p text to @p path (binary, trailing newline) atomically:
 * staged under a unique "<path>.tmp.<pid>.<counter>" name, then
 * renamed over the target.  Every failure path removes the staging
 * file; a process killed mid-write orphans it (swept by `archive
 * fsck`).  Honors the obs.write.{open,body,rename} crash points
 * (obs/crashpoint.hh).
 * @return false when the file cannot be written.
 */
[[nodiscard]] bool
writeTextFile(const std::string &path, const std::string &text);

} // namespace dnastore::obs
