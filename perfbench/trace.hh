/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.  Spans are
 * taken around calls into the toolkit's public functions, never inside
 * the toolkit.  A span name is "<layer>.<operation>"; the layer is the
 * toolkit module the call enters (reconstruction, clustering, ...).
 *
 * Recording is off unless enabled, so the untraced runs that give the
 * end-to-end numbers pay nothing.  Spans stay in memory and are written
 * out as a Chrome-trace document when the run ends.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
std::uint64_t nowNs();

struct SpanRecord
{
    const char *name = "";     //!< "<layer>.<operation>", static storage.
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;      //!< 1-based; 0 means "no span".
    std::uint32_t parent = 0;  //!< Enclosing span on the same thread.
    std::uint32_t tid = 0;     //!< Small per-thread id.
    std::uint64_t request = 0; //!< Request the span belongs to.
    /** Back-to-back leaf calls under one parent merge into one record
     *  (per-read channel calls would otherwise flood the trace). */
    std::uint32_t calls = 1;
};

/** Turn recording on or off (process-wide). */
void setTracing(bool on);

/** Every span recorded so far, in close order. */
std::vector<SpanRecord> recordedSpans();

/** Opens a span on construction and records it on destruction. */
class Scope
{
  public:
    /** @p request 0 inherits the enclosing span's request. */
    explicit Scope(const char *name, std::uint64_t request = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name_;
    std::uint64_t start_ns_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t saved_parent_ = 0;
    std::uint64_t saved_request_ = 0;
};

/**
 * Record a leaf call [start, end) under the current span, merging it
 * into the previous record when that one is the same leaf under the
 * same parent with nothing recorded in between.
 */
void recordLeaf(const char *name, std::uint64_t start_ns,
                std::uint64_t end_ns);

/** "reconstruction" for "reconstruction.reconstruct". */
std::string layerOf(const char *name);

/**
 * Self seconds summed per span name.  A span's self time is its duration
 * minus the time its child spans cover.
 */
std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans);

/** Summed self seconds of every name outside @p skip_layer. */
double selfSecondsOutside(const std::map<std::string, double> &by_name,
                          const std::string &skip_layer);

/** Write @p spans as a Chrome-trace ("traceEvents") JSON document. */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench
