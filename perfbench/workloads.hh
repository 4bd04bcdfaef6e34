/**
 * @file
 * The benchmark's workloads.  Each builds its inputs from Options::seed,
 * runs one measured phase and checks every output byte for byte.  An
 * untraced run reports the end-to-end metrics; a traced run (Options::
 * trace) reports the per-layer metrics and the tracing overhead.
 */

#pragma once

#include "common.hh"

namespace perfbench
{

Outcome runArchiveGet(const Options &opt);
Outcome runPipelineDbma(const Options &opt);
Outcome runServeZipfRw(const Options &opt);

} // namespace perfbench
