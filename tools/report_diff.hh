/**
 * @file
 * `dnastore report diff <baseline.json> <current.json>` — the perf
 * regression gate.  Compares two documents of the same schema
 * (dnastore.run_report or dnastore.bench_table3), extracts the per-stage
 * seconds, and flags regressions beyond a tolerance.  Any other schema
 * is refused; end-to-end archive and dnastored numbers come from
 * perfbench/, not from this diff.
 *
 * A row regresses when current - baseline exceeds BOTH the relative
 * slack (baseline * tolerance_pct / 100) and the absolute floor; the
 * floor keeps micro-benchmark noise (a stage going from 2ms to 4ms) from
 * tripping a 100% "regression".  Rows present in only one document are
 * reported but never gate, so v1 baselines stay diffable against v2
 * output.
 *
 * Exit codes: 0 = within tolerance, 1 = regression, 2 = usage/parse
 * error (including an unsupported schema or a negative or non-finite
 * --tolerance-pct or --abs-floor).  --markdown additionally writes the
 * row table as a Markdown report.
 */

#pragma once

#include <string>

namespace dnastore::tools
{

/**
 * Knobs for one diff run.  The defaults suit one quiet machine; CI's
 * noisy shared runners pass --tolerance-pct 150 --abs-floor 0.5.
 */
struct ReportDiffOptions
{
    double tolerance_pct = 25.0;  //!< Relative slack per row.
    double abs_floor = 0.05;      //!< Absolute slack (row units).
    std::string markdown_path;    //!< Empty: no markdown report.
};

/**
 * Diff @p current_path against @p baseline_path and print the row table
 * to stdout.  Returns the process exit code (0/1/2, see file header).
 */
[[nodiscard]] int reportDiff(const std::string &baseline_path,
                             const std::string &current_path,
                             const ReportDiffOptions &options);

/** The `dnastore report diff|check` entry point (argv[1]=="report"). */
[[nodiscard]] int cmdReport(int argc, char **argv);

} // namespace dnastore::tools
