/**
 * @file
 * `dnastore report check FILE...` — the one validator for every
 * document the toolkit writes.  A document's "schema" key (run, fsck
 * and server reports, archive manifests) or "traceEvents" key (Chrome
 * traces) says what it is.  Required keys come from the writers: a
 * report must carry every fixed key, with its JSON kind, that
 * runReportJson / fsckReportJson / serverReportJson emit for a default
 * input.  Manifests go through archive::tryParseManifest alone, the
 * parser Archive::open trusts.  A few semantic invariants ride on top
 * (histogram shape, fsck summary, server counters, trace nesting).
 *
 * Exit codes: 0 = all valid, 1 = some file invalid (the message names
 * the file and the key), 2 = usage error or unreadable file.
 */

#pragma once

#include <string>
#include <string_view>

namespace dnastore::tools
{

/** Verdict on one document. */
struct ReportCheck
{
    std::string kind;  //!< Schema name, "chrome_trace", or empty.
    std::string error; //!< First violation (names the key); empty: valid.
};

/** Validate one document's @p text (see file header). */
[[nodiscard]] ReportCheck checkReport(std::string_view text);

} // namespace dnastore::tools
