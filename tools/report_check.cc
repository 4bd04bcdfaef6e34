#include "report_check.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "archive/fsck.hh"
#include "archive/json_reader.hh"
#include "archive/manifest.hh"
#include "core/run_report.hh"
#include "server/server.hh"

namespace dnastore::tools
{
namespace
{

using archive::JsonValue;

/** Every real run report and trace clears these by a wide margin. */
constexpr std::size_t kMinMetricNames = 10;
constexpr std::size_t kMinTraceDepth = 4;

/** Member @p key of @p parent, or a null value when absent. */
const JsonValue &
at(const JsonValue &parent, std::string_view key)
{
    static const JsonValue kAbsent;
    const JsonValue *value = parent.find(key);
    return value != nullptr ? *value : kAbsent;
}

/** Members of the object at @p key of @p parent (empty when absent). */
const JsonValue::Object &
members(const JsonValue &parent, std::string_view key)
{
    static const JsonValue::Object kNone;
    const JsonValue::Object *object = at(parent, key).asObject();
    return object != nullptr ? *object : kNone;
}

/** The writer's output for @p text, parsed (null if it ever failed). */
JsonValue
parsed(const std::string &text)
{
    return archive::tryParseJson(text).value_or(JsonValue{});
}

/**
 * @p doc must carry every key of @p reference (a writer's own output)
 * with the same JSON kind, recursively.  Objects that are empty in the
 * reference are open maps (metric names, run info) and constrain
 * nothing; a non-empty reference array constrains each element like
 * its first.  Keys listed in @p optional may be absent.
 */
std::string
matchSkeleton(const JsonValue &reference, const JsonValue &doc,
              const std::string &path,
              const std::vector<std::string_view> &optional)
{
    constexpr std::array<const char *, 6> kKindNames = {
        "null", "a boolean", "a number", "a string", "an array", "an object"};
    if (doc.kind() != reference.kind())
        return path + " is not " +
               kKindNames[static_cast<std::size_t>(reference.kind())];
    const JsonValue::Array *items = reference.asArray();
    if (items != nullptr && !items->empty()) {
        const JsonValue::Array &elements = *doc.asArray();
        for (std::size_t i = 0; i < elements.size(); ++i) {
            std::string error = matchSkeleton(
                items->front(), elements[i],
                path + "[" + std::to_string(i) + "]", optional);
            if (!error.empty())
                return error;
        }
    }
    const JsonValue::Object *fields = reference.asObject();
    if (fields == nullptr)
        return {};
    for (const auto &[key, value] : *fields) {
        if (std::find(optional.begin(), optional.end(), key) !=
            optional.end())
            continue;
        const std::string key_path = path.empty() ? key : path + "." + key;
        const JsonValue *member = doc.find(key);
        if (member == nullptr)
            return key_path + " is missing";
        std::string error = matchSkeleton(value, *member, key_path, optional);
        if (!error.empty())
            return error;
    }
    return {};
}

/** counts has one bucket per upper bound plus overflow, summing to count. */
std::string
checkHistogram(const std::string &path, const JsonValue &histogram)
{
    const JsonValue::Array *counts = at(histogram, "counts").asArray();
    const JsonValue::Array *bounds = at(histogram, "upper_bounds").asArray();
    if (counts == nullptr || bounds == nullptr ||
        counts->size() != bounds->size() + 1)
        return path + ".counts is not one longer than upper_bounds";
    std::uint64_t sum = 0;
    for (const JsonValue &bucket : *counts)
        sum += bucket.asUint().value_or(0);
    if (at(histogram, "count").asUint() != sum)
        return path + ".counts do not sum to count";
    return {};
}

/** Gauges and histograms of a metrics value (run and server reports). */
std::string
checkMetrics(const JsonValue &metrics)
{
    for (const auto &[name, gauge] : members(metrics, "gauges"))
        if (gauge.find("value") == nullptr)
            return "metrics.gauges." + name + ".value is missing";
    for (const auto &[name, histogram] : members(metrics, "histograms")) {
        std::string error =
            checkHistogram("metrics.histograms." + name, histogram);
        if (!error.empty())
            return error;
    }
    return {};
}

std::string
checkRunReport(const JsonValue &doc)
{
    static const JsonValue reference = [] {
        PipelineResult result;
        result.recovery_attempts.emplace_back();
        result.errors.emplace_back();
        return parsed(runReportJson(result, {}));
    }();
    // The keys schema_version 2 added; version 1 documents lack them.
    static const std::vector<std::string_view> kV2Keys = {
        "alloc", "contention", "cpu_seconds", "total_cpu_seconds",
        "utilization"};
    const bool v1 = at(doc, "schema_version").asUint() == 1U;
    std::string error = matchSkeleton(
        reference, doc, "", v1 ? kV2Keys : std::vector<std::string_view>{});
    if (error.empty())
        error = checkMetrics(at(doc, "metrics"));
    if (!error.empty())
        return error;

    const JsonValue &metrics = at(doc, "metrics");
    std::size_t names = 0;
    for (const char *section : {"counters", "histograms"}) {
        for (const auto &[name, value] : members(metrics, section)) {
            if (name.find('.') == std::string::npos)
                return std::string("metrics.") + section + "." + name +
                       " is not a module.noun_unit name";
            ++names;
        }
    }
    if (names < kMinMetricNames)
        return "metrics holds " + std::to_string(names) +
               " counters/histograms, fewer than " +
               std::to_string(kMinMetricNames);
    if (v1)
        return {};

    for (const auto &[stage, entry] : members(doc, "stages"))
        for (const char *field : {"cpu_seconds", "utilization"})
            if (at(entry, field).asDouble().value_or(0.0) < 0.0)
                return "stages." + stage + "." + field + " is negative";
    for (const char *section : {"alloc", "contention"})
        if (at(at(doc, section), "sample_every").asUint().value_or(0) < 1)
            return std::string(section) +
                   ".sample_every must be an integer >= 1";
    for (const auto &[name, mutex] : members(at(doc, "contention"),
                                             "mutexes")) {
        error = checkHistogram("contention.mutexes." + name, mutex);
        if (!error.empty())
            return error;
    }
    for (const auto &[tag, entry] : members(at(doc, "alloc"), "stages")) {
        const auto sampled = at(entry, "sampled_allocs").asUint();
        if (!sampled || *sampled > at(entry, "estimated_allocs").asUint())
            return "alloc.stages." + tag +
                   ".sampled_allocs exceeds estimated_allocs";
    }
    // A thread pool that ran tasks also records how long they queued.
    if (at(at(metrics, "counters"), "util.thread_pool.tasks_total")
                .asUint()
                .value_or(0) > 0 &&
        at(metrics, "histograms")
                .find("util.thread_pool.queue_wait_seconds") == nullptr)
        return "metrics.histograms.util.thread_pool.queue_wait_seconds is "
               "missing although the thread pool ran tasks";
    return {};
}

/**
 * Whether @p name_of gives some enumerator the name @p text.  *Name()
 * returns "unknown" for non-enumerators, so scanning the underlying
 * type lists the names without a second copy of the list.
 */
template <typename Enum>
bool
isEnumName(const char *(*name_of)(Enum), const std::string *text)
{
    static_assert(std::is_same_v<std::underlying_type_t<Enum>, std::uint8_t>);
    if (text == nullptr || *text == "unknown")
        return false;
    for (unsigned value = 0; value <= 0xffU; ++value)
        if (*text == name_of(static_cast<Enum>(value)))
            return true;
    return false;
}

std::string
checkFsckReport(const JsonValue &doc)
{
    static const JsonValue reference = [] {
        archive::FsckReport report;
        report.findings.emplace_back();
        return parsed(archive::fsckReportJson(report, "", {}));
    }();
    std::string error = matchSkeleton(reference, doc, "", {});
    if (!error.empty())
        return error;
    if (!isEnumName(archive::archiveStatusName, at(doc, "status").asString()))
        return "status is not an archive status name";

    const std::string error_severity =
        archive::fsckSeverityName(archive::FsckSeverity::Error);
    const JsonValue::Array &findings = *at(doc, "findings").asArray();
    std::uint64_t repaired = 0;
    bool has_error = false;
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const JsonValue &finding = findings[i];
        const std::string path = "findings[" + std::to_string(i) + "]";
        if (!isEnumName(archive::fsckFindingKindName,
                        at(finding, "kind").asString()))
            return path + ".kind is not an fsck finding kind";
        const std::string *severity = at(finding, "severity").asString();
        if (!isEnumName(archive::fsckSeverityName, severity))
            return path + ".severity is not an fsck severity";
        const bool was_repaired = *at(finding, "repaired").asBool();
        if (was_repaired && !*at(finding, "repairable").asBool())
            return path + ".repaired is true but repairable is false";
        repaired += was_repaired ? 1 : 0;
        has_error = has_error || *severity == error_severity;
    }
    if (*at(doc, "clean").asBool() != findings.empty())
        return "clean disagrees with the " +
               std::to_string(findings.size()) + " findings";
    if (*at(doc, "healthy").asBool() == has_error)
        return "healthy disagrees with the error-severity findings";
    if (at(doc, "repaired_count").asUint() != repaired)
        return "repaired_count disagrees with the " +
               std::to_string(repaired) + " findings marked repaired";
    return {};
}

std::string
checkServerReport(const JsonValue &doc)
{
    static const JsonValue reference =
        parsed(server::serverReportJson({}, {}, {}));
    std::string error = matchSkeleton(reference, doc, "", {});
    if (!error.empty())
        return error;
    const JsonValue &counters = at(doc, "counters");
    const auto count = [&](std::string_view key) {
        return at(counters, key).asUint().value_or(0);
    };
    if (count("coalesced_gets") > count("requests"))
        return "counters.coalesced_gets exceeds counters.requests";
    if (count("batched_gets") > 0 && count("batches") > count("batched_gets"))
        return "counters.batches exceeds counters.batched_gets";
    const JsonValue &metrics = at(doc, "metrics");
    const JsonValue *total =
        at(metrics, "counters").find("server.requests_total");
    if (total != nullptr && total->asUint() != count("requests"))
        return "metrics.counters.server.requests_total disagrees with "
               "counters.requests";
    return checkMetrics(metrics);
}

std::string
checkTrace(const JsonValue &doc)
{
    const JsonValue::Array *events = at(doc, "traceEvents").asArray();
    if (events == nullptr || events->empty())
        return "traceEvents is missing or empty";
    std::map<double, std::vector<std::pair<double, double>>> spans;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &event = (*events)[i];
        const std::string path = "traceEvents[" + std::to_string(i) + "]";
        for (const char *field : {"name", "ph", "ts", "dur", "pid", "tid"})
            if (event.find(field) == nullptr)
                return path + "." + field + " is missing";
        const std::string *phase = at(event, "ph").asString();
        if (phase == nullptr || *phase != "X")
            return path + ".ph is not \"X\"";
        const std::string *name = at(event, "name").asString();
        if (name == nullptr || name->find('/') == std::string::npos)
            return path + ".name is not a module/what span name";
        spans[at(event, "tid").asDouble().value_or(0.0)].emplace_back(
            at(event, "ts").asDouble().value_or(0.0),
            at(event, "dur").asDouble().value_or(0.0));
    }
    // Nesting depth from per-thread timestamp containment, as trace
    // viewers draw it.
    std::size_t depth = 0;
    for (auto &[tid, thread_spans] : spans) {
        // Parents sort before children: earlier start, longer on ties.
        std::sort(thread_spans.begin(), thread_spans.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first < b.first
                                                : a.second > b.second;
                  });
        std::vector<double> open_ends;
        for (const auto &[ts, dur] : thread_spans) {
            while (!open_ends.empty() && ts >= open_ends.back())
                open_ends.pop_back();
            open_ends.push_back(ts + dur);
            depth = std::max(depth, open_ends.size());
        }
    }
    if (depth < kMinTraceDepth)
        return "traceEvents nest " + std::to_string(depth) +
               " deep, fewer than " + std::to_string(kMinTraceDepth);
    return {};
}

} // namespace

ReportCheck
checkReport(std::string_view text)
{
    const std::optional<JsonValue> doc = archive::tryParseJson(text);
    if (!doc.has_value())
        return {"", "not valid JSON"};
    if (doc->find("traceEvents") != nullptr)
        return {"chrome_trace", checkTrace(*doc)};
    const std::string *schema = at(*doc, "schema").asString();
    if (schema == nullptr)
        return {"", "schema is missing (and no traceEvents)"};
    if (*schema == "dnastore.run_report")
        return {*schema, checkRunReport(*doc)};
    if (*schema == "dnastore.fsck_report")
        return {*schema, checkFsckReport(*doc)};
    if (*schema == "dnastore.server_report")
        return {*schema, checkServerReport(*doc)};
    if (*schema == "dnastore.archive_manifest")
        return {*schema, archive::tryParseManifest(text).error};
    return {*schema, "schema \"" + *schema + "\" has no validator"};
}

} // namespace dnastore::tools
