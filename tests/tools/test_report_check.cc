// `dnastore report check`: real writer output validates, and one
// mutation per invariant is rejected with the offending key named.

#include "report_check.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "archive/fsck.hh"
#include "archive/manifest.hh"
#include "clustering/clusterer.hh"
#include "codec/matrix_codec.hh"
#include "core/pipeline.hh"
#include "core/run_report.hh"
#include "obs/lock_timing.hh"
#include "obs/span.hh"
#include "obs/trace_export.hh"
#include "reconstruction/nw_consensus.hh"
#include "server/server.hh"
#include "simulator/iid_channel.hh"
#include "util/random.hh"

namespace dnastore
{
namespace
{

using archive::FsckFinding;
using archive::FsckFindingKind;
using archive::FsckReport;
using archive::FsckSeverity;
using tools::checkReport;

/** One threaded pipeline run: its result and its Chrome trace. */
struct RealRun
{
    PipelineResult result;
    std::string trace;
};

const RealRun &
realRun()
{
    static const RealRun run = [] {
        MatrixCodecConfig codec;
        codec.payload_nt = 60;
        codec.index_nt = 10;
        codec.rs_n = 30;
        codec.rs_k = 20;
        MatrixEncoder encoder(codec);
        MatrixDecoder decoder(codec);
        IidChannel channel(IidChannelConfig::fromTotalErrorRate(0.02));
        RashtchianClusterer clusterer({});
        NwConsensusReconstructor recon;
        PipelineConfig cfg;
        cfg.coverage = CoverageModel(8.0, CoverageDistribution::Poisson);
        cfg.num_threads = 2;
        Pipeline pipeline({&encoder, &decoder, &channel, &clusterer, &recon},
                          cfg);
        Rng rng(7);
        std::vector<std::uint8_t> data(1200);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.below(256));
        obs::locktime::enable();
        obs::TraceSink sink;
        obs::installTraceSink(&sink);
        RealRun out;
        out.result = pipeline.run(data);
        obs::installTraceSink(nullptr);
        out.trace = obs::chromeTraceJson(sink);
        return out;
    }();
    return run;
}

std::string
runReport(const PipelineResult &result)
{
    return runReportJson(result, {{"tool", "test_report_check"}});
}

FsckReport
repairedFsck()
{
    FsckReport report;
    report.objects = 2;
    report.shards = 3;
    report.pool_records = 3;
    FsckFinding stale;
    stale.kind = FsckFindingKind::StaleTempFile;
    stale.severity = FsckSeverity::Warning;
    stale.repairable = true;
    stale.repaired = true;
    stale.path = "manifest.json.tmp.1.2";
    report.findings.push_back(stale);
    report.repaired_count = 1;
    return report;
}

std::string
fsckReport(const FsckReport &report)
{
    return archive::fsckReportJson(report, "tube", {});
}

server::SchedulerCounters
serverCounters()
{
    server::SchedulerCounters counters;
    counters.requests = 5;
    counters.coalesced_gets = 1;
    counters.batches = 2;
    counters.batched_gets = 3;
    return counters;
}

obs::MetricsSnapshot
serverMetrics()
{
    obs::MetricsSnapshot metrics;
    metrics.counters["server.requests_total"] = 5;
    metrics.gauges["server.inflight_requests"] = obs::GaugeSnapshot{0, 2};
    obs::HistogramSnapshot wait;
    wait.upper_bounds = {0.001, 0.01};
    wait.counts = {3, 2, 0};
    wait.total_count = 5;
    metrics.histograms["server.queue_wait_seconds"] = wait;
    return metrics;
}

std::string
serverReport(const server::SchedulerCounters &counters,
             const obs::MetricsSnapshot &metrics)
{
    return server::serverReportJson(counters, {{"port", "1"}}, metrics);
}

std::string
manifest()
{
    archive::ArchiveManifest m;
    archive::ObjectEntry object;
    object.name = "alpha";
    object.id = 1;
    object.size_bytes = 300;
    object.shards = {{1, 200, 1, 40}, {2, 100, 1, 40}};
    m.objects.push_back(object);
    return archive::manifestJson(m);
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << "mutation anchor missing: " << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

void
expectRejected(const std::string &text, const std::string &key)
{
    const std::string error = checkReport(text).error;
    EXPECT_NE(error.find(key), std::string::npos)
        << "error \"" << error << "\" does not name " << key;
}

TEST(ReportCheck, AcceptsRealWriterOutput)
{
    const std::vector<std::pair<std::string, std::string>> documents = {
        {runReport(realRun().result), "dnastore.run_report"},
        {realRun().trace, "chrome_trace"},
        {fsckReport(repairedFsck()), "dnastore.fsck_report"},
        {fsckReport(FsckReport{}), "dnastore.fsck_report"},
        {serverReport(serverCounters(), serverMetrics()),
         "dnastore.server_report"},
        {manifest(), "dnastore.archive_manifest"},
    };
    for (const auto &[text, kind] : documents) {
        const tools::ReportCheck verdict = checkReport(text);
        EXPECT_EQ(verdict.kind, kind);
        EXPECT_EQ(verdict.error, "") << kind;
    }
}

TEST(ReportCheck, RejectsUnreadableOrUnknownDocuments)
{
    expectRejected("{\"schema\":", "not valid JSON");
    expectRejected("{}", "schema is missing");
    expectRejected("{\"schema\":\"dnastore.bench_table3\"}",
                   "dnastore.bench_table3");
}

TEST(ReportCheck, RejectsMissingKeyOrWrongKind)
{
    const std::string report = runReport(realRun().result);
    expectRejected(replaced(report, "\"total\":", "\"totl\":"),
                   "faults.total is missing");
    expectRejected(
        replaced(report, "\"decode_ok\":", "\"decode_ok\":1,\"was\":"),
        "pipeline.decode_ok is not a boolean");
    // Version 1 predates exactly the attribution keys.
    std::string v1 = replaced(report, "\"schema_version\":2",
                              "\"schema_version\":1");
    v1 = replaced(v1, "\"cpu_seconds\":", "\"cpu_secs\":");
    EXPECT_EQ(checkReport(v1).error, "");
    expectRejected(replaced(report, "\"cpu_seconds\":", "\"cpu_secs\":"),
                   "stages.encoding.cpu_seconds is missing");
}

TEST(ReportCheck, RejectsMalformedHistograms)
{
    PipelineResult result = realRun().result;
    obs::HistogramSnapshot &hist =
        result.metrics.histograms["decoding.bad_seconds"];
    hist.upper_bounds = {1.0};
    hist.counts = {1};
    hist.total_count = 1;
    expectRejected(runReport(result),
                   "metrics.histograms.decoding.bad_seconds.counts");
    hist.counts = {1, 1};
    expectRejected(runReport(result),
                   "decoding.bad_seconds.counts do not sum");

    result = realRun().result;
    obs::locktime::MutexWaitSnapshot mutex;
    mutex.name = "test.mutex";
    mutex.counts = {1};
    mutex.total_count = 1;
    result.contention.mutexes.push_back(mutex);
    expectRejected(runReport(result), "contention.mutexes.test.mutex");

    obs::MetricsSnapshot metrics = serverMetrics();
    metrics.histograms["server.queue_wait_seconds"].total_count = 9;
    expectRejected(serverReport(serverCounters(), metrics),
                   "metrics.histograms.server.queue_wait_seconds");
}

TEST(ReportCheck, RejectsBrokenAttribution)
{
    PipelineResult result = realRun().result;
    result.cpu.encoding = -1.0;
    expectRejected(runReport(result), "stages.encoding.cpu_seconds");

    const std::string report = runReport(realRun().result);
    expectRejected(replaced(report, "\"utilization\":",
                            "\"utilization\":-1,\"was\":"),
                   "utilization is negative");

    result = realRun().result;
    result.alloc.sample_every = 0;
    expectRejected(runReport(result), "alloc.sample_every");
    result = realRun().result;
    result.contention.sample_every = 0;
    expectRejected(runReport(result), "contention.sample_every");

    result = realRun().result;
    obs::alloc::StageAllocSnapshot stage;
    stage.stage = "encoding";
    stage.sampled_allocs = 2;
    stage.estimated_allocs = 1;
    result.alloc.stages.push_back(stage);
    expectRejected(runReport(result), "alloc.stages.encoding.sampled_allocs");

    result = realRun().result;
    ASSERT_GT(result.metrics.counters["util.thread_pool.tasks_total"], 0U);
    result.metrics.histograms.erase("util.thread_pool.queue_wait_seconds");
    expectRejected(runReport(result), "util.thread_pool.queue_wait_seconds");
}

TEST(ReportCheck, RejectsTooFewOrUndottedMetricNames)
{
    PipelineResult result = realRun().result;
    result.metrics.counters["nodot"] = 1;
    expectRejected(runReport(result), "metrics.counters.nodot");

    result = realRun().result;
    result.metrics.counters.clear();
    result.metrics.histograms.clear();
    expectRejected(runReport(result), "fewer than 10");
}

TEST(ReportCheck, RejectsInconsistentFsckReports)
{
    const std::string report = fsckReport(repairedFsck());
    expectRejected(replaced(report, "stale_temp_file", "gremlins"),
                   "findings[0].kind");
    expectRejected(replaced(report, "\"warning\"", "\"fatal\""),
                   "findings[0].severity");
    expectRejected(replaced(report, "\"status\":\"ok\"", "\"status\":\"meh\""),
                   "status");
    expectRejected(replaced(report, "\"clean\":false", "\"clean\":true"),
                   "clean");
    expectRejected(replaced(report, "\"healthy\":true", "\"healthy\":false"),
                   "healthy");
    expectRejected(replaced(report, "\"repaired_count\":1",
                            "\"repaired_count\":0"),
                   "repaired_count");

    FsckReport broken = repairedFsck();
    broken.findings[0].repairable = false;
    expectRejected(fsckReport(broken), "findings[0].repaired");
    expectRejected(replaced(report, "\"shards\":", "\"shard\":"),
                   "checked.shards is missing");
}

TEST(ReportCheck, RejectsServerCounterViolations)
{
    server::SchedulerCounters counters = serverCounters();
    counters.coalesced_gets = counters.requests + 1;
    expectRejected(serverReport(counters, serverMetrics()),
                   "counters.coalesced_gets");

    counters = serverCounters();
    counters.batches = counters.batched_gets + 1;
    expectRejected(serverReport(counters, serverMetrics()),
                   "counters.batches");

    obs::MetricsSnapshot metrics = serverMetrics();
    metrics.counters["server.requests_total"] = 4;
    expectRejected(serverReport(serverCounters(), metrics),
                   "server.requests_total");

    const std::string report = serverReport(serverCounters(), serverMetrics());
    expectRejected(replaced(report, "\"value\":", "\"valu\":"),
                   "metrics.gauges.server.inflight_requests.value");
}

TEST(ReportCheck, RejectsMalformedTraces)
{
    const std::string trace = realRun().trace;
    expectRejected(replaced(trace, "\"ph\":\"X\"", "\"ph\":\"B\""),
                   "traceEvents[0].ph");
    expectRejected(replaced(trace, "\"name\":", "\"name\":\"run\",\"was\":"),
                   "traceEvents[0].name");
    expectRejected(replaced(trace, "\"tid\":", "\"tod\":"),
                   "traceEvents[0].tid is missing");
    expectRejected("{\"traceEvents\":[]}", "traceEvents is missing or empty");
    expectRejected("{\"traceEvents\":[{\"name\":\"a/b\",\"ph\":\"X\","
                   "\"ts\":0,\"dur\":5,\"pid\":1,\"tid\":1},"
                   "{\"name\":\"a/c\",\"ph\":\"X\",\"ts\":1,\"dur\":2,"
                   "\"pid\":1,\"tid\":1}]}",
                   "nest 2 deep");
}

TEST(ReportCheck, RejectsCorruptManifest)
{
    expectRejected(replaced(manifest(), "alpha", "alphb"), "CRC mismatch");
}

} // namespace
} // namespace dnastore
