/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its result as
 * one JSON line.  perfbench/run.py builds and calls it; see
 * perfbench/README.md.
 *
 *   perfbench_driver --workload=archive_get --seed=1 --seconds=15
 *                    --trace=0 --workdir=DIR [--trace-out=FILE]
 */

#include <exception>
#include <filesystem>
#include <iostream>

#include "obs/json.hh"
#include "util/args.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

std::string
resultJson(const Options &opt, const Outcome &out)
{
    dnastore::obs::JsonWriter json;
    json.beginObject();
    json.key("workload");
    json.value(opt.workload);
    json.key("correct");
    json.value(out.correct);
    json.key("attempted");
    json.value(out.attempted);
    json.key("failed");
    json.value(out.failed);
    json.key("metrics");
    json.beginObject();
    for (const Metric &metric : out.metrics) {
        json.key(metric.name);
        json.beginObject();
        json.key("value");
        json.value(metric.value);
        json.key("unit");
        json.value(metric.unit);
        json.endObject();
    }
    json.endObject();
    json.key("counters");
    json.beginObject();
    for (const auto &[name, value] : out.counters) {
        json.key(name);
        json.value(value);
    }
    json.endObject();
    json.key("build");
    json.beginObject();
    json.key("type");
    json.value(PERFBENCH_BUILD_TYPE);
    json.key("compiler");
    json.value(PERFBENCH_COMPILER);
    json.endObject();
    json.endObject();
    return json.text();
}

} // namespace

int
main(int argc, char **argv)
{
    const dnastore::ArgParser args(argc, argv);
    Options opt;
    opt.workload = args.get("workload");
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opt.seconds = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, args.getInt("seconds", 10)));
    opt.trace = args.getInt("trace", 0) != 0;
    opt.workdir = args.get("workdir");
    opt.trace_out = args.get("trace-out");
    if (opt.workdir.empty()) {
        std::cerr << "perfbench_driver: --workdir is required\n";
        return 2;
    }

    try {
        std::filesystem::create_directories(opt.workdir);
        Outcome out;
        if (opt.workload == "archive_get") {
            out = runArchiveGet(opt);
        } else if (opt.workload == "pipeline_dbma") {
            out = runPipelineDbma(opt);
        } else if (opt.workload == "serve_zipf_rw") {
            out = runServeZipfRw(opt);
        } else {
            std::cerr << "perfbench_driver: unknown workload '"
                      << opt.workload << "'\n";
            return 2;
        }
        std::cout << resultJson(opt, out) << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << opt.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    return 0;
}
