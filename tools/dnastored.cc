/**
 * @file
 * dnastored — the concurrent DNA archive daemon (docs/SERVER.md).
 *
 * Serves one archive directory over the length-prefixed wire protocol
 * on 127.0.0.1: put/get/ls/stat/ping with request scheduling (get
 * coalescing + pool batching), admission control and graceful drain.
 *
 *   dnastored --dir ARCHIVE [--create] [--port P] [--port-file PATH]
 *             [--threads N] [--max-inflight N] [--per-client-inflight N]
 *             [--batch-max N] [--max-batches N]
 *             [--metrics-json PATH]
 *             [retrieval opts: --channel --error-rate --coverage --seed
 *              --retries --decode-threads]
 *
 * --port 0 (default) binds an ephemeral port; the chosen port is
 * printed as "listening on PORT" and, with --port-file, written there
 * so scripts can wait for readiness without races.
 *
 * SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish
 * admitted requests, flush replies, then exit 0.  With --metrics-json
 * a dnastore.server_report document (lifetime counters + server.*
 * metrics delta) is written after the drain.
 */

#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "archive/archive.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "server/archive_backend.hh"
#include "server/server.hh"
#include "util/args.hh"

#include "cli_args.hh"

using namespace dnastore;

namespace
{

/**
 * Signal handling: the handler may only do async-signal-safe work, so
 * it writes one drain byte to the server's wakeup pipe and nothing
 * else.  Plain volatile int is enough — the fd is written once before
 * signals are installed and never changes afterwards.
 */
volatile int g_drain_fd = -1;

extern "C" void
onTermSignal(int)
{
    const int fd = g_drain_fd;
    if (fd >= 0) {
        const char byte = 'q';
        // A failed write means the pipe is full, which already
        // guarantees a wakeup; nothing useful to do with the result.
        (void)!::write(fd, &byte, 1);
    }
}

archive::RetrievalConfig
retrievalConfig(const ArgParser &args)
{
    archive::RetrievalConfig cfg;
    if (args.get("channel", "iid") == "wetlab")
        cfg.channel = archive::RetrievalChannel::Wetlab;
    cfg.error_rate = args.getDouble("error-rate", cfg.error_rate);
    cfg.coverage = args.getDouble("coverage", cfg.coverage);
    cfg.seed = static_cast<std::uint64_t>(
        args.getInt("seed", static_cast<std::int64_t>(cfg.seed)));
    // Per-request decode parallelism; scheduler-level batches already
    // run concurrently, so the default keeps each shard decode serial.
    cfg.num_threads = args.getCount("decode-threads", 1);
    cfg.max_decode_retries = args.getCount("retries", 1);
    return cfg;
}

/** Daemon knobs; throws std::invalid_argument on a malformed flag. */
server::ServerConfig
serverConfig(const ArgParser &args)
{
    server::ServerConfig config;
    config.port = static_cast<std::uint16_t>(
        tools::getIntInRange(args, "port", 0, 0, 65535));
    config.scheduler.num_threads = args.getCount("threads", 0);
    config.scheduler.max_inflight = args.getCount("max-inflight", 64);
    config.scheduler.per_client_inflight =
        args.getCount("per-client-inflight", 8);
    config.scheduler.batch_max = args.getCount("batch-max", 4);
    config.scheduler.max_concurrent_batches = args.getCount("max-batches", 2);
    return config;
}

int
usage()
{
    std::cerr
        << "usage: dnastored --dir ARCHIVE [--create] [--port P]\n"
           "  [--port-file PATH] [--threads N] [--max-inflight N]\n"
           "  [--per-client-inflight N] [--batch-max N] "
           "[--max-batches N]\n"
           "  [--metrics-json PATH] [--channel iid|wetlab "
           "--error-rate R\n"
           "   --coverage C --seed S --retries N --decode-threads N]\n"
           "serves the archive on 127.0.0.1 (ephemeral port when "
           "--port 0);\n"
           "SIGTERM drains gracefully (docs/SERVER.md)\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::string dir = args.get("dir", "");
    if (dir.empty())
        return usage();
    server::ServerConfig config;
    archive::RetrievalConfig retrieval;
    try {
        config = serverConfig(args);
        retrieval = retrievalConfig(args);
    } catch (const std::invalid_argument &error) {
        std::cerr << "dnastored: " << error.what() << "\n";
        return usage();
    }

    archive::OpenResult opened = archive::Archive::open(dir);
    if (opened.status == archive::ArchiveStatus::NotFound &&
        args.getBool("create", false))
        opened = archive::Archive::create(dir, archive::ArchiveParams{});
    if (!opened.ok()) {
        std::cerr << "dnastored: cannot open archive '" << dir
                  << "': " << opened.error << "\n";
        return 1;
    }

    server::ArchiveBackend backend(*opened.archive, retrieval,
                                   config.scheduler.num_threads);
    server::Server server(backend, config);
    const obs::MetricsSnapshot before = obs::metrics().snapshot();
    if (server.start() != server::ServerStatus::Ok) {
        std::cerr << "dnastored: cannot bind 127.0.0.1:" << config.port
                  << "\n";
        return 1;
    }

    g_drain_fd = server.drainNotifyFd();
    struct sigaction action = {};
    action.sa_handler = onTermSignal;
    sigemptyset(&action.sa_mask);
    (void)sigaction(SIGTERM, &action, nullptr);
    (void)sigaction(SIGINT, &action, nullptr);
    (void)signal(SIGPIPE, SIG_IGN);

    std::cout << "listening on " << server.port() << "\n" << std::flush;
    const std::string port_file = args.get("port-file", "");
    if (!port_file.empty() &&
        !obs::writeTextFile(port_file, std::to_string(server.port())))
        std::cerr << "dnastored: warning: could not write " << port_file
                  << "\n";

    server.serve(); // Returns after a drain completes.

    const server::SchedulerCounters counters = server.counters();
    std::cout << "drained: " << counters.requests << " request(s), "
              << counters.coalesced_gets << " coalesced get(s), "
              << counters.batches << " batch(es), "
              << counters.rejected_overload + counters.rejected_quota +
                     counters.rejected_draining
              << " rejected\n";

    const std::string metrics_path = args.get("metrics-json", "");
    if (!metrics_path.empty()) {
        std::map<std::string, std::string> info;
        info["archive_dir"] = dir;
        info["port"] = std::to_string(server.port());
        info["sessions_accepted"] =
            std::to_string(server.sessionsAccepted());
        const std::string report = server::serverReportJson(
            counters, info, obs::metrics().snapshot().delta(before));
        if (!obs::writeTextFile(metrics_path, report))
            std::cerr << "dnastored: warning: could not write "
                      << metrics_path << "\n";
    }
    return 0;
}
