/**
 * @file
 * The dnastored server: a poll()-based event loop accepting loopback
 * TCP connections, speaking the server/protocol.hh framing, and
 * dispatching requests into the Scheduler (docs/SERVER.md).
 *
 * Threading model:
 *  - ONE loop thread (serve()) owns the listen socket, the sessions and
 *    all socket I/O.
 *  - Pool workers complete requests and post encoded reply bytes to a
 *    mutex-guarded completion queue, then poke the self-pipe; the loop
 *    thread drains the queue into per-session write buffers.
 *  - Signal handlers never touch server state: they write one 'q' byte
 *    to drainNotifyFd() (async-signal-safe), and the loop thread reads
 *    it and starts the drain.
 *
 * Drain semantics (SIGTERM): stop accepting, reject new requests with
 * ShuttingDown, let admitted work finish, flush every reply, then
 * return from serve().  No request is ever silently dropped.
 *
 * No-throw contract: serve() is a dnalint R9 root — every failure path
 * reports through ServerStatus or closes the offending session.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "server/backend.hh"
#include "server/scheduler.hh"
#include "server/session.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace dnastore::server
{

/** Server knobs (daemon flags map onto these 1:1). */
struct ServerConfig
{
    std::uint16_t port = 0; //!< TCP port; 0 picks an ephemeral one.
    SchedulerConfig scheduler;
    std::size_t data_chunk = 64 * 1024; //!< Data-frame chunk bytes.
    std::size_t max_sessions = 256;     //!< Concurrent connections.
};

/**
 * One server instance over one Backend.  start() binds, serve() runs
 * the loop until a drain completes.  Bound to 127.0.0.1 only: this is
 * a local daemon, not an internet-facing service.
 */
class Server
{
  public:
    Server(Backend &backend, const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + wakeup pipe.  Internal on any socket failure. */
    [[nodiscard]] ServerStatus start();

    /** The bound port (valid after a successful start). */
    std::uint16_t port() const { return port_; }

    /**
     * Write end of the wakeup pipe.  Writing the byte 'q' requests a
     * graceful drain; safe from a signal handler (write(2) only).
     */
    int drainNotifyFd() const { return wake_wr_; }

    /** Request a graceful drain from ordinary (non-signal) code. */
    void requestDrain();

    /**
     * Run the event loop: accept, read frames, dispatch, flush
     * replies.  Returns once a requested drain has fully completed.
     * Must be called from exactly one thread.
     */
    void serve();

    /** Scheduler totals (coalesced/batched/rejected/... counts). */
    [[nodiscard]] SchedulerCounters counters() const
    {
        return scheduler_.counters();
    }

    /** Connections accepted over the server's lifetime. */
    std::uint64_t sessionsAccepted() const { return sessions_accepted_; }

  private:
    /** One completed reply, encoded and addressed. */
    struct Completion
    {
        std::uint64_t session_id = 0;
        std::vector<std::uint8_t> bytes;
    };

    /** Pool-worker side: queue reply bytes + poke the loop. */
    void postCompletion(std::uint64_t session_id,
                        std::vector<std::uint8_t> bytes);

    /** Loop side: apply queued completions to their sessions. */
    void drainCompletions();

    /** Accept as many pending connections as the cap allows. */
    void acceptPending();

    /** Drain the wakeup pipe; true when a 'q' (drain) byte arrived. */
    [[nodiscard]] bool drainWakePipe();

    /** Enter draining: close the listen socket, stop admissions. */
    void beginDrain();

    /** Interpret one parsed frame from @p session. */
    void handleFrame(Session &session, Frame &frame);

    void closeSession(std::uint64_t session_id);

    Backend &backend_;
    const ServerConfig config_;

    int listen_fd_ = -1;
    int wake_rd_ = -1;
    int wake_wr_ = -1;
    std::uint16_t port_ = 0;
    bool draining_ = false;
    std::uint64_t next_session_id_ = 1;
    std::uint64_t sessions_accepted_ = 0;
    std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;

    Mutex completions_mu_{"server.completions"};
    std::deque<Completion> completions_
        DNASTORE_GUARDED_BY(completions_mu_);

    // Declared last: the scheduler's destructor drains outstanding
    // callbacks (which post into completions_), so it must die before
    // the completion queue and sessions do.
    Scheduler scheduler_;
};

/**
 * Canonical server run report (schema `dnastore.server_report`):
 * lifetime counters, free-form info strings (port, config, uptime) and
 * the server's metrics delta.  Validated by `dnastore report check`.
 */
[[nodiscard]] std::string
serverReportJson(const SchedulerCounters &counters,
                 const std::map<std::string, std::string> &info,
                 const obs::MetricsSnapshot &metrics_delta);

} // namespace dnastore::server
