/**
 * @file
 * The dnastored request scheduler (docs/SERVER.md): admission control,
 * get-coalescing and batching over the scheduler's own worker pool.
 *
 * Decode is seconds-per-object (clustering + consensus dominate), so
 * the scheduler's job is to do strictly less decode work than the
 * request stream asks for:
 *
 *  - **Coalescing** — concurrent gets for the same object join one
 *    GetGroup and share a single backend fetch; the coalescing window
 *    spans from submit until the fetch completes, so a get arriving
 *    while "photo.jpg" is already decoding rides along for free.
 *  - **Batching** — up to batch_max distinct queued objects dispatch as
 *    ONE Backend::fetchMany call, which flattens every object's shards
 *    into a single parallel loop.  The worker running the batch works
 *    on that loop itself, with helpers from the process-wide executor
 *    (util/thread_pool.hh) up to the retrieval num_threads.
 *  - **Admission** — load beyond max_inflight (global) or
 *    per_client_inflight (per connection) is rejected *immediately*
 *    with a typed status (Overloaded / QuotaExceeded) instead of
 *    queueing unboundedly; after beginDrain() every new request gets
 *    ShuttingDown.
 *  - **Put exclusion** — Archive::put mutates; gets are const.  A
 *    pending put blocks new reads (no writer starvation), and starts
 *    only once active reads drain.
 *
 * Threading: submit* may be called from any thread (the event loop);
 * completion callbacks run on pool workers and must not block — the
 * server's callbacks just post to its completion queue and poke the
 * wakeup pipe.  Backend calls and callbacks always run OUTSIDE the
 * scheduler mutex (dnalint R11).  No method throws.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "server/backend.hh"
#include "util/sync.hh"
#include "util/thread_annotations.hh"
#include "util/thread_pool.hh"

namespace dnastore::server
{

struct SchedulerMetrics; // Process-global obs handles (scheduler.cc).

/** Scheduler knobs (daemon flags map onto these 1:1). */
struct SchedulerConfig
{
    /** Scheduler pool workers (run batches, puts, metadata); 0 = hardware. */
    std::size_t num_threads = 0;
    std::size_t max_inflight = 64;       //!< Global admission limit.
    std::size_t per_client_inflight = 8; //!< Per-connection quota.
    std::size_t batch_max = 4; //!< Max distinct objects per fetch batch.
    std::size_t max_concurrent_batches = 2; //!< Parallel fetch batches.
};

/** Monotonic per-scheduler totals (the obs counters, but instance-local
 *  so tests and the server report can read one server's numbers even
 *  though the metrics registry is process-global). */
struct SchedulerCounters
{
    std::uint64_t requests = 0;       //!< Admitted requests.
    std::uint64_t coalesced_gets = 0; //!< Gets that joined a live group.
    std::uint64_t batches = 0;        //!< fetchMany dispatches.
    std::uint64_t batched_gets = 0;   //!< Distinct objects across batches.
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t rejected_draining = 0;
};

/**
 * The scheduler.  One instance per server; owns the worker pool.
 * Destruction drains: outstanding work completes and callbacks fire
 * before the destructor returns.
 */
class Scheduler
{
  public:
    using GetCallback = std::function<void(const FetchResult &)>;
    using PutCallback = std::function<void(const StoreResult &)>;
    using MetaCallback = std::function<void(const MetaResult &)>;

    Scheduler(Backend &backend, const SchedulerConfig &config);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Submit a get.  Returns Ok when admitted — @p done will then be
     * invoked exactly once from a pool worker — or a typed rejection
     * (Overloaded / QuotaExceeded / ShuttingDown), in which case @p
     * done is never invoked and the caller replies inline.
     */
    [[nodiscard]] ServerStatus submitGet(std::uint64_t client_id,
                                         const std::string &name,
                                         GetCallback done);

    /** Submit a put (same admission contract as submitGet). */
    [[nodiscard]] ServerStatus submitPut(std::uint64_t client_id,
                                         std::string name,
                                         std::vector<std::uint8_t> data,
                                         PutCallback done);

    /** Submit a listing (same admission contract). */
    [[nodiscard]] ServerStatus submitLs(std::uint64_t client_id,
                                        MetaCallback done);

    /** Submit a stat (same admission contract). */
    [[nodiscard]] ServerStatus submitStat(std::uint64_t client_id,
                                          std::string name,
                                          MetaCallback done);

    /** Stop admitting: every later submit returns ShuttingDown. */
    void beginDrain();

    /** Block until no admitted request remains (callbacks delivered). */
    void drainWait();

    /** True when no admitted request is queued or running. */
    [[nodiscard]] bool idle() const;

    /** Snapshot of the instance-local totals. */
    [[nodiscard]] SchedulerCounters counters() const;

  private:
    /** One admitted get waiting on (or riding) a fetch. */
    struct GetWaiter
    {
        std::uint64_t client_id = 0;
        GetCallback done;
        std::uint64_t submit_us = 0;
    };

    /** All waiters for one object name; running once dispatched. */
    struct GetGroup
    {
        std::vector<GetWaiter> waiters;
        bool running = false;
    };

    struct PutJob
    {
        std::uint64_t client_id = 0;
        std::string name;
        std::vector<std::uint8_t> data;
        PutCallback done;
        std::uint64_t submit_us = 0;
    };

    struct MetaJob
    {
        std::uint64_t client_id = 0;
        bool is_stat = false;
        std::string name; //!< Only for stat.
        MetaCallback done;
        std::uint64_t submit_us = 0;
    };

    /**
     * Work pumpLocked decided may run now, as plain descriptors.  The
     * caller hands them to launch() AFTER unlocking, which is where the
     * worker closures are built and submitted (dnalint R11: no
     * ThreadPool::submit — direct or transitive — under a held mutex).
     */
    struct PendingWork
    {
        std::shared_ptr<PutJob> put;
        std::vector<std::shared_ptr<MetaJob>> metas;
        std::vector<std::vector<std::string>> batches;
    };

    /** Admission check; bumps inflight counts when admitting. */
    [[nodiscard]] ServerStatus admitLocked(std::uint64_t client_id)
        DNASTORE_REQUIRES(mu_);

    /** Decide what may dispatch now; fills @p work (no side effects
     *  beyond queue/accounting updates — nothing blocking). */
    void pumpLocked(PendingWork &work) DNASTORE_REQUIRES(mu_);

    /** Submit collected work to the pool (call unlocked). */
    void launch(PendingWork &work);

    /** Release one admitted request's quota slots. */
    void releaseLocked(std::uint64_t client_id) DNASTORE_REQUIRES(mu_);

    /** Pool-worker bodies. */
    void runBatch(const std::vector<std::string> &names);
    void runPut(std::shared_ptr<PutJob> job);
    void runMeta(std::shared_ptr<MetaJob> job);

    [[nodiscard]] bool idleLocked() const DNASTORE_REQUIRES(mu_);

    Backend &backend_;
    const SchedulerConfig config_;
    // Resolved once at construction so no metrics-registry lookup (which
    // takes the registry mutex) ever happens under mu_ (dnalint R11).
    SchedulerMetrics &metrics_;

    mutable Mutex mu_{"server.scheduler"};
    CondVar idle_cv_;

    std::map<std::string, GetGroup> groups_ DNASTORE_GUARDED_BY(mu_);
    std::deque<std::string> get_queue_ DNASTORE_GUARDED_BY(mu_);
    std::deque<std::shared_ptr<PutJob>> put_queue_
        DNASTORE_GUARDED_BY(mu_);
    std::deque<std::shared_ptr<MetaJob>> meta_queue_
        DNASTORE_GUARDED_BY(mu_);

    std::size_t inflight_total_ DNASTORE_GUARDED_BY(mu_) = 0;
    std::map<std::uint64_t, std::size_t> per_client_
        DNASTORE_GUARDED_BY(mu_);
    std::size_t running_batches_ DNASTORE_GUARDED_BY(mu_) = 0;
    std::size_t active_reads_ DNASTORE_GUARDED_BY(mu_) = 0;
    bool put_active_ DNASTORE_GUARDED_BY(mu_) = false;
    bool draining_ DNASTORE_GUARDED_BY(mu_) = false;
    SchedulerCounters counters_ DNASTORE_GUARDED_BY(mu_);

    // Declared last so workers join (and all run* bodies finish) before
    // any other member dies.
    ThreadPool pool_;
};

} // namespace dnastore::server
