/**
 * @file
 * Workload serve_zipf_rw: an in-process dnastored driven as a closed
 * loop by 4 client connections, each waiting for its reply before it
 * sends the next request (as the CLI and server::Client do).  Traffic is
 * 90 % gets drawn Zipf(s=1.0) over ~20 preloaded single-shard objects
 * and 10 % puts of fresh objects.  The scheduler and each fetch batch
 * use 2 threads, so at most 4 decode threads are busy.  This is where
 * sessions, coalescing, batching, admission and the thread pool work,
 * and puts drain in-flight reads.
 *
 * The traced run wraps server::Backend in a timing decorator around
 * ArchiveBackend.  Module times inside the backend come from the
 * toolkit's own obs spans, since the archive builds its modules itself.
 */

#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "archive/archive.hh"
#include "archive/json_reader.hh"
#include "obs/span.hh"
#include "server/archive_backend.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "util/crc32.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace dnastore;

namespace
{

constexpr std::size_t kObjects = 20;
constexpr std::size_t kClients = 4;
constexpr std::size_t kShardBytes = 512;
constexpr std::uint64_t kPutPercent = 10;
constexpr std::uint64_t kCorpusSeed = 0xc0de;

/** Every object fills one shard, so a get moves the same bytes whichever
 *  object the Zipf draw picks. */
std::vector<std::uint8_t>
makeObject(Rng &rng)
{
    return randomBytes(rng, kShardBytes);
}

/** One backend call, for matching client requests to backend time. */
struct BackendCall
{
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::vector<std::string> names;
    std::uint64_t bytes = 0;
    bool store = false;
};

/** Times every Backend call; thread-safe (scheduler workers call it). */
class TimedBackend final : public server::Backend
{
  public:
    explicit TimedBackend(server::Backend &inner) : inner_(inner) {}

    std::vector<server::FetchResult>
    fetchMany(const std::vector<std::string> &names) override
    {
        BackendCall call;
        call.start_ns = nowNs();
        std::vector<server::FetchResult> results;
        {
            const Scope span("archive.fetch_many");
            results = inner_.fetchMany(names);
        }
        call.end_ns = nowNs();
        call.names = names;
        for (const server::FetchResult &r : results)
            call.bytes += r.data.size();
        record(std::move(call));
        return results;
    }

    server::StoreResult
    storeObject(const std::string &name,
                const std::vector<std::uint8_t> &data) override
    {
        BackendCall call;
        call.start_ns = nowNs();
        server::StoreResult result;
        {
            const Scope span("archive.store");
            result = inner_.storeObject(name, data);
        }
        call.end_ns = nowNs();
        call.names = {name};
        call.bytes = data.size();
        call.store = true;
        record(std::move(call));
        return result;
    }

    server::MetaResult list() override { return inner_.list(); }

    server::MetaResult
    statObject(const std::string &name) override
    {
        return inner_.statObject(name);
    }

    std::vector<BackendCall>
    calls() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

  private:
    void
    record(BackendCall call)
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        calls_.push_back(std::move(call));
    }

    server::Backend &inner_;
    mutable std::mutex mutex_;
    std::vector<BackendCall> calls_; // Guarded by mutex_.
};

/**
 * Archive, backend, server and connected clients.  Members are declared
 * in dependency order; the destructor stops the server before any of
 * them is destroyed.
 */
struct Service
{
    std::optional<archive::Archive> archive;
    std::unique_ptr<server::ArchiveBackend> backend;
    std::unique_ptr<TimedBackend> timed;
    std::unique_ptr<server::Server> server;
    std::thread serve_thread;
    std::vector<std::unique_ptr<server::Client>> clients;
    std::vector<std::string> names;
    std::vector<std::vector<std::uint8_t>> payloads;
    double setup_seconds = 0.0;

    Service() = default;
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    ~Service()
    {
        clients.clear();
        if (serve_thread.joinable()) {
            server->requestDrain();
            serve_thread.join();
        }
    }
};

std::unique_ptr<Service>
setUp(const std::string &dir, bool timed)
{
    const std::uint64_t start = nowNs();
    auto svc = std::make_unique<Service>();
    // The stored corpus is the same for every seed, like a loaded data
    // set; the seed draws the traffic (which object each get asks for,
    // when puts come and what they store).
    Rng rng(kCorpusSeed);
    for (std::size_t i = 0; i < kObjects; ++i) {
        svc->names.push_back("obj-" + std::to_string(i));
        svc->payloads.push_back(makeObject(rng));
    }
    std::filesystem::remove_all(dir);
    archive::ArchiveParams params;
    params.codec = codecConfig();
    params.max_shard_bytes = kShardBytes;
    auto opened = archive::Archive::create(dir, params);
    if (!opened.ok())
        throw std::runtime_error("archive create: " + opened.error);
    svc->archive = std::move(opened.archive);
    for (std::size_t i = 0; i < kObjects; ++i)
        if (!svc->archive->put(svc->names[i], svc->payloads[i]).ok())
            throw std::runtime_error("preload put failed");

    archive::RetrievalConfig retrieval;
    retrieval.error_rate = 0.05;
    retrieval.coverage = 10.0;
    retrieval.num_threads = 2;
    // The simulated sequencer's seed is part of the served system, not of
    // the inputs: with it fixed, a hot object costs the same to decode
    // whatever the run seed, and only data and traffic vary.
    retrieval.seed = 0x5e7e;
    svc->backend =
        std::make_unique<server::ArchiveBackend>(*svc->archive, retrieval, 1);
    server::Backend *backend = svc->backend.get();
    if (timed) {
        svc->timed = std::make_unique<TimedBackend>(*svc->backend);
        backend = svc->timed.get();
    }
    server::ServerConfig config;
    config.scheduler.num_threads = 2;
    config.scheduler.batch_max = 4;
    config.scheduler.max_concurrent_batches = 2;
    svc->server = std::make_unique<server::Server>(*backend, config);
    if (svc->server->start() != server::ServerStatus::Ok)
        throw std::runtime_error("server start failed");
    server::Server *srv = svc->server.get();
    svc->serve_thread = std::thread([srv] { srv->serve(); });
    for (std::size_t c = 0; c < kClients; ++c) {
        auto client = std::make_unique<server::Client>();
        if (!client->connectTo(svc->server->port(), 60000))
            throw std::runtime_error("connect: " + client->error());
        svc->clients.push_back(std::move(client));
    }
    // Warm up by reading every object back once, one at a time.  The
    // decodes make set-up long enough to time steadily (the puts alone
    // take a few hundredths of a second), and nothing is cached, so the
    // measured pass still decodes every get.
    for (std::size_t i = 0; i < kObjects; ++i) {
        const server::ClientReply got = svc->clients[0]->get(svc->names[i]);
        if (!got.ok() || got.data != svc->payloads[i])
            throw std::runtime_error("warm-up get failed");
    }
    svc->setup_seconds = secondsBetween(start, nowNs());
    return svc;
}

struct Request
{
    bool put = false;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    bool ok = false;
    std::vector<std::uint8_t> put_data; //!< Kept for the put audit.
    std::size_t bytes = 0;
};

struct Pass
{
    std::vector<Request> requests;
    std::vector<double> get_latencies; //!< Failed gets count as +inf.
    std::uint64_t gets = 0;
    std::uint64_t failed = 0;
    double get_kib = 0.0;
    double kib = 0.0; //!< Verified get and put payload.
    Phase phase;
    obs::MetricsSnapshot delta;
    server::SchedulerCounters before;
    server::SchedulerCounters after;
    std::uint64_t threads_peak = 0;
};

/** One closed-loop pass; @p tag keeps put names unique across passes. */
Pass
measure(Service &svc, const Options &opt, std::size_t per_client,
        const std::string &tag)
{
    Pass pass;
    std::vector<std::vector<Request>> logs(kClients);
    pass.before = svc.server->counters();
    {
        const ThreadSampler sampler;
        pass.phase.begin();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                server::Client &client = *svc.clients[c];
                Rng rng(subSeed(opt.seed, 200 + c));
                ZipfSampler zipf(kObjects, 1.0, subSeed(opt.seed, 300 + c));
                for (std::size_t r = 0; r < per_client; ++r) {
                    Request req;
                    req.put = rng.below(100) < kPutPercent;
                    std::size_t pick = 0;
                    if (req.put) {
                        req.name = tag + "-c" + std::to_string(c) + "-" +
                                   std::to_string(r);
                        req.put_data = makeObject(rng);
                    } else {
                        pick = zipf.next();
                        req.name = svc.names[pick];
                    }
                    const std::uint64_t id = (c + 1) * 1000000 + r + 1;
                    server::ClientReply reply;
                    req.start_ns = nowNs();
                    {
                        const Scope span(req.put ? "server.put" : "server.get",
                                         id);
                        reply = req.put ? client.put(req.name, req.put_data)
                                        : client.get(req.name);
                    }
                    req.end_ns = nowNs();
                    req.ok = reply.ok() &&
                             (req.put || reply.data == svc.payloads[pick]);
                    req.bytes = req.put ? req.put_data.size()
                                        : reply.data.size();
                    logs[c].push_back(std::move(req));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        pass.delta = pass.phase.end();
        pass.threads_peak = sampler.peak();
    }
    pass.after = svc.server->counters();

    // Audit every acknowledged put through stat: size and CRC (untimed).
    server::Client &auditor = *svc.clients[0];
    for (std::vector<Request> &log : logs) {
        for (Request &req : log) {
            if (req.put && req.ok) {
                const server::ClientReply stat = auditor.stat(req.name);
                const auto doc = archive::tryParseJson(stat.json);
                const archive::JsonValue *size =
                    doc ? doc->find("size_bytes") : nullptr;
                const archive::JsonValue *crc =
                    doc ? doc->find("crc32") : nullptr;
                req.ok = stat.ok() && size != nullptr && crc != nullptr &&
                         size->asUint() == req.put_data.size() &&
                         crc->asUint() ==
                             crc32({req.put_data.data(), req.put_data.size()});
            }
            if (!req.put) {
                ++pass.gets;
                pass.get_latencies.push_back(
                    req.ok ? secondsBetween(req.start_ns, req.end_ns)
                           : std::numeric_limits<double>::infinity());
                if (req.ok)
                    pass.get_kib += static_cast<double>(req.bytes) / 1024.0;
            }
            if (req.ok)
                pass.kib += static_cast<double>(req.bytes) / 1024.0;
            else
                ++pass.failed;
            pass.requests.push_back(std::move(req));
        }
    }
    return pass;
}

/** Mean of (client latency - overlapping backend time) per request. */
double
meanServerWait(const std::vector<Request> &requests,
               const std::vector<BackendCall> &calls)
{
    double total = 0.0;
    for (const Request &req : requests) {
        std::uint64_t backend_ns = 0;
        for (const BackendCall &call : calls) {
            if (call.store != req.put)
                continue;
            bool named = false;
            for (const std::string &name : call.names)
                named = named || name == req.name;
            const std::uint64_t lo = std::max(call.start_ns, req.start_ns);
            const std::uint64_t hi = std::min(call.end_ns, req.end_ns);
            if (named && hi > lo)
                backend_ns = std::max(backend_ns, hi - lo);
        }
        total += secondsBetween(req.start_ns + backend_ns, req.end_ns);
    }
    return requests.empty() ? 0.0 : total / static_cast<double>(requests.size());
}

} // namespace

Outcome
runServeZipfRw(const Options &opt)
{
    const std::size_t per_client = std::max<std::size_t>(25, 5 * opt.seconds);
    const std::string dir = opt.workdir + "/serve_zipf_rw";
    // Outlives the service: a toolkit span holds the sink it started on.
    obs::TraceSink sink;

    std::vector<double> setup_seconds;
    std::unique_ptr<Service> svc;
    for (std::size_t s = 0; s < opt.setups(); ++s) {
        svc.reset();
        svc = setUp(dir, opt.trace);
        setup_seconds.push_back(svc->setup_seconds);
    }
    const Pass pass = measure(*svc, opt, per_client, "put");

    Outcome out;
    out.attempted = pass.requests.size();
    out.failed = pass.failed;
    out.correct = pass.failed == 0;
    out.counters["requests"] = pass.requests.size();
    out.counters["gets"] = pass.gets;
    addWorkCounters(out, pass.delta);
    if (!opt.trace) {
        addEndToEndMetrics(out, setup_seconds, pass.kib, pass.phase,
                           pass.get_latencies, pass.delta);
        return out;
    }

    // Traced pass: same request streams, fresh put names.
    const std::size_t calls_before = svc->timed->calls().size();
    setTracing(true);
    obs::installTraceSink(&sink);
    const Pass traced = measure(*svc, opt, per_client, "traced-put");
    obs::installTraceSink(nullptr);
    // Re-encode every stored payload: the codec share of a put.
    const MatrixEncoder encoder(codecConfig());
    TimedEncoder timed_encoder(encoder);
    for (const std::vector<std::uint8_t> &payload : svc->payloads)
        (void)timed_encoder.encode(payload);
    for (const Request &req : traced.requests)
        if (req.put && req.ok)
            (void)timed_encoder.encode(req.put_data);
    setTracing(false);
    if (traced.failed != 0) {
        out.correct = false;
        out.failed += traced.failed;
    }

    const std::vector<SpanRecord> spans = recordedSpans();
    if (!opt.trace_out.empty())
        writeChromeTrace(opt.trace_out, spans);
    std::map<std::string, double> by_name = selfSecondsByName(spans);
    std::map<std::string, double> toolkit;
    for (const obs::TraceEvent &event : sink.events())
        toolkit[event.name] += static_cast<double>(event.dur_us) * 1e-6;
    std::vector<BackendCall> calls = svc->timed->calls();
    calls.erase(calls.begin(),
                calls.begin() + static_cast<std::ptrdiff_t>(calls_before));
    double fetch_s = 0.0;
    double fetch_kib = 0.0;
    std::vector<double> put_seconds;
    for (const BackendCall &call : calls) {
        const double seconds = secondsBetween(call.start_ns, call.end_ns);
        if (call.store) {
            put_seconds.push_back(seconds);
        } else {
            fetch_s += seconds;
            fetch_kib += static_cast<double>(call.bytes) / 1024.0;
        }
    }
    const double kib = traced.get_kib;
    const auto diff = [&](std::uint64_t server::SchedulerCounters::*field) {
        return static_cast<double>(traced.after.*field - traced.before.*field);
    };
    const double gets = static_cast<double>(traced.gets);

    out.add("reconstruction.self_s_per_kib",
            toolkit["pipeline/reconstruction"] / kib, "s/KiB");
    // Without ground truth inside the archive these are not measurable.
    out.add("reconstruction.exact_frac", 0.0, "ratio");
    out.add("clustering.accuracy", 0.0, "ratio");
    out.add("clustering.self_s_per_kib", toolkit["pipeline/clustering"] / kib,
            "s/KiB");
    out.add("simulator.self_s_per_kib",
            toolkit["simulation/sequencing_run"] / kib, "s/KiB");
    out.add("wetlab.preprocess_s_per_kib", 0.0, "s/KiB");
    out.add("core.pcr_s_per_kib", 0.0, "s/KiB");
    out.add("codec.encode_s_per_kib",
            by_name["codec.encode"] /
                (static_cast<double>(timed_encoder.bytes) / 1024.0),
            "s/KiB");
    out.add("codec.decode_s_per_kib", toolkit["pipeline/decoding"] / kib,
            "s/KiB");
    addRegistryLayerMetrics(out, traced.delta, kib);
    out.add("archive.fetch_s_per_kib", fetch_kib > 0.0 ? fetch_s / fetch_kib : 0.0,
            "s/KiB");
    out.add("archive.put_s_mean", mean(put_seconds), "s");
    out.add("archive.decodes_per_get",
            static_cast<double>(
                counterDelta(traced.delta, "archive.shards_decoded_total")) /
                gets,
            "count");
    out.add("server.wait_s_mean", meanServerWait(traced.requests, calls), "s");
    out.add("server.coalesced_frac",
            diff(&server::SchedulerCounters::coalesced_gets) / gets, "ratio");
    out.add("server.batch_size_mean",
            diff(&server::SchedulerCounters::batched_gets) /
                std::max(1.0, diff(&server::SchedulerCounters::batches)),
            "count");
    out.add("server.rejected_frac",
            (diff(&server::SchedulerCounters::rejected_overload) +
             diff(&server::SchedulerCounters::rejected_quota) +
             diff(&server::SchedulerCounters::rejected_draining)) /
                static_cast<double>(traced.requests.size()),
            "ratio");
    addUtilMetrics(out, pass.phase, pass.delta, pass.threads_peak);
    out.add("trace.overhead_frac",
            (traced.phase.wall_s - pass.phase.wall_s) / pass.phase.wall_s,
            "ratio");
    // Layer times overlap across the concurrent clients and workers, so
    // a share of wall time is not defined here.
    out.add("trace.layer_share", 0.0, "ratio");
    return out;
}

} // namespace perfbench
