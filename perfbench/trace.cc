#include "trace.hh"

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "obs/json.hh"
#include "obs/report.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t kNoRecord = std::numeric_limits<std::size_t>::max();

std::atomic<bool> g_on{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans; // Guarded by g_mutex.

struct ThreadState
{
    std::uint32_t tid = g_next_tid.fetch_add(1);
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    std::size_t last_record = kNoRecord; //!< Index of this thread's last.
};

thread_local ThreadState t_state;

bool
tracing()
{
    return g_on.load(std::memory_order_relaxed);
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setTracing(bool on)
{
    g_on.store(on);
}


std::vector<SpanRecord>
recordedSpans()
{
    const std::lock_guard<std::mutex> lock(g_mutex);
    return g_spans;
}

Scope::Scope(const char *name, std::uint64_t request) : name_(name)
{
    if (!tracing())
        return;
    id_ = g_next_id.fetch_add(1);
    saved_parent_ = t_state.parent;
    saved_request_ = t_state.request;
    t_state.parent = id_;
    if (request != 0)
        t_state.request = request;
    start_ns_ = nowNs();
}

Scope::~Scope()
{
    if (id_ == 0)
        return;
    const std::uint64_t end = nowNs();
    SpanRecord record;
    record.name = name_;
    record.start_ns = start_ns_;
    record.end_ns = end;
    record.id = id_;
    record.parent = saved_parent_;
    record.tid = t_state.tid;
    record.request = t_state.request;
    t_state.parent = saved_parent_;
    t_state.request = saved_request_;
    const std::lock_guard<std::mutex> lock(g_mutex);
    t_state.last_record = g_spans.size();
    g_spans.push_back(record);
}

void
recordLeaf(const char *name, std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (!tracing())
        return;
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (t_state.last_record != kNoRecord) {
        SpanRecord &last = g_spans[t_state.last_record];
        if (last.name == name && last.parent == t_state.parent) {
            last.end_ns = end_ns;
            ++last.calls;
            return;
        }
    }
    SpanRecord record;
    record.name = name;
    record.start_ns = start_ns;
    record.end_ns = end_ns;
    record.id = g_next_id.fetch_add(1);
    record.parent = t_state.parent;
    record.tid = t_state.tid;
    record.request = t_state.request;
    t_state.last_record = g_spans.size();
    g_spans.push_back(record);
}

std::string
layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot == nullptr ? std::string(name)
                          : std::string(name, static_cast<std::size_t>(
                                                  dot - name));
}

std::map<std::string, double>
selfSecondsByName(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                  1e-9;
    for (const SpanRecord &span : spans) {
        const auto parent = index.find(span.parent);
        if (span.parent != 0 && parent != index.end())
            self[parent->second] -=
                static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_name[spans[i].name] += self[i];
    return by_name;
}

double
selfSecondsOutside(const std::map<std::string, double> &by_name,
                   const std::string &skip_layer)
{
    double total = 0.0;
    for (const auto &[name, seconds] : by_name)
        if (layerOf(name.c_str()) != skip_layer)
            total += seconds;
    return total;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
    for (const SpanRecord &span : spans)
        epoch = std::min(epoch, span.start_ns);
    dnastore::obs::JsonWriter json;
    json.beginObject();
    json.key("displayTimeUnit");
    json.value("ms");
    json.key("traceEvents");
    json.beginArray();
    for (const SpanRecord &span : spans) {
        json.beginObject();
        json.key("name");
        json.value(span.name);
        json.key("cat");
        json.value(layerOf(span.name));
        json.key("ph");
        json.value("X");
        json.key("ts");
        json.value(static_cast<double>(span.start_ns - epoch) * 1e-3);
        json.key("dur");
        json.value(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
        json.key("pid");
        json.value(std::uint64_t{1});
        json.key("tid");
        json.value(std::uint64_t{span.tid});
        json.key("args");
        json.beginObject();
        json.key("id");
        json.value(std::uint64_t{span.id});
        json.key("parent");
        json.value(std::uint64_t{span.parent});
        json.key("request");
        json.value(span.request);
        json.key("calls");
        json.value(std::uint64_t{span.calls});
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return dnastore::obs::writeTextFile(path, json.text());
}

} // namespace perfbench
