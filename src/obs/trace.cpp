#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "io/json.hpp"

namespace phlogon::obs {

namespace {

/// Per-thread append-only event buffer.  Only the owning thread writes
/// entries and publishes them with a release store of `count`; any thread
/// may read entries below an acquired `count` at any time.  A full buffer
/// drops *new* events (never overwrites published ones), so snapshots are
/// tear-free without per-event locking.
struct ThreadBuffer {
    static constexpr std::size_t kCapacity = 1u << 16;

    explicit ThreadBuffer(std::uint32_t tid) : tid(tid), events(kCapacity) {}

    void push(const TraceEvent& e) {
        const std::uint32_t n = count.load(std::memory_order_relaxed);
        if (n >= kCapacity) {
            dropped.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        events[n] = e;
        count.store(n + 1, std::memory_order_release);
    }

    const std::uint32_t tid;
    std::string name;  ///< set via setThreadName; guarded by registry mutex
    std::vector<TraceEvent> events;
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
};

std::int64_t steadyNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Ambient context of the calling thread; stamped onto every recorded event.
thread_local TraceContext g_traceContext;

}  // namespace

TraceContext currentTraceContext() { return g_traceContext; }
void setCurrentTraceContext(TraceContext ctx) { g_traceContext = ctx; }

#ifndef PHLOGON_NO_OBS
namespace detail {
std::atomic<int> traceMode{-1};
}  // namespace detail
#endif

struct Tracer::Impl {
    std::int64_t epochNs = steadyNs();

    mutable std::mutex mx;  // guards buffers (vector growth) + path + names
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
    std::string path;

    // Interned client trace ids: events store a small stable reference so
    // recording stays a few stores; write() resolves references to strings.
    // Never cleared (references outlive start()/stop() cycles on purpose —
    // a resumed job keeps its original trace id across restarts in-process).
    std::vector<std::string> traceIds;
    std::map<std::string, std::uint32_t> traceIdIndex;

    ThreadBuffer& localBuffer() {
        thread_local ThreadBuffer* tl = nullptr;
        if (!tl) {
            std::lock_guard<std::mutex> lk(mx);
            buffers.push_back(
                std::make_unique<ThreadBuffer>(static_cast<std::uint32_t>(buffers.size())));
            tl = buffers.back().get();
            if (tl->tid == 0) tl->name = "main";
        }
        return *tl;
    }
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::instance() {
    // Leaked on purpose: worker threads may record spans during static
    // destruction; the atexit writer has already drained by then.
    static Tracer* t = new Tracer();
    return *t;
}

std::int64_t Tracer::nowNs() { return steadyNs(); }

void Tracer::start(std::string path) {
    Impl& im = *impl_;
    {
        std::lock_guard<std::mutex> lk(im.mx);
        im.path = std::move(path);
        for (auto& b : im.buffers) {
            // Owning threads only ever append; resetting the published count
            // from here is safe as long as no thread records concurrently —
            // start() is a quiescent-point operation by contract.
            b->count.store(0, std::memory_order_release);
            b->dropped.store(0, std::memory_order_relaxed);
        }
        im.epochNs = steadyNs();
    }
#ifndef PHLOGON_NO_OBS
    detail::traceMode.store(1, std::memory_order_relaxed);
#endif
}

void Tracer::stop() {
#ifndef PHLOGON_NO_OBS
    detail::traceMode.store(0, std::memory_order_relaxed);
#endif
}

void Tracer::recordSpan(const char* name, std::int64_t startNs, std::int64_t endNs) {
    TraceEvent e;
    e.name = name;
    e.startNs = startNs;
    e.durNs = endNs - startNs >= 0 ? endNs - startNs : 0;
    e.traceRef = g_traceContext.traceRef;
    e.jobId = g_traceContext.jobId;
    impl_->localBuffer().push(e);
}

void Tracer::recordInstant(const char* name) {
    TraceEvent e;
    e.name = name;
    e.startNs = nowNs();
    e.durNs = -1;
    e.traceRef = g_traceContext.traceRef;
    e.jobId = g_traceContext.jobId;
    impl_->localBuffer().push(e);
}

void Tracer::recordFlow(const char* name, std::uint64_t flowId, bool start) {
    TraceEvent e;
    e.name = name;
    e.startNs = nowNs();
    e.durNs = -1;
    e.traceRef = g_traceContext.traceRef;
    e.jobId = g_traceContext.jobId;
    e.flowId = flowId;
    e.flowPhase = start ? 's' : 'f';
    impl_->localBuffer().push(e);
}

std::uint32_t Tracer::internTraceId(const std::string& traceId) {
    Impl& im = *impl_;
    std::lock_guard<std::mutex> lk(im.mx);
    auto it = im.traceIdIndex.find(traceId);
    if (it != im.traceIdIndex.end()) return it->second;
    im.traceIds.push_back(traceId);
    const std::uint32_t ref = static_cast<std::uint32_t>(im.traceIds.size());  // id + 1
    im.traceIdIndex.emplace(traceId, ref);
    return ref;
}

void Tracer::setThreadName(std::string name) {
    Tracer& t = instance();
    ThreadBuffer& b = t.impl_->localBuffer();
    std::lock_guard<std::mutex> lk(t.impl_->mx);
    b.name = std::move(name);
}

std::size_t Tracer::eventCount() const {
    std::lock_guard<std::mutex> lk(impl_->mx);
    std::size_t n = 0;
    for (const auto& b : impl_->buffers) n += b->count.load(std::memory_order_acquire);
    return n;
}

std::size_t Tracer::droppedCount() const {
    std::lock_guard<std::mutex> lk(impl_->mx);
    std::size_t n = 0;
    for (const auto& b : impl_->buffers) n += b->dropped.load(std::memory_order_relaxed);
    return n;
}

const std::string& Tracer::path() const { return impl_->path; }

bool Tracer::write() {
    Impl& im = *impl_;
    std::string path;
    std::int64_t epoch = 0;
    // Snapshot buffer pointers under the lock; the buffers themselves are
    // append-only and never deallocated before process exit.
    std::vector<ThreadBuffer*> bufs;
    std::vector<std::string> names;
    std::vector<std::string> traceIds;
    {
        std::lock_guard<std::mutex> lk(im.mx);
        path = im.path;
        epoch = im.epochNs;
        for (auto& b : im.buffers) {
            bufs.push_back(b.get());
            names.push_back(b->name);
        }
        traceIds = im.traceIds;
    }
    if (path.empty()) return false;

    std::string out;
    out.reserve(1u << 20);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    std::uint64_t dropped = 0;
    char line[256];
    for (std::size_t bi = 0; bi < bufs.size(); ++bi) {
        ThreadBuffer& b = *bufs[bi];
        dropped += b.dropped.load(std::memory_order_relaxed);
        if (!names[bi].empty()) {
            if (!first) out += ",\n";
            first = false;
            std::snprintf(line, sizeof line,
                          "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%u,"
                          "\"args\":{\"name\":",
                          b.tid);
            out += line;
            out += io::json::quote(names[bi]);
            out += "}}";
        }
        const std::uint32_t n = b.count.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < n; ++i) {
            const TraceEvent& e = b.events[i];
            if (!first) out += ",\n";
            first = false;
            const double tsUs = static_cast<double>(e.startNs - epoch) / 1e3;
            // Category = name prefix before the first dot (span taxonomy).
            const char* dot = e.name;
            while (*dot && *dot != '.') ++dot;
            out += "{\"name\":";
            out += io::json::quote(e.name);
            out += ",\"cat\":";
            out += io::json::quote(std::string(e.name, static_cast<std::size_t>(dot - e.name)));
            if (e.flowPhase != 0) {
                // Chrome flow event: "s" starts on the producer thread, "f"
                // with bp:"e" binds to the enclosing slice on the consumer.
                std::snprintf(line, sizeof line,
                              ",\"ph\":\"%c\",%s\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                              e.flowPhase, e.flowPhase == 'f' ? "\"bp\":\"e\"," : "",
                              static_cast<unsigned long long>(e.flowId), tsUs, b.tid);
            } else if (e.durNs < 0) {
                std::snprintf(line, sizeof line,
                              ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                              tsUs, b.tid);
            } else {
                std::snprintf(line, sizeof line,
                              ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                              tsUs, static_cast<double>(e.durNs) / 1e3, b.tid);
            }
            out += line;
            if (e.traceRef != 0 || e.jobId != 0) {
                out += ",\"args\":{";
                bool firstArg = true;
                if (e.traceRef != 0 && e.traceRef <= traceIds.size()) {
                    out += "\"traceId\":";
                    out += io::json::quote(traceIds[e.traceRef - 1]);
                    firstArg = false;
                }
                if (e.jobId != 0) {
                    if (!firstArg) out += ',';
                    out += "\"job\":" + std::to_string(e.jobId);
                }
                out += '}';
            }
            out += '}';
        }
    }
    out += "\n],\"otherData\":{\"droppedEvents\":" + std::to_string(dropped) + "}}\n";

    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "phlogon: cannot write trace to %s\n", path.c_str());
        return false;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
    std::fclose(f);
    return ok;
}

#ifndef PHLOGON_NO_OBS
namespace detail {

bool traceInitSlow() {
    // First caller initializes; racing callers both run the same idempotent
    // logic (start() is a no-op rerun with the same path).
    const char* path = std::getenv("PHLOGON_TRACE");
    if (!path || !*path) {
        int expected = -1;
        traceMode.compare_exchange_strong(expected, 0, std::memory_order_relaxed);
        return traceMode.load(std::memory_order_relaxed) != 0;
    }
    Tracer::instance().start(path);
    // Write the trace at exit so every example/tool gets a trace for free.
    static std::once_flag once;
    std::call_once(once, [] { std::atexit([] { Tracer::instance().write(); }); });
    return true;
}

}  // namespace detail
#endif  // PHLOGON_NO_OBS

}  // namespace phlogon::obs
