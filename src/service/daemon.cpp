#include "service/daemon.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>

#include "obs/log.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "service/shutdown.hpp"

namespace phlogon::svc {

namespace json = io::json;

namespace {

int makeUnixListener(const std::string& path, std::string& err) {
    sockaddr_un addr = {};
    if (path.size() >= sizeof(addr.sun_path)) {
        err = "socket path too long: " + path;
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        err = "socket: " + std::string(std::strerror(errno));
        return -1;
    }
    ::unlink(path.c_str());  // stale socket from a previous run
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        err = "bind/listen " + path + ": " + std::string(std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int makeTcpListener(int port, int& boundPort, std::string& err) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        err = "socket: " + std::string(std::strerror(errno));
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        err = "bind/listen 127.0.0.1:" + std::to_string(port) + ": " +
              std::string(std::strerror(errno));
        ::close(fd);
        return -1;
    }
    sockaddr_in bound = {};
    socklen_t len = sizeof bound;
    boundPort = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0
                    ? ntohs(bound.sin_port)
                    : port;
    return fd;
}

json::Value snapshotJson(const JobSnapshot& s) {
    json::Value j = json::Value::object();
    j.set("job", json::Value::integer(static_cast<std::int64_t>(s.id)));
    j.set("type", json::Value::string(s.type));
    j.set("state", json::Value::string(jobStateName(s.state)));
    j.set("priority", json::Value::integer(s.priority));
    if (!s.traceId.empty()) j.set("traceId", s.traceId);
    if (s.progressTotal > 0) {
        json::Value prog = json::Value::object();
        prog.set("done", json::Value::integer(static_cast<std::int64_t>(s.progressDone)));
        prog.set("total", json::Value::integer(static_cast<std::int64_t>(s.progressTotal)));
        j.set("progress", prog);
    }
    j.set("queuedMs", json::Value::number(s.queuedMs));
    j.set("runMs", json::Value::number(s.runMs));
    if (!s.result.isNull()) j.set("result", s.result);
    if (!s.error.empty()) j.set("jobError", json::Value::string(s.error));
    return j;
}

/// params.job as a u64 id, or 0 when absent/invalid.
std::uint64_t jobIdParam(const Request& req) {
    const double v = req.params.fieldNumber("job", 0.0);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

Daemon::Daemon(const DaemonOptions& opt)
    : opt_(opt),
      cache_(opt.cacheDir.empty() ? io::ArtifactCache()
                                  : io::ArtifactCache(opt.cacheDir, opt.cacheMaxBytes)) {
    env_.cache = &cache_;
    env_.checkpointDir = opt_.checkpointDir;
    if (!opt_.checkpointDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt_.checkpointDir, ec);
    }
    // The queue's lifecycle hooks feed the windowed latency state; `this`
    // outlives the queue (member destruction order), so capturing it is safe.
    opt_.queue.onJobStarted = [this](const JobSnapshot& s) { jobStartedHook(s); };
    opt_.queue.onJobFinished = [this](const JobSnapshot& s) { jobFinishedHook(s); };
    queue_ = std::make_unique<JobQueue>(opt_.queue);
}

Daemon::~Daemon() { stop(JobQueue::Shutdown::Checkpoint); }

bool Daemon::start() {
    if (started_) return true;
    startTime_ = std::chrono::steady_clock::now();
    if (!opt_.socketPath.empty()) {
        const int fd = makeUnixListener(opt_.socketPath, lastError_);
        if (fd >= 0) listenFds_.push_back(fd);
    }
    if (opt_.tcpPort >= 0) {
        const int fd = makeTcpListener(opt_.tcpPort, boundTcpPort_, lastError_);
        if (fd >= 0) listenFds_.push_back(fd);
    }
    // A configured listener that failed to bind is fatal; configuring no
    // listener at all is the dispatch-only mode tests and embedders use.
    const bool wantListener = !opt_.socketPath.empty() || opt_.tcpPort >= 0;
    if (wantListener && listenFds_.empty()) return false;
    started_ = true;
    accepting_ = true;
    for (const int fd : listenFds_) acceptThreads_.emplace_back([this, fd] { acceptLoop(fd); });
    PHLOGON_LOG_INFO("service.start", {"socket", opt_.socketPath},
                     {"tcpPort", boundTcpPort_},
                     {"workers", static_cast<std::uint64_t>(queue_->workers())},
                     {"maxDepth", static_cast<std::uint64_t>(opt_.queue.maxDepth)});
    return true;
}

int Daemon::run() {
    if (!started_ && !start()) return 1;
    JobQueue::Shutdown mode;
    {
        // Poll both wakeup sources: requestStop() (shutdown requests) and
        // the async-signal latch (SIGINT/SIGTERM → checkpointing stop).
        std::unique_lock<std::mutex> lock(stopMu_);
        while (!stopRequested_) {
            if (ShutdownSignal::instance().requested()) {
                stopRequested_ = true;
                stopMode_ = JobQueue::Shutdown::Checkpoint;
                break;
            }
            stopCv_.wait_for(lock, std::chrono::milliseconds(50),
                             [this] { return stopRequested_; });
        }
        mode = stopMode_;
    }
    stop(mode);
    return 0;
}

void Daemon::requestStop(JobQueue::Shutdown mode) {
    {
        std::lock_guard<std::mutex> lock(stopMu_);
        stopRequested_ = true;
        stopMode_ = mode;
    }
    stopCv_.notify_all();
}

void Daemon::stop(JobQueue::Shutdown mode) {
    if (!started_ || stopped_.exchange(true)) return;
    PHLOGON_LOG_INFO("service.shutdown",
                     {"mode", mode == JobQueue::Shutdown::Drain ? "drain" : "checkpoint"});
    // 1. Stop accepting: closing the listeners kicks the accept threads out.
    accepting_ = false;
    for (const int fd : listenFds_) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    for (std::thread& t : acceptThreads_)
        if (t.joinable()) t.join();
    acceptThreads_.clear();
    listenFds_.clear();
    if (!opt_.socketPath.empty()) ::unlink(opt_.socketPath.c_str());

    // 2. Wind down the queue.  Drain lets connection threads blocked in
    // wait() answer their clients with completed results first; Checkpoint
    // has running jobs snapshot and return Cancelled.
    queue_->shutdown(mode);

    // 3. Unblock idle connection readers and join everyone.
    std::vector<std::unique_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        conns.swap(conns_);
    }
    for (const auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
    for (const auto& c : conns) {
        if (c->thread.joinable()) c->thread.join();
        ::close(c->fd);
    }
    PHLOGON_LOG_INFO("service.stopped",
                     {"requests", stats().requests});
#ifndef PHLOGON_NO_OBS
    obs::Logger::instance().flush();
#endif
}

void Daemon::acceptLoop(int listenFd) {
    while (accepting_) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // listener closed (stop) or fatal
        }
        if (!accepting_) {
            ::close(fd);
            return;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        Conn* raw = conn.get();
        {
            std::lock_guard<std::mutex> lock(connMu_);
            // Reap finished connections so a long-lived daemon doesn't
            // accumulate joined-out thread objects.
            for (auto it = conns_.begin(); it != conns_.end();) {
                if ((*it)->done.load(std::memory_order_acquire)) {
                    if ((*it)->thread.joinable()) (*it)->thread.join();
                    ::close((*it)->fd);
                    it = conns_.erase(it);
                } else {
                    ++it;
                }
            }
            conns_.push_back(std::move(conn));
        }
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++stats_.connections;
        }
        PHLOGON_LOG_DEBUG("service.conn.accept", {"fd", fd});
        raw->thread = std::thread([this, raw] {
            serveConnection(raw->fd);
            // Half-close so the peer sees EOF immediately; the fd itself is
            // closed by the reaper above (or stop()), its single owner.
            ::shutdown(raw->fd, SHUT_RDWR);
            raw->done.store(true, std::memory_order_release);
        });
    }
}

void Daemon::serveConnection(int fd) {
    OBS_SPAN("service.connection");
    for (;;) {
        const FrameRead frame = readFrame(fd);
        switch (frame.status) {
            case FrameStatus::Ok: break;
            case FrameStatus::Eof:
                return;
            case FrameStatus::Truncated:
            case FrameStatus::TooLarge: {
                {
                    std::lock_guard<std::mutex> lock(statsMu_);
                    ++stats_.badFrames;
                }
                PHLOGON_LOG_WARN("service.conn.badFrame",
                                 {"status", frameStatusName(frame.status)});
                // Best-effort structured error, then drop the connection —
                // after a bad prefix the stream has no frame boundary left.
                const char* code = frame.status == FrameStatus::TooLarge ? "frame-too-large"
                                                                         : "truncated-frame";
                writeFrame(fd, json::dump(makeError(json::Value::null(), code,
                                                    "unrecoverable framing error: " +
                                                        frameStatusName(frame.status))));
                return;
            }
            case FrameStatus::IoError:
                return;
        }
        const std::string response = dispatch(frame.payload);
        if (!writeFrame(fd, response)) return;
    }
}

std::string Daemon::dispatch(const std::string& payload) {
    const auto t0 = std::chrono::steady_clock::now();
    const Request req = parseRequest(payload);
    // Install the client's trace context before opening the request span so
    // the span (and everything recorded inside handle()) carries it.  The
    // job id is not known yet — the worker installs its own context.
    std::uint32_t traceRef = 0;
    if (obs::traceEnabled() && req.ok && !req.traceId.empty())
        traceRef = obs::Tracer::instance().internTraceId(req.traceId);
    obs::TraceContextScope traceScope(traceRef, 0);
    json::Value response;
    {
        OBS_SPAN("service.request");
        response = req.ok ? handle(req) : makeError(req.id, req.errorCode, req.errorMessage);
        attachObs(response, req);
    }
    const double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    requestWall_.observe(wall);
    requestWindow_.observe(wall);
    const bool okResponse = response.fieldBool("ok", true);
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ++stats_.requests;
        if (!okResponse) ++stats_.errors;
    }
    PHLOGON_COUNT_METRIC("service.requests");
    if (!okResponse) {
        std::string code = req.errorCode;
        if (const json::Value* err = response.field("error"))
            code = err->fieldString("code", code);
        PHLOGON_LOG_WARN("service.request.error",
                         {"type", req.ok ? req.type : std::string("<parse>")},
                         {"code", code}, {"traceId", req.traceId});
    } else {
        PHLOGON_LOG_DEBUG("service.request.done", {"type", req.type},
                          {"ms", wall * 1e3}, {"traceId", req.traceId});
    }
    return json::dump(response);
}

json::Value Daemon::handle(const Request& req) {
    if (req.type == "ping") {
        json::Value r = makeResponse(req.id);
        r.set("pong", json::Value::boolean(true));
        return r;
    }
    if (req.type == "status") {
        json::Value r = makeResponse(req.id);
        r.set("status", statusJson());
        return r;
    }
    if (req.type == "metrics") return handleMetrics(req);
    if (req.type == "list-jobs") {
        json::Value r = makeResponse(req.id);
        json::Value arr = json::Value::array();
        for (const JobSnapshot& s : queue_->list()) arr.push(snapshotJson(s));
        r.set("jobs", arr);
        return r;
    }
    if (req.type == "job-status") {
        const std::uint64_t id = jobIdParam(req);
        const auto snap = id ? queue_->find(id) : std::nullopt;
        if (!snap) return makeError(req.id, "unknown-job", "no such job");
        json::Value r = makeResponse(req.id);
        r.set("job", snapshotJson(*snap));
        return r;
    }
    if (req.type == "cancel") {
        const std::uint64_t id = jobIdParam(req);
        if (!id || !queue_->cancel(id))
            return makeError(req.id, "unknown-job", "no such job (or already terminal)");
        json::Value r = makeResponse(req.id);
        r.set("cancelled", json::Value::integer(static_cast<std::int64_t>(id)));
        return r;
    }
    if (req.type == "shutdown") {
        const std::string mode = req.params.fieldString("mode", "checkpoint");
        if (mode != "checkpoint" && mode != "drain")
            return makeError(req.id, "bad-params", "\"mode\" must be \"checkpoint\" or \"drain\"");
        requestStop(mode == "drain" ? JobQueue::Shutdown::Drain : JobQueue::Shutdown::Checkpoint);
        json::Value r = makeResponse(req.id);
        r.set("stopping", json::Value::string(mode));
        return r;
    }
    return handleSubmit(req);
}

json::Value Daemon::handleSubmit(const Request& req) {
    BuiltJob built = buildJob(req.type, req.params, env_);
    if (!built.ok) return makeError(req.id, built.errorCode, built.errorMessage);
    const SubmitResult sub =
        queue_->submit(req.type, req.priority, std::move(built.body), req.traceId);
    if (!sub.accepted) {
        json::Value r = makeError(req.id, "queue-full",
                                  "queue at capacity; retry after retryAfterMs");
        r.set("retryAfterMs", json::Value::integer(sub.retryAfterMs));
        return r;
    }
    // Flow start on the connection thread, inside the service.request span;
    // the worker's matching finish binds it to the job slice.
    if (obs::traceEnabled() && !req.traceId.empty())
        obs::Tracer::instance().recordFlow("service.job.dispatch",
                                           jobFlowId(req.traceId, sub.id), true);
    PHLOGON_ADD_METRIC("service.queue.depthSum", queue_->stats().depth);
    if (!req.wait) {
        json::Value r = makeResponse(req.id);
        r.set("job", json::Value::integer(static_cast<std::int64_t>(sub.id)));
        r.set("state", json::Value::string("queued"));
        return r;
    }
    const auto snap = queue_->wait(sub.id);
    if (!snap) return makeError(req.id, "internal", "job vanished");
    if (snap->state == JobState::Failed) {
        json::Value r = makeError(req.id, "job-failed", snap->error);
        r.set("job", snapshotJson(*snap));
        return r;
    }
    json::Value r = makeResponse(req.id);
    r.set("job", snapshotJson(*snap));
    return r;
}

json::Value Daemon::statusJson() {
    json::Value s = json::Value::object();
    s.set("uptimeSeconds",
          json::Value::number(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                            startTime_)
                                  .count()));
    json::Value types = json::Value::array();
    for (const std::string& t : jobTypes()) types.push(json::Value::string(t));
    s.set("types", types);

    const QueueStats q = queue_->stats();
    json::Value qj = json::Value::object();
    qj.set("workers", json::Value::integer(static_cast<std::int64_t>(queue_->workers())));
    qj.set("depth", json::Value::integer(static_cast<std::int64_t>(q.depth)));
    qj.set("running", json::Value::integer(static_cast<std::int64_t>(q.running)));
    qj.set("submitted", json::Value::integer(static_cast<std::int64_t>(q.submitted)));
    qj.set("rejected", json::Value::integer(static_cast<std::int64_t>(q.rejected)));
    qj.set("completed", json::Value::integer(static_cast<std::int64_t>(q.completed)));
    qj.set("failed", json::Value::integer(static_cast<std::int64_t>(q.failed)));
    qj.set("cancelled", json::Value::integer(static_cast<std::int64_t>(q.cancelled)));
    s.set("queue", qj);

    const io::CacheStats c = cache_.stats();
    json::Value cj = json::Value::object();
    cj.set("enabled", json::Value::boolean(cache_.enabled()));
    cj.set("hits", json::Value::integer(static_cast<std::int64_t>(c.hits)));
    cj.set("misses", json::Value::integer(static_cast<std::int64_t>(c.misses)));
    cj.set("stores", json::Value::integer(static_cast<std::int64_t>(c.stores)));
    cj.set("evictions", json::Value::integer(static_cast<std::int64_t>(c.evictions)));
    const std::uint64_t lookups = c.hits + c.misses;
    if (lookups > 0)
        cj.set("hitRate", json::Value::number(static_cast<double>(c.hits) /
                                              static_cast<double>(lookups)));
    s.set("cache", cj);

    // The process-wide logger's losses: records dropped by a full ring and
    // records folded into suppression summaries by the rate limiter.
    const obs::Logger& logger = obs::Logger::instance();
    json::Value lj = json::Value::object();
    lj.set("droppedRecords",
           json::Value::integer(static_cast<std::int64_t>(logger.droppedRecords())));
    lj.set("suppressedRecords",
           json::Value::integer(static_cast<std::int64_t>(logger.suppressedRecords())));
    s.set("log", lj);

    DaemonStats d = stats();
    json::Value dj = json::Value::object();
    dj.set("requests", json::Value::integer(static_cast<std::int64_t>(d.requests)));
    dj.set("errors", json::Value::integer(static_cast<std::int64_t>(d.errors)));
    dj.set("badFrames", json::Value::integer(static_cast<std::int64_t>(d.badFrames)));
    dj.set("connections", json::Value::integer(static_cast<std::int64_t>(d.connections)));
    s.set("daemon", dj);

    // Trailing-window latency (the operator's "now" view); the lifetime
    // aggregates survive as a sub-object for run-total accounting.
    const obs::WindowedHistogram::Stats rw = requestWindow_.stats();
    json::Value lat = json::Value::object();
    lat.set("count", rw.count);
    lat.set("windowSeconds", rw.windowSeconds);
    lat.set("ratePerSec", rw.ratePerSec);
    lat.set("p50Ms", rw.p50Seconds * 1e3);
    lat.set("p95Ms", rw.p95Seconds * 1e3);
    lat.set("p99Ms", rw.p99Seconds * 1e3);
    json::Value lifetime = json::Value::object();
    lifetime.set("count", json::Value::integer(static_cast<std::int64_t>(requestWall_.count())));
    lifetime.set("p50Ms", requestWall_.quantileSeconds(0.50) * 1e3);
    lifetime.set("p95Ms", requestWall_.quantileSeconds(0.95) * 1e3);
    lifetime.set("p99Ms", requestWall_.quantileSeconds(0.99) * 1e3);
    lat.set("lifetime", lifetime);
    s.set("latency", lat);

    // Per-job-type windowed breakdown: end-to-end wall plus the queue-wait
    // component, so "slow jobs" and "starved jobs" are distinguishable.
    json::Value windows = json::Value::object();
    json::Value recent = json::Value::array();
    {
        std::lock_guard<std::mutex> lock(windowMu_);
        for (const auto& [type, tw] : typeWindows_) {
            const obs::WindowedHistogram::Stats w = tw.wall.stats();
            const obs::WindowedHistogram::Stats qw = tw.queueWait.stats();
            json::Value t = json::Value::object();
            t.set("finished", tw.finished);
            t.set("n", w.count);
            t.set("ratePerSec", w.ratePerSec);
            t.set("p50Ms", w.p50Seconds * 1e3);
            t.set("p95Ms", w.p95Seconds * 1e3);
            t.set("p99Ms", w.p99Seconds * 1e3);
            t.set("maxMs", w.maxSeconds * 1e3);
            t.set("queueWaitP50Ms", qw.p50Seconds * 1e3);
            t.set("queueWaitP95Ms", qw.p95Seconds * 1e3);
            windows.set(type, t);
        }
        for (const JobSnapshot& snap : recent_) recent.push(snapshotJson(snap));
    }
    s.set("window", windows);
    s.set("recent", recent);
    return s;
}

json::Value Daemon::handleMetrics(const Request& req) {
    json::Value r = makeResponse(req.id);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
    r.set("metrics", obs::metricsJson(snap));
    r.set("status", statusJson());
    r.set("prometheus", obs::prometheusText(snap) + servicePrometheus());
    return r;
}

std::string Daemon::servicePrometheus() {
    std::string out;
    char buf[160];
    auto line = [&](const char* name, double v) {
        std::snprintf(buf, sizeof buf, "%s %.9g\n", name, v);
        out += buf;
    };
    const DaemonStats d = stats();
    const QueueStats q = queue_->stats();
    const io::CacheStats c = cache_.stats();
    out += "# TYPE phlogon_service_requests_total counter\n";
    line("phlogon_service_requests_total", static_cast<double>(d.requests));
    line("phlogon_service_errors_total", static_cast<double>(d.errors));
    line("phlogon_service_connections_total", static_cast<double>(d.connections));
    out += "# TYPE phlogon_service_queue_depth gauge\n";
    line("phlogon_service_queue_depth", static_cast<double>(q.depth));
    line("phlogon_service_queue_running", static_cast<double>(q.running));
    line("phlogon_service_cache_hits_total", static_cast<double>(c.hits));
    line("phlogon_service_cache_misses_total", static_cast<double>(c.misses));
    const obs::Logger& logger = obs::Logger::instance();
    out += "# TYPE phlogon_service_log_dropped_total counter\n";
    line("phlogon_service_log_dropped_total", static_cast<double>(logger.droppedRecords()));
    out += "# TYPE phlogon_service_log_suppressed_total counter\n";
    line("phlogon_service_log_suppressed_total", static_cast<double>(logger.suppressedRecords()));
    const obs::WindowedHistogram::Stats rw = requestWindow_.stats();
    out += "# TYPE phlogon_service_request_seconds summary\n";
    line("phlogon_service_request_seconds{quantile=\"0.5\"}", rw.p50Seconds);
    line("phlogon_service_request_seconds{quantile=\"0.95\"}", rw.p95Seconds);
    line("phlogon_service_request_seconds{quantile=\"0.99\"}", rw.p99Seconds);
    line("phlogon_service_request_seconds_count", static_cast<double>(rw.count));
    std::lock_guard<std::mutex> lock(windowMu_);
    for (const auto& [type, tw] : typeWindows_) {
        const obs::WindowedHistogram::Stats w = tw.wall.stats();
        for (const auto& [q2, v] :
             {std::pair<const char*, double>{"0.5", w.p50Seconds},
              {"0.95", w.p95Seconds},
              {"0.99", w.p99Seconds}}) {
            std::snprintf(buf, sizeof buf,
                          "phlogon_service_job_seconds{type=\"%s\",quantile=\"%s\"} %.9g\n",
                          type.c_str(), q2, v);
            out += buf;
        }
        std::snprintf(buf, sizeof buf,
                      "phlogon_service_job_seconds_count{type=\"%s\"} %llu\n", type.c_str(),
                      static_cast<unsigned long long>(w.count));
        out += buf;
    }
    return out;
}

void Daemon::jobStartedHook(const JobSnapshot& s) {
    std::lock_guard<std::mutex> lock(windowMu_);
    typeWindows_[s.type].queueWait.observe(s.queuedMs / 1e3);
}

void Daemon::jobFinishedHook(const JobSnapshot& s) {
    const double wallMs = s.queuedMs + s.runMs;
    {
        std::lock_guard<std::mutex> lock(windowMu_);
        TypeWindow& tw = typeWindows_[s.type];
        tw.wall.observe(wallMs / 1e3);
        ++tw.finished;
        JobSnapshot lean = s;
        lean.result = json::Value();  // keep the ring cheap: timings only
        recent_.push_back(std::move(lean));
        if (recent_.size() > kRecentJobs) recent_.pop_front();
    }
    if (s.runMs >= opt_.slowJobMs) {
        PHLOGON_LOG_WARN("service.job.slow", {"job", s.id}, {"type", s.type},
                         {"runMs", s.runMs}, {"queuedMs", s.queuedMs},
                         {"traceId", s.traceId});
    }
}

void Daemon::attachObs(io::json::Value& response, const Request& req) {
    json::Value envl = json::Value::object();
    const QueueStats q = queue_->stats();
    envl.set("queueDepth", json::Value::integer(static_cast<std::int64_t>(q.depth)));
    envl.set("running", json::Value::integer(static_cast<std::int64_t>(q.running)));
    const io::CacheStats c = cache_.stats();
    envl.set("cacheHits", json::Value::integer(static_cast<std::int64_t>(c.hits)));
    envl.set("cacheMisses", json::Value::integer(static_cast<std::int64_t>(c.misses)));
    envl.set("requestP95Ms", requestWindow_.stats().p95Seconds * 1e3);
    if (req.fullEnvelope && obs::metricsEnabled()) {
        // Full structured run report (counters, gauges, histograms across
        // every instrumented layer, plus tracing status).  Opt-in per
        // request: collecting it on every response was a measurable tax on
        // the saturation bench.
        const obs::RunReport rep = obs::RunReport::collect();
        json::Value report = obs::metricsJson(rep.metrics);
        report.set("trace", json::Value::object()
                                .set("active", rep.traceActive)
                                .set("path", rep.tracePath)
                                .set("events", rep.traceEvents)
                                .set("dropped", rep.traceDropped));
        envl.set("report", report);
    }
    response.set("obs", envl);
}

DaemonStats Daemon::stats() const {
    std::lock_guard<std::mutex> lock(statsMu_);
    DaemonStats d = stats_;
    std::lock_guard<std::mutex> lock2(connMu_);
    d.activeConnections = conns_.size();
    return d;
}

}  // namespace phlogon::svc
