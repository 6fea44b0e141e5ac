// Daemon: request dispatch, control surface, observability envelope, and
// the malformed-request hardening satellite — truncated frames, oversized
// prefixes and invalid JSON must produce structured errors (or a clean
// disconnect) while the daemon keeps serving, with no crash or leak (the
// whole suite runs under the ASan/UBSan CI job).

#include "service/daemon.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "service/protocol.hpp"

using namespace phlogon;
namespace json = io::json;
namespace fs = std::filesystem;

namespace {

fs::path freshDir(const std::string& name) {
    const fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string sockPath(const std::string& tag) {
    return "/tmp/phlogon_test_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

json::Value dispatchJson(svc::Daemon& d, const std::string& payload) {
    const json::ParseResult r = json::parse(d.dispatch(payload));
    EXPECT_TRUE(r.ok) << r.error;
    return r.value;
}

/// Daemon on a Unix socket with cache + checkpoints in temp dirs.
struct DaemonFixture {
    fs::path cacheDir;
    fs::path ckptDir;
    svc::DaemonOptions opt;
    svc::Daemon daemon;

    explicit DaemonFixture(const std::string& tag, bool withSocket = true)
        : cacheDir(freshDir("phlogon_daemon_" + tag + "_cache")),
          ckptDir(freshDir("phlogon_daemon_" + tag + "_ckpt")),
          opt(makeOptions(tag, withSocket, cacheDir, ckptDir)),
          daemon(opt) {
        EXPECT_TRUE(daemon.start()) << daemon.lastError();
    }
    ~DaemonFixture() {
        daemon.stop(svc::JobQueue::Shutdown::Drain);
        fs::remove_all(cacheDir);
        fs::remove_all(ckptDir);
        if (!opt.socketPath.empty()) fs::remove(opt.socketPath);
    }

    static svc::DaemonOptions makeOptions(const std::string& tag, bool withSocket,
                                          const fs::path& cache, const fs::path& ckpt) {
        svc::DaemonOptions o;
        if (withSocket) o.socketPath = sockPath(tag);
        o.queue.workers = 2;
        o.cacheDir = cache;
        o.checkpointDir = ckpt;
        return o;
    }
};

}  // namespace

TEST(Daemon, PingAndStatus) {
    DaemonFixture f("ping", /*withSocket=*/false);
    const json::Value pong = dispatchJson(f.daemon, R"({"type": "ping", "id": 9})");
    EXPECT_TRUE(pong.fieldBool("ok", false));
    EXPECT_DOUBLE_EQ(pong.field("id")->numberOr(0), 9.0);

    const json::Value status = dispatchJson(f.daemon, R"({"type": "status", "id": 1})");
    ASSERT_TRUE(status.fieldBool("ok", false));
    const json::Value* s = status.field("status");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->field("queue")->fieldNumber("workers", 0), 2.0);
    EXPECT_TRUE(s->field("cache")->fieldBool("enabled", false));
    EXPECT_EQ(s->field("types")->size(), 4u);
}

TEST(Daemon, UnknownTypeAndBadParamsAreStructuredErrors) {
    DaemonFixture f("err", /*withSocket=*/false);
    const json::Value unknown = dispatchJson(f.daemon, R"({"type": "no-such-op", "id": 1})");
    EXPECT_FALSE(unknown.fieldBool("ok", true));
    EXPECT_EQ(unknown.field("error")->fieldString("code", ""), "unknown-type");

    const json::Value bad = dispatchJson(
        f.daemon, R"({"type": "characterize-latch", "id": 2, "params": {"stages": 4}})");
    EXPECT_FALSE(bad.fieldBool("ok", true));
    EXPECT_EQ(bad.field("error")->fieldString("code", ""), "bad-params");
    // The message names the offending parameter.
    EXPECT_NE(bad.field("error")->fieldString("message", "").find("stages"), std::string::npos);
}

TEST(Daemon, AnalysisJobOverSocketWithObsEnvelope) {
    DaemonFixture f("job");
    const int fd = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd, 0);
    const std::string reply =
        svc::roundTrip(fd, R"({"type": "characterize-latch", "id": 11})");
    const json::ParseResult r = json::parse(reply);
    ASSERT_TRUE(r.ok) << reply;
    ASSERT_TRUE(r.value.fieldBool("ok", false)) << reply;
    const json::Value* job = r.value.field("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->fieldString("state", ""), "done");
    EXPECT_GT(job->field("result")->fieldNumber("f0", 0), 9000.0);
    // Observability envelope: cumulative queue/cache metrics ride on every
    // response.
    const json::Value* obs = r.value.field("obs");
    ASSERT_NE(obs, nullptr);
    EXPECT_GE(obs->fieldNumber("cacheMisses", -1), 1.0);

    // Repeat on the same connection: served from the artifact cache.
    const json::ParseResult r2 =
        json::parse(svc::roundTrip(fd, R"({"type": "characterize-latch", "id": 12})"));
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.value.field("job")->field("result")->field("cache")->fieldString("outcome", ""),
              "hit");
    ::close(fd);
}

TEST(Daemon, NoWaitReturnsQueuedJobQueryableLater) {
    DaemonFixture f("nowait", /*withSocket=*/false);
    const json::Value sub = dispatchJson(
        f.daemon, R"({"type": "characterize-latch", "id": 1, "wait": false})");
    ASSERT_TRUE(sub.fieldBool("ok", false));
    const double jobId = sub.fieldNumber("job", 0);
    ASSERT_GT(jobId, 0);
    // wait via the queue, then fetch the terminal snapshot by id.
    f.daemon.queue().wait(static_cast<std::uint64_t>(jobId));
    const json::Value st = dispatchJson(
        f.daemon, "{\"type\": \"job-status\", \"id\": 2, \"params\": {\"job\": " +
                      std::to_string(static_cast<std::uint64_t>(jobId)) + "}}");
    ASSERT_TRUE(st.fieldBool("ok", false));
    EXPECT_EQ(st.field("job")->fieldString("state", ""), "done");
}

TEST(Daemon, ListJobsAndCancelUnknown) {
    DaemonFixture f("list", /*withSocket=*/false);
    dispatchJson(f.daemon, R"({"type": "characterize-latch", "id": 1})");
    const json::Value list = dispatchJson(f.daemon, R"({"type": "list-jobs", "id": 2})");
    ASSERT_TRUE(list.fieldBool("ok", false));
    EXPECT_GE(list.field("jobs")->size(), 1u);

    const json::Value cancel = dispatchJson(
        f.daemon, R"({"type": "cancel", "id": 3, "params": {"job": 424242}})");
    EXPECT_FALSE(cancel.fieldBool("ok", true));
}

// ---- malformed-request hardening ------------------------------------------

TEST(Daemon, MalformedJsonGetsErrorAndConnectionSurvives) {
    DaemonFixture f("badjson");
    const int fd = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd, 0);
    // Invalid JSON inside a well-formed frame: framing is intact, so the
    // error is structured and the connection stays usable.
    const json::ParseResult bad = json::parse(svc::roundTrip(fd, "{invalid json"));
    ASSERT_TRUE(bad.ok);
    EXPECT_FALSE(bad.value.fieldBool("ok", true));
    EXPECT_EQ(bad.value.field("error")->fieldString("code", ""), "bad-json");

    // Hostile deep nesting: the parser's depth bound turns it into the
    // same structured error instead of a stack overflow.
    const json::ParseResult deep = json::parse(svc::roundTrip(fd, std::string(4096, '[')));
    ASSERT_TRUE(deep.ok);
    EXPECT_EQ(deep.value.field("error")->fieldString("code", ""), "bad-json");

    // The same connection still serves valid requests.
    const json::ParseResult pong = json::parse(svc::roundTrip(fd, R"({"type": "ping"})"));
    ASSERT_TRUE(pong.ok);
    EXPECT_TRUE(pong.value.fieldBool("ok", false));
    ::close(fd);
}

TEST(Daemon, OversizedPrefixGetsErrorThenDisconnect) {
    DaemonFixture f("toolarge");
    const int fd = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd, 0);
    const std::uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};  // ~2 GiB claim
    ASSERT_EQ(::write(fd, prefix, 4), 4);
    // Best-effort structured error, then the daemon drops the connection
    // (an untrusted prefix cannot be resynchronized).
    const svc::FrameRead r = svc::readFrame(fd);
    ASSERT_TRUE(r.ok());
    const json::ParseResult err = json::parse(r.payload);
    ASSERT_TRUE(err.ok);
    EXPECT_EQ(err.value.field("error")->fieldString("code", ""), "frame-too-large");
    EXPECT_EQ(svc::readFrame(fd).status, svc::FrameStatus::Eof);
    ::close(fd);

    // The daemon keeps serving new connections afterwards.
    const int fd2 = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd2, 0);
    const json::ParseResult pong = json::parse(svc::roundTrip(fd2, R"({"type": "ping"})"));
    ASSERT_TRUE(pong.ok);
    EXPECT_TRUE(pong.value.fieldBool("ok", false));
    ::close(fd2);
    EXPECT_GE(f.daemon.stats().badFrames, 1u);
}

TEST(Daemon, TruncatedFrameGetsErrorThenDisconnect) {
    DaemonFixture f("trunc");
    const int fd = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd, 0);
    const std::uint8_t prefix[4] = {100, 0, 0, 0};  // announce 100 bytes
    ASSERT_EQ(::write(fd, prefix, 4), 4);
    ASSERT_EQ(::write(fd, "short", 5), 5);
    ::shutdown(fd, SHUT_WR);  // half-close: stream ends mid-payload
    const svc::FrameRead r = svc::readFrame(fd);
    ASSERT_TRUE(r.ok());
    const json::ParseResult err = json::parse(r.payload);
    ASSERT_TRUE(err.ok);
    EXPECT_EQ(err.value.field("error")->fieldString("code", ""), "truncated-frame");
    ::close(fd);
    EXPECT_GE(f.daemon.stats().badFrames, 1u);
}

TEST(Daemon, AbruptDisconnectLeavesDaemonServing) {
    DaemonFixture f("abrupt");
    for (int i = 0; i < 5; ++i) {
        const int fd = svc::connectUnix(f.opt.socketPath);
        ASSERT_GE(fd, 0);
        ::close(fd);  // connect-and-slam
    }
    const int fd = svc::connectUnix(f.opt.socketPath);
    ASSERT_GE(fd, 0);
    const json::ParseResult pong = json::parse(svc::roundTrip(fd, R"({"type": "ping"})"));
    ASSERT_TRUE(pong.ok);
    EXPECT_TRUE(pong.value.fieldBool("ok", false));
    ::close(fd);
}

TEST(Daemon, QueueFullRejectionCarriesRetryAfter) {
    const fs::path cacheDir = freshDir("phlogon_daemon_full_cache");
    svc::DaemonOptions opt;
    opt.queue.workers = 1;
    opt.queue.maxDepth = 1;
    opt.queue.retryAfterMs = 77;
    opt.cacheDir = cacheDir;
    svc::Daemon daemon(opt);
    // No listener: dispatch() drives the same submit path.
    ASSERT_TRUE(daemon.start()) << daemon.lastError();
    // Occupy the lone worker with a long checkpoint-pollable job, ...
    const json::ParseResult first = json::parse(daemon.dispatch(
        R"({"type": "hold-error-mc", "id": 1, "wait": false,
            "params": {"trials": 100000, "chunk": 10, "holdCycles": 200}})"));
    ASSERT_TRUE(first.ok);
    ASSERT_TRUE(first.value.fieldBool("ok", false));
    while (daemon.queue().stats().running == 0) std::this_thread::yield();
    // ... fill the single queue slot, ...
    const json::ParseResult filler = json::parse(daemon.dispatch(
        R"({"type": "characterize-latch", "id": 2, "wait": false})"));
    ASSERT_TRUE(filler.ok);
    ASSERT_TRUE(filler.value.fieldBool("ok", false));
    // ... and the next submission is shed with the retry hint.
    const json::ParseResult rejected = json::parse(daemon.dispatch(
        R"({"type": "characterize-latch", "id": 3, "wait": false})"));
    ASSERT_TRUE(rejected.ok);
    ASSERT_FALSE(rejected.value.fieldBool("ok", true));
    EXPECT_EQ(rejected.value.field("error")->fieldString("code", ""), "queue-full");
    EXPECT_DOUBLE_EQ(rejected.value.fieldNumber("retryAfterMs", 0), 77.0);
    daemon.stop(svc::JobQueue::Shutdown::Checkpoint);
    fs::remove_all(cacheDir);
}

TEST(Daemon, ShutdownRequestStopsRun) {
    DaemonFixture f("shutdown", /*withSocket=*/false);
    const json::Value ack =
        dispatchJson(f.daemon, R"({"type": "shutdown", "id": 1, "params": {"mode": "drain"}})");
    EXPECT_TRUE(ack.fieldBool("ok", false));
    // run() observes the requested stop and returns promptly.
    EXPECT_EQ(f.daemon.run(), 0);
    EXPECT_FALSE(f.daemon.running());
}

// ---- envelope opt-in, windowed latency, metrics request --------------------

#ifndef PHLOGON_NO_OBS

TEST(Daemon, FullRunReportIsOptInPerRequest) {
    DaemonFixture f("envelope", /*withSocket=*/false);
    obs::setMetricsEnabled(true);

    // Default envelope: cheap counters only, never the full RunReport —
    // building + JSON-parsing the report on every response was a measurable
    // tax on the saturation bench (the regression this test pins down).
    const json::Value basic =
        dispatchJson(f.daemon, R"({"type": "characterize-latch", "id": 1})");
    ASSERT_TRUE(basic.fieldBool("ok", false));
    const json::Value* obsEnv = basic.field("obs");
    ASSERT_NE(obsEnv, nullptr);
    EXPECT_GE(obsEnv->fieldNumber("cacheMisses", -1), 0.0);
    EXPECT_EQ(obsEnv->field("report"), nullptr);

    // "envelope": "full" opts in; the report rides under obs.report.
    const json::Value full = dispatchJson(
        f.daemon, R"({"type": "characterize-latch", "id": 2, "envelope": "full"})");
    ASSERT_TRUE(full.fieldBool("ok", false));
    const json::Value* fullEnv = full.field("obs");
    ASSERT_NE(fullEnv, nullptr);
    const json::Value* report = fullEnv->field("report");
    ASSERT_NE(report, nullptr);
    EXPECT_NE(report->field("counters"), nullptr);
    EXPECT_NE(report->field("gauges"), nullptr);
    // The characterization above timed its analyses into histograms.
    const json::Value* hists = report->field("histograms");
    ASSERT_NE(hists, nullptr);
    ASSERT_TRUE(hists->isObject());
    EXPECT_GT(hists->size(), 0u);
    const json::Value* trace = report->field("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_TRUE(trace->field("active") != nullptr && trace->field("active")->isBool());
    EXPECT_GE(trace->fieldNumber("events", -1), 0.0);
    EXPECT_GE(trace->fieldNumber("dropped", -1), 0.0);
    EXPECT_TRUE(trace->field("path") != nullptr && trace->field("path")->isString());

    obs::setMetricsEnabled(false);

    // With metrics off, even an opted-in request gets the cheap envelope.
    const json::Value off = dispatchJson(
        f.daemon, R"({"type": "ping", "id": 3, "envelope": "full"})");
    ASSERT_TRUE(off.fieldBool("ok", false));
    EXPECT_EQ(off.field("obs")->field("report"), nullptr);
}

TEST(Daemon, StatusWindowedLatencyMovesWithInjectedSlowJob) {
    DaemonFixture f("window", /*withSocket=*/false);

    // Characterize the latch first, so that neither MC job below pays the
    // cold PSS+PPV extraction: the window then compares MC work with MC
    // work, not with characterization.
    const json::Value warm = dispatchJson(f.daemon, R"({"type": "characterize-latch", "id": 0})");
    ASSERT_TRUE(warm.fieldBool("ok", false));

    // A quick MC job seeds the per-type window.
    const json::Value quick = dispatchJson(
        f.daemon,
        R"({"type": "hold-error-mc", "id": 1,
            "params": {"trials": 10, "chunk": 10, "holdCycles": 100}})");
    ASSERT_TRUE(quick.fieldBool("ok", false));
    const json::Value st1 = dispatchJson(f.daemon, R"({"type": "status", "id": 2})");
    const json::Value* w1 = st1.field("status")->field("window")->field("hold-error-mc");
    ASSERT_NE(w1, nullptr);
    EXPECT_GE(w1->fieldNumber("n", 0), 1.0);
    const double p95Before = w1->fieldNumber("p95Ms", 0.0);
    EXPECT_GT(p95Before, 0.0);

    // Inject a much slower job of the same type; the windowed p95 must move
    // (lifetime-only aggregates would barely budge).  Its MC work (256
    // trials x 600 cycles) is over 10x the fixed cost of a job (model fetch,
    // latch design, GAE build), so no host speed puts it near the quick job.
    const json::Value slow = dispatchJson(
        f.daemon,
        R"({"type": "hold-error-mc", "id": 3,
            "params": {"trials": 256, "chunk": 64, "holdCycles": 600}})");
    ASSERT_TRUE(slow.fieldBool("ok", false));
    const json::Value st2 = dispatchJson(f.daemon, R"({"type": "status", "id": 4})");
    const json::Value* w2 = st2.field("status")->field("window")->field("hold-error-mc");
    ASSERT_NE(w2, nullptr);
    EXPECT_GE(w2->fieldNumber("n", 0), 2.0);
    EXPECT_GT(w2->fieldNumber("p95Ms", 0.0), p95Before * 1.5);
    EXPECT_GE(w2->fieldNumber("p99Ms", 0.0), w2->fieldNumber("p95Ms", 0.0));
    EXPECT_GE(w2->fieldNumber("queueWaitP95Ms", -1.0), 0.0);

    // The whole-request window and the recent-jobs ring moved with it.
    const json::Value* lat = st2.field("status")->field("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_GE(lat->fieldNumber("count", 0), 2.0);
    EXPECT_GT(lat->fieldNumber("p95Ms", 0.0), 0.0);
    const json::Value* recent = st2.field("status")->field("recent");
    ASSERT_NE(recent, nullptr);
    EXPECT_GE(recent->size(), 2u);
}

TEST(Daemon, MetricsRequestReturnsJsonAndPrometheus) {
    DaemonFixture f("metrics", /*withSocket=*/false);
    obs::setMetricsEnabled(true);
    dispatchJson(f.daemon, R"({"type": "characterize-latch", "id": 1})");

    const json::Value m = dispatchJson(f.daemon, R"({"type": "metrics", "id": 2})");
    ASSERT_TRUE(m.fieldBool("ok", false));
    ASSERT_NE(m.field("metrics"), nullptr);
    EXPECT_NE(m.field("metrics")->field("counters"), nullptr);
    EXPECT_NE(m.field("metrics")->field("histograms"), nullptr);
    ASSERT_NE(m.field("status"), nullptr);

    const std::string prom = m.fieldString("prometheus", "");
    ASSERT_FALSE(prom.empty());
    EXPECT_NE(prom.find("phlogon_service_requests_total"), std::string::npos);
    EXPECT_NE(prom.find("phlogon_service_queue_depth"), std::string::npos);
    EXPECT_NE(prom.find("phlogon_service_request_seconds{quantile=\"0.95\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("phlogon_service_job_seconds{type=\"characterize-latch\""),
              std::string::npos);
    obs::setMetricsEnabled(false);
}

TEST(Daemon, StatusReportsDroppedLogRecords) {
    // A full log ring drops records rather than block; status, metrics and
    // the Prometheus text report how many, next to the queue and cache.
    const fs::path logPath = fs::temp_directory_path() /
                             ("phlogon_daemon_logdrop_" + std::to_string(::getpid()) + ".jsonl");
    fs::remove(logPath);
    obs::Logger& logger = obs::Logger::instance();
    obs::Logger::Options lo;
    lo.path = logPath.string();
    lo.threshold = obs::LogLevel::Error;  // keeps the daemon's own records out
    lo.ringCapacity = 2;
    lo.rateLimit = 0;  // no suppression: every record reaches the ring
    logger.configure(lo);
    const std::uint64_t droppedBefore = logger.droppedRecords();
    constexpr std::uint64_t kRecords = 20000;
    for (std::uint64_t i = 0; i < kRecords; ++i) PHLOGON_LOG_ERROR("test.flood", {"i", i});
    logger.flush();
    const std::uint64_t dropped = logger.droppedRecords() - droppedBefore;
    std::uint64_t written = 0;
    {
        std::ifstream in(logPath);
        std::string line;
        while (std::getline(in, line))
            if (line.find("\"test.flood\"") != std::string::npos) ++written;
    }
    // The producer outruns the drain thread into a 2-record ring, and every
    // record is either written or counted as dropped.
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(written + dropped, kRecords);

    {
        DaemonFixture f("logdrop", /*withSocket=*/false);
        const double total = static_cast<double>(logger.droppedRecords());
        const double suppressed = static_cast<double>(logger.suppressedRecords());
        const json::Value st = dispatchJson(f.daemon, R"({"type": "status", "id": 1})");
        const json::Value* lg = st.field("status")->field("log");
        ASSERT_NE(lg, nullptr);
        EXPECT_DOUBLE_EQ(lg->fieldNumber("droppedRecords", -1), total);
        EXPECT_DOUBLE_EQ(lg->fieldNumber("suppressedRecords", -1), suppressed);

        const json::Value m = dispatchJson(f.daemon, R"({"type": "metrics", "id": 2})");
        const json::Value* mlg = m.field("status")->field("log");
        ASSERT_NE(mlg, nullptr);
        EXPECT_DOUBLE_EQ(mlg->fieldNumber("droppedRecords", -1), total);
        const std::string prom = m.fieldString("prometheus", "");
        char want[96];
        std::snprintf(want, sizeof want, "phlogon_service_log_dropped_total %.9g\n", total);
        EXPECT_NE(prom.find(want), std::string::npos) << prom;
        EXPECT_NE(prom.find("phlogon_service_log_suppressed_total"), std::string::npos);
    }
    logger.disable();
    fs::remove(logPath);
}

TEST(Daemon, TraceIdRidesOnSnapshotsAndRecentRing) {
    DaemonFixture f("traceid", /*withSocket=*/false);
    const json::Value done = dispatchJson(
        f.daemon,
        R"({"type": "characterize-latch", "id": 1, "traceId": "ride-42"})");
    ASSERT_TRUE(done.fieldBool("ok", false));
    EXPECT_EQ(done.field("job")->fieldString("traceId", ""), "ride-42");

    const json::Value st = dispatchJson(f.daemon, R"({"type": "status", "id": 2})");
    const json::Value* recent = st.field("status")->field("recent");
    ASSERT_NE(recent, nullptr);
    ASSERT_GE(recent->size(), 1u);
    bool saw = false;
    for (const json::Value& j : *recent->arr)
        if (j.fieldString("traceId", "") == "ride-42") saw = true;
    EXPECT_TRUE(saw);
}

#endif  // PHLOGON_NO_OBS
