// End-to-end trace propagation (ISSUE acceptance): a client-supplied
// traceId submitted over the wire protocol must stamp the request span,
// the queue-wait span and every job chunk span — including chunks executed
// after a simulated daemon restart resumes the checkpointed job — and the
// dispatch flow events must link the connection thread to the worker
// thread.  The two daemon lifetimes write two separate trace files which
// are then merged with obs::mergeChromeTraces, exactly the operator
// workflow (`phlogon_trace merge a.json b.json`).

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_path.hpp"
#include "io/json.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "service/daemon.hpp"
#include "service/job_queue.hpp"

using namespace phlogon;
namespace json = io::json;
namespace fs = std::filesystem;

#ifndef PHLOGON_NO_OBS

namespace {

fs::path freshDir(const std::string& name) {
    const fs::path dir = testutil::perTestTempPath(name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Chunked MC workload: 60 trials in 10-trial chunks of 10 000 cycles, each
/// chunk a service.job.chunk span and a checkpoint write, long enough that
/// a mid-run cancel leaves work for the resumed daemon.
const char* kMcParams =
    R"({"trials": 60, "chunk": 10, "holdCycles": 10000, "seed": 11})";

int countSpans(const std::vector<obs::ParsedEvent>& spans, const std::string& name) {
    int n = 0;
    for (const obs::ParsedEvent& e : spans)
        if (e.name == name) ++n;
    return n;
}

}  // namespace

TEST(TracePropagation, ClientTraceIdLinksChunksAcrossDaemonRestart) {
    const std::string traceId = "e2e-restart-77";
    const fs::path cacheDir = freshDir("phlogon_tprop_cache");
    const fs::path ckptDir = freshDir("phlogon_tprop_ckpt");
    const fs::path traceA = testutil::perTestTempPath("phlogon_tprop_a", ".json");
    const fs::path traceB = testutil::perTestTempPath("phlogon_tprop_b", ".json");
    fs::remove(traceA);
    fs::remove(traceB);

    svc::DaemonOptions opt;
    opt.queue.workers = 1;
    opt.cacheDir = cacheDir;
    opt.checkpointDir = ckptDir;

    const std::string fullRequest =
        std::string(R"({"type": "hold-error-mc", "id": 2, "traceId": ")") + traceId +
        R"(", "params": )" + kMcParams + "}";

    // --- Daemon lifetime 1: accept the traced job, checkpoint mid-run. ---
    obs::Tracer::instance().start(traceA.string());
    {
        svc::Daemon d1(opt);
        ASSERT_TRUE(d1.start()) << d1.lastError();
        const json::ParseResult sub = json::parse(d1.dispatch(
            std::string(R"({"type": "hold-error-mc", "id": 1, "wait": false, "traceId": ")") +
            traceId + R"(", "params": )" + kMcParams + "}"));
        ASSERT_TRUE(sub.ok);
        ASSERT_TRUE(sub.value.fieldBool("ok", false));
        const auto jobId = static_cast<std::uint64_t>(sub.value.fieldNumber("job", 0));
        while (true) {
            const auto snap = d1.queue().find(jobId);
            ASSERT_TRUE(snap.has_value());
            if (snap->terminal() || snap->progressDone >= 10) break;
            std::this_thread::yield();
        }
        d1.stop(svc::JobQueue::Shutdown::Checkpoint);
        const auto snap = d1.queue().find(jobId);
        ASSERT_TRUE(snap.has_value());
        ASSERT_EQ(snap->state, svc::JobState::Cancelled);
        ASSERT_LT(snap->progressDone, 60u);
        EXPECT_EQ(snap->traceId, traceId);
    }
    obs::Tracer::instance().stop();
    ASSERT_TRUE(obs::Tracer::instance().write());

    // --- Daemon lifetime 2: same dirs, same request + traceId, resumes. ---
    obs::Tracer::instance().start(traceB.string());
    {
        svc::Daemon d2(opt);
        ASSERT_TRUE(d2.start()) << d2.lastError();
        const json::ParseResult done = json::parse(d2.dispatch(fullRequest));
        ASSERT_TRUE(done.ok);
        ASSERT_TRUE(done.value.fieldBool("ok", false));
        const json::Value* result = done.value.field("job")->field("result");
        ASSERT_NE(result, nullptr);
        EXPECT_GT(result->fieldNumber("resumedFrom", 0), 0.0);
        EXPECT_DOUBLE_EQ(result->fieldNumber("trialsDone", 0), 60.0);
        d2.stop(svc::JobQueue::Shutdown::Drain);
    }
    obs::Tracer::instance().stop();
    ASSERT_TRUE(obs::Tracer::instance().write());

    // --- Merge the two lifetimes and walk the joined trace. ---
    std::string mergeError;
    const std::string merged = obs::mergeChromeTraces({traceA, traceB}, &mergeError);
    ASSERT_FALSE(merged.empty()) << mergeError;
    const obs::ParsedTrace trace = obs::parseChromeTrace(merged);
    ASSERT_TRUE(trace.ok) << trace.error;

    const std::vector<obs::ParsedEvent> spans = trace.spansForTraceId(traceId);
    ASSERT_FALSE(spans.empty());

    // One request span and one queue-wait span per daemon lifetime.
    EXPECT_GE(countSpans(spans, "service.request"), 2);
    EXPECT_GE(countSpans(spans, "service.queueWait"), 2);
    EXPECT_GE(countSpans(spans, "service.job"), 2);

    // Every chunk span in the whole merged trace carries the client traceId
    // (no chunk escaped the ambient context), and chunks exist in BOTH
    // halves: the merge remaps tids per input file, so pre- and post-restart
    // worker chunks land on distinct thread ids.
    int chunksTotal = 0;
    std::set<std::int64_t> chunkTids;
    for (const obs::ParsedEvent& e : trace.events) {
        if (e.ph != "X" || e.name != "service.job.chunk") continue;
        ++chunksTotal;
        EXPECT_EQ(e.traceId, traceId) << "chunk span without trace context";
        chunkTids.insert(e.tid);
    }
    EXPECT_EQ(countSpans(spans, "service.job.chunk"), chunksTotal);
    // 60 trials / chunk 10: >=1 chunk before the checkpoint stop, and the
    // resumed daemon runs the remainder.
    EXPECT_GE(chunksTotal, 2);
    EXPECT_GE(chunkTids.size(), 2u) << "expected chunk spans from both daemon lifetimes";

    // The resumed job announced itself inside the same trace.
    bool sawResume = false;
    for (const obs::ParsedEvent& e : trace.events)
        if (e.ph == "i" && e.name == "service.job.resume") sawResume = true;
    EXPECT_TRUE(sawResume);

    // Dispatch flows: each finish (worker side) binds to a start (connection
    // side) with the same flow id, in both lifetimes.
    const std::vector<obs::ParsedEvent> flows = trace.flowsForTraceId(traceId);
    std::set<std::uint64_t> started, finished;
    for (const obs::ParsedEvent& e : flows) {
        ASSERT_NE(e.flowId, 0u);
        if (e.ph == "s") started.insert(e.flowId);
        if (e.ph == "f") {
            EXPECT_EQ(e.bindingPoint, "e");
            finished.insert(e.flowId);
        }
    }
    EXPECT_GE(finished.size(), 1u);
    for (const std::uint64_t id : finished)
        EXPECT_TRUE(started.count(id)) << "flow finish without matching start: " << id;

    // The merged document is still a well-formed trace: spans nest per tid.
    std::string why;
    EXPECT_TRUE(trace.spansProperlyNested(&why)) << why;

    fs::remove(traceA);
    fs::remove(traceB);
    fs::remove_all(cacheDir);
    fs::remove_all(ckptDir);
}

#endif  // PHLOGON_NO_OBS
