// Checkpointed jobs survive cancel + restart with bitwise-identical
// results (satellite of the §16 service work; determinism comes from the
// counter-seeded MC trials and the per-segment-fresh RKF45 of the FSM
// path — see DESIGN.md §16).
//
// "Restart" is simulated the way the daemon does it for real: the first
// JobQueue/Daemon is shut down in Checkpoint mode (or the job cancelled),
// a new instance is pointed at the same checkpoint + cache directories,
// and the identical request is resubmitted.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>

#include "common/temp_path.hpp"
#include "core/gae_sweep.hpp"
#include "io/cache.hpp"
#include "io/hash.hpp"
#include "io/json.hpp"
#include "phlogon/latch.hpp"
#include "service/daemon.hpp"
#include "service/job_queue.hpp"
#include "service/jobs.hpp"

using namespace phlogon;
namespace json = io::json;
namespace fs = std::filesystem;

namespace {

fs::path freshDir(const std::string& name) {
    const fs::path dir = testutil::perTestTempPath(name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// One artifact cache per process, named after the first test that asks,
/// so every job after the first gets the characterization for free (and
/// the test also exercises the shared-cache path the daemon uses).
const io::ArtifactCache& sharedCache() {
    static const fs::path dir = freshDir("phlogon_resume_cache");
    static const io::ArtifactCache cache(dir);
    return cache;
}

/// The MC workload: six 10-trial chunks of 10 000 reference cycles, each
/// some 20-30 ms of MC on an AVX2 x86 host plus a checkpoint write, so a
/// cancel issued once the first chunk is done lands well before the last
/// one.  `chunk` must match between baseline and resumed runs — the outcome
/// hash chains per-chunk summaries.
const char* kMcParams =
    R"({"trials": 60, "chunk": 10, "holdCycles": 10000, "seed": 11})";

/// FSM workload with per-slot checkpoints.  A slot costs well under a
/// millisecond whatever its length (one GAE build plus an adaptive solve),
/// so the job has many slots: a cancel issued after the first one then
/// lands well before the last.
constexpr std::size_t kFsmSlots = 200;

std::string fsmParams() {
    std::string bits;
    for (std::size_t i = 0; i < kFsmSlots; ++i) {
        if (i) bits += ", ";
        bits += "10110"[i % 5];
    }
    return R"({"slotCycles": 300, "bits": [)" + bits + "]}";
}

json::Value params(const std::string& text) {
    const json::ParseResult r = json::parse(text);
    EXPECT_TRUE(r.ok) << r.error;
    return r.value;
}

/// Run one job to its terminal state on a fresh single-worker queue.
svc::JobSnapshot runJob(const std::string& type, const std::string& paramText,
                        const fs::path& ckptDir) {
    svc::JobEnv env;
    env.cache = &sharedCache();
    env.checkpointDir = ckptDir;
    const svc::BuiltJob built = svc::buildJob(type, params(paramText), env);
    EXPECT_TRUE(built.ok) << built.errorMessage;
    svc::JobQueue::Options qopt;
    qopt.workers = 1;
    svc::JobQueue q(qopt);
    const svc::SubmitResult s = q.submit(type, 0, built.body);
    EXPECT_TRUE(s.accepted);
    const auto snap = q.wait(s.id);
    EXPECT_TRUE(snap.has_value());
    q.shutdown(svc::JobQueue::Shutdown::Drain);
    return *snap;
}

/// Run one job, cancel it once progressDone >= minProgress, return the
/// cancelled snapshot.
svc::JobSnapshot runAndCancel(const std::string& type, const std::string& paramText,
                              const fs::path& ckptDir, std::uint64_t minProgress) {
    svc::JobEnv env;
    env.cache = &sharedCache();
    env.checkpointDir = ckptDir;
    const svc::BuiltJob built = svc::buildJob(type, params(paramText), env);
    EXPECT_TRUE(built.ok) << built.errorMessage;
    svc::JobQueue::Options qopt;
    qopt.workers = 1;
    svc::JobQueue q(qopt);
    const svc::SubmitResult s = q.submit(type, 0, built.body);
    EXPECT_TRUE(s.accepted);
    while (true) {
        const auto snap = q.find(s.id);
        if (!snap || snap->terminal() || snap->progressDone >= minProgress) break;
        std::this_thread::yield();
    }
    q.cancel(s.id);
    const auto snap = q.wait(s.id);
    EXPECT_TRUE(snap.has_value());
    q.shutdown(svc::JobQueue::Shutdown::Drain);
    return *snap;
}

}  // namespace

TEST(ServiceJobs, CharacterizeLatchKeyIsTheLibraryRunKey) {
    // The job bodies characterize through logic::RingOscCharacterization::run
    // itself, so the daemon and a library caller share cache entries.
    const svc::JobSnapshot snap =
        runJob("characterize-latch", R"({"cap": 4.6e-9, "f1": 9.8e3})", fs::path());
    ASSERT_EQ(snap.state, svc::JobState::Done) << snap.error;
    const json::Value* cache = snap.result.field("cache");
    ASSERT_NE(cache, nullptr);
    ckt::RingOscSpec spec;
    spec.capFarads = 4.6e-9;
    const auto osc = logic::RingOscCharacterization::run(
        spec, logic::RingOscCharacterization::defaultPssOptions(), sharedCache());
    EXPECT_EQ(cache->fieldString("key", ""), io::hashHex(osc.cacheKey()));
    EXPECT_TRUE(osc.fromCache());  // the job stored it
}

TEST(ServiceJobs, LockingRangeSweepRowsAreTheLibrarySweep) {
    // The sweep job computes its table with core::lockingRangeVsAmplitude on
    // the library characterization: same tone, grid and amplitudes, so every
    // row matches bit for bit, and nothing but the characterization is cached.
    const svc::JobSnapshot snap = runJob(
        "locking-range-sweep",
        R"({"cap": 4.6e-9, "gridSize": 256, "ampMin": 3e-5, "ampMax": 1.5e-4, "ampCount": 5})",
        fs::path());
    ASSERT_EQ(snap.state, svc::JobState::Done) << snap.error;
    EXPECT_EQ(snap.result.field("sweepCache"), nullptr);
    const json::Value* points = snap.result.field("points");
    ASSERT_NE(points, nullptr);
    ASSERT_TRUE(points->isArray());

    ckt::RingOscSpec spec;
    spec.capFarads = 4.6e-9;
    const auto osc = logic::RingOscCharacterization::run(
        spec, logic::RingOscCharacterization::defaultPssOptions(), sharedCache());
    const double ampMin = 3e-5, ampMax = 1.5e-4;
    const std::size_t ampCount = 5;
    core::Vec amps(ampCount);
    for (std::size_t i = 0; i < ampCount; ++i)
        amps[i] = ampMin + (ampMax - ampMin) * static_cast<double>(i) /
                               static_cast<double>(ampCount - 1);
    const core::Injection unit = core::Injection::tone(osc.outputUnknown(), 1.0, 2, 0.0, "sync");
    const std::vector<core::LockingRangePoint> expected =
        core::lockingRangeVsAmplitude(osc.model(), unit, amps, 256);

    ASSERT_EQ(points->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const json::Value& row = (*points->arr)[i];
        const json::Value* locks = row.field("locks");
        ASSERT_TRUE(locks && locks->isBool()) << "row " << i;
        EXPECT_EQ(locks->b, expected[i].range.locks) << "row " << i;
        EXPECT_EQ(row.fieldNumber("amplitude", -1.0), expected[i].amplitude) << "row " << i;
        EXPECT_EQ(row.fieldNumber("fLow", -1.0), expected[i].range.fLow) << "row " << i;
        EXPECT_EQ(row.fieldNumber("fHigh", -1.0), expected[i].range.fHigh) << "row " << i;
    }
}

TEST(ServiceResume, McCancelResumeBitwiseIdentical) {
    // Uninterrupted baseline: no checkpoint directory at all.
    const svc::JobSnapshot base = runJob("hold-error-mc", kMcParams, fs::path());
    ASSERT_EQ(base.state, svc::JobState::Done);
    const std::string baseHash = base.result.fieldString("outcomeHash", "");
    ASSERT_FALSE(baseHash.empty());
    EXPECT_DOUBLE_EQ(base.result.fieldNumber("trialsDone", 0), 60.0);

    // Interrupted run in its own checkpoint dir.
    const fs::path ckptDir = freshDir("phlogon_resume_mc_ckpt");
    const svc::JobSnapshot cut = runAndCancel("hold-error-mc", kMcParams, ckptDir, 10);
    ASSERT_EQ(cut.state, svc::JobState::Cancelled);
    EXPECT_TRUE(cut.result.fieldBool("resumable", false));
    const double done = cut.result.fieldNumber("trialsDone", 0);
    ASSERT_GT(done, 0.0);
    ASSERT_LT(done, 60.0);
    // The §11 snapshot is on disk.
    EXPECT_TRUE(fs::exists(cut.result.fieldString("checkpoint", "")));

    // "Restart": fresh queue, same dirs, identical request.
    const svc::JobSnapshot resumed = runJob("hold-error-mc", kMcParams, ckptDir);
    ASSERT_EQ(resumed.state, svc::JobState::Done);
    EXPECT_DOUBLE_EQ(resumed.result.fieldNumber("resumedFrom", -1), done);
    EXPECT_DOUBLE_EQ(resumed.result.fieldNumber("trialsDone", 0), 60.0);
    // Bitwise identity: the chained per-chunk outcome hash and the counts
    // match the uninterrupted run exactly.
    EXPECT_EQ(resumed.result.fieldString("outcomeHash", ""), baseHash);
    EXPECT_DOUBLE_EQ(resumed.result.fieldNumber("errors", -1),
                     base.result.fieldNumber("errors", -2));
    EXPECT_DOUBLE_EQ(resumed.result.fieldNumber("trials", -1),
                     base.result.fieldNumber("trials", -2));

    // A third submission finds the completed checkpoint and returns the
    // final result immediately, still identical.
    const svc::JobSnapshot again = runJob("hold-error-mc", kMcParams, ckptDir);
    ASSERT_EQ(again.state, svc::JobState::Done);
    EXPECT_EQ(again.result.fieldString("outcomeHash", ""), baseHash);
    fs::remove_all(ckptDir);
}

TEST(ServiceResume, FsmCancelResumeBitwiseIdentical) {
    const svc::JobSnapshot base = runJob("fsm-transient", fsmParams(), fs::path());
    ASSERT_EQ(base.state, svc::JobState::Done);
    ASSERT_TRUE(base.result.fieldBool("allWritten", false));
    const json::Value* basePhases = base.result.field("endPhase");
    ASSERT_NE(basePhases, nullptr);
    ASSERT_EQ(basePhases->size(), kFsmSlots);

    const fs::path ckptDir = freshDir("phlogon_resume_fsm_ckpt");
    const svc::JobSnapshot cut = runAndCancel("fsm-transient", fsmParams(), ckptDir, 1);
    ASSERT_EQ(cut.state, svc::JobState::Cancelled);
    EXPECT_TRUE(cut.result.fieldBool("resumable", false));
    const double slotsDone = cut.result.fieldNumber("slotsDone", 0);
    ASSERT_GT(slotsDone, 0.0);
    ASSERT_LT(slotsDone, static_cast<double>(kFsmSlots));

    const svc::JobSnapshot resumed = runJob("fsm-transient", fsmParams(), ckptDir);
    ASSERT_EQ(resumed.state, svc::JobState::Done);
    EXPECT_DOUBLE_EQ(resumed.result.fieldNumber("resumedFrom", -1), slotsDone);
    EXPECT_TRUE(resumed.result.fieldBool("allWritten", false));
    const json::Value* phases = resumed.result.field("endPhase");
    ASSERT_NE(phases, nullptr);
    ASSERT_EQ(phases->size(), kFsmSlots);
    // Slot boundaries are fresh RKF45 starts in the uninterrupted run too,
    // so every end phase — including the post-resume tail — is the exact
    // same double.
    for (std::size_t i = 0; i < kFsmSlots; ++i)
        EXPECT_EQ((*phases->arr)[i].num, (*basePhases->arr)[i].num) << "slot " << i;
    fs::remove_all(ckptDir);
}

TEST(ServiceResume, DaemonRestartResumesCheckpointedJob) {
    const fs::path cacheDir = sharedCache().dir();
    const fs::path ckptDir = freshDir("phlogon_resume_daemon_ckpt");
    const std::string request =
        std::string(R"({"type": "hold-error-mc", "id": 1, "params": )") + kMcParams + "}";

    // Baseline for the hash (checkpoint-free).
    const svc::JobSnapshot base = runJob("hold-error-mc", kMcParams, fs::path());
    const std::string baseHash = base.result.fieldString("outcomeHash", "");

    svc::DaemonOptions opt;
    opt.queue.workers = 1;
    opt.cacheDir = cacheDir;
    opt.checkpointDir = ckptDir;

    // First daemon instance: submit without waiting, let it make progress,
    // then stop in Checkpoint mode — the SIGTERM path.
    {
        svc::Daemon d1(opt);
        ASSERT_TRUE(d1.start()) << d1.lastError();
        const json::ParseResult sub = json::parse(d1.dispatch(
            std::string(R"({"type": "hold-error-mc", "id": 1, "wait": false, "params": )") +
            kMcParams + "}"));
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
    }

    // Second daemon instance on the same directories: the resubmitted
    // request resumes from the snapshot and finishes bit-identically.
    {
        svc::Daemon d2(opt);
        ASSERT_TRUE(d2.start()) << d2.lastError();
        const json::ParseResult done = json::parse(d2.dispatch(request));
        ASSERT_TRUE(done.ok);
        ASSERT_TRUE(done.value.fieldBool("ok", false));
        const json::Value* result = done.value.field("job")->field("result");
        ASSERT_NE(result, nullptr);
        EXPECT_GT(result->fieldNumber("resumedFrom", 0), 0.0);
        EXPECT_DOUBLE_EQ(result->fieldNumber("trialsDone", 0), 60.0);
        EXPECT_EQ(result->fieldString("outcomeHash", ""), baseHash);
        d2.stop(svc::JobQueue::Shutdown::Drain);
    }
    fs::remove_all(ckptDir);
}
