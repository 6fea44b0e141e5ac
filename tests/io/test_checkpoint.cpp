#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/transient.hpp"
#include "circuit/subckt.hpp"
#include "common/osc_fixture.hpp"
#include "core/gae_transient.hpp"
#include "io/serialize.hpp"

namespace phlogon::io {
namespace {

namespace fs = std::filesystem;
using num::Vec;

const core::PpvModel& model() { return testutil::sharedOsc().model(); }

class CheckpointTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory: ctest runs each TEST as its own process, so a
        // shared directory would let one test's SetUp/TearDown remove_all
        // clobber another's checkpoint files under parallel ctest.
        dir_ = fs::temp_directory_path() /
               (std::string("phlogon_io_checkpoint_test_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;

    fs::path file(const char* name) const { return dir_ / name; }
};

// ---- snapshot payload round-trips ------------------------------------------

TEST_F(CheckpointTest, TransientCheckpointRoundTripsBitwise) {
    TransientCheckpoint c;
    c.t0 = 0.0;
    c.t1 = 3e-3;
    c.t = 1.337e-3;
    c.stepIndex = 421;
    c.x = Vec{0.123456789, -3.25, 1e-300};
    c.counters.steps = 421;
    c.counters.newtonIters = 900;
    c.counters.wallSeconds = 0.125;

    ASSERT_TRUE(saveTransientCheckpoint(file("t.phlg"), c));
    const auto back = loadTransientCheckpoint(file("t.phlg"));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->t0, c.t0);
    EXPECT_EQ(back->t1, c.t1);
    EXPECT_EQ(back->t, c.t);
    EXPECT_EQ(back->stepIndex, c.stepIndex);
    ASSERT_EQ(back->x.size(), c.x.size());
    for (std::size_t i = 0; i < c.x.size(); ++i) EXPECT_EQ(back->x[i], c.x[i]);
    EXPECT_EQ(back->counters.steps, c.counters.steps);
    EXPECT_EQ(back->counters.newtonIters, c.counters.newtonIters);
    EXPECT_EQ(back->counters.wallSeconds, c.counters.wallSeconds);
}

TEST_F(CheckpointTest, GaeCheckpointRoundTripsBitwise) {
    GaeCheckpoint c;
    c.t = 7.5e-4;
    c.dphi = -1.2578125;
    c.h = 3.0517578125e-05;
    c.counters.rhsEvals = 1234;
    c.counters.steps = 200;
    ASSERT_TRUE(saveGaeCheckpoint(file("g.phlg"), c));
    const auto back = loadGaeCheckpoint(file("g.phlg"));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->t, c.t);
    EXPECT_EQ(back->dphi, c.dphi);
    EXPECT_EQ(back->h, c.h);
    EXPECT_EQ(back->counters.rhsEvals, c.counters.rhsEvals);
    EXPECT_EQ(back->counters.steps, c.counters.steps);
}

TEST_F(CheckpointTest, CorruptSnapshotsLoadAsAbsent) {
    EXPECT_FALSE(loadTransientCheckpoint(file("missing.phlg")).has_value());
    // Wrong artifact type.
    GaeCheckpoint g;
    ASSERT_TRUE(saveGaeCheckpoint(file("g.phlg"), g));
    EXPECT_FALSE(loadTransientCheckpoint(file("g.phlg")).has_value());
    // Truncated payload.
    TransientCheckpoint c;
    c.x = Vec{1.0, 2.0};
    ASSERT_TRUE(saveTransientCheckpoint(file("t.phlg"), c));
    fs::resize_file(file("t.phlg"), fs::file_size(file("t.phlg")) - 5);
    EXPECT_FALSE(loadTransientCheckpoint(file("t.phlg")).has_value());
    EXPECT_FALSE(decodeTransientCheckpoint({1, 2, 3}).has_value());
    EXPECT_FALSE(decodeGaeCheckpoint({}).has_value());
}

// ---- circuit transient resume ---------------------------------------------

ckt::Netlist& rcNetlist() {
    static ckt::Netlist nl = [] {
        ckt::Netlist n;
        n.addResistor("r", "n", "0", 1e3);
        n.addCapacitor("c", "n", "0", 1e-6);  // tau = 1 ms
        return n;
    }();
    return nl;
}

void expectTailIdentical(const an::TransientResult& full, const an::TransientResult& tail) {
    ASSERT_TRUE(full.ok) << full.message;
    ASSERT_TRUE(tail.ok) << tail.message;
    ASSERT_GE(tail.t.size(), 2u);
    // Locate the tail's first point (the checkpoint point) in the full run.
    std::size_t j = 0;
    while (j < full.t.size() && full.t[j] != tail.t[0]) ++j;
    ASSERT_LT(j, full.t.size()) << "checkpoint time not a stored point of the full run";
    ASSERT_EQ(full.t.size() - j, tail.t.size());
    for (std::size_t i = 0; i < tail.t.size(); ++i) {
        EXPECT_EQ(full.t[j + i], tail.t[i]) << "time diverged at tail index " << i;
        ASSERT_EQ(full.x[j + i].size(), tail.x[i].size());
        for (std::size_t k = 0; k < tail.x[i].size(); ++k)
            EXPECT_EQ(full.x[j + i][k], tail.x[i][k]) << "state diverged at tail index " << i;
    }
}

TEST_F(CheckpointTest, FixedStepResumeIsBitIdentical) {
    ckt::Dae dae(rcNetlist());
    an::TransientOptions opt;
    opt.dt = 1e-5;

    const an::TransientResult full = an::transient(dae, Vec{1.0}, 0.0, 3e-3, opt);
    ASSERT_TRUE(full.ok);

    // Same run with one mid-span snapshot (interval > half the span, so the
    // surviving file is a genuine mid-run checkpoint, not the final state).
    an::TransientOptions ckOpt = opt;
    ckOpt.checkpoint.interval = 1.7e-3;
    ckOpt.checkpoint.path = file("rc.ckpt.phlg");
    const an::TransientResult withCk = an::transient(dae, Vec{1.0}, 0.0, 3e-3, ckOpt);
    ASSERT_TRUE(withCk.ok);
    // Checkpointing must not perturb the trajectory.
    ASSERT_EQ(withCk.t.size(), full.t.size());
    for (std::size_t i = 0; i < full.t.size(); ++i) EXPECT_EQ(withCk.x[i][0], full.x[i][0]);

    const auto ck = loadTransientCheckpoint(ckOpt.checkpoint.path);
    ASSERT_TRUE(ck.has_value());
    EXPECT_GT(ck->t, 1e-3);
    EXPECT_LT(ck->t, 3e-3);

    const an::TransientResult tail = resumeTransient(dae, ckOpt.checkpoint.path, 3e-3, opt);
    expectTailIdentical(full, tail);
    // Resumed counters continue from the checkpoint: total accepted steps
    // across the whole resumed run equal the uninterrupted run's.
    EXPECT_EQ(tail.counters.steps, full.counters.steps);
    EXPECT_EQ(tail.counters.newtonIters, full.counters.newtonIters);
    EXPECT_EQ(tail.counters.rhsEvals, full.counters.rhsEvals);
}

TEST_F(CheckpointTest, FixedStepResumePreservesStoreEveryPhase) {
    ckt::Dae dae(rcNetlist());
    an::TransientOptions opt;
    opt.dt = 1e-5;
    opt.storeEvery = 7;  // deliberately not a divisor of the step count

    const an::TransientResult full = an::transient(dae, Vec{1.0}, 0.0, 3e-3, opt);

    an::TransientOptions ckOpt = opt;
    ckOpt.checkpoint.interval = 1.6e-3;
    ckOpt.checkpoint.path = file("rc7.ckpt.phlg");
    ASSERT_TRUE(an::transient(dae, Vec{1.0}, 0.0, 3e-3, ckOpt).ok);

    const an::TransientResult tail = resumeTransient(dae, ckOpt.checkpoint.path, 3e-3, opt);
    ASSERT_TRUE(tail.ok) << tail.message;
    // Every stored tail point (after the checkpoint point itself) must appear
    // at the same times as in the full run — the stepIndex phase survived.
    std::size_t j = 0;
    while (j < full.t.size() && full.t[j] < tail.t[1]) ++j;
    ASSERT_LT(j, full.t.size());
    for (std::size_t i = 1; i < tail.t.size(); ++i, ++j) {
        ASSERT_LT(j, full.t.size());
        EXPECT_EQ(full.t[j], tail.t[i]);
        EXPECT_EQ(full.x[j][0], tail.x[i][0]);
    }
}

TEST_F(CheckpointTest, AdaptiveResumeIsBitIdentical) {
    // A cosine-driven RC over 4000 fixed steps, checkpointed once mid-run:
    // the resumed tail and its work counters equal the uninterrupted run's.
    ckt::Netlist nl;
    nl.addVoltageSource("v", "in", "0", ckt::Waveform::cosine(1.0, 1e3));
    nl.addResistor("r", "in", "n", 1e3);
    nl.addCapacitor("c", "n", "0", 0.1e-6);
    ckt::Dae dae(nl);

    an::TransientOptions opt;
    opt.dt = 1e-6;
    const Vec x0{1.0, 0.0, 0.0};

    const an::TransientResult full = an::transient(dae, x0, 0.0, 4e-3, opt);
    ASSERT_TRUE(full.ok);
    EXPECT_EQ(full.counters.steps, 4000u);

    an::TransientOptions ckOpt = opt;
    ckOpt.checkpoint.interval = 2.3e-3;
    ckOpt.checkpoint.path = file("ad.ckpt.phlg");
    const an::TransientResult withCk = an::transient(dae, x0, 0.0, 4e-3, ckOpt);
    ASSERT_TRUE(withCk.ok);
    ASSERT_EQ(withCk.t.size(), full.t.size());

    const auto ck = loadTransientCheckpoint(ckOpt.checkpoint.path);
    ASSERT_TRUE(ck.has_value());

    const an::TransientResult tail = resumeTransient(dae, ckOpt.checkpoint.path, 4e-3, opt);
    expectTailIdentical(full, tail);
    EXPECT_EQ(tail.counters.steps, full.counters.steps);
    EXPECT_EQ(tail.counters.rejectedSteps, full.counters.rejectedSteps);
    EXPECT_EQ(tail.counters.newtonIters, full.counters.newtonIters);
}

TEST_F(CheckpointTest, ResumeRejectsBadSnapshots) {
    ckt::Dae dae(rcNetlist());
    an::TransientOptions opt;
    opt.dt = 1e-5;
    // Missing file.
    const an::TransientResult r1 = resumeTransient(dae, file("nope.phlg"), 1e-3, opt);
    EXPECT_FALSE(r1.ok);
    EXPECT_FALSE(r1.message.empty());
    // Snapshot of a different circuit (state size mismatch).
    TransientCheckpoint c;
    c.t = 1e-4;
    c.stepIndex = 10;
    c.x = Vec{1.0, 2.0, 3.0};  // RC circuit has 1 unknown
    ASSERT_TRUE(saveTransientCheckpoint(file("wrong.phlg"), c));
    const an::TransientResult r2 = resumeTransient(dae, file("wrong.phlg"), 1e-3, opt);
    EXPECT_FALSE(r2.ok);
    EXPECT_FALSE(r2.message.empty());
}

// ---- GAE transient resume --------------------------------------------------

TEST_F(CheckpointTest, GaeResumeIsBitIdentical) {
    const core::PpvModel& model = testutil::sharedOsc().model();
    const std::size_t node = testutil::sharedOsc().outputUnknown();
    const std::vector<core::GaeSegment> sched{
        {0.0, {core::Injection::tone(node, 100e-6, 2)}}};
    const double t1 = 40.0 / testutil::kF1;
    const double start = 0.3;

    const auto full = core::gaeTransient(model, testutil::kF1, sched, start, 0.0, t1);
    ASSERT_TRUE(full.ok);

    core::GaeCheckpointOptions ck;
    ck.interval = 0.55 * t1;  // exactly one mid-run snapshot survives
    ck.path = file("gae.ckpt.phlg");
    const auto withCk = core::gaeTransient(model, testutil::kF1, sched, start, 0.0, t1, {}, 1024, ck);
    ASSERT_TRUE(withCk.ok);
    // Checkpointing must not perturb the trajectory.
    ASSERT_EQ(withCk.t.size(), full.t.size());
    for (std::size_t i = 0; i < full.t.size(); ++i) {
        EXPECT_EQ(withCk.t[i], full.t[i]);
        EXPECT_EQ(withCk.dphi[i], full.dphi[i]);
    }

    const auto snap = loadGaeCheckpoint(ck.path);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GT(snap->t, 0.0);
    EXPECT_LT(snap->t, t1);
    EXPECT_GT(snap->h, 0.0);

    const auto tail = resumeGaeTransient(model, testutil::kF1, sched, ck.path, t1);
    ASSERT_TRUE(tail.ok);
    // The tail (from the checkpoint time) matches the uninterrupted run
    // bit-for-bit.
    std::size_t j = 0;
    while (j < full.t.size() && full.t[j] != tail.t[0]) ++j;
    ASSERT_LT(j, full.t.size()) << "checkpoint time not on the uninterrupted grid";
    ASSERT_EQ(full.t.size() - j, tail.t.size());
    for (std::size_t i = 0; i < tail.t.size(); ++i) {
        EXPECT_EQ(full.t[j + i], tail.t[i]);
        EXPECT_EQ(full.dphi[j + i], tail.dphi[i]);
    }
    EXPECT_EQ(tail.final(), full.final());
    // Counters fold the checkpoint's pre-resume work back in, exactly.
    EXPECT_EQ(tail.counters.rhsEvals, full.counters.rhsEvals);
    EXPECT_EQ(tail.counters.steps, full.counters.steps);
    EXPECT_EQ(tail.counters.rejectedSteps, full.counters.rejectedSteps);
}

TEST_F(CheckpointTest, GaeResumeCrossesScheduleSegments) {
    const auto& d = testutil::sharedDesign();
    const double bitT = 40.0 / d.f1;
    const std::vector<core::GaeSegment> sched{
        {0.0, {d.sync(), d.dataInjection(150e-6, 1)}},
        {bitT, {d.sync(), d.dataInjection(150e-6, 0)}},
    };
    const double t1 = 2.0 * bitT;
    const double start = d.reference.phase0 + 0.02;

    const auto full = core::gaeTransient(model(), d.f1, sched, start, 0.0, t1);
    ASSERT_TRUE(full.ok);

    core::GaeCheckpointOptions ck;
    // The snapshot file is rewritten at each interval; the survivor is the
    // last one, landing inside the SECOND segment — resuming from it must
    // pick up mid-schedule with that segment's injections.
    ck.interval = 0.3 * bitT;
    ck.path = file("gae2.ckpt.phlg");
    ASSERT_TRUE(core::gaeTransient(model(), d.f1, sched, start, 0.0, t1, {}, 1024, ck).ok);

    const auto snap = loadGaeCheckpoint(ck.path);
    ASSERT_TRUE(snap.has_value());

    const auto tail = resumeGaeTransient(model(), d.f1, sched, ck.path, t1);
    ASSERT_TRUE(tail.ok);
    EXPECT_EQ(tail.final(), full.final());
    // The resumed endpoint answers the logic question identically, and the
    // snapshot counted the rejected steps of the segment it interrupted.
    EXPECT_EQ(tail.dphi.back(), full.dphi.back());
    EXPECT_EQ(tail.counters.steps, full.counters.steps);
    EXPECT_EQ(tail.counters.rejectedSteps, full.counters.rejectedSteps);
}

TEST_F(CheckpointTest, GaeResumeRejectsBadSnapshot) {
    const auto r = resumeGaeTransient(testutil::sharedOsc().model(), testutil::kF1,
                                      {{0.0, {core::Injection::tone(0, 1e-6, 2)}}},
                                      file("absent.phlg"), 1e-3);
    EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace phlogon::io
