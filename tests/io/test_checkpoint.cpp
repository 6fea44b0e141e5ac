// Resume = restart from a stored point.  The circuit transient and the GAE
// transient keep no solver state worth saving, so a run restarted from one
// of its own stored points (an::transient) or at a schedule-segment
// boundary (core::gaeTransient) reproduces the uninterrupted run bitwise.
// The only checkpoint files are the daemon's job snapshots (McCheckpoint,
// FsmCheckpoint), which round-trip bitwise and load as absent when damaged.

#include "io/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>

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

// ---- job snapshot round-trips ----------------------------------------------

TEST_F(CheckpointTest, TransientCheckpointRoundTripsBitwise) {
    // The Monte-Carlo job snapshot (MCKP): every field survives bitwise.
    McCheckpoint c;
    c.jobKey = 0xFEDCBA9876543210ull;
    c.trialsTotal = 1024;
    c.trialsDone = 640;
    c.trials = 638;
    c.errors = 17;
    c.outcomeHash = 0x0123456789ABCDEFull;

    ASSERT_TRUE(saveMcCheckpoint(file("mc.phlg"), c));
    const auto back = loadMcCheckpoint(file("mc.phlg"));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->jobKey, c.jobKey);
    EXPECT_EQ(back->trialsTotal, c.trialsTotal);
    EXPECT_EQ(back->trialsDone, c.trialsDone);
    EXPECT_EQ(back->trials, c.trials);
    EXPECT_EQ(back->errors, c.errors);
    EXPECT_EQ(back->outcomeHash, c.outcomeHash);
    const auto decoded = decodeMcCheckpoint(encodeMcCheckpoint(c));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->outcomeHash, c.outcomeHash);
}

TEST_F(CheckpointTest, GaeCheckpointRoundTripsBitwise) {
    // The FSM job snapshot (FCKP): every field, counters included, survives
    // bitwise; -0.0 and a subnormal check that doubles travel as bit patterns.
    FsmCheckpoint c;
    c.jobKey = 0xABCDEF0123456789ull;
    c.slotsTotal = 200;
    c.dphi = -1.2578125e-3;
    c.endPhase = {0.5123, -0.0, 4.9e-324, 1.0 / 3.0};
    c.counters.rhsEvals = 1234;
    c.counters.jacEvals = 5;
    c.counters.luFactorizations = 6;
    c.counters.newtonIters = 7;
    c.counters.dampingEvents = 8;
    c.counters.steps = 200;
    c.counters.rejectedSteps = 21;
    c.counters.wallSeconds = 0.125;

    ASSERT_TRUE(saveFsmCheckpoint(file("fsm.phlg"), c));
    const auto back = loadFsmCheckpoint(file("fsm.phlg"));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->jobKey, c.jobKey);
    EXPECT_EQ(back->slotsTotal, c.slotsTotal);
    EXPECT_EQ(back->dphi, c.dphi);
    ASSERT_EQ(back->endPhase.size(), c.endPhase.size());
    for (std::size_t i = 0; i < c.endPhase.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back->endPhase[i]),
                  std::bit_cast<std::uint64_t>(c.endPhase[i]))
            << "slot " << i;
    EXPECT_EQ(back->counters.rhsEvals, c.counters.rhsEvals);
    EXPECT_EQ(back->counters.jacEvals, c.counters.jacEvals);
    EXPECT_EQ(back->counters.luFactorizations, c.counters.luFactorizations);
    EXPECT_EQ(back->counters.newtonIters, c.counters.newtonIters);
    EXPECT_EQ(back->counters.dampingEvents, c.counters.dampingEvents);
    EXPECT_EQ(back->counters.steps, c.counters.steps);
    EXPECT_EQ(back->counters.rejectedSteps, c.counters.rejectedSteps);
    EXPECT_EQ(back->counters.wallSeconds, c.counters.wallSeconds);
}

TEST_F(CheckpointTest, CorruptSnapshotsLoadAsAbsent) {
    // MC snapshots: missing, mistyped and truncated files load as absent.
    EXPECT_FALSE(loadMcCheckpoint(file("missing.phlg")).has_value());
    ASSERT_TRUE(saveFsmCheckpoint(file("fsm.phlg"), FsmCheckpoint{}));
    EXPECT_FALSE(loadMcCheckpoint(file("fsm.phlg")).has_value());
    McCheckpoint c;
    c.trialsDone = 10;
    ASSERT_TRUE(saveMcCheckpoint(file("mc.phlg"), c));
    fs::resize_file(file("mc.phlg"), fs::file_size(file("mc.phlg")) - 5);
    EXPECT_FALSE(loadMcCheckpoint(file("mc.phlg")).has_value());
    EXPECT_FALSE(decodeMcCheckpoint({1, 2, 3}).has_value());
    EXPECT_FALSE(decodeMcCheckpoint({}).has_value());
}

// ---- circuit transient: restart from a stored point ------------------------

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
    // Locate the tail's first point (the restart point) in the full run.
    std::size_t j = 0;
    while (j < full.t.size() && full.t[j] != tail.t[0]) ++j;
    ASSERT_LT(j, full.t.size()) << "restart time not a stored point of the full run";
    ASSERT_EQ(full.t.size() - j, tail.t.size());
    for (std::size_t i = 0; i < tail.t.size(); ++i) {
        EXPECT_EQ(full.t[j + i], tail.t[i]) << "time diverged at tail index " << i;
        ASSERT_EQ(full.x[j + i].size(), tail.x[i].size());
        for (std::size_t k = 0; k < tail.x[i].size(); ++k)
            EXPECT_EQ(full.x[j + i][k], tail.x[i][k]) << "state diverged at tail index " << i;
    }
}

/// Restart `full` from its stored point k with the same options and end time.
an::TransientResult restartFrom(const ckt::Dae& dae, const an::TransientResult& full,
                                std::size_t k, double t1, const an::TransientOptions& opt) {
    return an::transient(dae, full.x.at(k), full.t.at(k), t1, opt);
}

TEST_F(CheckpointTest, FixedStepResumeIsBitIdentical) {
    ckt::Dae dae(rcNetlist());
    an::TransientOptions opt;
    opt.dt = 1e-5;

    const an::TransientResult full = an::transient(dae, Vec{1.0}, 0.0, 3e-3, opt);
    ASSERT_TRUE(full.ok);
    const an::TransientResult tail = restartFrom(dae, full, 180, 3e-3, opt);
    expectTailIdentical(full, tail);
    // The restart does the remaining steps, no more.
    EXPECT_EQ(tail.counters.steps, full.counters.steps - 180);
}

TEST_F(CheckpointTest, FixedStepResumePreservesStoreEveryPhase) {
    ckt::Dae dae(rcNetlist());
    an::TransientOptions opt;
    opt.dt = 1e-5;
    opt.storeEvery = 7;  // deliberately not a divisor of the step count

    const an::TransientResult full = an::transient(dae, Vec{1.0}, 0.0, 3e-3, opt);
    ASSERT_TRUE(full.ok);
    // Stored point 26 is step 182: the restart stores steps 189, 196, ...
    // exactly where the full run did, plus the final point.
    const an::TransientResult tail = restartFrom(dae, full, 26, 3e-3, opt);
    expectTailIdentical(full, tail);
    EXPECT_EQ(tail.counters.steps, full.counters.steps - 182);
}

TEST_F(CheckpointTest, AdaptiveResumeIsBitIdentical) {
    // A cosine-driven RC over 4000 fixed steps: the source is evaluated at
    // absolute time, so the restart must carry t exactly, not just x.
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

    const an::TransientResult tail = restartFrom(dae, full, 2300, 4e-3, opt);
    expectTailIdentical(full, tail);
    EXPECT_EQ(tail.counters.steps, 1700u);
    EXPECT_EQ(tail.counters.rejectedSteps, full.counters.rejectedSteps);
}

TEST_F(CheckpointTest, ResumeRejectsBadSnapshots) {
    // A restart state of the wrong size (another circuit's, or none) is
    // refused with a message instead of being integrated or crashing.
    ckt::Dae dae(rcNetlist());  // 1 unknown
    an::TransientOptions opt;
    opt.dt = 1e-5;
    for (const Vec& x : {Vec{1.0, 2.0, 3.0}, Vec{}}) {
        const an::TransientResult r = an::transient(dae, x, 1e-4, 1e-3, opt);
        EXPECT_FALSE(r.ok) << "state size " << x.size();
        EXPECT_FALSE(r.message.empty());
        EXPECT_TRUE(r.t.empty());
        EXPECT_EQ(r.counters.steps, 0u);
    }
}

// ---- GAE transient: restart at a schedule-segment boundary -----------------

/// Write schedule of three 40-cycle slots (bits 1, 0, 1 at 150 uA, SYNC
/// 100 uA): every slot boundary starts a fresh RKF45 solve.
struct GaeSplitRun {
    std::vector<core::GaeSegment> sched;
    double bitT = 0.0;
    double t1 = 0.0;
    core::GaeTransientResult full, head, tail;

    GaeSplitRun() {
        const auto& d = testutil::sharedDesign();
        bitT = 40.0 / d.f1;
        t1 = 3.0 * bitT;
        const double start = d.reference.phase0 + 0.02;
        const int bits[] = {1, 0, 1};
        for (int s = 0; s < 3; ++s)
            sched.push_back({s * bitT, {d.sync(), d.dataInjection(150e-6, bits[s])}});
        full = core::gaeTransient(model(), d.f1, sched, start, 0.0, t1);
        head = core::gaeTransient(model(), d.f1, sched, start, 0.0, bitT);
        tail = core::gaeTransient(model(), d.f1, sched, head.final(), bitT, t1);
    }
};

/// part's points equal full's from index `from` on.  A restarted part
/// begins at the boundary time itself, where full holds its previous
/// segment's last point, so its first point is compared by phase only.
void expectRunSlice(const core::GaeTransientResult& full, std::size_t from,
                    const core::GaeTransientResult& part) {
    ASSERT_FALSE(part.t.empty());
    ASSERT_LE(from + part.t.size(), full.t.size());
    EXPECT_EQ(part.dphi[0], full.dphi[from]);
    for (std::size_t i = 1; i < part.t.size(); ++i) {
        EXPECT_EQ(part.t[i], full.t[from + i]) << "point " << i;
        EXPECT_EQ(part.dphi[i], full.dphi[from + i]) << "point " << i;
    }
}

TEST_F(CheckpointTest, GaeResumeIsBitIdentical) {
    const GaeSplitRun run;
    ASSERT_TRUE(run.full.ok);
    ASSERT_TRUE(run.head.ok);
    ASSERT_TRUE(run.tail.ok);
    // The head is the full run's prefix up to the boundary, and the tail,
    // which starts on the head's last point, is the rest of it.
    ASSERT_EQ(run.head.t.size() + run.tail.t.size() - 1, run.full.t.size());
    expectRunSlice(run.full, 0, run.head);
    expectRunSlice(run.full, run.head.t.size() - 1, run.tail);
    EXPECT_EQ(run.tail.final(), run.full.final());
    // The work splits exactly too.
    EXPECT_EQ(run.head.counters.steps + run.tail.counters.steps, run.full.counters.steps);
    EXPECT_EQ(run.head.counters.rejectedSteps + run.tail.counters.rejectedSteps,
              run.full.counters.rejectedSteps);
    EXPECT_EQ(run.head.counters.rhsEvals + run.tail.counters.rhsEvals,
              run.full.counters.rhsEvals);
}

TEST_F(CheckpointTest, GaeResumeCrossesScheduleSegments) {
    const GaeSplitRun run;
    ASSERT_TRUE(run.tail.ok);
    // The tail runs through the later boundary at 2 bitT into the third
    // slot, switching injections there exactly as the full run did.
    std::size_t before = 0, after = 0;
    for (double t : run.tail.t) (t < 2.0 * run.bitT ? before : after) += 1;
    EXPECT_GT(before, 1u);
    EXPECT_GT(after, 1u);
    expectRunSlice(run.full, run.head.t.size() - 1, run.tail);
    // Splitting again at that boundary changes nothing either.
    const auto& d = testutil::sharedDesign();
    const double t2 = 2.0 * run.bitT;
    const auto mid = core::gaeTransient(model(), d.f1, run.sched, run.head.final(), run.bitT, t2);
    const auto last = core::gaeTransient(model(), d.f1, run.sched, mid.final(), t2, run.t1);
    ASSERT_TRUE(mid.ok);
    ASSERT_TRUE(last.ok);
    expectRunSlice(run.full, run.head.t.size() + mid.t.size() - 2, last);
    EXPECT_EQ(last.final(), run.full.final());
    EXPECT_EQ(mid.counters.steps + last.counters.steps, run.tail.counters.steps);
    EXPECT_EQ(mid.counters.rejectedSteps + last.counters.rejectedSteps,
              run.tail.counters.rejectedSteps);
    // And the write sequence decodes the same: 1, 0, 1.
    EXPECT_EQ(d.reference.decode(run.head.final()), 1);
    EXPECT_EQ(d.reference.decode(mid.final()), 0);
    EXPECT_EQ(d.reference.decode(last.final()), 1);
}

TEST_F(CheckpointTest, GaeResumeRejectsBadSnapshot) {
    // FSM snapshots: missing, mistyped and truncated files load as absent,
    // so the job starts from slot 0.
    EXPECT_FALSE(loadFsmCheckpoint(file("absent.phlg")).has_value());
    ASSERT_TRUE(saveMcCheckpoint(file("mc.phlg"), McCheckpoint{}));
    EXPECT_FALSE(loadFsmCheckpoint(file("mc.phlg")).has_value());
    FsmCheckpoint c;
    c.endPhase = {0.25, 0.75};
    ASSERT_TRUE(saveFsmCheckpoint(file("fsm.phlg"), c));
    fs::resize_file(file("fsm.phlg"), fs::file_size(file("fsm.phlg")) - 5);
    EXPECT_FALSE(loadFsmCheckpoint(file("fsm.phlg")).has_value());
    // A well-formed artifact whose payload is cut short inside its own
    // fields (valid CRC) is absent as well.
    ASSERT_TRUE(writeArtifactFile(file("short.phlg"), kTypeFsmCheckpoint, {1, 2, 3}));
    EXPECT_FALSE(loadFsmCheckpoint(file("short.phlg")).has_value());
}

}  // namespace
}  // namespace phlogon::io
