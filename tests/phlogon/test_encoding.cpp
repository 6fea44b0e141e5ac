#include "phlogon/encoding.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"

namespace phlogon::logic {
namespace {

TEST(BitSchedule, SlotsAndClamping) {
    const auto s = bitSchedule({1, 0, 1}, 2.0, 10.0);
    EXPECT_EQ(s(9.0), 1);   // before start: first bit
    EXPECT_EQ(s(10.5), 1);  // slot 0
    EXPECT_EQ(s(12.5), 0);  // slot 1
    EXPECT_EQ(s(14.5), 1);  // slot 2
    EXPECT_EQ(s(99.0), 1);  // after end: last bit
}

TEST(BitSchedule, RejectsEmpty) {
    EXPECT_THROW(bitSchedule({}, 1.0), std::invalid_argument);
}

TEST(BitSchedule, RejectsNonPositivePeriod) {
    // A zero period would divide into an infinite slot index.
    for (const double period : {0.0, -1.0, std::nan("")})
        EXPECT_THROW(bitSchedule({1, 0}, period), std::invalid_argument) << period;
}

TEST(DataCurrentWaveform, PhaseFlipsBetweenBits) {
    const auto& d = testutil::sharedDesign();
    const double bitT = 10.0 / d.f1;
    const ckt::Waveform w = dataCurrentWaveform(d, 1e-3, {1, 0}, bitT);
    // Within a bit the tone is periodic at f1; between bits it flips by half
    // a cycle (the two write phases are 0.5 apart).
    const double t1 = 0.5 * bitT;
    const double t2 = 1.5 * bitT;
    const double cyclesApart = (t2 - t1) * d.f1;
    ASSERT_NEAR(cyclesApart - std::round(cyclesApart), 0.0, 1e-9);
    EXPECT_NEAR(w(t1), -w(t2), 1e-6);
}

TEST(DataSignal, AlignsWithReferenceSignal) {
    const auto& d = testutil::sharedDesign();
    const auto sig = dataSignal(d.reference, {1}, 1.0);
    const auto ref1 = d.reference.refSignal(1);
    for (double t = 0.0; t < 1.0 / d.f1; t += 0.07 / d.f1) EXPECT_NEAR(sig(t), ref1(t), 1e-12);
}

TEST(DataVoltageWaveform, SwingsZeroToVdd) {
    const auto& d = testutil::sharedDesign();
    const ckt::Waveform w = dataVoltageWaveform(d.reference, {1}, 1.0);
    double lo = 1e9, hi = -1e9;
    for (double t = 0.0; t < 1.0 / d.f1; t += 0.01 / d.f1) {
        lo = std::min(lo, w(t));
        hi = std::max(hi, w(t));
    }
    EXPECT_NEAR(lo, 0.0, 1e-3);
    EXPECT_NEAR(hi, d.reference.vdd, 1e-3);
}

TEST(DecodeRoundTrip, RandomBitStreamsSurviveEncodeDecode) {
    // Property: encode a random bit stream as a GAE injection schedule (one
    // {SYNC, D} segment per bit, as in the Fig. 12 bench), simulate, decode
    // each slot just before its end -> identical bits.
    const auto& d = testutil::sharedDesign();
    const double bitT = 40.0 / d.f1;
    const std::vector<Bits> streams{
        {1, 0, 1}, {0, 1, 1, 0}, {1, 1, 1}, {0, 0, 1, 0, 1},
    };
    for (const Bits& bits : streams) {
        std::vector<core::GaeSegment> sched;
        for (std::size_t k = 0; k < bits.size(); ++k)
            sched.push_back({static_cast<double>(k) * bitT,
                             {d.sync(), d.dataInjection(150e-6, bits[k])}});
        const auto traj = core::gaeTransient(d.model, d.f1, sched,
                                             d.reference.phaseForBit(bits.front()) + 0.02, 0.0,
                                             static_cast<double>(bits.size()) * bitT);
        ASSERT_TRUE(traj.ok);
        Bits decoded;
        for (std::size_t k = 0; k < bits.size(); ++k)
            decoded.push_back(
                d.reference.decode(traj.at((static_cast<double>(k) + 0.98) * bitT)));
        EXPECT_EQ(decoded, bits);
    }
}

}  // namespace
}  // namespace phlogon::logic
