#include "phlogon/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "phlogon/gates.hpp"

namespace phlogon::logic {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

std::function<int(double)> bitSchedule(Bits bits, double bitPeriod, double tStart) {
    if (bits.empty()) throw std::invalid_argument("bitSchedule: empty bit stream");
    if (!(bitPeriod > 0) || !std::isfinite(bitPeriod))
        throw std::invalid_argument("bitSchedule: bit period must be positive and finite");
    return [bits = std::move(bits), bitPeriod, tStart](double t) {
        if (t < tStart) return bits.front();
        const double k = (t - tStart) / bitPeriod;
        if (!(k < static_cast<double>(bits.size()))) return bits.back();  // also a NaN t
        return bits[static_cast<std::size_t>(k)];
    };
}

Bits clockBits(std::size_t slots) {
    Bits clk;
    clk.reserve(2 * slots);
    for (std::size_t k = 0; k < slots; ++k) {
        clk.push_back(0);
        clk.push_back(1);
    }
    return clk;
}

Bits invertBits(const Bits& bits) {
    Bits out;
    out.reserve(bits.size());
    for (int b : bits) out.push_back(notBit(b));
    return out;
}

ckt::Waveform dataCurrentWaveform(const SyncLatchDesign& d, double amp, Bits bits,
                                  double bitPeriod, double tStart) {
    const auto sched = bitSchedule(std::move(bits), bitPeriod, tStart);
    const double chi1 = d.inputPhaseFor(d.reference.phase1);
    const double chi0 = d.inputPhaseFor(d.reference.phase0);
    const double f1 = d.f1;
    return ckt::Waveform::custom([=](double t) {
        const double chi = sched(t) ? chi1 : chi0;
        return amp * std::cos(kTwoPi * (f1 * t - chi));
    });
}

std::function<double(double)> dataSignal(const PhaseReference& ref, Bits bits, double bitPeriod,
                                         double tStart) {
    const auto sched = bitSchedule(std::move(bits), bitPeriod, tStart);
    const double f1 = ref.f1;
    const double p1 = ref.dphiPeak - ref.phase1;
    const double p0 = ref.dphiPeak - ref.phase0;
    return [=](double t) { return std::cos(kTwoPi * (f1 * t - (sched(t) ? p1 : p0))); };
}

ckt::Waveform dataVoltageWaveform(const PhaseReference& ref, Bits bits, double bitPeriod,
                                  double tStart) {
    const auto sig = dataSignal(ref, std::move(bits), bitPeriod, tStart);
    const double mid = ref.vdd / 2.0;
    return ckt::Waveform::custom([=](double t) { return mid + mid * sig(t); });
}

Bits decodeSignals(const core::PhaseSystem::Program& prog, const PhaseReference& ref,
                   double tCenter, const num::Vec& dphi,
                   const std::vector<core::PhaseSystem::SignalId>& sigs) {
    const double t1cyc = 1.0 / ref.f1;
    const std::size_t n = 64;
    std::vector<double> vals;
    std::vector<double> corr(sigs.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double t = tCenter - 0.5 * t1cyc + t1cyc * static_cast<double>(i) / n;
        const double r1 = std::cos(kTwoPi * (ref.f1 * t - ref.dphiPeak + ref.phase1));
        prog.eval(t, ref.f1, dphi, vals);
        for (std::size_t j = 0; j < sigs.size(); ++j)
            corr[j] += vals[static_cast<std::size_t>(sigs[j])] * r1;
    }
    Bits bits(sigs.size(), 0);
    for (std::size_t j = 0; j < sigs.size(); ++j) bits[j] = corr[j] >= 0.0 ? 1 : 0;
    return bits;
}

num::Vec dphiAt(const core::PhaseSystem::Result& res, double t) {
    const std::size_t k = res.dphi.size();
    num::Vec out(k, 0.0);
    if (res.t.empty()) return out;
    if (t <= res.t.front()) {
        for (std::size_t i = 0; i < k; ++i) out[i] = res.dphi[i].front();
        return out;
    }
    if (t >= res.t.back()) {
        for (std::size_t i = 0; i < k; ++i) out[i] = res.dphi[i].back();
        return out;
    }
    const auto it = std::upper_bound(res.t.begin(), res.t.end(), t);
    const std::size_t j = static_cast<std::size_t>(it - res.t.begin());
    const double dt = res.t[j] - res.t[j - 1];
    const double f = dt > 0 ? (t - res.t[j - 1]) / dt : 0.0;
    for (std::size_t i = 0; i < k; ++i)
        out[i] = res.dphi[i][j - 1] + f * (res.dphi[i][j] - res.dphi[i][j - 1]);
    return out;
}

}  // namespace phlogon::logic
