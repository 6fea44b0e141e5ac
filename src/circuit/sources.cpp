#include "circuit/sources.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace phlogon::ckt {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

Waveform Waveform::dc(double value) {
    return Waveform([value](double) { return value; }, "dc " + canonNum(value));
}

Waveform Waveform::cosine(double amp, double freqHz, double phaseCycles, double offset) {
    return Waveform([=](double t) { return offset + amp * std::cos(kTwoPi * (freqHz * t - phaseCycles)); },
                    "cos " + canonNum(amp) + " " + canonNum(freqHz) + " " + canonNum(phaseCycles) +
                        " " + canonNum(offset));
}

Waveform Waveform::custom(Fn fn) { return Waveform(std::move(fn)); }

Waveform Waveform::pwl(std::vector<std::pair<double, double>> points) {
    if (points.empty()) throw std::invalid_argument("Waveform::pwl: empty point list");
    std::string desc = "pwl";
    for (const auto& [t, v] : points) desc += " " + canonNum(t) + " " + canonNum(v);
    return Waveform([pts = std::move(points)](double t) {
        if (t <= pts.front().first) return pts.front().second;
        if (t >= pts.back().first) return pts.back().second;
        const auto it = std::upper_bound(pts.begin(), pts.end(), t,
                                         [](double v, const auto& p) { return v < p.first; });
        const auto& hi = *it;
        const auto& lo = *(it - 1);
        const double dt = hi.first - lo.first;
        const double f = dt > 0 ? (t - lo.first) / dt : 0.0;
        return lo.second + f * (hi.second - lo.second);
    }, std::move(desc));
}

CurrentSource::CurrentSource(std::string name, int p, int n, Waveform w)
    : Device(std::move(name)), p_(p), n_(n), w_(std::move(w)) {}

void CurrentSource::eval(double t, const Vec& /*x*/, Stamps& s) const {
    const double i = w_(t);
    s.addF(p_, i);
    s.addF(n_, -i);
}

std::string CurrentSource::canonicalDesc() const {
    if (w_.description().empty()) return {};
    return "I " + name() + " " + std::to_string(p_) + " " + std::to_string(n_) + " " +
           w_.description();
}

VoltageSource::VoltageSource(std::string name, int p, int n, Waveform w)
    : Device(std::move(name)), p_(p), n_(n), w_(std::move(w)) {}

void VoltageSource::eval(double t, const Vec& x, Stamps& s) const {
    const double i = nodeVoltage(x, br_);
    // Branch current flows from p through the source to n.
    s.addF(p_, i);
    s.addF(n_, -i);
    s.addG(p_, br_, 1.0);
    s.addG(n_, br_, -1.0);
    // Branch equation: V(p) - V(n) - Vs(t) = 0.
    s.addF(br_, nodeVoltage(x, p_) - nodeVoltage(x, n_) - w_(t));
    s.addG(br_, p_, 1.0);
    s.addG(br_, n_, -1.0);
}

std::string VoltageSource::canonicalDesc() const {
    if (w_.description().empty()) return {};
    return "V " + name() + " " + std::to_string(p_) + " " + std::to_string(n_) + " " +
           std::to_string(br_) + " " + w_.description();
}

}  // namespace phlogon::ckt
