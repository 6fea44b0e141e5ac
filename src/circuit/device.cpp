#include "circuit/device.hpp"

#include <stdexcept>

namespace phlogon::ckt {

Resistor::Resistor(std::string name, int a, int b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), r_(ohms), g_(1.0 / ohms) {
    if (!(ohms > 0)) throw std::invalid_argument("Resistor: non-positive resistance");
}

void Resistor::eval(double /*t*/, const Vec& x, Stamps& s) const {
    const double v = nodeVoltage(x, a_) - nodeVoltage(x, b_);
    const double i = g_ * v;
    s.addF(a_, i);
    s.addF(b_, -i);
    s.addG(a_, a_, g_);
    s.addG(a_, b_, -g_);
    s.addG(b_, a_, -g_);
    s.addG(b_, b_, g_);
}

std::string Resistor::canonicalDesc() const {
    return "R " + name() + " " + std::to_string(a_) + " " + std::to_string(b_) + " " +
           canonNum(r_);
}

Capacitor::Capacitor(std::string name, int a, int b, double farads)
    : Device(std::move(name)), a_(a), b_(b), c_(farads) {
    if (!(farads > 0)) throw std::invalid_argument("Capacitor: non-positive capacitance");
}

void Capacitor::eval(double /*t*/, const Vec& x, Stamps& s) const {
    const double v = nodeVoltage(x, a_) - nodeVoltage(x, b_);
    const double q = c_ * v;
    s.addQ(a_, q);
    s.addQ(b_, -q);
    s.addC(a_, a_, c_);
    s.addC(a_, b_, -c_);
    s.addC(b_, a_, -c_);
    s.addC(b_, b_, c_);
}

std::string Capacitor::canonicalDesc() const {
    return "C " + name() + " " + std::to_string(a_) + " " + std::to_string(b_) + " " +
           canonNum(c_);
}

Inductor::Inductor(std::string name, int a, int b, double henries)
    : Device(std::move(name)), a_(a), b_(b), l_(henries) {
    if (!(henries > 0)) throw std::invalid_argument("Inductor: non-positive inductance");
}

void Inductor::eval(double /*t*/, const Vec& x, Stamps& s) const {
    const double i = nodeVoltage(x, br_);
    // Branch current leaves node a and re-enters at b.
    s.addF(a_, i);
    s.addF(b_, -i);
    s.addG(a_, br_, 1.0);
    s.addG(b_, br_, -1.0);
    // Flux equation: d/dt(L i) - (V(a) - V(b)) = 0.
    s.addQ(br_, l_ * i);
    s.addC(br_, br_, l_);
    s.addF(br_, -(nodeVoltage(x, a_) - nodeVoltage(x, b_)));
    s.addG(br_, a_, -1.0);
    s.addG(br_, b_, 1.0);
}

std::string Inductor::canonicalDesc() const {
    return "L " + name() + " " + std::to_string(a_) + " " + std::to_string(b_) + " " +
           std::to_string(br_) + " " + canonNum(l_);
}

NonlinearConductance::NonlinearConductance(std::string name, int a, int b, Vec coeffs)
    : Device(std::move(name)), a_(a), b_(b), coeffs_(std::move(coeffs)) {
    if (coeffs_.empty())
        throw std::invalid_argument("NonlinearConductance: empty coefficient list");
}

void NonlinearConductance::eval(double /*t*/, const Vec& x, Stamps& s) const {
    const double v = nodeVoltage(x, a_) - nodeVoltage(x, b_);
    double i = 0.0, di = 0.0, vk = v, dvk = 1.0;
    for (std::size_t k = 0; k < coeffs_.size(); ++k) {
        i += coeffs_[k] * vk;
        di += coeffs_[k] * static_cast<double>(k + 1) * dvk;
        dvk = vk;
        vk *= v;
    }
    s.addF(a_, i);
    s.addF(b_, -i);
    s.addG(a_, a_, di);
    s.addG(a_, b_, -di);
    s.addG(b_, a_, -di);
    s.addG(b_, b_, di);
}

std::string NonlinearConductance::canonicalDesc() const {
    std::string s = "GNL " + name() + " " + std::to_string(a_) + " " + std::to_string(b_);
    for (double c : coeffs_) s += " " + canonNum(c);
    return s;
}

TimeSwitch::TimeSwitch(std::string name, int a, int b, ControlFn on, double ron, double roff)
    : Device(std::move(name)), a_(a), b_(b), on_(std::move(on)), ron_(ron), roff_(roff) {
    if (!(ron > 0) || !(roff > 0)) throw std::invalid_argument("TimeSwitch: non-positive R");
}

void TimeSwitch::eval(double t, const Vec& x, Stamps& s) const {
    const double g = 1.0 / (on_(t) ? ron_ : roff_);
    const double v = nodeVoltage(x, a_) - nodeVoltage(x, b_);
    const double i = g * v;
    s.addF(a_, i);
    s.addF(b_, -i);
    s.addG(a_, a_, g);
    s.addG(a_, b_, -g);
    s.addG(b_, a_, -g);
    s.addG(b_, b_, g);
}

}  // namespace phlogon::ckt
