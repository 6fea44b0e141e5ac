#include "core/ppv_model.hpp"

#include <stdexcept>
#include <complex>
#include <numbers>

#include "analysis/waveform.hpp"
#include "numeric/interp.hpp"

namespace phlogon::core {

PpvModel PpvModel::build(const an::PssResult& pss, const an::PpvResult& ppv,
                         std::size_t outputUnknown, std::vector<std::string> unknownNames) {
    if (!pss.ok || !ppv.ok) throw std::invalid_argument("PpvModel::build: analyses not converged");
    if (pss.xs.empty() || ppv.v.empty())
        throw std::invalid_argument("PpvModel::build: empty sample sets");
    const std::size_t n = pss.xs.front().size();
    if (outputUnknown >= n) throw std::invalid_argument("PpvModel::build: bad output index");

    PpvModel m;
    m.nUnknowns_ = n;
    m.outputUnknown_ = outputUnknown;
    m.f0_ = pss.f0;
    m.names_ = std::move(unknownNames);
    m.normSpread_ = ppv.normalizationSpread;

    const std::size_t ns = pss.xs.size();
    const std::size_t np = ppv.v.size();
    m.xsSamples_.assign(n, Vec());
    m.ppvSamples_.assign(n, Vec());
    for (std::size_t i = 0; i < n; ++i) {
        Vec xsCol(ns), vCol(np);
        for (std::size_t k = 0; k < ns; ++k) xsCol[k] = pss.xs[k][i];
        for (std::size_t k = 0; k < np; ++k) vCol[k] = ppv.v[k][i];
        m.xs_.emplace_back(xsCol);
        m.ppv_.emplace_back(vCol);
        m.xsSamples_[i] = std::move(xsCol);
        m.ppvSamples_[i] = std::move(vCol);
    }

    const Vec& out = m.xsSamples_[outputUnknown];
    m.wavePeak_ = an::peakPosition(out);
    m.outMean_ = an::mean(out);
    // Fundamental: xs(theta) ~ mean + 2|c1| cos(2 pi theta + arg c1), peaking
    // at theta = -arg(c1)/(2 pi).
    const num::CVec c = num::fourierCoefficients(out, 1);
    m.outAmp_ = num::harmonicMagnitude(c, 1);
    m.dphiPeak_ = num::wrap01(-std::arg(c[1]) / (2.0 * std::numbers::pi));
    return m;
}

std::size_t PpvModel::indexOf(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name) return i;
    throw std::out_of_range("PpvModel: unknown name '" + name + "'");
}

double PpvModel::ppvHarmonic(std::size_t idx, std::size_t k) const {
    const num::CVec c = num::fourierCoefficients(ppvSamples_[idx], k);
    return num::harmonicMagnitude(c, k);
}

}  // namespace phlogon::core
