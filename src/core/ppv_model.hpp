#pragma once
// PpvModel: the phase macromodel of one oscillator.
//
// Bundles everything the phase-domain tools need about an oscillator, on a
// normalized 1-periodic grid (paper eq. 6):
//   * the steady state xs1(theta) = xs(theta * T0)  (voltages/currents),
//   * the PPV v1(theta) = v(theta * T0),
//   * f0/T0, unknown names, the designated output unknown and its
//     peak position dphi_peak (paper Fig. 4, eq. 7).
//
// Built once per oscillator design from the PSS + PPV analyses; consumed by
// the GAE tools (core/gae*.h) and the full-system phase simulator
// (core/phase_system.h).

#include <string>
#include <vector>

#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "numeric/fft.hpp"
#include "numeric/interp.hpp"

namespace phlogon::core {

using num::Vec;

class PpvModel {
public:
    PpvModel() = default;

    /// Assemble from converged PSS and PPV results.  `outputUnknown` is the
    /// index of the observed output (e.g. node n1 of the ring oscillator).
    static PpvModel build(const an::PssResult& pss, const an::PpvResult& ppv,
                          std::size_t outputUnknown, std::vector<std::string> unknownNames);

    bool valid() const { return nUnknowns_ > 0; }
    double f0() const { return f0_; }
    double period() const { return 1.0 / f0_; }
    std::size_t size() const { return nUnknowns_; }
    std::size_t outputUnknown() const { return outputUnknown_; }
    const std::vector<std::string>& unknownNames() const { return names_; }
    /// Index of a named unknown; throws std::out_of_range when absent.
    std::size_t indexOf(const std::string& name) const;

    /// Steady-state value of unknown `idx` at normalized phase theta (cycles).
    double xsAt(std::size_t idx, double theta) const { return xs_[idx](theta); }
    /// PPV component `idx` at normalized phase theta (cycles).
    double ppvAt(std::size_t idx, double theta) const { return ppv_[idx](theta); }

    /// Batched form: out[i] = ppvAt(idx, theta[i]) over contiguous lanes,
    /// one table pass per call on the process-wide SIMD tier and bitwise
    /// identical to n scalar calls (PeriodicCubicSpline::evalMany).
    void ppvMany(std::size_t idx, const double* theta, double* out, std::size_t n) const {
        ppv_[idx].evalMany(theta, out, n);
    }

    /// Uniform samples (as extracted) of one component.
    const Vec& xsSamples(std::size_t idx) const { return xsSamples_[idx]; }
    const Vec& ppvSamples(std::size_t idx) const { return ppvSamples_[idx]; }
    std::size_t sampleCount() const { return xsSamples_.empty() ? 0 : xsSamples_[0].size(); }

    /// Peak position of the output's FUNDAMENTAL within the normalized cycle
    /// (the paper's dphi_peak; using the fundamental rather than the raw
    /// waveform maximum makes the phase-logic references exact for
    /// non-sinusoidal oscillator outputs).
    double dphiPeak() const { return dphiPeak_; }
    /// Peak position of the raw waveform (differs from dphiPeak when the
    /// output has strong harmonics; what an oscilloscope cursor would show).
    double waveformPeak() const { return wavePeak_; }
    /// DC level and fundamental amplitude of the output (signal
    /// normalization).
    double outputMean() const { return outMean_; }
    double outputAmplitude() const { return outAmp_; }

    /// Magnitude of harmonic k of PPV component `idx` (Fig. 6's comparison of
    /// 2nd-harmonic content uses this).
    double ppvHarmonic(std::size_t idx, std::size_t k) const;

    /// Quality metrics forwarded from extraction.
    double normalizationSpread() const { return normSpread_; }

private:
    std::size_t nUnknowns_ = 0;
    std::size_t outputUnknown_ = 0;
    double f0_ = 0.0;
    double dphiPeak_ = 0.0;
    double wavePeak_ = 0.0;
    double outMean_ = 0.0;
    double outAmp_ = 0.0;
    double normSpread_ = 0.0;
    std::vector<std::string> names_;
    std::vector<Vec> xsSamples_;   // per unknown
    std::vector<Vec> ppvSamples_;  // per unknown
    std::vector<num::PeriodicCubicSpline> xs_;
    std::vector<num::PeriodicCubicSpline> ppv_;
};

}  // namespace phlogon::core
