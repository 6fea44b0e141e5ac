#pragma once
// Perturbation Projection Vector (PPV) extraction.
//
// The PPV v(t) is the T0-periodic solution of the adjoint of the linearized
// oscillator DAE,
//
//     C^T(t) dv/dt = G^T(t) v(t),
//
// normalized so that v(t)^T C(t) d(xs)/dt == 1 for all t.  It captures the
// oscillator's phase sensitivity to small injected currents (paper eq. 3):
// with b(t) the vector of currents injected INTO circuit nodes,
//
//     d(alpha)/dt = v^T(t + alpha) b(t).
//
// Two extraction methods are provided, mirroring the paper's references:
//  * time domain (Demir-Roychowdhury 2003): backward power iteration on the
//    discrete adjoint of the trapezoidal linearization along the PSS cycle —
//    the only Floquet mode that survives backward iteration is the
//    multiplier-1 (phase) mode, i.e. the PPV;
//  * frequency domain (PPV-HB, Mei-Roychowdhury 2006, realized here as
//    Fourier spectral collocation): the PPV is the null vector of the
//    adjoint operator discretized with a spectral differentiation matrix.
//
// Both return the PPV on 256 uniform samples over one period.  The time
// domain iterates at most 80 backward sweeps, until consecutive directions
// agree to 1e-10; the frequency domain collocates on 64 points (its
// operator is dense, (n*64)^2).

#include "analysis/pss.hpp"
#include "circuit/dae.hpp"

namespace phlogon::an {

struct PpvResult {
    bool ok = false;
    std::string message;
    double period = 0.0;
    double f0 = 0.0;
    /// Uniform samples over one period: v[k] is the PPV vector at
    /// t = k * period / v.size() (same time origin as the PssResult).
    std::vector<num::Vec> v;
    /// Floquet-multiplier estimate of the extracted mode (should be ~1).
    double floquetMu = 0.0;
    /// Max relative deviation of the normalization invariant v^T C xs' from
    /// 1 across the cycle; a quality metric (small = trustworthy PPV).
    double normalizationSpread = 0.0;
    int sweepsUsed = 0;

    /// Time series of PPV component `idx`.
    num::Vec component(std::size_t idx) const;
};

/// Time-domain extraction along the fine grid of a converged PSS solution.
PpvResult extractPpvTimeDomain(const ckt::Dae& dae, const PssResult& pss);

/// Frequency-domain (spectral collocation) extraction.
PpvResult extractPpvFrequencyDomain(const ckt::Dae& dae, const PssResult& pss);

}  // namespace phlogon::an
