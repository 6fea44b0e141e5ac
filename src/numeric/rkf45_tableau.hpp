#pragma once
// Cash-Karp RKF45 tableau, shared by the scalar batch integrator
// (numeric/batch_ode.cpp), the vectorized stage kernels (numeric/simd/) and
// the reference integrator of tests/common/ode_oracle.hpp.  The batch
// integrator and the kernels must combine these constants with the SAME
// IEEE operation order — the per-lane arithmetic is an exact mirror of the
// reference rkf45 on a 1-dimensional state (batch_ode.hpp contract), and
// the SIMD tier must be bitwise-identical to the scalar tier (DESIGN.md §18).

namespace phlogon::num::cashkarp {

inline constexpr double A2 = 1.0 / 5.0;
inline constexpr double B21 = 1.0 / 5.0;
inline constexpr double A3 = 3.0 / 10.0, B31 = 3.0 / 40.0, B32 = 9.0 / 40.0;
inline constexpr double A4 = 3.0 / 5.0, B41 = 3.0 / 10.0, B42 = -9.0 / 10.0, B43 = 6.0 / 5.0;
inline constexpr double A5 = 1.0, B51 = -11.0 / 54.0, B52 = 5.0 / 2.0, B53 = -70.0 / 27.0,
                        B54 = 35.0 / 27.0;
inline constexpr double A6 = 7.0 / 8.0, B61 = 1631.0 / 55296.0, B62 = 175.0 / 512.0,
                        B63 = 575.0 / 13824.0, B64 = 44275.0 / 110592.0, B65 = 253.0 / 4096.0;
inline constexpr double C1 = 37.0 / 378.0, C3 = 250.0 / 621.0, C4 = 125.0 / 594.0,
                        C6 = 512.0 / 1771.0;
inline constexpr double D1 = 2825.0 / 27648.0, D3 = 18575.0 / 48384.0, D4 = 13525.0 / 55296.0,
                        D5 = 277.0 / 14336.0, D6 = 1.0 / 4.0;

}  // namespace phlogon::num::cashkarp
