#include "numeric/fft.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace phlogon::num {

namespace {

bool isPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// Out of line on purpose.  Inlined into transform() beside the O(N^2) DFT,
// GCC builds each butterfly's `u` on the stack from two 8-byte stores and
// reloads it with one 16-byte load; the CPU cannot forward those stores to
// that load, so every butterfly stalls (a 1024-point fft ran about 2x slower).
// The arithmetic and its order are the same either way, so are the bits.
[[gnu::noinline]] void fftRadix2(CVec& a, bool invert) {
    const std::size_t n = a.size();
    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(a[i], a[j]);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) * (invert ? 1.0 : -1.0);
        const Cplx wlen(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            Cplx w(1.0);
            for (std::size_t j = 0; j < len / 2; ++j) {
                const Cplx u = a[i + j];
                const Cplx v = a[i + j + len / 2] * w;
                a[i + j] = u + v;
                a[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (invert) {
        for (Cplx& x : a) x /= static_cast<double>(n);
    }
}

void dftDirect(CVec& a, bool invert) {
    const std::size_t n = a.size();
    CVec out(n);
    const double sign = invert ? 1.0 : -1.0;
    for (std::size_t k = 0; k < n; ++k) {
        Cplx s(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const double ang =
                sign * 2.0 * std::numbers::pi * static_cast<double>(k * i % n) / static_cast<double>(n);
            s += a[i] * Cplx(std::cos(ang), std::sin(ang));
        }
        out[k] = invert ? s / static_cast<double>(n) : s;
    }
    a = std::move(out);
}

void transform(CVec& a, bool invert) {
    if (a.empty()) return;
    if (isPowerOfTwo(a.size()))
        fftRadix2(a, invert);
    else
        dftDirect(a, invert);
}

}  // namespace

void fft(CVec& a) { transform(a, false); }
void ifft(CVec& a) { transform(a, true); }

CVec dftReal(const Vec& x) {
    CVec a(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) a[i] = Cplx(x[i], 0.0);
    fft(a);
    return a;
}

CVec fourierCoefficients(const Vec& samples, std::size_t maxHarm) {
    const std::size_t n = samples.size();
    assert(n > 0);
    CVec spec = dftReal(samples);
    CVec c(std::min(maxHarm, n - 1) + 1);
    for (std::size_t k = 0; k < c.size(); ++k) c[k] = spec[k] / static_cast<double>(n);
    return c;
}

double harmonicMagnitude(const CVec& coeffs, std::size_t k) {
    if (k >= coeffs.size()) return 0.0;
    return (k == 0 ? 1.0 : 2.0) * std::abs(coeffs[k]);
}

Vec cyclicCorrelation(const Vec& a, const Vec& b) {
    assert(a.size() == b.size());
    const std::size_t n = a.size();
    // r[m] = (1/N) sum_i a[(i+m)%N] b[i]  ==  (1/N) IFFT( FFT(a) * conj(FFT(b)) )[m]
    CVec fa(n), fb(n);
    for (std::size_t i = 0; i < n; ++i) {
        fa[i] = Cplx(a[i], 0.0);
        fb[i] = Cplx(b[i], 0.0);
    }
    fft(fa);
    fft(fb);
    for (std::size_t i = 0; i < n; ++i) fa[i] *= std::conj(fb[i]);
    ifft(fa);
    Vec r(n);
    for (std::size_t i = 0; i < n; ++i) r[i] = fa[i].real() / static_cast<double>(n);
    return r;
}

}  // namespace phlogon::num
