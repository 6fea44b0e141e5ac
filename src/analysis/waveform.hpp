#pragma once
// Waveform post-processing: rising crossings, period/frequency estimation
// and the peak position of a periodic waveform — the "oscilloscope"
// measurements of the paper's validation section (Sec. 5).

#include <optional>
#include <vector>

#include "numeric/matrix.hpp"

namespace phlogon::an {

using num::Vec;

/// Times where x(t) crosses `level` with positive slope, linearly
/// interpolated between samples.
Vec risingCrossings(const Vec& t, const Vec& x, double level);

struct PeriodEstimate {
    bool ok = false;
    double period = 0.0;
    double frequency = 0.0;
    double jitter = 0.0;  ///< max deviation of individual periods from the mean
    std::size_t cyclesUsed = 0;
};

/// Estimate the oscillation period from the last `maxCycles` rising
/// crossings of x(t) through `level`.
PeriodEstimate estimatePeriod(const Vec& t, const Vec& x, double level,
                              std::size_t maxCycles = 10);

/// Position (in fraction of the record, [0,1)) of the maximum of a sampled
/// periodic waveform, refined by parabolic interpolation through the peak;
/// used for the paper's Δφ_peak (Fig. 4, eq. 6-7).
double peakPosition(const Vec& samples);

/// Mean and peak-to-peak helpers.
double mean(const Vec& x);
double peakToPeak(const Vec& x);

}  // namespace phlogon::an
