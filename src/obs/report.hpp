#pragma once
// End-of-run structured report: one table covering every instrumented layer
// (solver, cache, thread pool, checkpoints) plus tracing status, printable
// as aligned text; metricsJson() is the one JSON form of its metrics.
//
// Examples call maybePrintRunReport(stdout) as their last act: it prints
// only when PHLOGON_METRICS=1 (or setMetricsEnabled(true)), so default
// output is unchanged.

#include <cstdio>
#include <string>

#include "io/json.hpp"
#include "obs/metrics.hpp"

namespace phlogon::obs {

struct RunReport {
    MetricsSnapshot metrics;
    bool traceActive = false;
    std::string tracePath;
    std::size_t traceEvents = 0;
    std::size_t traceDropped = 0;

    /// Snapshot the registry and tracer now.
    static RunReport collect();

    /// Aligned human-readable table (counters, gauges with high-water marks,
    /// histograms with count/total/p50/p95).
    std::string toText() const;
};

/// JSON object of a snapshot:
///   {"counters": {name: value},
///    "gauges": {name: {"value", "max"}},
///    "histograms": {name: {"count", "totalSeconds", "minSeconds",
///                          "maxSeconds", "p50Seconds", "p95Seconds"}}}
io::json::Value metricsJson(const MetricsSnapshot& s);

/// Print RunReport::toText() to `out` when metrics are enabled; no-op (and
/// no output) otherwise.  Returns true when a report was printed.
bool maybePrintRunReport(std::FILE* out);

}  // namespace phlogon::obs
