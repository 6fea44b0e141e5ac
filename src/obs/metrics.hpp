#pragma once
// Process-wide metrics registry: named counters, gauges and wall-time
// histograms, aggregated across every thread and analysis in the process.
//
// This is the "where did the whole run go" companion to the per-result
// num::SolverCounters: each analysis still returns its own counters, but
// the registry accumulates the process totals — cache hits/misses, thread
// pool utilization, LU factor/solve counts, Newton iterations, checkpoint
// writes — so the end-of-run report (obs/report.hpp) can print one table
// covering every layer.
//
// Hot-path discipline mirrors trace.hpp:
//
//   * disabled (PHLOGON_METRICS unset): metricsEnabled() is one relaxed
//     atomic load + branch; no counter is touched;
//   * enabled: updates are relaxed atomic RMWs on cache-line-sized objects
//     owned by the registry; instrumented sites cache the metric reference
//     in a function-local static so the name lookup (mutex + map) happens
//     once per site, not per event;
//   * collection never feeds back into the computation, so enabling
//     metrics cannot perturb deterministic results (asserted by
//     tests/numeric/test_parallel.cpp and tests/obs/test_metrics.cpp).
//
// Naming: dot-separated "<layer>.<metric>", e.g. "cache.hits",
// "newton.iters", "pool.tasks", "checkpoint.writes" (DESIGN.md §12).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "numeric/counters.hpp"

namespace phlogon::obs {

#ifdef PHLOGON_NO_OBS

inline constexpr bool metricsEnabled() { return false; }
inline void setMetricsEnabled(bool) {}

#else

namespace detail {
/// -1 = not yet initialized from PHLOGON_METRICS, 0 = off, 1 = on.
extern std::atomic<int> metricsMode;
bool metricsInitSlow();
}  // namespace detail

/// Fast-path gate: one relaxed load + branch once initialized.
inline bool metricsEnabled() {
    const int m = detail::metricsMode.load(std::memory_order_relaxed);
    if (m >= 0) return m != 0;
    return detail::metricsInitSlow();
}

/// Programmatic override (tests, tools).  Wins over the environment.
void setMetricsEnabled(bool on);

#endif  // PHLOGON_NO_OBS

/// Monotonic event counter.
class Counter {
public:
    void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous level with a high-water mark (e.g. queue depth).
class Gauge {
public:
    void set(std::int64_t v) {
        v_.store(v, std::memory_order_relaxed);
        updateMax(v);
    }
    void add(std::int64_t d) { updateMax(v_.fetch_add(d, std::memory_order_relaxed) + d); }
    std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
    std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
    void reset() {
        v_.store(0, std::memory_order_relaxed);
        max_.store(0, std::memory_order_relaxed);
    }

private:
    void updateMax(std::int64_t v) {
        std::int64_t cur = max_.load(std::memory_order_relaxed);
        while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    std::atomic<std::int64_t> v_{0};
    std::atomic<std::int64_t> max_{0};
};

/// Wall-time histogram with power-of-two nanosecond bins: bin k counts
/// observations with floor(log2(ns)) == k, so the full range [1 ns, ~9 s+]
/// fits in 64 fixed bins with no configuration.
class Histogram {
public:
    static constexpr int kBins = 64;

    void observe(double seconds);
    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double totalSeconds() const {
        return static_cast<double>(sumNs_.load(std::memory_order_relaxed)) / 1e9;
    }
    double minSeconds() const;
    double maxSeconds() const;
    /// Approximate quantile (0..1): the midpoint of its log2 bin, clamped
    /// to the observed [min, max].
    double quantileSeconds(double q) const;
    std::uint64_t binCount(int k) const { return bins_[k].load(std::memory_order_relaxed); }
    void reset();

private:
    std::atomic<std::uint64_t> bins_[kBins] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sumNs_{0};
    std::atomic<std::uint64_t> minNs_{UINT64_MAX};
    std::atomic<std::uint64_t> maxNs_{0};
};

/// Sliding-window latency histogram: a ring of fixed-interval buckets, each
/// a full 64-bin log2-ns histogram.  stats() merges the buckets covering the
/// trailing window (default 16 × 4 s ≈ 64 s), so p50/p95/p99 answer "how is
/// the service doing *now*", not "since boot" — the lifetime Histogram above
/// stays as the forever-aggregate.  Buckets rotate lazily on observe/stats;
/// an idle histogram costs nothing.  All methods are thread-safe (one mutex:
/// this is a per-job-type service-rate object, not a solver-inner-loop one).
class WindowedHistogram {
public:
    explicit WindowedHistogram(std::int64_t bucketNs = 4'000'000'000,
                               int buckets = 16);

    void observe(double seconds);
    /// Deterministic-clock variant for tests: `nowNs` supplies the rotation
    /// clock (monotonic; out-of-order observations older than the current
    /// bucket are dropped).
    void observeAt(double seconds, std::int64_t nowNs);

    struct Stats {
        std::uint64_t count = 0;     ///< observations inside the window
        double windowSeconds = 0.0;  ///< nominal window span
        double ratePerSec = 0.0;     ///< count / windowSeconds
        double p50Seconds = 0.0;
        double p95Seconds = 0.0;
        double p99Seconds = 0.0;
        double maxSeconds = 0.0;
        double totalSeconds = 0.0;   ///< sum of observed durations
    };
    Stats stats() const;
    Stats statsAt(std::int64_t nowNs) const;

    void reset();

private:
    struct Slot {
        std::int64_t bucket = -1;  ///< absolute bucket index, -1 = empty
        std::uint64_t bins[Histogram::kBins] = {};
        std::uint64_t count = 0;
        std::uint64_t sumNs = 0;
        std::uint64_t minNs = UINT64_MAX;
        std::uint64_t maxNs = 0;
    };
    void rotateLocked(std::int64_t bucket);

    std::int64_t bucketNs_;
    int nSlots_;
    mutable std::mutex mx_;
    std::vector<Slot> slots_;
    std::int64_t latestBucket_ = -1;
};

/// Point-in-time copy of the registry, for reports and tests.
struct MetricsSnapshot {
    struct CounterValue {
        std::string name;
        std::uint64_t value = 0;
    };
    struct GaugeValue {
        std::string name;
        std::int64_t value = 0;
        std::int64_t max = 0;
    };
    struct HistogramValue {
        std::string name;
        std::uint64_t count = 0;
        double totalSeconds = 0.0;
        double minSeconds = 0.0;
        double maxSeconds = 0.0;
        double p50Seconds = 0.0;
        double p95Seconds = 0.0;
    };
    std::vector<CounterValue> counters;    ///< sorted by name
    std::vector<GaugeValue> gauges;        ///< sorted by name
    std::vector<HistogramValue> histograms;  ///< sorted by name
};

/// Name -> metric registry.  Lookup is mutex-guarded; returned references
/// are stable for the life of the process (node-based storage), so hot
/// sites cache them in function-local statics.
class MetricsRegistry {
public:
    static MetricsRegistry& instance();

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    MetricsSnapshot snapshot() const;
    /// Zero every registered metric (tests; names stay registered).
    void reset();

private:
    MetricsRegistry();
    struct Impl;
    Impl* impl_;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot.  Metric names
/// are prefixed "phlogon_" with dots mapped to underscores; histograms emit
/// _count/_sum plus {quantile="..."} sample lines.
std::string prometheusText(const MetricsSnapshot& s);

/// Fold one analysis's SolverCounters into the global solver metrics
/// ("newton.iters", "lu.factorizations", ... plus the per-analysis wall-time
/// histogram "analysis.<name>.wall").  No-op when metrics are disabled.
void recordSolverCounters(const char* analysis, const num::SolverCounters& c);

}  // namespace phlogon::obs

// Bump a named counter by `n`, caching the Counter reference in a
// function-local static so the registry lookup happens once per site; the
// steady-state cost is one relaxed load + branch (+ fetch_add when enabled).
// `name` must be the same string on every execution of the site.
#ifdef PHLOGON_NO_OBS
#define PHLOGON_COUNT_METRIC(name) ((void)0)
#define PHLOGON_ADD_METRIC(name, n) ((void)0)
#else
#define PHLOGON_ADD_METRIC(name, n)                                          \
    do {                                                                     \
        if (::phlogon::obs::metricsEnabled()) {                              \
            static ::phlogon::obs::Counter& phlogonCounter_ =                \
                ::phlogon::obs::MetricsRegistry::instance().counter(name);   \
            phlogonCounter_.add(n);                                          \
        }                                                                    \
    } while (0)
#define PHLOGON_COUNT_METRIC(name) PHLOGON_ADD_METRIC(name, 1)
#endif  // PHLOGON_NO_OBS
