#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace phlogon::obs {

#ifndef PHLOGON_NO_OBS
namespace detail {

std::atomic<int> metricsMode{-1};

bool metricsInitSlow() {
    const char* v = std::getenv("PHLOGON_METRICS");
    const int on = (v && *v && std::string(v) != "0") ? 1 : 0;
    int expected = -1;
    metricsMode.compare_exchange_strong(expected, on, std::memory_order_relaxed);
    return metricsMode.load(std::memory_order_relaxed) != 0;
}

}  // namespace detail

void setMetricsEnabled(bool on) {
    detail::metricsMode.store(on ? 1 : 0, std::memory_order_relaxed);
}
#endif  // PHLOGON_NO_OBS

// ---- Histogram ------------------------------------------------------------

namespace {

int binForNs(std::uint64_t ns) {
    if (ns == 0) return 0;
    return std::min<int>(Histogram::kBins - 1, std::bit_width(ns) - 1);
}

void atomicMin(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void atomicMax(std::atomic<std::uint64_t>& a, std::uint64_t v) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/// Quantile q (0..1) of `n` observations in log2-ns bins (`binCount(k)`):
/// the geometric midpoint of the [2^k, 2^(k+1)) ns bin that holds it,
/// clamped to the observed [minSeconds, maxSeconds].  Both histograms
/// answer their quantiles here.
template <class BinCount>
double binnedQuantile(double q, std::uint64_t n, double minSeconds, double maxSeconds,
                      BinCount binCount) {
    const double target = q * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (int k = 0; k < Histogram::kBins; ++k) {
        seen += binCount(k);
        if (static_cast<double>(seen) >= target) {
            const double mid = std::exp2(static_cast<double>(k) + 0.5) / 1e9;
            return std::min(std::max(mid, minSeconds), maxSeconds);
        }
    }
    return maxSeconds;
}

}  // namespace

void Histogram::observe(double seconds) {
    if (!(seconds >= 0.0)) return;
    const std::uint64_t ns = static_cast<std::uint64_t>(seconds * 1e9);
    bins_[binForNs(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumNs_.fetch_add(ns, std::memory_order_relaxed);
    atomicMin(minNs_, ns);
    atomicMax(maxNs_, ns);
}

double Histogram::minSeconds() const {
    const std::uint64_t v = minNs_.load(std::memory_order_relaxed);
    return v == UINT64_MAX ? 0.0 : static_cast<double>(v) / 1e9;
}

double Histogram::maxSeconds() const {
    return static_cast<double>(maxNs_.load(std::memory_order_relaxed)) / 1e9;
}

double Histogram::quantileSeconds(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    return binnedQuantile(q, n, minSeconds(), maxSeconds(), [this](int k) { return binCount(k); });
}

void Histogram::reset() {
    for (auto& b : bins_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumNs_.store(0, std::memory_order_relaxed);
    minNs_.store(UINT64_MAX, std::memory_order_relaxed);
    maxNs_.store(0, std::memory_order_relaxed);
}

// ---- WindowedHistogram ----------------------------------------------------

namespace {

std::int64_t steadyNowNsMetrics() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

WindowedHistogram::WindowedHistogram(std::int64_t bucketNs, int buckets)
    : bucketNs_(bucketNs > 0 ? bucketNs : 1), nSlots_(buckets > 0 ? buckets : 1) {
    slots_.resize(static_cast<std::size_t>(nSlots_));
}

void WindowedHistogram::rotateLocked(std::int64_t bucket) {
    Slot& slot = slots_[static_cast<std::size_t>(bucket % nSlots_)];
    if (slot.bucket != bucket) slot = Slot{};
    slot.bucket = bucket;
    if (bucket > latestBucket_) latestBucket_ = bucket;
}

void WindowedHistogram::observe(double seconds) { observeAt(seconds, steadyNowNsMetrics()); }

void WindowedHistogram::observeAt(double seconds, std::int64_t nowNs) {
    if (!(seconds >= 0.0)) return;
    const std::uint64_t ns = static_cast<std::uint64_t>(seconds * 1e9);
    const std::int64_t bucket = nowNs / bucketNs_;
    std::lock_guard<std::mutex> lk(mx_);
    // Observations behind the trailing window edge would land in a slot the
    // ring has already reused; drop them rather than corrupt a newer bucket.
    if (bucket <= latestBucket_ - nSlots_) return;
    rotateLocked(bucket);
    Slot& slot = slots_[static_cast<std::size_t>(bucket % nSlots_)];
    slot.bins[binForNs(ns)] += 1;
    slot.count += 1;
    slot.sumNs += ns;
    slot.minNs = std::min(slot.minNs, ns);
    slot.maxNs = std::max(slot.maxNs, ns);
}

WindowedHistogram::Stats WindowedHistogram::stats() const {
    return statsAt(steadyNowNsMetrics());
}

WindowedHistogram::Stats WindowedHistogram::statsAt(std::int64_t nowNs) const {
    Stats out;
    out.windowSeconds =
        static_cast<double>(bucketNs_) * static_cast<double>(nSlots_) / 1e9;
    const std::int64_t cur = nowNs / bucketNs_;
    std::uint64_t bins[Histogram::kBins] = {};
    std::uint64_t sumNs = 0;
    std::uint64_t minNs = UINT64_MAX;
    std::uint64_t maxNs = 0;
    {
        std::lock_guard<std::mutex> lk(mx_);
        for (const Slot& slot : slots_) {
            if (slot.bucket < 0) continue;
            if (slot.bucket <= cur - nSlots_ || slot.bucket > cur) continue;
            for (int k = 0; k < Histogram::kBins; ++k) bins[k] += slot.bins[k];
            out.count += slot.count;
            sumNs += slot.sumNs;
            minNs = std::min(minNs, slot.minNs);
            maxNs = std::max(maxNs, slot.maxNs);
        }
    }
    if (out.count == 0) return out;
    out.ratePerSec = static_cast<double>(out.count) / out.windowSeconds;
    out.totalSeconds = static_cast<double>(sumNs) / 1e9;
    out.maxSeconds = static_cast<double>(maxNs) / 1e9;
    const double minSeconds = static_cast<double>(minNs) / 1e9;
    const auto quantile = [&](double q) {
        return binnedQuantile(q, out.count, minSeconds, out.maxSeconds,
                              [&bins](int k) { return bins[k]; });
    };
    out.p50Seconds = quantile(0.50);
    out.p95Seconds = quantile(0.95);
    out.p99Seconds = quantile(0.99);
    return out;
}

void WindowedHistogram::reset() {
    std::lock_guard<std::mutex> lk(mx_);
    for (Slot& s : slots_) s = Slot{};
    latestBucket_ = -1;
}

// ---- Prometheus exposition ------------------------------------------------

namespace {

std::string promName(const std::string& name) {
    std::string out = "phlogon_";
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

void appendSample(std::string& out, const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += name;
    out += ' ';
    out += buf;
    out += '\n';
}

}  // namespace

std::string prometheusText(const MetricsSnapshot& s) {
    std::string out;
    for (const auto& c : s.counters) {
        const std::string n = promName(c.name);
        out += "# TYPE " + n + " counter\n";
        appendSample(out, n, static_cast<double>(c.value));
    }
    for (const auto& g : s.gauges) {
        const std::string n = promName(g.name);
        out += "# TYPE " + n + " gauge\n";
        appendSample(out, n, static_cast<double>(g.value));
        appendSample(out, n + "_max", static_cast<double>(g.max));
    }
    for (const auto& h : s.histograms) {
        const std::string n = promName(h.name) + "_seconds";
        out += "# TYPE " + n + " summary\n";
        appendSample(out, n + "{quantile=\"0.5\"}", h.p50Seconds);
        appendSample(out, n + "{quantile=\"0.95\"}", h.p95Seconds);
        appendSample(out, n + "_sum", h.totalSeconds);
        appendSample(out, n + "_count", static_cast<double>(h.count));
    }
    return out;
}

// ---- MetricsRegistry ------------------------------------------------------

struct MetricsRegistry::Impl {
    mutable std::mutex mx;
    // std::map: node-based, so references stay valid as the maps grow.
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::instance() {
    // Leaked on purpose (same reason as the Tracer): instrumented sites may
    // fire from worker threads during static destruction.
    static MetricsRegistry* r = new MetricsRegistry();
    return *r;
}

Counter& MetricsRegistry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mx);
    return impl_->counters[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mx);
    return impl_->gauges[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    std::lock_guard<std::mutex> lk(impl_->mx);
    return impl_->histograms[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot s;
    std::lock_guard<std::mutex> lk(impl_->mx);
    for (const auto& [name, c] : impl_->counters)
        s.counters.push_back({name, c.value()});
    for (const auto& [name, g] : impl_->gauges)
        s.gauges.push_back({name, g.value(), g.max()});
    for (const auto& [name, h] : impl_->histograms) {
        MetricsSnapshot::HistogramValue v;
        v.name = name;
        v.count = h.count();
        v.totalSeconds = h.totalSeconds();
        v.minSeconds = h.minSeconds();
        v.maxSeconds = h.maxSeconds();
        v.p50Seconds = h.quantileSeconds(0.5);
        v.p95Seconds = h.quantileSeconds(0.95);
        s.histograms.push_back(std::move(v));
    }
    return s;
}

void MetricsRegistry::reset() {
    std::lock_guard<std::mutex> lk(impl_->mx);
    for (auto& [name, c] : impl_->counters) c.reset();
    for (auto& [name, g] : impl_->gauges) g.reset();
    for (auto& [name, h] : impl_->histograms) h.reset();
}

void recordSolverCounters(const char* analysis, const num::SolverCounters& c) {
    if (!metricsEnabled()) return;
    MetricsRegistry& r = MetricsRegistry::instance();
    // Once-per-analysis-run, so the name lookups are off the hot path.
    r.counter("newton.rhsEvals").add(c.rhsEvals);
    r.counter("newton.jacEvals").add(c.jacEvals);
    r.counter("newton.iters").add(c.newtonIters);
    r.counter("newton.dampingEvents").add(c.dampingEvents);
    r.counter("lu.factorizations").add(c.luFactorizations);
    if (c.sparseFactorizations > 0 || c.sparseRefactors > 0) {
        r.counter("sparse.fullFactorizations").add(c.sparseFactorizations);
        r.counter("sparse.refactors").add(c.sparseRefactors);
        // Structure gauges (pattern nnz, L+U fill): histograms, because a
        // monotone counter cannot represent a per-run high-water mark.
        r.histogram("sparse.jacobianNnz").observe(static_cast<double>(c.jacobianNnz));
        r.histogram("sparse.factorNnz").observe(static_cast<double>(c.factorNnz));
    }
    r.counter("steps.accepted").add(c.steps);
    r.counter("steps.rejected").add(c.rejectedSteps);
    r.counter(std::string("analysis.") + analysis + ".runs").add(1);
    r.histogram(std::string("analysis.") + analysis + ".wall").observe(c.wallSeconds);
}

}  // namespace phlogon::obs
