#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/trace.hpp"

namespace phlogon::obs {

namespace {

std::string fmtSeconds(double s) {
    char buf[48];
    if (s >= 1.0)
        std::snprintf(buf, sizeof buf, "%.3fs", s);
    else if (s >= 1e-3)
        std::snprintf(buf, sizeof buf, "%.3fms", s * 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.1fus", s * 1e6);
    return buf;
}

}  // namespace

RunReport RunReport::collect() {
    RunReport r;
    r.metrics = MetricsRegistry::instance().snapshot();
#ifndef PHLOGON_NO_OBS
    r.traceActive = traceEnabled();
    Tracer& t = Tracer::instance();
    r.tracePath = t.path();
    r.traceEvents = t.eventCount();
    r.traceDropped = t.droppedCount();
#endif
    return r;
}

std::string RunReport::toText() const {
    std::string out;
    char line[256];
    out += "== run report ==\n";
    if (traceActive) {
        std::snprintf(line, sizeof line, "trace: %s (%zu events, %zu dropped)\n",
                      tracePath.c_str(), traceEvents, traceDropped);
        out += line;
    }
    std::size_t width = 24;
    for (const auto& c : metrics.counters) width = std::max(width, c.name.size());
    for (const auto& g : metrics.gauges) width = std::max(width, g.name.size());
    for (const auto& h : metrics.histograms) width = std::max(width, h.name.size());
    const int w = static_cast<int>(width);

    if (!metrics.counters.empty()) out += "counters:\n";
    for (const auto& c : metrics.counters) {
        std::snprintf(line, sizeof line, "  %-*s %12llu\n", w, c.name.c_str(),
                      static_cast<unsigned long long>(c.value));
        out += line;
    }
    if (!metrics.gauges.empty()) out += "gauges:\n";
    for (const auto& g : metrics.gauges) {
        std::snprintf(line, sizeof line, "  %-*s %12lld  (max %lld)\n", w, g.name.c_str(),
                      static_cast<long long>(g.value), static_cast<long long>(g.max));
        out += line;
    }
    if (!metrics.histograms.empty()) out += "timings:\n";
    for (const auto& h : metrics.histograms) {
        std::snprintf(line, sizeof line, "  %-*s n=%-8llu total=%-10s p50=%-10s p95=%-10s max=%s\n",
                      w, h.name.c_str(), static_cast<unsigned long long>(h.count),
                      fmtSeconds(h.totalSeconds).c_str(), fmtSeconds(h.p50Seconds).c_str(),
                      fmtSeconds(h.p95Seconds).c_str(), fmtSeconds(h.maxSeconds).c_str());
        out += line;
    }
    return out;
}

io::json::Value metricsJson(const MetricsSnapshot& s) {
    using io::json::Value;
    Value counters = Value::object();
    for (const auto& c : s.counters) counters.set(c.name, c.value);
    Value gauges = Value::object();
    for (const auto& g : s.gauges)
        gauges.set(g.name, Value::object().set("value", g.value).set("max", g.max));
    Value hists = Value::object();
    for (const auto& h : s.histograms)
        hists.set(h.name, Value::object()
                              .set("count", h.count)
                              .set("totalSeconds", h.totalSeconds)
                              .set("minSeconds", h.minSeconds)
                              .set("maxSeconds", h.maxSeconds)
                              .set("p50Seconds", h.p50Seconds)
                              .set("p95Seconds", h.p95Seconds));
    Value out = Value::object();
    out.set("counters", counters).set("gauges", gauges).set("histograms", hists);
    return out;
}

bool maybePrintRunReport(std::FILE* out) {
    if (!metricsEnabled()) return false;
    const RunReport r = RunReport::collect();
    const std::string text = r.toText();
    std::fwrite(text.data(), 1, text.size(), out);
    return true;
}

}  // namespace phlogon::obs
