#include "obs/log.hpp"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "io/json.hpp"

namespace phlogon::obs {

const char* logLevelName(LogLevel lvl) {
    switch (lvl) {
        case LogLevel::Debug: return "debug";
        case LogLevel::Info: return "info";
        case LogLevel::Warn: return "warn";
        case LogLevel::Error: return "error";
    }
    return "?";
}

namespace {

std::int64_t steadyNowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Wall-clock unix seconds with microsecond precision, formatted in place.
void appendWallTs(std::string& out) {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(now).count();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%lld.%06lld", static_cast<long long>(us / 1'000'000),
                  static_cast<long long>(us % 1'000'000));
    out += buf;
}

void appendDouble(std::string& out, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    // JSON has no NaN/Inf literals; clamp to null rather than emit garbage.
    if (std::strstr(buf, "nan") || std::strstr(buf, "inf")) {
        out += "null";
    } else {
        out += buf;
    }
}

}  // namespace

void LogField::appendTo(std::string& out) const {
    out += io::json::quote(key_);
    out += ':';
    switch (kind_) {
        case Kind::Str: out += io::json::quote(s_); break;
        case Kind::Num: appendDouble(out, num_); break;
        case Kind::Int: {
            char buf[24];
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(i_));
            out += buf;
            break;
        }
        case Kind::Bool: out += b_ ? "true" : "false"; break;
    }
}

#ifndef PHLOGON_NO_OBS
namespace detail {
std::atomic<int> logThreshold{-2};
}  // namespace detail
#endif

struct Logger::Impl {
    std::mutex mx;
    std::condition_variable cv;
    std::condition_variable drainedCv;

    Options opt;
    std::FILE* sink = nullptr;
    bool sinkOwned = false;
    bool running = false;  ///< drain thread alive
    bool stopping = false;
    bool writing = false;  ///< a batch left the ring but is not written yet
    std::thread drainer;

    std::deque<std::string> ring;  ///< bounded by opt.ringCapacity
    std::uint64_t dropped = 0;
    std::uint64_t suppressedTotal = 0;

    struct RateState {
        std::int64_t windowStartNs = 0;
        std::uint64_t count = 0;
        std::uint64_t suppressed = 0;
    };
    std::map<std::string, RateState> rate;

    std::function<std::int64_t()> clock;  ///< test override; empty = steady clock

    std::int64_t nowNs() { return clock ? clock() : steadyNowNs(); }

    void closeSinkLocked() {
        if (sink && sinkOwned) std::fclose(sink);
        sink = nullptr;
        sinkOwned = false;
    }

    void openSinkLocked(const std::string& path) {
        closeSinkLocked();
        if (path.empty() || path == "stderr" || path == "-") {
            sink = stderr;
            sinkOwned = false;
            return;
        }
        sink = std::fopen(path.c_str(), "a");
        if (!sink) {
            std::fprintf(stderr, "phlogon: cannot open log sink '%s' (%s); using stderr\n",
                         path.c_str(), std::strerror(errno));
            sink = stderr;
        } else {
            sinkOwned = true;
        }
    }

    /// Build the synthetic record summarizing suppressed repeats of `event`.
    static std::string suppressionRecord(const std::string& event, std::uint64_t k) {
        std::string line = "{\"ts\":";
        appendWallTs(line);
        line += ",\"lvl\":\"warn\",\"event\":";
        line += io::json::quote(event);
        line += ",\"suppressed\":";
        char buf[24];
        std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(k));
        line += buf;
        line += "}\n";
        return line;
    }

    /// Roll the rate window for one event if expired, enqueueing the pending
    /// suppression summary.  Caller holds mx.
    void rollWindowLocked(const std::string& event, RateState& rs, std::int64_t now) {
        if (now - rs.windowStartNs < opt.rateWindowNs) return;
        if (rs.suppressed > 0) {
            pushLocked(suppressionRecord(event, rs.suppressed));
            rs.suppressed = 0;
        }
        rs.windowStartNs = now;
        rs.count = 0;
    }

    void pushLocked(std::string line) {
        if (ring.size() >= opt.ringCapacity) {
            ++dropped;
            return;
        }
        ring.push_back(std::move(line));
    }

    void drainLoop() {
        std::unique_lock<std::mutex> lk(mx);
        while (true) {
            cv.wait_for(lk, std::chrono::milliseconds(50),
                        [&] { return stopping || !ring.empty(); });
            drainBatchLocked(lk);
            if (stopping && ring.empty()) break;
        }
        running = false;
        drainedCv.notify_all();
    }

    /// Move the pending ring out, write it with the lock dropped, reacquire.
    void drainBatchLocked(std::unique_lock<std::mutex>& lk) {
        if (ring.empty()) {
            drainedCv.notify_all();
            return;
        }
        std::vector<std::string> batch(std::make_move_iterator(ring.begin()),
                                       std::make_move_iterator(ring.end()));
        ring.clear();
        std::FILE* out = sink;
        writing = true;
        lk.unlock();
        if (out) {
            for (const auto& line : batch) std::fwrite(line.data(), 1, line.size(), out);
            std::fflush(out);
        }
        lk.lock();
        writing = false;
        drainedCv.notify_all();
    }
};

Logger::Logger() : impl_(new Impl) {}

Logger& Logger::instance() {
    static Logger g;
    return g;
}

void Logger::configure(const Options& opt) {
    std::unique_lock<std::mutex> lk(impl_->mx);
    impl_->opt = opt;
    if (impl_->opt.ringCapacity == 0) impl_->opt.ringCapacity = 1;
    impl_->openSinkLocked(opt.path);
    if (!impl_->running) {
        impl_->running = true;
        impl_->stopping = false;
        impl_->drainer = std::thread([this] { impl_->drainLoop(); });
        impl_->drainer.detach();
    }
#ifndef PHLOGON_NO_OBS
    detail::logThreshold.store(static_cast<int>(opt.threshold), std::memory_order_relaxed);
#endif
}

void Logger::disable() {
#ifndef PHLOGON_NO_OBS
    detail::logThreshold.store(-1, std::memory_order_relaxed);
#endif
    flush();
}

void Logger::log(LogLevel lvl, const char* event, std::initializer_list<LogField> fields) {
    // Format the whole line before taking any lock.
    std::string line = "{\"ts\":";
    appendWallTs(line);
    line += ",\"lvl\":\"";
    line += logLevelName(lvl);
    line += "\",\"event\":";
    line += io::json::quote(event);
    for (const auto& f : fields) {
        line += ',';
        f.appendTo(line);
    }
    line += "}\n";

    std::lock_guard<std::mutex> lk(impl_->mx);
    const std::int64_t now = impl_->nowNs();
    const auto [it, inserted] = impl_->rate.try_emplace(event);
    Impl::RateState& rs = it->second;
    if (inserted) rs.windowStartNs = now;  // window starts at first sighting
    impl_->rollWindowLocked(event, rs, now);
    if (impl_->opt.rateLimit > 0 && rs.count >= impl_->opt.rateLimit) {
        ++rs.suppressed;
        ++impl_->suppressedTotal;
        return;
    }
    ++rs.count;
    impl_->pushLocked(std::move(line));
    impl_->cv.notify_one();
}

void Logger::flush() {
    std::unique_lock<std::mutex> lk(impl_->mx);
    // Emit any pending suppression summaries regardless of window age.
    for (auto& [event, rs] : impl_->rate) {
        if (rs.suppressed > 0) {
            impl_->pushLocked(Impl::suppressionRecord(event, rs.suppressed));
            rs.suppressed = 0;
        }
        rs.count = 0;
        rs.windowStartNs = 0;
    }
    if (impl_->running) {
        impl_->cv.notify_one();
        // An empty ring is not enough: the drain thread may still be writing
        // the batch it took, with the lock dropped.
        impl_->drainedCv.wait_for(lk, std::chrono::seconds(2),
                                  [&] { return impl_->ring.empty() && !impl_->writing; });
    } else {
        impl_->drainBatchLocked(lk);
    }
    if (impl_->sink) std::fflush(impl_->sink);
}

std::uint64_t Logger::droppedRecords() const {
    std::lock_guard<std::mutex> lk(impl_->mx);
    return impl_->dropped;
}

std::uint64_t Logger::suppressedRecords() const {
    std::lock_guard<std::mutex> lk(impl_->mx);
    return impl_->suppressedTotal;
}

void Logger::setClockForTest(std::function<std::int64_t()> nowNs) {
    std::lock_guard<std::mutex> lk(impl_->mx);
    impl_->clock = std::move(nowNs);
}

#ifndef PHLOGON_NO_OBS
namespace detail {

bool logInitSlow(LogLevel lvl) {
    static std::mutex initMx;
    std::lock_guard<std::mutex> lk(initMx);
    int t = logThreshold.load(std::memory_order_relaxed);
    if (t < -1) {
        const char* path = std::getenv("PHLOGON_LOG");
        if (!path || !*path) {
            logThreshold.store(-1, std::memory_order_relaxed);
            return false;
        }
        Logger::Options opt;
        opt.path = path;
        if (const char* lvlEnv = std::getenv("PHLOGON_LOG_LEVEL")) {
            if (std::strcmp(lvlEnv, "debug") == 0) opt.threshold = LogLevel::Debug;
            else if (std::strcmp(lvlEnv, "warn") == 0) opt.threshold = LogLevel::Warn;
            else if (std::strcmp(lvlEnv, "error") == 0) opt.threshold = LogLevel::Error;
            else opt.threshold = LogLevel::Info;
        }
        Logger::instance().configure(opt);
        t = logThreshold.load(std::memory_order_relaxed);
    }
    return t >= 0 && static_cast<int>(lvl) >= t;
}

}  // namespace detail
#endif  // PHLOGON_NO_OBS

}  // namespace phlogon::obs
