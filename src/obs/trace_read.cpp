#include "obs/trace_read.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/json.hpp"

namespace phlogon::obs {

using io::json::Value;

// ---- trace extraction -----------------------------------------------------

ParsedTrace parseChromeTrace(const std::string& json) {
    ParsedTrace out;
    io::json::ParseResult parsed = io::json::parse(json);
    if (!parsed.ok) {
        out.error = parsed.error;
        return out;
    }
    const Value& root = parsed.value;

    const Value* events = root.field("traceEvents");
    // Chrome also accepts the bare-array format.
    if (!events && root.isArray()) events = &root;
    if (!events || !events->isArray()) {
        out.error = "no traceEvents array";
        return out;
    }
    if (const Value* other = root.field("otherData")) {
        if (const Value* d = other->field("droppedEvents"))
            out.droppedEvents = static_cast<std::uint64_t>(d->numberOr(0.0));
    }

    for (const Value& ev : *events->arr) {
        if (!ev.isObject()) {
            out.error = "non-object trace event";
            return out;
        }
        ParsedEvent p;
        p.name = ev.fieldString("name", "");
        p.cat = ev.fieldString("cat", "");
        p.ph = ev.fieldString("ph", "");
        p.tsUs = ev.fieldNumber("ts", 0.0);
        p.durUs = ev.fieldNumber("dur", 0.0);
        p.pid = static_cast<std::int64_t>(ev.fieldNumber("pid", 0.0));
        p.tid = static_cast<std::int64_t>(ev.fieldNumber("tid", 0.0));
        p.flowId = static_cast<std::uint64_t>(ev.fieldNumber("id", 0.0));
        p.bindingPoint = ev.fieldString("bp", "");
        if (const Value* args = ev.field("args")) {
            p.traceId = args->fieldString("traceId", "");
            p.jobId = static_cast<std::uint64_t>(args->fieldNumber("job", 0.0));
        }
        if (p.ph == "M") {
            if (p.name == "thread_name") {
                if (const Value* args = ev.field("args"))
                    if (const Value* n = args->field("name"))
                        out.threads[p.tid] = n->stringOr("");
            }
            continue;
        }
        out.events.push_back(std::move(p));
    }
    out.ok = true;
    return out;
}

ParsedTrace readChromeTraceFile(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ParsedTrace out;
        out.error = "cannot open " + path.string();
        return out;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseChromeTrace(ss.str());
}

std::vector<ParsedEvent> ParsedTrace::spansForThread(std::int64_t tid) const {
    std::vector<ParsedEvent> out;
    for (const ParsedEvent& e : events)
        if (e.ph == "X" && e.tid == tid) out.push_back(e);
    std::sort(out.begin(), out.end(), [](const ParsedEvent& a, const ParsedEvent& b) {
        if (a.tsUs != b.tsUs) return a.tsUs < b.tsUs;
        return a.durUs > b.durUs;  // parents (longer) before children at a tie
    });
    return out;
}

std::vector<ParsedEvent> ParsedTrace::spansForTraceId(const std::string& traceId) const {
    std::vector<ParsedEvent> out;
    for (const ParsedEvent& e : events)
        if (e.ph == "X" && e.traceId == traceId) out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const ParsedEvent& a, const ParsedEvent& b) { return a.tsUs < b.tsUs; });
    return out;
}

std::vector<ParsedEvent> ParsedTrace::flowsForTraceId(const std::string& traceId) const {
    std::vector<ParsedEvent> out;
    for (const ParsedEvent& e : events)
        if ((e.ph == "s" || e.ph == "f") && e.traceId == traceId) out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const ParsedEvent& a, const ParsedEvent& b) { return a.tsUs < b.tsUs; });
    return out;
}

std::vector<std::int64_t> ParsedTrace::spanThreadIds() const {
    std::vector<std::int64_t> tids;
    for (const ParsedEvent& e : events)
        if (e.ph == "X") tids.push_back(e.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    return tids;
}

std::string mergeChromeTraces(const std::vector<std::filesystem::path>& inputs,
                              std::string* error) {
    std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::uint64_t dropped = 0;
    std::int64_t tidBase = 0;

    for (const std::filesystem::path& file : inputs) {
        const ParsedTrace trace = readChromeTraceFile(file);
        if (!trace.ok) {
            if (error) *error = file.string() + ": " + trace.error;
            return std::string();
        }
        dropped += trace.droppedEvents;

        // Remap this file's tids to a disjoint range; keep relative order so
        // "main" from each run stays at the top of its block.
        std::map<std::int64_t, std::int64_t> tidMap;
        auto mapped = [&](std::int64_t tid) {
            const auto [it, inserted] =
                tidMap.emplace(tid, tidBase + static_cast<std::int64_t>(tidMap.size()));
            (void)inserted;
            return it->second;
        };

        char buf[64];
        for (const auto& [tid, name] : trace.threads) {
            if (!first) json += ",";
            first = false;
            json += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(mapped(tid)));
            json += buf;
            json += ",\"args\":{\"name\":";
            json += io::json::quote(name + " [" + file.filename().string() + "]");
            json += "}}";
        }
        for (const ParsedEvent& e : trace.events) {
            if (!first) json += ",";
            first = false;
            json += "{\"ph\":";
            json += io::json::quote(e.ph);
            json += ",\"name\":";
            json += io::json::quote(e.name);
            json += ",\"cat\":";
            json += io::json::quote(e.cat.empty() ? std::string("trace") : e.cat);
            json += ",\"pid\":1,\"tid\":";
            std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(mapped(e.tid)));
            json += buf;
            std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", e.tsUs);
            json += buf;
            if (e.ph == "X") {
                std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", e.durUs);
                json += buf;
            } else if (e.ph == "i" || e.ph == "I") {
                json += ",\"s\":\"t\"";
            }
            // Flow correlation ids survive the merge untouched — flows are
            // keyed by (traceId, job) content, not by thread ids, so a flow
            // started before a daemon restart still binds to its finish in
            // the post-restart file.
            if (e.flowId != 0) {
                std::snprintf(buf, sizeof buf, ",\"id\":%llu",
                              static_cast<unsigned long long>(e.flowId));
                json += buf;
            }
            if (!e.bindingPoint.empty()) {
                json += ",\"bp\":";
                json += io::json::quote(e.bindingPoint);
            }
            if (!e.traceId.empty() || e.jobId != 0) {
                json += ",\"args\":{";
                bool firstArg = true;
                if (!e.traceId.empty()) {
                    json += "\"traceId\":";
                    json += io::json::quote(e.traceId);
                    firstArg = false;
                }
                if (e.jobId != 0) {
                    if (!firstArg) json += ",";
                    std::snprintf(buf, sizeof buf, "\"job\":%llu",
                                  static_cast<unsigned long long>(e.jobId));
                    json += buf;
                }
                json += "}";
            }
            json += "}";
        }
        tidBase += static_cast<std::int64_t>(tidMap.size());
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "],\"otherData\":{\"droppedEvents\":%llu}}",
                  static_cast<unsigned long long>(dropped));
    json += buf;
    return json;
}

bool ParsedTrace::spansProperlyNested(std::string* why) const {
    // A span clock tick is 1 ns = 1e-3 us; allow that much slop so a child
    // ending on its parent's closing edge still counts as contained.
    constexpr double kSlopUs = 2e-3;
    for (const std::int64_t tid : spanThreadIds()) {
        const std::vector<ParsedEvent> spans = spansForThread(tid);
        std::vector<const ParsedEvent*> stack;
        for (const ParsedEvent& e : spans) {
            while (!stack.empty() &&
                   e.tsUs >= stack.back()->tsUs + stack.back()->durUs - kSlopUs)
                stack.pop_back();
            if (!stack.empty()) {
                const ParsedEvent& parent = *stack.back();
                if (e.tsUs + e.durUs > parent.tsUs + parent.durUs + kSlopUs) {
                    if (why)
                        *why = "span '" + e.name + "' overlaps but is not contained in '" +
                               parent.name + "' on tid " + std::to_string(tid);
                    return false;
                }
            }
            stack.push_back(&e);
        }
    }
    return true;
}

}  // namespace phlogon::obs
