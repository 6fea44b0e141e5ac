#pragma once
// Chrome trace-event JSON reader for the phlogon_trace tool and the
// trace-validity golden tests.
//
// Parses the subset the Tracer emits (and that Perfetto/chrome://tracing
// accept): a top-level object with a "traceEvents" array of flat event
// objects ("X" complete spans with ts/dur, "i" instants, "M" metadata) plus
// optional "otherData".  It parses with the library's JSON reader
// (io::json::parse) and ignores unknown keys, so traces merged with other
// tools still load.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace phlogon::obs {

/// One parsed trace event (units as in the file: microseconds).
struct ParsedEvent {
    std::string name;
    std::string cat;
    std::string ph;     ///< "X" span, "i" instant, "M" metadata, "s"/"f" flow
    double tsUs = 0.0;
    double durUs = 0.0;
    std::int64_t pid = 0;
    std::int64_t tid = 0;
    std::string argName;  ///< args.name for metadata events
    std::string traceId;  ///< args.traceId (per-job trace propagation)
    std::uint64_t jobId = 0;       ///< args.job; 0 = none
    std::uint64_t flowId = 0;      ///< "id" on flow events; 0 = none
    std::string bindingPoint;      ///< "bp" on flow finish events ("e")
};

struct ParsedTrace {
    bool ok = false;
    std::string error;
    std::vector<ParsedEvent> events;              ///< non-metadata events
    std::map<std::int64_t, std::string> threads;  ///< tid -> thread_name
    std::uint64_t droppedEvents = 0;

    /// Spans ("X") on `tid`, sorted by start time (ties: longer first, i.e.
    /// parents before their children).
    std::vector<ParsedEvent> spansForThread(std::int64_t tid) const;
    /// Spans ("X") carrying args.traceId == traceId, any thread, ts-sorted.
    std::vector<ParsedEvent> spansForTraceId(const std::string& traceId) const;
    /// Flow events ("s"/"f") carrying args.traceId == traceId, ts-sorted.
    std::vector<ParsedEvent> flowsForTraceId(const std::string& traceId) const;
    /// All tids that carry at least one span.
    std::vector<std::int64_t> spanThreadIds() const;
    /// True when every thread's spans form a proper nesting (each pair of
    /// spans is either disjoint or one contains the other).  On failure,
    /// `why` (if given) names the offending pair.
    bool spansProperlyNested(std::string* why = nullptr) const;
};

ParsedTrace parseChromeTrace(const std::string& json);
ParsedTrace readChromeTraceFile(const std::filesystem::path& path);

/// Merge several trace files into one Chrome trace JSON document, remapping
/// tids so threads from different inputs (e.g. the daemon before and after a
/// restart) never collide, and preserving event args (traceId/job) and flow
/// ids — which is what lets a resumed job's spans join its original trace.
/// On failure returns an empty string and sets `error` (if given) to the
/// first offending input.
std::string mergeChromeTraces(const std::vector<std::filesystem::path>& inputs,
                              std::string* error = nullptr);

}  // namespace phlogon::obs
