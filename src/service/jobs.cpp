#include "service/jobs.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/subckt.hpp"
#include "core/gae.hpp"
#include "core/gae_transient.hpp"
#include "core/noise.hpp"
#include "io/checkpoint.hpp"
#include "io/hash.hpp"
#include "io/model_cache.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "phlogon/latch.hpp"

namespace phlogon::svc {

namespace json = io::json;

namespace {

// ---- parameter plumbing ---------------------------------------------------

/// Throwing typed reads used only at admission time (buildJob catches).
struct ParamError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

double numParam(const json::Value& p, const std::string& key, double fallback) {
    const json::Value* v = p.field(key);
    if (!v) return fallback;
    if (!v->isNumber() || !std::isfinite(v->num))
        throw ParamError("\"" + key + "\" must be a finite number");
    return v->num;
}

std::size_t countParam(const json::Value& p, const std::string& key, std::size_t fallback,
                       std::size_t lo, std::size_t hi) {
    const double v = numParam(p, key, static_cast<double>(fallback));
    if (v < static_cast<double>(lo) || v > static_cast<double>(hi) ||
        v != std::floor(v))
        throw ParamError("\"" + key + "\" must be an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
    return static_cast<std::size_t>(v);
}

/// The oscillator/latch parameters every analysis type shares.
struct LatchParams {
    ckt::RingOscSpec spec;
    double f1 = 9.6e3;
    double syncAmp = 100e-6;
    std::size_t gridSize = 512;
};

LatchParams parseLatchParams(const json::Value& p) {
    LatchParams lp;
    lp.spec.stages = static_cast<int>(countParam(p, "stages", 3, 3, 15));
    if (lp.spec.stages % 2 == 0) throw ParamError("\"stages\" must be odd");
    lp.spec.nmosM = numParam(p, "nmosM", 1.0);
    lp.spec.capFarads = numParam(p, "cap", 4.7e-9);
    lp.spec.vdd = numParam(p, "vdd", 3.0);
    lp.f1 = numParam(p, "f1", 9.6e3);
    lp.syncAmp = numParam(p, "syncAmp", 100e-6);
    lp.gridSize = countParam(p, "gridSize", 512, 64, 1u << 16);
    if (!(lp.spec.nmosM >= 1.0 && lp.spec.nmosM <= 16.0)) throw ParamError("\"nmosM\" out of range");
    if (!(lp.spec.capFarads > 0) || !(lp.spec.vdd > 0) || !(lp.f1 > 0) || !(lp.syncAmp >= 0))
        throw ParamError("\"cap\", \"vdd\", \"f1\" must be positive, \"syncAmp\" non-negative");
    return lp;
}

void hashLatchParams(io::Fnv1a64& h, const LatchParams& lp) {
    h.u64(static_cast<std::uint64_t>(lp.spec.stages))
        .f64(lp.spec.nmosM)
        .f64(lp.spec.capFarads)
        .f64(lp.spec.vdd)
        .f64(lp.f1)
        .f64(lp.syncAmp)
        .u64(lp.gridSize);
}

// ---- cache plumbing -------------------------------------------------------

const io::ArtifactCache* envCache(const JobEnv& env) {
    return env.cache ? env.cache : &io::ArtifactCache::global();
}

json::Value cacheJson(io::CacheOutcome outcome, std::uint64_t key) {
    json::Value c = json::Value::object();
    c.set("outcome", json::Value::string(io::cacheOutcomeName(outcome)));
    c.set("key", json::Value::string(io::hashHex(key)));
    return c;
}

// ---- characterize-latch ----------------------------------------------------

JobBody makeCharacterizeLatch(const LatchParams& lp, const JobEnv& env) {
    const io::ArtifactCache* cache = envCache(env);
    return [lp, cache](JobContext&) {
        const auto ch = logic::RingOscCharacterization::run(
            lp.spec, logic::RingOscCharacterization::defaultPssOptions(), {}, *cache);
        const logic::SyncLatchDesign d = logic::designSyncLatch(
            ch.model(), ch.outputUnknown(), lp.f1, lp.syncAmp, lp.spec.vdd);
        json::Value r = json::Value::object();
        r.set("f0", json::Value::number(ch.model().f0()));
        r.set("f1", json::Value::number(d.f1));
        r.set("syncAmp", json::Value::number(d.syncAmp));
        r.set("phase1", json::Value::number(d.reference.phase1));
        r.set("phase0", json::Value::number(d.reference.phase0));
        r.set("inputPhaseOffset", json::Value::number(d.inputPhaseOffset));
        r.set("cache", cacheJson(ch.cacheOutcome(), ch.cacheKey()));
        return r;
    };
}

// ---- locking-range-sweep ---------------------------------------------------

JobBody makeLockingRangeSweep(const json::Value& p, const JobEnv& env) {
    const LatchParams lp = parseLatchParams(p);
    const double ampMin = numParam(p, "ampMin", 20e-6);
    const double ampMax = numParam(p, "ampMax", 200e-6);
    const std::size_t ampCount = countParam(p, "ampCount", 8, 2, 4096);
    if (!(ampMin > 0) || !(ampMax > ampMin)) throw ParamError("need 0 < ampMin < ampMax");
    const io::ArtifactCache* cache = envCache(env);
    return [lp, ampMin, ampMax, ampCount, cache](JobContext&) {
        const auto ch = logic::RingOscCharacterization::run(
            lp.spec, logic::RingOscCharacterization::defaultPssOptions(), {}, *cache);
        core::Vec amps(ampCount);
        for (std::size_t i = 0; i < ampCount; ++i)
            amps[i] = ampMin + (ampMax - ampMin) * static_cast<double>(i) /
                                   static_cast<double>(ampCount - 1);
        const core::Injection unit = core::Injection::tone(ch.outputUnknown(), 1.0, 2, 0.0, "sync");
        io::CachedSweepInfo info;
        const std::vector<core::LockingRangePoint> pts = io::cachedLockingRangeVsAmplitude(
            ch.model(), unit, amps, lp.gridSize, *cache, &info);
        json::Value rows = json::Value::array();
        for (const core::LockingRangePoint& pt : pts) {
            json::Value row = json::Value::object();
            row.set("amplitude", json::Value::number(pt.amplitude));
            row.set("locks", json::Value::boolean(pt.range.locks));
            row.set("fLow", json::Value::number(pt.range.fLow));
            row.set("fHigh", json::Value::number(pt.range.fHigh));
            row.set("width", json::Value::number(pt.range.width()));
            rows.push(row);
        }
        json::Value r = json::Value::object();
        r.set("f0", json::Value::number(ch.model().f0()));
        r.set("points", rows);
        r.set("cache", cacheJson(ch.cacheOutcome(), ch.cacheKey()));
        r.set("sweepCache", cacheJson(info.outcome, info.key));
        return r;
    };
}

// ---- hold-error-mc ---------------------------------------------------------

/// Chained per-chunk outcome fold: the running hash commits to every
/// completed chunk's (firstTrial, trials, errors) in order.
std::uint64_t foldChunk(std::uint64_t h, std::uint64_t firstTrial, std::uint64_t trials,
                        std::uint64_t errors) {
    io::Fnv1a64 f;
    f.u64(h).u64(firstTrial).u64(trials).u64(errors);
    return f.digest();
}

/// Names the Monte-Carlo engine's per-trial arithmetic in hold-error job
/// keys, so a checkpoint written by an engine with other counts (such as
/// the retired mt19937_64 per-trial path) is never resumed into this one's.
/// Change it whenever the counts for a given seed change.
constexpr const char* kMcEngineTag = "mc-engine:splitmix64-ziggurat-packed";

JobBody makeHoldErrorMc(const json::Value& p, const JobEnv& env) {
    const LatchParams lp = parseLatchParams(p);
    const double cSeconds = numParam(p, "c", 1e-4);
    const double holdCycles = numParam(p, "holdCycles", 30.0);
    const std::size_t trials = countParam(p, "trials", 60, 1, 1u << 24);
    const std::size_t chunk = countParam(p, "chunk", 16, 1, 1u << 20);
    const auto seed = static_cast<std::uint64_t>(numParam(p, "seed", 1.0));
    if (!(cSeconds >= 0) || !(holdCycles > 0)) throw ParamError("need c >= 0, holdCycles > 0");

    io::Fnv1a64 kh;
    hashLatchParams(kh, lp);
    kh.f64(cSeconds).f64(holdCycles).u64(trials).u64(seed).str(kMcEngineTag);
    // The chunk size is *excluded* from the key: it changes the checkpoint
    // cadence, never the outcome counts.
    const std::uint64_t jobKey = kh.digest();

    const io::ArtifactCache* cache = envCache(env);
    const std::filesystem::path ckptPath =
        env.checkpointDir.empty()
            ? std::filesystem::path()
            : env.checkpointDir / ("mc-" + io::hashHex(jobKey) + ".phlg");

    return [lp, cSeconds, holdCycles, trials, chunk, seed, jobKey, ckptPath,
            cache](JobContext& ctx) {
        const auto ch = logic::RingOscCharacterization::run(
            lp.spec, logic::RingOscCharacterization::defaultPssOptions(), {}, *cache);
        const logic::SyncLatchDesign d = logic::designSyncLatch(
            ch.model(), ch.outputUnknown(), lp.f1, lp.syncAmp, lp.spec.vdd);
        const core::Gae gae(d.model, d.f1, {d.sync()}, lp.gridSize);
        const double holdTime = holdCycles / d.f1;

        io::McCheckpoint st;
        st.jobKey = jobKey;
        st.trialsTotal = trials;
        std::uint64_t resumedFrom = 0;
        if (!ckptPath.empty()) {
            if (const auto saved = io::loadMcCheckpoint(ckptPath);
                saved && saved->jobKey == jobKey && saved->trialsTotal == trials &&
                saved->trialsDone <= trials) {
                st = *saved;
                resumedFrom = st.trialsDone;
            }
        }
        if (resumedFrom > 0) {
            OBS_INSTANT("service.job.resume");
            PHLOGON_LOG_INFO("service.job.resume", {"key", io::hashHex(jobKey)},
                             {"trialsDone", resumedFrom},
                             {"trialsTotal", static_cast<std::uint64_t>(trials)});
        }

        core::StochasticGaeOptions opt;
        opt.seed = seed;
        ctx.setProgress(st.trialsDone, trials);
        bool stopped = false;
        while (st.trialsDone < trials) {
            if (ctx.shouldStop()) {
                stopped = true;
                break;
            }
            const std::size_t n =
                std::min<std::size_t>(chunk, trials - static_cast<std::size_t>(st.trialsDone));
            {
                OBS_SPAN("service.job.chunk");
                const core::HoldErrorResult r = core::holdErrorProbabilityRange(
                    gae, cSeconds, d.reference.phase1, holdTime,
                    static_cast<std::size_t>(st.trialsDone), n, opt);
                st.outcomeHash = foldChunk(st.outcomeHash, st.trialsDone, r.trials, r.errors);
                st.trialsDone += n;
                st.trials += r.trials;
                st.errors += r.errors;
                if (!ckptPath.empty()) {
                    io::saveMcCheckpoint(ckptPath, st);
                    PHLOGON_LOG_DEBUG("service.job.checkpoint", {"key", io::hashHex(jobKey)},
                                      {"trialsDone", st.trialsDone});
                }
            }
            ctx.setProgress(st.trialsDone, trials);
        }

        json::Value r = json::Value::object();
        r.set("trialsTotal", json::Value::integer(static_cast<std::int64_t>(trials)));
        r.set("trialsDone", json::Value::integer(static_cast<std::int64_t>(st.trialsDone)));
        r.set("trials", json::Value::integer(static_cast<std::int64_t>(st.trials)));
        r.set("errors", json::Value::integer(static_cast<std::int64_t>(st.errors)));
        if (st.trials > 0)
            r.set("errorRate", json::Value::number(static_cast<double>(st.errors) /
                                                   static_cast<double>(st.trials)));
        r.set("holdTime", json::Value::number(holdTime));
        r.set("outcomeHash", json::Value::string(io::hashHex(st.outcomeHash)));
        r.set("resumedFrom", json::Value::integer(static_cast<std::int64_t>(resumedFrom)));
        r.set("cache", cacheJson(ch.cacheOutcome(), ch.cacheKey()));
        if (!ckptPath.empty()) r.set("checkpoint", json::Value::string(ckptPath.string()));
        if (stopped) {
            r.set("resumable", json::Value::boolean(true));
            ctx.markStoppedEarly();
        }
        return r;
    };
}

// ---- fsm-transient ---------------------------------------------------------

JobBody makeFsmTransient(const json::Value& p, const JobEnv& env) {
    const LatchParams lp = parseLatchParams(p);
    std::vector<int> bits{1, 0, 1};
    if (const json::Value* b = p.field("bits")) {
        if (!b->isArray() || b->arr->empty() || b->arr->size() > 256)
            throw ParamError("\"bits\" must be a non-empty array (<= 256) of 0/1");
        bits.clear();
        for (const json::Value& v : *b->arr) {
            if (!v.isNumber() || (v.num != 0.0 && v.num != 1.0))
                throw ParamError("\"bits\" entries must be 0 or 1");
            bits.push_back(v.num != 0.0 ? 1 : 0);
        }
    }
    const double writeAmp = numParam(p, "writeAmp", 150e-6);
    const double slotCycles = numParam(p, "slotCycles", 40.0);
    if (!(writeAmp > 0) || !(slotCycles > 0)) throw ParamError("need writeAmp, slotCycles > 0");

    io::Fnv1a64 kh;
    hashLatchParams(kh, lp);
    kh.f64(writeAmp).f64(slotCycles);
    for (int b : bits) kh.u8(static_cast<std::uint8_t>(b));
    const std::uint64_t jobKey = kh.digest();

    const io::ArtifactCache* cache = envCache(env);
    const std::filesystem::path ckptPath =
        env.checkpointDir.empty()
            ? std::filesystem::path()
            : env.checkpointDir / ("fsm-" + io::hashHex(jobKey) + ".phlg");

    return [lp, bits, writeAmp, slotCycles, jobKey, ckptPath, cache](JobContext& ctx) {
        const auto ch = logic::RingOscCharacterization::run(
            lp.spec, logic::RingOscCharacterization::defaultPssOptions(), {}, *cache);
        const logic::SyncLatchDesign d = logic::designSyncLatch(
            ch.model(), ch.outputUnknown(), lp.f1, lp.syncAmp, lp.spec.vdd);
        const double slotT = slotCycles / d.f1;

        io::FsmCheckpoint st;
        st.jobKey = jobKey;
        st.slotsTotal = bits.size();
        st.dphi = d.reference.phase0 + 0.02;  // start just off the 0 lock
        std::uint64_t resumedFrom = 0;
        if (!ckptPath.empty()) {
            if (const auto saved = io::loadFsmCheckpoint(ckptPath);
                saved && saved->jobKey == jobKey && saved->slotsTotal == bits.size() &&
                saved->endPhase.size() <= bits.size()) {
                st = *saved;
                resumedFrom = st.endPhase.size();
            }
        }
        if (resumedFrom > 0) {
            OBS_INSTANT("service.job.resume");
            PHLOGON_LOG_INFO("service.job.resume", {"key", io::hashHex(jobKey)},
                             {"slotsDone", resumedFrom},
                             {"slotsTotal", static_cast<std::uint64_t>(bits.size())});
        }

        ctx.setProgress(st.endPhase.size(), bits.size());
        bool stopped = false;
        while (st.endPhase.size() < bits.size()) {
            if (ctx.shouldStop()) {
                stopped = true;
                break;
            }
            const std::size_t slot = st.endPhase.size();
            const double t0 = static_cast<double>(slot) * slotT;
            {
                OBS_SPAN("service.job.chunk");
                const std::vector<core::GaeSegment> seg{
                    {t0, {d.sync(), d.dataInjection(writeAmp, bits[slot])}}};
                const core::GaeTransientResult r = core::gaeTransient(
                    d.model, d.f1, seg, st.dphi, t0, t0 + slotT, {}, lp.gridSize);
                if (!r.ok) throw std::runtime_error("fsm-transient: GAE integration failed");
                st.dphi = r.final();
                st.endPhase.push_back(st.dphi);
                st.counters += r.counters;
                if (!ckptPath.empty()) {
                    io::saveFsmCheckpoint(ckptPath, st);
                    PHLOGON_LOG_DEBUG("service.job.checkpoint", {"key", io::hashHex(jobKey)},
                                      {"slotsDone", st.endPhase.size()});
                }
            }
            ctx.setProgress(st.endPhase.size(), bits.size());
        }

        json::Value written = json::Value::array();
        json::Value phases = json::Value::array();
        bool allMatch = !stopped;
        for (std::size_t i = 0; i < st.endPhase.size(); ++i) {
            const int got = d.reference.decode(st.endPhase[i]);
            written.push(json::Value::integer(got));
            phases.push(json::Value::number(st.endPhase[i]));
            if (got != bits[i]) allMatch = false;
        }
        json::Value r = json::Value::object();
        r.set("f0", json::Value::number(ch.model().f0()));
        r.set("slots", json::Value::integer(static_cast<std::int64_t>(bits.size())));
        r.set("slotsDone", json::Value::integer(static_cast<std::int64_t>(st.endPhase.size())));
        r.set("decoded", written);
        r.set("endPhase", phases);
        r.set("allWritten", json::Value::boolean(allMatch));
        r.set("steps", json::Value::integer(static_cast<std::int64_t>(st.counters.steps)));
        r.set("rhsEvals", json::Value::integer(static_cast<std::int64_t>(st.counters.rhsEvals)));
        r.set("resumedFrom", json::Value::integer(static_cast<std::int64_t>(resumedFrom)));
        r.set("cache", cacheJson(ch.cacheOutcome(), ch.cacheKey()));
        if (!ckptPath.empty()) r.set("checkpoint", json::Value::string(ckptPath.string()));
        if (stopped) {
            r.set("resumable", json::Value::boolean(true));
            ctx.markStoppedEarly();
        }
        return r;
    };
}

}  // namespace

const std::vector<std::string>& jobTypes() {
    static const std::vector<std::string> kTypes{
        "characterize-latch", "locking-range-sweep", "hold-error-mc", "fsm-transient"};
    return kTypes;
}

BuiltJob buildJob(const std::string& type, const json::Value& params, const JobEnv& env) {
    BuiltJob out;
    try {
        if (type == "characterize-latch") {
            out.body = makeCharacterizeLatch(parseLatchParams(params), env);
        } else if (type == "locking-range-sweep") {
            out.body = makeLockingRangeSweep(params, env);
        } else if (type == "hold-error-mc") {
            out.body = makeHoldErrorMc(params, env);
        } else if (type == "fsm-transient") {
            out.body = makeFsmTransient(params, env);
        } else {
            out.errorCode = "unknown-type";
            out.errorMessage = "unknown request type \"" + type + "\"";
            return out;
        }
        out.ok = true;
    } catch (const ParamError& e) {
        out.errorCode = "bad-params";
        out.errorMessage = e.what();
    }
    return out;
}

}  // namespace phlogon::svc
