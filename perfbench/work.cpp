// Workload runner for the batch workloads of the benchmark (perfbench/run.py
// drives it; run.py owns statistics, environment control and the result
// line).  One process runs one workload:
//
//   perfbench_work <osc_characterize|fabric_slot|hold_error_mc> --seed N
//                  --mode config|setup|run [--seconds S]
//                  [--replay] [--corrupt]
//   perfbench_work reference_server --socket PATH
//
//   config   print only the configuration stamp (what would run);
//   setup    cold set-up only, timed, then exit (run.py starts several such
//            processes and takes the median);
//   run      set-up, untimed warm-up, then whole units until S seconds have
//            passed, each unit checked against its reference;
//   --replay after the timed phase, time the public calls each layer is
//            made of on this workload's own data (traced runs only);
//   --corrupt check against a deliberately wrong reference, so the
//            benchmark's tests can show that every gate fires;
//   reference_server  serve fixed-cost requests beside phlogond (see below)
//            until killed.
//
// Only documented entry points are called, with option structs at their
// defaults apart from physics inputs (dt, storeEvery, seed, sizes).  The
// process prints one JSON object on stdout.

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/transient.hpp"
#include "circuit/dae.hpp"
#include "core/gae.hpp"
#include "core/noise.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "numeric/lu.hpp"
#include "numeric/newton.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phlogon/latch.hpp"
#include "phlogon/serial_adder.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace phlogon;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpuSeconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peakRssMb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/// The benchmark's own input generator (SplitMix64), kept independent of the
/// library's RNGs so re-pinning those never changes a workload's inputs.
struct InputRng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    int bit() { return static_cast<int>(next() >> 63); }
};

/// Flat JSON object writer: numbers keep every digit.
class JsonOut {
public:
    void num(const std::string& k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        raw(k, buf);
    }
    void str(const std::string& k, const std::string& v) { raw(k, "\"" + v + "\""); }
    void list(const std::string& k, const std::vector<double>& v) {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
            s += buf;
        }
        raw(k, s + "]");
    }
    void raw(const std::string& k, const std::string& v) {
        body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":" + v);
    }
    std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

// ---------------------------------------------------------------------------
// Host-speed reference.
// ---------------------------------------------------------------------------

/// A fixed compute kernel of the benchmark's own, independent of the library
/// so that no library change moves it: eight rounds of dense LU with partial
/// pivoting of a fixed 48x48 matrix, a tanh sweep, and gathers from a
/// 256 KiB table at fixed random indices.  The LU and tanh part follows the
/// floating-point work of the MNA and Monte-Carlo workloads; the gathers,
/// about a sixth of the time, follow the cache-bound signal passes of the
/// fabric.  Neighbours on a shared host
/// slow a CPU by up to 2x for seconds to minutes at a time, and not every CPU
/// alike.  Timing this kernel right before and after each unit, where the
/// unit runs, measures that slowdown, and run.py divides it out of the
/// unit's time.  The reference server runs it without the gathers, which
/// followed the daemon's latency less well.
double referenceKernel(bool gathers = true) {
    constexpr int n = 48;
    constexpr std::size_t m = 1 << 15;
    // Static and stack storage, not the heap: the kernel allocates nothing,
    // so it adds a fixed 320 KiB to the peak RSS and leaves the allocator's
    // state alone.  The tables are read-only once filled, so the reference
    // server's connection threads share them.
    static std::array<double, n * n> a0;
    static std::array<double, m> table;
    static std::array<std::uint32_t, m / 2> at;
    static const bool filled = [] {
        InputRng rng{12345};
        for (double& x : a0) x = static_cast<double>(rng.next() >> 11) * 0x1p-53 - 0.5;
        for (int i = 0; i < n; ++i) a0[i * n + i] += n;
        table.fill(1.0);
        for (std::uint32_t& x : at) x = static_cast<std::uint32_t>(rng.next() % m);
        return true;
    }();
    (void)filled;
    std::array<double, n * n> a;
    double acc = 0.0;
    for (int rep = 0; rep < 8; ++rep) {
        a = a0;
        for (int k = 0; k < n; ++k) {
            int p = k;
            for (int i = k + 1; i < n; ++i)
                if (std::abs(a[i * n + k]) > std::abs(a[p * n + k])) p = i;
            if (p != k)
                for (int j = 0; j < n; ++j) std::swap(a[k * n + j], a[p * n + j]);
            const double inv = 1.0 / a[k * n + k];
            for (int i = k + 1; i < n; ++i) {
                const double l = a[i * n + k] * inv;
                a[i * n + k] = l;
                for (int j = k + 1; j < n; ++j) a[i * n + j] -= l * a[k * n + j];
            }
        }
        for (int i = 0; i < 2000; ++i) acc += std::tanh(1e-3 * i + a[(i * 7) % (n * n)]);
        if (gathers)
            for (const std::uint32_t j : at) acc += table[j] * 1e-9;
    }
    return acc;
}

volatile double referenceSink = 0.0;  // keeps the kernel's result live

/// Wall milliseconds of one reference-kernel call.
double referenceMs() {
    const auto t0 = Clock::now();
    referenceSink = referenceKernel();
    return secondsSince(t0) * 1e3;
}

/// Mean over the process's CPUs of one reference call on each, for work
/// that the pool spreads over several CPUs: the calling thread moves to each
/// allowed CPU in turn, then gets its own mask back.
double referenceAllCpusMs() {
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) != 0) return referenceMs();
    double sum = 0.0;
    int n = 0;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &mask)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
        sum += referenceMs();
        ++n;
    }
    sched_setaffinity(0, sizeof mask, &mask);
    return n ? sum / n : referenceMs();
}

/// Median per-call cost of `fn` in microseconds: `reps` timed batches of
/// `calls` calls each, after one untimed batch.
double perCallUs(const std::function<void()>& fn, int calls, int reps = 9) {
    for (int i = 0; i < calls; ++i) fn();
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < calls; ++i) fn();
        us.push_back(secondsSince(t0) * 1e6 / calls);
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
}

struct Args {
    std::string workload;
    std::string mode = "run";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool replay = false;
    bool corrupt = false;
    std::string socket;  // reference_server only
};

/// What every workload reports back; run.py turns it into metrics.
struct Report {
    JsonOut out;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  // first few reasons
    std::vector<double> unitWall;       // seconds per timed unit
    std::vector<double> unitCpu;        // process CPU seconds per timed unit
    std::vector<double> unitWork;       // work per timed unit
    std::vector<double> unitRef;        // reference ms before unit 0 and after each unit
    std::vector<double> setupRef;       // reference ms around a set-up-only process
    double timedWall = 0.0;             // sum of unitWall
    double timedCpu = 0.0;              // sum of unitCpu
    num::PoolStats pool0, pool1;

    void fail(const std::string& why) {
        ++failed;
        if (failures.size() < 5) failures.push_back(why);
    }
};

/// Timed-phase bookkeeping shared by the three workloads: each unit runs
/// between begin() and end(), and the median of `calls` calls of
/// `reference` (referenceMs or referenceAllCpusMs) is taken before the first
/// unit and after every unit, outside the units' times.
class TimedPhase {
public:
    TimedPhase(Report& r, double (*reference)(), int calls = 1)
        : r_(r), reference_(reference), calls_(calls) {
        r_.pool0 = num::ThreadPool::global().stats();
        r_.unitRef.push_back(sampleReference());
        t0_ = Clock::now();
    }
    double elapsed() const { return secondsSince(t0_); }
    void begin() {
        cpu0_ = cpuSeconds();
        u0_ = Clock::now();
    }
    void end(double work) {
        const double wall = secondsSince(u0_);
        const double cpu = cpuSeconds() - cpu0_;
        r_.unitWall.push_back(wall);
        r_.unitCpu.push_back(cpu);
        r_.unitWork.push_back(work);
        r_.timedWall += wall;
        r_.timedCpu += cpu;
        r_.unitRef.push_back(sampleReference());
    }
    ~TimedPhase() { r_.pool1 = num::ThreadPool::global().stats(); }

private:
    double sampleReference() const {
        std::vector<double> ms;
        for (int i = 0; i < calls_; ++i) ms.push_back(reference_());
        std::nth_element(ms.begin(), ms.begin() + calls_ / 2, ms.end());
        return ms[calls_ / 2];
    }

    Report& r_;
    double (*reference_)();
    int calls_;
    Clock::time_point t0_, u0_;
    double cpu0_ = 0.0;
};

// ---------------------------------------------------------------------------
// osc_characterize: cold ring-oscillator characterization (PSS + PPV).
// ---------------------------------------------------------------------------

/// Seeded load capacitances; f0 scales as 1/C (9598 Hz at 4.7 nF).
constexpr double kCapLo = 4.2e-9, kCapHi = 5.2e-9;
constexpr double kF0TimesCap = 9598.0 * 4.7e-9;

void runCharacterize(const Args& args, Report& rep) {
    const auto setup0 = Clock::now();
    {
        OBS_SPAN("bench.setup");
        auto t0 = Clock::now();
        const auto osc = [&] {
            OBS_SPAN("bench.analysis.characterize");
            return logic::RingOscCharacterization::run(ckt::RingOscSpec{});
        }();
        rep.out.num("characterize_s", secondsSince(t0));
        t0 = Clock::now();
        OBS_SPAN("bench.phlogon.design");
        (void)logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 100e-6);
        rep.out.num("design_s", secondsSince(t0));
    }
    rep.out.num("setup_s", secondsSince(setup0));
    if (args.mode == "setup") return;

    InputRng rng{args.seed};
    const auto unit = [&] {
        ckt::RingOscSpec spec;
        const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;  // [0, 1)
        spec.capFarads = kCapLo + (kCapHi - kCapLo) * u;
        OBS_SPAN("bench.analysis.characterize");
        return std::pair{spec.capFarads, logic::RingOscCharacterization::run(spec)};
    };
    const auto check = [&](double cap, const logic::RingOscCharacterization& osc) {
        ++rep.attempted;
        const double want = kF0TimesCap / cap * (args.corrupt ? 1.2 : 1.0);
        if (std::abs(osc.f0() / want - 1.0) > 0.01)
            rep.fail("f0 " + std::to_string(osc.f0()) + " Hz at C = " + std::to_string(cap) +
                     " F, expected " + std::to_string(want) + " Hz");
    };
    // Untimed warm-up: two characterizations.
    for (int i = 0; i < 2; ++i) {
        const auto [cap, osc] = unit();
        check(cap, osc);
    }
    num::SolverCounters counters;
    std::unique_ptr<logic::RingOscCharacterization> last;
    {
        // One characterization runs on one thread.  The median of three
        // kernel calls leaves out the first, which refills the caches.
        TimedPhase phase(rep, referenceMs, 3);
        while (phase.elapsed() < args.seconds) {
            phase.begin();
            auto [cap, osc] = unit();
            phase.end(1.0);
            counters += osc.pss().counters;
            check(cap, osc);
            last = std::make_unique<logic::RingOscCharacterization>(std::move(osc));
        }
    }
    rep.out.num("unknowns", static_cast<double>(last->dae().size()));
    rep.out.num("steps", static_cast<double>(counters.steps));
    rep.out.num("rejected_steps", static_cast<double>(counters.rejectedSteps));
    rep.out.num("damping_events", static_cast<double>(counters.dampingEvents));
    rep.out.num("newton_iters", static_cast<double>(counters.newtonIters));
    rep.out.num("lu_factorizations", static_cast<double>(counters.luFactorizations));
    rep.out.num("rhs_evals", static_cast<double>(counters.rhsEvals));
    rep.out.num("jac_evals", static_cast<double>(counters.jacEvals));
    if (!args.replay) return;

    // Replay the MNA layers on the last unit's own shooting trajectory:
    // device evaluation with and without C/G, then LU factor and solve on
    // the TRAP step matrix C/h + G/2 built from them.
    OBS_SPAN("bench.replay");
    const ckt::Dae& dae = last->dae();
    const an::PssResult& pss = last->pss();
    const std::size_t n = dae.size();
    const double h = pss.tFine.size() > 1 ? pss.tFine[1] - pss.tFine[0] : pss.period / 400.0;
    std::vector<std::size_t> picks;
    for (std::size_t i = 0; i < 32; ++i) picks.push_back(i * (pss.xFine.size() - 1) / 31);
    num::Vec q, f;
    num::Matrix c, g;
    std::size_t pi = 0;
    const auto state = [&]() -> const num::Vec& { return pss.xFine[picks[pi++ % picks.size()]]; };
    double evalUs = 0, residualUs = 0;
    {
        OBS_SPAN("bench.circuit.eval");
        evalUs = perCallUs([&] { dae.eval(0.0, state(), q, f, &c, &g); }, 1024);
    }
    {
        OBS_SPAN("bench.circuit.residual");
        residualUs = perCallUs([&] { dae.eval(0.0, state(), q, f, nullptr, nullptr); }, 1024);
    }
    std::vector<num::Matrix> jac;
    for (const std::size_t i : picks) {
        dae.eval(0.0, pss.xFine[i], q, f, &c, &g);
        num::Matrix j = c;
        j *= 1.0 / h;
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t cc = 0; cc < n; ++cc) j(r, cc) += 0.5 * g(r, cc);
        jac.push_back(std::move(j));
    }
    num::LuFactor lu;
    double factorUs = 0, solveUs = 0;
    {
        OBS_SPAN("bench.numeric.lu_factor");
        factorUs = perCallUs([&] { lu.refactor(jac[pi++ % jac.size()]); }, 1024);
    }
    num::Vec rhs(n, 1e-3), dx;
    {
        OBS_SPAN("bench.numeric.lu_solve");
        solveUs = perCallUs([&] { lu.solveInto(rhs, dx); }, 4096);
    }
    rep.out.num("eval_us", evalUs);
    rep.out.num("residual_us", residualUs);
    rep.out.num("lu_factor_us", factorUs);
    rep.out.num("lu_solve_us", solveUs);
}

// ---------------------------------------------------------------------------
// fabric_slot: the 500-stage shift register lowered to 1000 latches.
// ---------------------------------------------------------------------------

constexpr std::size_t kFabricStages = 500;
constexpr double kFabricSlotCycles = 100.0;
constexpr std::size_t kFabricStepsPerCycle = 64;
constexpr std::size_t kFabricSlots = 8;
/// Each slot runs as this many simulateBatched calls of equal length, each
/// one timed unit, so the reference kernel samples the host's speed every
/// 10 cycles (under a second) rather than once per slot.
constexpr std::size_t kFabricChunks = 10;
/// Write paths per lowered latch (SYNC, S gate, R gate): compile.hpp's
/// master-slave lowering.  Each one reads the PPV once per RK stage.
constexpr double kConnectionsPerLatch = 3.0;

/// Append `part` (which starts where `whole` ends) to `whole`.
void appendTrajectory(core::PhaseSystem::Result& whole, const core::PhaseSystem::Result& part) {
    const std::size_t skip = whole.t.empty() ? 0 : 1;  // the shared end point
    whole.t.insert(whole.t.end(), part.t.begin() + skip, part.t.end());
    whole.dphi.resize(part.dphi.size());
    for (std::size_t i = 0; i < part.dphi.size(); ++i)
        whole.dphi[i].insert(whole.dphi[i].end(), part.dphi[i].begin() + skip, part.dphi[i].end());
    whole.vout.resize(part.vout.size());
    for (std::size_t i = 0; i < part.vout.size(); ++i)
        whole.vout[i].insert(whole.vout[i].end(), part.vout[i].begin() + skip, part.vout[i].end());
}

void runFabric(const Args& args, Report& rep) {
    const auto setup0 = Clock::now();
    std::unique_ptr<logic::SyncLatchDesign> design;
    auto t0 = Clock::now();
    {
        OBS_SPAN("bench.setup");
        const auto osc = [&] {
            OBS_SPAN("bench.analysis.characterize");
            return logic::RingOscCharacterization::run(ckt::RingOscSpec{});
        }();
        rep.out.num("characterize_s", secondsSince(t0));
        t0 = Clock::now();
        OBS_SPAN("bench.phlogon.design");
        design = std::make_unique<logic::SyncLatchDesign>(
            logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 300e-6));
        rep.out.num("design_s", secondsSince(t0));
    }
    const logic::LogicNetlist netlist = logic::shiftRegister(kFabricStages);
    InputRng rng{args.seed};
    std::vector<std::vector<int>> inputs(kFabricSlots, std::vector<int>(1, 0));
    for (auto& v : inputs) v[0] = rng.bit();
    std::vector<int> state(netlist.dffs().size());
    for (int& b : state) b = rng.bit();

    t0 = Clock::now();
    logic::FabricCompileOptions fopt;
    fopt.bitPeriodCycles = kFabricSlotCycles;
    logic::CompiledFabric fab = [&] {
        OBS_SPAN("bench.logic.compile");
        return logic::compileFabric(netlist, *design, inputs, fopt);
    }();
    const double compileS = secondsSince(t0);
    // Seeded register contents: both latches of a flip-flop start at the
    // lock phase of its bit (the compiler's own start sits 0.02 past it).
    num::Vec dphi = fab.initialDphi;
    for (std::size_t i = 0; i < fab.dffs.size(); ++i) {
        const double ph = fab.ref.phaseForBit(state[i]) + 0.02;
        dphi[static_cast<std::size_t>(fab.dffs[i].master)] = ph;
        dphi[static_cast<std::size_t>(fab.dffs[i].slave)] = ph;
    }
    rep.out.num("compile_s", compileS);
    rep.out.num("setup_s", secondsSince(setup0));
    rep.out.num("latches", static_cast<double>(fab.sys.latchCount()));
    rep.out.num("signals", static_cast<double>(fab.sys.signalCount()));
    if (args.mode == "setup") return;

    const double f1 = design->f1;
    const double bp = fab.bitPeriod;
    const auto simulate = [&](double ta, double tb, const num::Vec& y0) {
        OBS_SPAN("bench.core.simulate");
        return fab.sys.simulateBatched(f1, ta, tb, y0, kFabricStepsPerCycle,
                                       kFabricStepsPerCycle);
    };
    // Untimed warm-up: two cycles from the seeded state, discarded.
    (void)simulate(0.0, 2.0 / f1, dphi);

    std::vector<double> decodeS, toggles;
    core::PhaseSystem::Result res;
    std::size_t slots = 0;
    {
        // The serial Program pass takes almost all of a step (pool
        // parallelism is about 1), so the calling thread's CPU sets the pace.
        // Units last half a second or more: nine kernel calls per sample
        // steady the sample for about 1 % of the time.
        TimedPhase phase(rep, referenceMs, 9);
        for (std::size_t k = 0; k < kFabricSlots && phase.elapsed() < args.seconds; ++k) {
            const double ta = static_cast<double>(k) * bp;
            const double chunk = bp / static_cast<double>(kFabricChunks);
            const double chunkWork = kFabricSlotCycles / static_cast<double>(kFabricChunks) *
                                     static_cast<double>(fab.sys.latchCount());
            res = core::PhaseSystem::Result{};
            res.ok = true;
            for (std::size_t c = 0; c < kFabricChunks && res.ok; ++c) {
                const double tc = ta + static_cast<double>(c) * chunk;
                phase.begin();
                core::PhaseSystem::Result part = simulate(tc, tc + chunk, dphi);
                phase.end(chunkWork);
                res.ok = part.ok;
                if (!part.ok) break;
                appendTrajectory(res, part);
                for (std::size_t i = 0; i < dphi.size(); ++i) dphi[i] = part.dphi[i].back();
            }
            ++rep.attempted;
            ++slots;
            if (!res.ok) {
                rep.fail("slot " + std::to_string(k) + ": simulateBatched failed");
                break;
            }

            // Reference: one Boolean step from the same state.  Slaves show
            // state_k at the decode instant; masters hold state_{k+1} at the
            // end of the slot.
            const std::vector<int> before = state;
            const std::vector<int> outs = netlist.step(inputs[k], state);
            std::size_t changed = 0;
            for (std::size_t i = 0; i < state.size(); ++i) changed += state[i] != before[i];
            toggles.push_back(static_cast<double>(changed) / static_cast<double>(state.size()));
            const int flip = args.corrupt ? 1 : 0;
            const num::Vec mid = logic::dphiAt(res, fab.decodeTime(k));
            std::size_t bad = 0;
            for (std::size_t i = 0; i < fab.dffs.size(); ++i) {
                const auto& d = fab.dffs[i];
                bad += fab.ref.decode(mid[static_cast<std::size_t>(d.slave)]) != (before[i] ^ flip);
                bad += fab.ref.decode(dphi[static_cast<std::size_t>(d.master)]) != (state[i] ^ flip);
            }
            const auto d0 = Clock::now();
            const auto decoded = [&] {
                OBS_SPAN("bench.logic.decode");
                return logic::decodeFabricRun(fab, res);
            }();
            decodeS.push_back(secondsSince(d0));
            if (decoded[k] != outs) ++bad;
            if (bad) rep.fail("slot " + std::to_string(k) + ": " + std::to_string(bad) +
                              " flip-flop/output decode mismatches");
        }
    }
    double sumDecode = 0, sumToggle = 0;
    for (double v : decodeS) sumDecode += v;
    for (double v : toggles) sumToggle += v;
    rep.out.num("decode_s", decodeS.empty() ? 0.0 : sumDecode / decodeS.size());
    rep.out.num("toggle_ratio", toggles.empty() ? 0.0 : sumToggle / toggles.size());
    rep.out.num("rk_steps", static_cast<double>(slots) * kFabricSlotCycles *
                                static_cast<double>(kFabricStepsPerCycle));
    if (!args.replay || !res.ok) return;

    // Replay at a mid-slot state of the last slot.
    OBS_SPAN("bench.replay");
    // Delay groups per simulateBatched call, from the engine's own counter
    // over one extra cycle (metrics stay off in the timed phase); one
    // Program pass runs per (RK stage, delay group).
    obs::setMetricsEnabled(true);
    auto& groups = obs::MetricsRegistry::instance().counter("batch.fabric.delayGroups");
    const std::uint64_t groups0 = groups.value();
    const double tx = static_cast<double>(slots) * bp;
    (void)simulate(tx, tx + 1.0 / f1, dphi);
    rep.out.num("delay_groups", static_cast<double>(groups.value() - groups0));
    obs::setMetricsEnabled(false);
    rep.out.num("projection_per_stage", kConnectionsPerLatch);

    const core::PhaseSystem::Program prog(fab.sys);
    const double tm = fab.decodeTime(slots - 1);
    const num::Vec ym = logic::dphiAt(res, tm);
    std::vector<double> vals;
    double programUs = 0, projectionUs = 0;
    {
        OBS_SPAN("bench.core.program_eval");
        programUs = perCallUs([&] { prog.eval(tm, f1, ym, vals); }, 64);
    }
    const core::PpvModel& model = fab.sys.latchModel(0);
    std::vector<double> theta(ym.size()), ppv(ym.size());
    for (std::size_t i = 0; i < ym.size(); ++i) theta[i] = f1 * tm + ym[i];
    {
        OBS_SPAN("bench.core.projection");
        projectionUs = perCallUs(
            [&] { model.ppvMany(design->injUnknown, theta.data(), ppv.data(), theta.size()); },
            256);
    }
    rep.out.num("program_eval_us", programUs);
    rep.out.num("projection_us", projectionUs);
}

// ---------------------------------------------------------------------------
// hold_error_mc: repeated 1024-trial hold-error experiments (noise study).
// ---------------------------------------------------------------------------

constexpr std::size_t kMcTrials = 1024;
constexpr double kMcCSeconds = 2e-7;
constexpr double kMcHoldCycles = 60.0;
/// Reference error rate of one trial at this operating point, measured on
/// 257,024 trials of the default engine (251 experiments).  The band is +-6
/// binomial sigma of a 1024-trial experiment, so a re-pinned RNG passes
/// while a changed physics model does not.
constexpr double kMcRefRate = 0.2916;
constexpr double kMcBandSigmas = 6.0;

void runMc(const Args& args, Report& rep) {
    const auto setup0 = Clock::now();
    auto t0 = Clock::now();
    std::unique_ptr<logic::SyncLatchDesign> design;
    std::unique_ptr<core::Gae> gae;
    double start = 0.0;
    {
        OBS_SPAN("bench.setup");
        const auto osc = [&] {
            OBS_SPAN("bench.analysis.characterize");
            return logic::RingOscCharacterization::run(ckt::RingOscSpec{});
        }();
        rep.out.num("characterize_s", secondsSince(t0));
        t0 = Clock::now();
        OBS_SPAN("bench.phlogon.design");
        design = std::make_unique<logic::SyncLatchDesign>(
            logic::designSyncLatch(osc.model(), osc.outputUnknown(), 9.6e3, 100e-6));
        gae = std::make_unique<core::Gae>(design->model, design->f1,
                                          std::vector<core::Injection>{design->sync()});
        start = gae->stableEquilibria().at(0).dphi;
        rep.out.num("design_s", secondsSince(t0));
    }
    rep.out.num("setup_s", secondsSince(setup0));
    if (args.mode == "setup") return;

    const double holdTime = kMcHoldCycles / design->f1;
    InputRng rng{args.seed};
    const auto experiment = [&] {
        OBS_SPAN("bench.core.hold_error");
        core::StochasticGaeOptions opt;
        opt.seed = rng.next();
        return core::holdErrorProbability(*gae, kMcCSeconds, start, holdTime, kMcTrials, opt);
    };
    const double sd = std::sqrt(std::max(kMcRefRate * (1 - kMcRefRate), 1e-4) / kMcTrials);
    const double center = args.corrupt ? kMcRefRate + 0.5 : kMcRefRate;
    const double lo = center - kMcBandSigmas * sd, hi = center + kMcBandSigmas * sd;
    std::size_t trials = 0, errors = 0;
    const auto check = [&](const core::HoldErrorResult& r) {
        ++rep.attempted;
        trials += r.trials;
        errors += r.errors;
        if (r.trials != kMcTrials)
            rep.fail(std::to_string(kMcTrials - r.trials) + " trials did not finish");
        else if (r.errorRate() < lo || r.errorRate() > hi)
            rep.fail("error rate " + std::to_string(r.errorRate()) + " outside [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
    };
    // Untimed warm-up: two experiments spin up the pool workers.
    for (int i = 0; i < 2; ++i) check(experiment());
    std::size_t timedTrials = 0;
    {
        TimedPhase phase(rep, referenceAllCpusMs);  // trials split over the pool's threads
        while (phase.elapsed() < args.seconds) {
            phase.begin();
            const auto r = experiment();
            phase.end(static_cast<double>(r.trials));
            timedTrials += r.trials;
            check(r);
        }
    }
    const double f0 = gae->f0();
    const auto nSteps = static_cast<std::size_t>(std::ceil(holdTime * 20.0 * f0));
    rep.out.num("trials", static_cast<double>(trials));
    rep.out.num("errors", static_cast<double>(errors));
    rep.out.num("lane_steps", static_cast<double>(timedTrials * nSteps));
    if (!args.replay) return;

    // Replay the default (scalar) engine's per-step calls: the GAE
    // right-hand side on phases around the held lock point, where the
    // trials spend their time, and one normal draw from the generator that
    // engine uses.
    OBS_SPAN("bench.replay");
    std::vector<double> phases(1024);
    for (std::size_t i = 0; i < phases.size(); ++i) phases[i] = start + 0.05 * std::sin(0.37 * i);
    std::size_t k = 0;
    volatile double sink = 0;  // keeps the replayed calls live
    double splineNs = 0, rngNs = 0;
    {
        OBS_SPAN("bench.core.spline");
        splineNs = 1e3 * perCallUs([&] { sink = gae->rhs(phases[k++ % phases.size()]); }, 1 << 16);
    }
    std::mt19937_64 gen(args.seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    {
        OBS_SPAN("bench.numeric.rng");
        rngNs = 1e3 * perCallUs([&] { sink = gauss(gen); }, 1 << 16);
    }
    rep.out.num("spline_ns", splineNs);
    rep.out.num("rng_ns", rngNs);
}

// ---------------------------------------------------------------------------
// reference_server: a fixed-cost stand-in for phlogond.
// ---------------------------------------------------------------------------

/// Reference-kernel calls per request: about the compute of a
/// characterization cache hit in phlogond, which holds the daemon's p50.
constexpr int kRefServerCalls = 3;

bool readAll(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
        const ssize_t k = ::read(fd, p, n);
        if (k <= 0) return false;
        p += k;
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

bool writeAll(int fd, const void* buf, std::size_t n) {
    const auto* p = static_cast<const char*>(buf);
    while (n > 0) {
        const ssize_t k = ::write(fd, p, n);
        if (k <= 0) return false;
        p += k;
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

/// One connection: phlogond's frames (4-byte little-endian length, then the
/// payload); each request costs kRefServerCalls kernel calls and gets
/// {"ok":true} back.
void serveReferenceConnection(int fd) {
    static const std::string reply = "{\"ok\":true}";
    std::uint32_t len = 0;
    std::string payload;
    while (readAll(fd, &len, sizeof len)) {
        payload.resize(len);
        if (!readAll(fd, payload.data(), len)) break;
        for (int i = 0; i < kRefServerCalls; ++i) referenceSink = referenceKernel(false);
        const auto out = static_cast<std::uint32_t>(reply.size());
        if (!writeAll(fd, &out, sizeof out) || !writeAll(fd, reply.data(), reply.size())) break;
    }
    ::close(fd);
}

/// The daemon workload sends a share of its requests here, on the same
/// connections and host as phlogond's, and scales phlogond's latency by this
/// server's: neighbours slow both the wire hand-offs and the compute, and
/// this server's code never changes with the library.
int runReferenceServer(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (s < 0 || path.empty() || path.size() >= sizeof addr.sun_path) return 1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str());
    if (::bind(s, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 || ::listen(s, 16) != 0)
        return 1;
    for (;;) {
        const int c = ::accept(s, nullptr, nullptr);
        if (c >= 0) std::thread(serveReferenceConnection, c).detach();
    }
}

int parseArgs(int argc, char** argv, Args& a) {
    if (argc < 2) return 2;
    a.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string k = argv[i];
        const auto val = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
        if (k == "--seed") a.seed = std::stoull(val());
        else if (k == "--mode") a.mode = val();
        else if (k == "--seconds") a.seconds = std::stod(val());
        else if (k == "--replay") a.replay = true;
        else if (k == "--corrupt") a.corrupt = true;
        else if (k == "--socket") a.socket = val();
        else return 2;
    }
    return a.mode == "setup" || a.mode == "run" || a.mode == "config" ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (parseArgs(argc, argv, args) != 0) {
        std::fprintf(stderr,
                     "usage: perfbench_work <osc_characterize|fabric_slot|hold_error_mc> --seed N "
                     "--mode config|setup|run [--seconds S] [--replay] [--corrupt]\n"
                     "       perfbench_work reference_server --socket PATH\n");
        return 2;
    }
    if (args.workload == "reference_server") return runReferenceServer(args.socket);
    Report rep;
    // Set-up-only processes time the reference kernel around their set-up,
    // which runs on one thread.
    constexpr int kSetupRefCalls = 3;
    const auto setupRef = [&] {
        if (args.mode == "setup")
            for (int i = 0; i < kSetupRefCalls; ++i) rep.setupRef.push_back(referenceMs());
    };
    try {
        setupRef();
        if (args.mode == "config") {
        } else if (args.workload == "osc_characterize") runCharacterize(args, rep);
        else if (args.workload == "fabric_slot") runFabric(args, rep);
        else if (args.workload == "hold_error_mc") runMc(args, rep);
        else throw std::invalid_argument("unknown workload " + args.workload);
        setupRef();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_work: %s\n", e.what());
        return 1;
    }
    JsonOut& o = rep.out;
    o.num("attempted", static_cast<double>(rep.attempted));
    o.num("failed", static_cast<double>(rep.failed));
    std::string fails = "[";
    for (std::size_t i = 0; i < rep.failures.size(); ++i)
        fails += (i ? ",\"" : "\"") + rep.failures[i] + "\"";
    o.raw("failures", fails + "]");
    o.list("unit_wall_s", rep.unitWall);
    o.list("unit_cpu_s", rep.unitCpu);
    o.list("unit_work", rep.unitWork);
    o.list("unit_ref_ms", rep.unitRef);
    o.list("setup_ref_ms", rep.setupRef);
    o.num("timed_wall_s", rep.timedWall);
    o.num("timed_cpu_s", rep.timedCpu);
    o.num("pool_jobs", static_cast<double>(rep.pool1.jobs - rep.pool0.jobs));
    o.num("pool_serial_runs", static_cast<double>(rep.pool1.serialRuns - rep.pool0.serialRuns));
    o.num("pool_queue_wait_ms", 1e-6 * static_cast<double>(rep.pool1.queueWaitNs -
                                                           rep.pool0.queueWaitNs));
    o.num("peak_rss_mb", peakRssMb());
    // What actually ran.
    o.num("threads", static_cast<double>(num::defaultThreadCount()));
    o.str("simd", num::simd::tierName(num::simd::resolveTier(false)));
    o.str("lu", an::TransientOptions{}.newton.linearSolver == num::LinearSolver::Dense
                    ? "dense"
                    : "sparse");
    o.str("build_type", PERFBENCH_BUILD_TYPE);
    o.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    std::printf("%s\n", o.text().c_str());
    return 0;
}
