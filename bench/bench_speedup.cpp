// Efficiency claim (paper Secs. 2 and 4.2-4.3): phase-macromodel simulation
// is far cheaper than SPICE-level transient for the same simulated time —
// the scalar GAE replaces the oscillator's full DAE, and the full-system
// phase co-simulation replaces the FSM's DAE.
//
// google-benchmark timings of the three levels for the same workload: the
// D latch writing a bit over 40 reference cycles, and the serial adder over
// one bit slot.

// A second axis of efficiency is added by the deterministic parallel sweep
// engine (numeric/parallel.hpp): the figure sweeps and Monte-Carlo ensembles
// are embarrassingly parallel, and the slot-per-index discipline keeps their
// results bitwise identical at any thread count — so the serial-vs-parallel
// comparison below is purely a wall-clock statement, not a numerics one.
// PHLOGON_THREADS is the only thread setting; each thread-count row sets it
// for its own run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dcop.hpp"
#include "analysis/transient.hpp"
#include "common.hpp"
#include "common/scoped_env.hpp"
#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"
#include "core/noise.hpp"
#include "io/model_cache.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phlogon/encoding.hpp"
#include "phlogon/serial_adder.hpp"

using namespace phlogon;
using testutil::ScopedThreadsEnv;

namespace {

/// PHLOGON_BENCH_SMOKE=1 shrinks every one-shot workload so the binary
/// finishes in seconds — used as a CI smoke test of the bench paths.
bool smokeMode() { return std::getenv("PHLOGON_BENCH_SMOKE") != nullptr; }

/// Machine-readable mirror of the one-shot report sections, written to
/// bench_out/speedup.json at the end of the one-shot phase.
bench::JsonReport& jsonOut() {
    static bench::JsonReport r;
    return r;
}

/// Detuning grid across the SYNC-only locking range (Fig. 8).
num::Vec phaseErrorGrid(const std::vector<core::Injection>& inj, std::size_t points) {
    const core::LockingRange r = core::lockingRange(bench::design100().model, inj);
    num::Vec grid;
    for (std::size_t i = 0; i < points; ++i)
        grid.push_back(r.fLow + r.width() * (0.02 + 0.96 * static_cast<double>(i) /
                                                        static_cast<double>(points - 1)));
    return grid;
}

// Fig. 8 phase-error sweep (one GAE per detuning point) at state.range(0)
// threads.
void BM_Fig08PhaseErrorSweep(benchmark::State& state) {
    const ScopedThreadsEnv threads(std::to_string(state.range(0)).c_str());
    const auto& d = bench::design100();
    const std::vector<core::Injection> inj{d.sync()};
    const num::Vec grid = phaseErrorGrid(inj, 40);
    for (auto _ : state) {
        const auto pts = core::lockPhaseErrorSweep(d.model, inj, grid);
        benchmark::DoNotOptimize(pts.back().f1);
    }
}
BENCHMARK(BM_Fig08PhaseErrorSweep)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Monte-Carlo noise-escape ensemble (the noise-immunity ablation workload).
void BM_EscapeTrialsEnsemble(benchmark::State& state) {
    const ScopedThreadsEnv threads(std::to_string(state.range(0)).c_str());
    const auto& d = bench::design100();
    const core::Gae gae(d.model, d.f1, {d.sync()});
    core::StochasticGaeOptions opt;
    opt.seed = 7;
    for (auto _ : state) {
        const auto r = core::holdErrorProbability(gae, 2e-7, gae.stableEquilibria()[0].dphi,
                                                  60.0 / d.f1, 64, opt);
        benchmark::DoNotOptimize(r.errors);
    }
}
BENCHMARK(BM_EscapeTrialsEnsemble)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One-shot wall-clock comparison printed before the benchmark table: the
// Fig. 8 phase-error sweep at 1 thread and at the pool's parallel width.
// Each figure is the median of five calls after one untimed call at that
// thread count, so neither side pays for cold caches or pool start-up.
void reportSweepSpeedup() {
    const auto& d = bench::design100();
    const std::vector<core::Injection> inj{d.sync()};
    const num::Vec grid = phaseErrorGrid(inj, smokeMode() ? 8 : 40);
    const auto medianMs = [&](unsigned threads) {
        const ScopedThreadsEnv env(std::to_string(threads).c_str());
        std::vector<double> ms;
        for (int call = 0; call < 6; ++call) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto pts = core::lockPhaseErrorSweep(d.model, inj, grid);
            benchmark::DoNotOptimize(pts.back().f1);
            if (call > 0)
                ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
        }
        std::sort(ms.begin(), ms.end());
        return ms[ms.size() / 2];
    };
    const double serial = medianMs(1);
    const unsigned threads = std::max(4u, num::defaultThreadCount());
    const double parallel = medianMs(threads);
    std::printf("Fig. 8 phase-error sweep (%zu detunings, one GAE each; median of 5 calls):\n",
                grid.size());
    std::printf("  serial (1 thread):    %8.2f ms\n", serial);
    std::printf("  parallel (%u threads): %8.2f ms  -> speedup x%.2f\n", threads, parallel,
                serial / parallel);
    jsonOut().set("sweep", "serialMs", serial);
    jsonOut().set("sweep", "parallelMs", parallel);
    jsonOut().set("sweep", "threads", threads);
    jsonOut().set("sweep", "speedup", serial / parallel);
    std::printf("  (identical results by construction; %u hardware core(s) visible)\n\n",
                std::thread::hardware_concurrency());
}

// One-shot SIMD kernel tier table (DESIGN.md §18): the spline kernel
// (simd::Kernels::splineAffine over a PeriodicCubicSpline's cell table) on
// the scalar loops and on the process-wide tier (the detected one unless
// PHLOGON_SIMD=0).  The contract makes this a pure wall-clock comparison:
// both produce bit-identical results.  The Monte-Carlo engine end to end is
// measured by perfbench's hold_error_mc workload.
void reportSimdSpeedup() {
    using num::simd::Tier;
    const Tier tier = num::simd::resolveTier();
    std::printf("SIMD kernel tier: scalar kernels vs the process-wide tier (%s%s):\n",
                num::simd::tierName(tier),
                tier == Tier::Scalar ? " — no vector tier in use, expect x1.0" : "");

    // Batched spline evaluation — the GAE RHS primitive (gather + Horner
    // over the per-cell cubics).
    const std::size_t knots = 1024;
    num::Vec s(knots);
    for (std::size_t i = 0; i < knots; ++i) {
        const double u = static_cast<double>(i) / static_cast<double>(knots);
        s[i] = std::sin(2.0 * std::numbers::pi * u) + 0.3 * std::cos(6.0 * std::numbers::pi * u);
    }
    const num::PeriodicCubicSpline spline(s);
    const std::size_t lanes = 4096;
    num::Vec t(lanes), out(lanes);
    for (std::size_t l = 0; l < lanes; ++l) t[l] = 0.6180339887498949 * static_cast<double>(l);
    const std::size_t reps = smokeMode() ? 1000 : 10000;
    const auto evalMs = [&](Tier tr) {
        const auto t0 = std::chrono::steady_clock::now();
        const num::simd::Kernels& k = num::simd::kernels(tr);
        for (std::size_t r = 0; r < reps; ++r)
            k.splineAffine(spline.coeffs().data(), knots, t.data(), out.data(), lanes, 1.7, -0.3);
        benchmark::DoNotOptimize(out.data());
        return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    };
    evalMs(tier);  // warm up (table + instruction caches)
    const double scalarMs = evalMs(Tier::Scalar);
    const double simdMs = evalMs(tier);
    std::printf("  spline splineAffine (%zu lanes x %zu reps): scalar %8.2f ms | "
                "%s %8.2f ms  -> speedup x%.2f\n\n",
                lanes, reps, scalarMs, num::simd::tierName(tier), simdMs, scalarMs / simdMs);
    jsonOut().addRow("simdSpeedup", {{"workload", 0},
                                     {"tier", static_cast<double>(tier)},
                                     {"scalarMs", scalarMs},
                                     {"simdMs", simdMs},
                                     {"speedup", scalarMs / simdMs}});
}

// The Monte-Carlo engine at 1 and 4 threads.
void BM_HoldErrorMonteCarlo(benchmark::State& state) {
    const ScopedThreadsEnv threads(std::to_string(state.range(0)).c_str());
    const auto& d = bench::design100();
    const core::Gae gae(d.model, d.f1, {d.sync()});
    const double start = gae.stableEquilibria()[0].dphi;
    core::StochasticGaeOptions opt;
    opt.seed = 7;
    const std::size_t trials = smokeMode() ? 64 : 256;
    for (auto _ : state) {
        const auto r = core::holdErrorProbability(gae, 2e-7, start, 60.0 / d.f1, trials, opt);
        benchmark::DoNotOptimize(r.errors);
    }
}
BENCHMARK(BM_HoldErrorMonteCarlo)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Fig. 10/12 bit-flip corners as one B-lane gaeTransientEnsemble call
// against B one-lane gaeTransient calls.  Both run the same engine and give
// bitwise-identical trajectories; what the ensemble saves is the per-call
// Gae rebuild (one g-grid correlation per segment instead of per trial) and
// B-1 of every B batched RHS passes.
void BM_GaeBitFlipEnsemble(benchmark::State& state) {
    const auto& d = bench::design100();
    const std::vector<core::GaeSegment> sched{{0.0, {d.sync(), d.dataInjection(150e-6, 1)}}};
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    num::Vec starts(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        starts[l] = d.reference.phase0 + 0.01 + 0.001 * static_cast<double>(l);
    for (auto _ : state) {
        const auto r = core::gaeTransientEnsemble(d.model, d.f1, sched, starts, 0.0, 40.0 / d.f1);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_GaeBitFlipEnsemble)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GaeBitFlipScalarLoop(benchmark::State& state) {
    const auto& d = bench::design100();
    const std::vector<core::GaeSegment> sched{{0.0, {d.sync(), d.dataInjection(150e-6, 1)}}};
    const std::size_t lanes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto r = core::gaeTransient(
                d.model, d.f1, sched, d.reference.phase0 + 0.01 + 0.001 * static_cast<double>(l),
                0.0, 40.0 / d.f1);
            benchmark::DoNotOptimize(r.ok);
        }
    }
}
BENCHMARK(BM_GaeBitFlipScalarLoop)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Artifact cache (io/): cold-vs-warm extraction cost.

void reportCache() {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "phlogon_bench_cache";
    fs::remove_all(dir);
    const io::ArtifactCache cache(dir);

    // Cold vs warm PSS+PPV characterization through the content-addressed
    // cache (the latch_design / serial_adder_fsm startup cost).
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    ckt::Dae dae(nl);
    const an::PssOptions pssOpt = logic::RingOscCharacterization::defaultPssOptions();
    const auto charMs = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = io::characterizeCached(dae, nl, pssOpt, cache);
        const double ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count();
        return std::pair<double, io::CachedCharacterization>(ms, r);
    };
    const auto [coldMs, cold] = charMs();
    const auto [warmMs, warm] = charMs();
    std::printf("Artifact cache: ring-oscillator PSS+PPV characterization (key %016llx):\n",
                static_cast<unsigned long long>(cold.key));
    std::printf("  cold (%-4s): %8.2f ms  (%zu extraction LU factorizations)\n",
                io::cacheOutcomeName(cold.outcome).c_str(), coldMs,
                cold.value.pss.counters.luFactorizations);
    std::printf("  warm (%-4s): %8.2f ms  (%zu extraction LU factorizations) -> speedup x%.1f\n\n",
                io::cacheOutcomeName(warm.outcome).c_str(), warmMs,
                warm.value.pss.counters.luFactorizations, coldMs / warmMs);

    jsonOut().set("cache", "coldMs", coldMs);
    jsonOut().set("cache", "warmMs", warmMs);
    jsonOut().set("cache", "speedup", coldMs / warmMs);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Sparse MNA engine (DESIGN.md §15): the same TRAP transient run
// once through the dense LU and once through pattern-cached CSR assembly +
// fill-reducing SparseLu.  Three workloads:
//   1. RC ladders, 10 -> 1000 sections (12 -> 1002 MNA unknowns), with a
//      weak cubic conductance every 5th tap so the Jacobian stays
//      state-dependent — the scaling table.
//   2. The breadboard FSM (serial-adder circuit) over one bit slot — a real
//      device-level workload at modest size.
//   3. A compiled fabric of coupled D-latch circuits (~600 unknowns of
//      transistor-level MNA) run sparse-only: the dense engine's O(n^2)
//      assembly + O(n^3) factorization make it impractical there, which is
//      the point of the tier.

void buildSparseLadder(ckt::Netlist& nl, int sections) {
    nl.addVoltageSource("vin", "n0", "0", ckt::Waveform::dc(1.0));
    for (int i = 0; i < sections; ++i) {
        const std::string a = "n" + std::to_string(i);
        const std::string b = "n" + std::to_string(i + 1);
        nl.addResistor("r" + std::to_string(i), a, b, 1e3);
        nl.addCapacitor("c" + std::to_string(i), b, "0", 1e-9);
        if (i % 5 == 0)
            nl.addNonlinearConductance("g" + std::to_string(i), b, "0",
                                       num::Vec{1e-5, 0.0, 2e-5});
    }
}

struct SparseRunStats {
    double wallMs = 0.0;
    num::SolverCounters counters;
};

SparseRunStats timedTransient(const ckt::Dae& dae, const num::Vec& x0, double t1, double dt,
                              num::LinearSolver solver) {
    an::TransientOptions opt;
    opt.dt = dt;
    opt.storeEvery = 1 << 20;  // endpoints only — measure the solver, not storage
    opt.newton.linearSolver = solver;
    const auto t0 = std::chrono::steady_clock::now();
    const an::TransientResult r = an::transient(dae, x0, 0.0, t1, opt);
    SparseRunStats s;
    s.wallMs =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    s.counters = r.counters;
    if (!r.ok) std::printf("  [WARN: transient failed: %s]\n", r.message.c_str());
    benchmark::DoNotOptimize(r.ok);
    return s;
}

void reportSparseScaling() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::size_t steps = smokeMode() ? 40 : 100;
    const std::vector<int> ladders =
        smokeMode() ? std::vector<int>{10, 30, 100} : std::vector<int>{10, 30, 100, 300, 1000};

    std::printf("Sparse MNA engine: dense LU vs pattern-cached CSR + fill-reducing SparseLu,\n");
    std::printf("TRAP transient, %zu steps (linearSolver = dense | sparse):\n", steps);
    std::printf("  %-26s %9s %12s %12s %9s %9s\n", "workload", "unknowns", "dense [ms]",
                "sparse [ms]", "speedup", "nnz");
    const auto row = [&](const char* name, std::size_t unknowns, double denseMs, double sparseMs,
                         std::size_t nnz) {
        if (std::isnan(denseMs))
            std::printf("  %-26s %9zu %12s %12.2f %9s %9zu\n", name, unknowns, "—", sparseMs,
                        "—", nnz);
        else
            std::printf("  %-26s %9zu %12.2f %12.2f %8.2fx %9zu\n", name, unknowns, denseMs,
                        sparseMs, denseMs / sparseMs, nnz);
        jsonOut().addRow("sparseScaling",
                         {{"unknowns", static_cast<double>(unknowns)},
                          {"denseMs", denseMs},
                          {"sparseMs", sparseMs},
                          {"speedup", std::isnan(denseMs) ? nan : denseMs / sparseMs},
                          {"jacobianNnz", static_cast<double>(nnz)}});
    };

    // 1. RC ladder scaling sweep.
    std::vector<std::string> names;  // keep printf'd c_str()s alive
    names.reserve(ladders.size());
    for (const int sections : ladders) {
        ckt::Netlist nl;
        buildSparseLadder(nl, sections);
        ckt::Dae dae(nl);
        const num::Vec x0(dae.size(), 0.0);
        const double dt = 1e-7, t1 = dt * static_cast<double>(steps);
        timedTransient(dae, x0, t1, dt, num::LinearSolver::Sparse);  // warm up caches
        const SparseRunStats d = timedTransient(dae, x0, t1, dt, num::LinearSolver::Dense);
        const SparseRunStats s = timedTransient(dae, x0, t1, dt, num::LinearSolver::Sparse);
        names.push_back("RC ladder " + std::to_string(sections));
        row(names.back().c_str(), dae.size(), d.wallMs, s.wallMs, s.counters.jacobianNnz);
    }

    // 2. Breadboard FSM: the serial-adder circuit over one bit slot.
    {
        ckt::RingOscSpec spec;
        ckt::RingOscSpec loaded = spec;
        loaded.outputLoadsOhms = logic::serialAdderLatchLoads();
        an::PssOptions popt = logic::RingOscCharacterization::defaultPssOptions();
        popt.freqHint = 10.2e3;
        const auto osc = logic::RingOscCharacterization::run(loaded, popt);
        const auto design =
            logic::designSyncLatch(osc.model(), osc.outputUnknown(), osc.f0(), 300e-6);
        ckt::Netlist nl;
        logic::SerialAdderOptions opt;
        opt.bitPeriodCycles = smokeMode() ? 10 : 80;
        const auto sc = logic::buildSerialAdderCircuit(nl, design, spec, {0, 1}, {0, 1}, opt);
        ckt::Dae dae(nl);
        const an::DcopResult dc = an::dcOperatingPoint(dae);
        num::Vec x0 = dc.x;
        x0[static_cast<std::size_t>(nl.findNode("lat1.n1"))] += 0.4;
        x0[static_cast<std::size_t>(nl.findNode("lat2.n1"))] -= 0.4;
        const double dt = 1.0 / (design.f1 * 200.0);
        const SparseRunStats d = timedTransient(dae, x0, sc.bitPeriod, dt, num::LinearSolver::Dense);
        const SparseRunStats s =
            timedTransient(dae, x0, sc.bitPeriod, dt, num::LinearSolver::Sparse);
        row("breadboard FSM (adder)", dae.size(), d.wallMs, s.wallMs, s.counters.jacobianNnz);
    }

    // 3. Coupled D-latch fabric, sparse-only (device-level MNA the dense
    //    path cannot reach at interactive timescales).
    {
        const auto& dsn = bench::design100();
        const std::size_t latches = smokeMode() ? 6 : 100;
        ckt::Netlist nl;
        std::vector<logic::DLatchEnCircuit> cells;
        for (std::size_t i = 0; i < latches; ++i)
            cells.push_back(logic::buildDLatchEnCircuit(
                nl, "dl" + std::to_string(i), ckt::RingOscSpec{}, dsn.syncAmp, dsn.f1,
                logic::dataCurrentWaveform(dsn, 150e-6, {1}, 1.0), [](double) { return true; }));
        for (std::size_t i = 1; i < cells.size(); ++i)
            nl.addResistor("rcpl" + std::to_string(i), cells[i - 1].osc.out(),
                           cells[i].osc.out(), 1e6);
        ckt::Dae dae(nl);
        an::DcopOptions dopt;
        dopt.newton.linearSolver = num::LinearSolver::Sparse;
        const an::DcopResult dc = an::dcOperatingPoint(dae, dopt);
        num::Vec x0 = dc.x;
        for (std::size_t i = 0; i < x0.size(); ++i)
            x0[i] += 0.3 * std::sin(1.0 + 2.3 * static_cast<double>(i));
        const double dt = 1.0 / (dsn.f1 * 300.0);
        const double cycles = smokeMode() ? 1.0 : 4.0;
        const SparseRunStats s =
            timedTransient(dae, x0, cycles / dsn.f1, dt, num::LinearSolver::Sparse);
        names.push_back(std::to_string(latches) + "-latch fabric (MNA)");
        row(names.back().c_str(), dae.size(), nan, s.wallMs, s.counters.jacobianNnz);
        jsonOut().set("sparseFabric", "unknowns", static_cast<double>(dae.size()));
        jsonOut().set("sparseFabric", "factorNnz",
                      static_cast<double>(s.counters.factorNnz));
        jsonOut().set("sparseFabric", "sparseRefactors",
                      static_cast<double>(s.counters.sparseRefactors));
    }
    std::printf("  (nnz = Jacobian nonzeros; dense column '—' = not run — the fabric row\n");
    std::printf("   is the device-level workload the sparse tier exists for; parity is\n");
    std::printf("   enforced by tests/analysis/test_sparse_parity.cpp)\n\n");
}

void BM_LatchSpiceTransient(benchmark::State& state) {
    const auto& d = bench::design100();
    ckt::Netlist nl;
    logic::buildDLatchEnCircuit(nl, "dl", ckt::RingOscSpec{}, d.syncAmp, d.f1,
                                logic::dataCurrentWaveform(d, 150e-6, {1}, 1.0),
                                [](double) { return true; });
    ckt::Dae dae(nl);
    const an::DcopResult dc = an::dcOperatingPoint(dae);
    num::Vec x0 = dc.x;
    for (std::size_t i = 0; i < x0.size(); ++i)
        x0[i] += 0.3 * std::sin(1.0 + 2.3 * static_cast<double>(i));
    an::TransientOptions opt;
    opt.dt = 1.0 / (d.f1 * 300.0);
    opt.storeEvery = 16;
    for (auto _ : state) {
        const auto r = an::transient(dae, x0, 0.0, 40.0 / d.f1, opt);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_LatchSpiceTransient)->Unit(benchmark::kMillisecond);

void BM_LatchGaeTransient(benchmark::State& state) {
    const auto& d = bench::design100();
    const std::vector<core::GaeSegment> sched{{0.0, {d.sync(), d.dataInjection(150e-6, 1)}}};
    for (auto _ : state) {
        const auto r = core::gaeTransient(d.model, d.f1, sched, d.reference.phase0 + 0.02, 0.0,
                                          40.0 / d.f1);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_LatchGaeTransient)->Unit(benchmark::kMillisecond);

void BM_LatchPhaseSystem(benchmark::State& state) {
    // Non-averaged phase ODE (eq. 13) — between GAE and SPICE in cost.
    const auto& d = bench::design100();
    core::PhaseSystem sys;
    const auto latch = sys.addLatch(d.model, "lat");
    const double f1 = d.f1, sa = d.syncAmp;
    const auto sync = sys.addExternal(
        [sa, f1](double t) { return sa * std::cos(4.0 * std::numbers::pi * f1 * t); });
    sys.connect(latch, d.injUnknown, sync, 1.0);
    const auto dSig = sys.addExternal(logic::dataSignal(d.reference, {1}, 1.0));
    sys.connect(latch, d.injUnknown, dSig, 150e-6, d.signalCouplingShift());
    for (auto _ : state) {
        const auto r =
            sys.simulate(f1, 0.0, 40.0 / f1, num::Vec{d.reference.phase0 + 0.02}, 64, 16);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_LatchPhaseSystem)->Unit(benchmark::kMillisecond);

void BM_AdderPhaseSystemPerSlot(benchmark::State& state) {
    const auto& osc = bench::osc1n1p();
    static const auto design =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), bench::kF1, 300e-6);
    const auto fab = logic::compileFabric(logic::serialAdder(), design, {{0, 0}, {1, 1}});
    for (auto _ : state) {
        const auto r = fab.sys.simulate(design.f1, 0.0, fab.bitPeriod, fab.initialDphi, 64, 16);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_AdderPhaseSystemPerSlot)->Unit(benchmark::kMillisecond);

void BM_AdderSpicePerSlot(benchmark::State& state) {
    ckt::RingOscSpec spec;
    ckt::RingOscSpec loaded = spec;
    loaded.outputLoadsOhms = logic::serialAdderLatchLoads();
    an::PssOptions popt = logic::RingOscCharacterization::defaultPssOptions();
    popt.freqHint = 10.2e3;
    static const auto osc = logic::RingOscCharacterization::run(loaded, popt);
    static const auto design =
        logic::designSyncLatch(osc.model(), osc.outputUnknown(), osc.f0(), 300e-6);
    ckt::Netlist nl;
    logic::SerialAdderOptions opt;
    opt.bitPeriodCycles = 80;
    const auto sc = logic::buildSerialAdderCircuit(nl, design, spec, {0, 1}, {0, 1}, opt);
    ckt::Dae dae(nl);
    const an::DcopResult dc = an::dcOperatingPoint(dae);
    num::Vec x0 = dc.x;
    x0[static_cast<std::size_t>(nl.findNode("lat1.n1"))] += 0.4;
    x0[static_cast<std::size_t>(nl.findNode("lat2.n1"))] -= 0.4;
    an::TransientOptions topt;
    topt.dt = 1.0 / (design.f1 * 200.0);
    topt.storeEvery = 32;
    for (auto _ : state) {
        const auto r = an::transient(dae, x0, 0.0, sc.bitPeriod, topt);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_AdderSpicePerSlot)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Triangular-solve layout micro-benchmark: LuFactor::solveMatrixInto sweeps
// all RHS columns per pivot row (contiguous rows of the solution matrix),
// versus the historical column-at-a-time loop.  The n x (n+1) shape matches
// the PSS shooting sensitivity RHS, the hot multi-RHS path.

num::Matrix luBenchMatrix(std::size_t n) {
    // Deterministic, diagonally dominant, fully dense.
    num::Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        double off = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            a(r, c) = std::sin(1.0 + 3.7 * static_cast<double>(r * n + c));
            off += std::abs(a(r, c));
        }
        a(r, r) += off;
    }
    return a;
}

num::Matrix luBenchRhs(std::size_t n, std::size_t m) {
    num::Matrix b(n, m);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < m; ++c)
            b(r, c) = std::cos(0.5 + 2.1 * static_cast<double>(r * m + c));
    return b;
}

void BM_LuSolveMatrixBlocked(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const num::Matrix a = luBenchMatrix(n);
    const num::Matrix b = luBenchRhs(n, n + 1);
    const auto lu = num::LuFactor::factor(a);
    num::Matrix x;
    for (auto _ : state) {
        lu->solveMatrixInto(b, x);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_LuSolveMatrixBlocked)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

void BM_LuSolveMatrixPerColumn(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const num::Matrix a = luBenchMatrix(n);
    const num::Matrix b = luBenchRhs(n, n + 1);
    const auto lu = num::LuFactor::factor(a);
    num::Matrix x(n, n + 1);
    num::Vec col(n), sol;
    for (auto _ : state) {
        // Historical layout: one triangular solve per RHS column.
        for (std::size_t c = 0; c <= n; ++c) {
            for (std::size_t r = 0; r < n; ++r) col[r] = b(r, c);
            lu->solveInto(col, sol);
            for (std::size_t r = 0; r < n; ++r) x(r, c) = sol[r];
        }
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_LuSolveMatrixPerColumn)->Arg(16)->Arg(48)->Arg(96)->Unit(benchmark::kMicrosecond);

// ---- observability overhead (DESIGN.md §12 budget) ------------------------
//
// The contract for instrumentation left in hot paths: a disabled OBS_SPAN /
// metric macro costs one relaxed atomic load and a predictable branch.  The
// CI overhead-guard job asserts the end-to-end effect on bench smoke runs;
// these microbenchmarks pin down the per-site cost (and its enabled-mode
// counterpart) so regressions show up at the right granularity.

void BM_ObsDisabledSpan(benchmark::State& state) {
    obs::Tracer::instance().stop();
    for (auto _ : state) {
        OBS_SPAN("bench.disabled");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ObsDisabledSpan)->Unit(benchmark::kNanosecond);

// Once the 64 Ki per-thread buffer fills, iterations measure the drop path
// (cheaper than a record); the reported time is a blend, which matches what
// a saturating trace run actually pays.
void BM_ObsEnabledSpan(benchmark::State& state) {
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / "phlogon_bench_trace.json";
    obs::Tracer::instance().start(path.string());
    for (auto _ : state) {
        OBS_SPAN("bench.enabled");
        benchmark::ClobberMemory();
    }
    obs::Tracer::instance().stop();
    std::filesystem::remove(path);
}
BENCHMARK(BM_ObsEnabledSpan)->Unit(benchmark::kNanosecond);

void BM_MetricsCounterDisabled(benchmark::State& state) {
    obs::setMetricsEnabled(false);
    for (auto _ : state) {
        PHLOGON_COUNT_METRIC("bench.disabled.count");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MetricsCounterDisabled)->Unit(benchmark::kNanosecond);

void BM_MetricsCounterEnabled(benchmark::State& state) {
    obs::setMetricsEnabled(true);
    for (auto _ : state) {
        PHLOGON_COUNT_METRIC("bench.enabled.count");
        benchmark::ClobberMemory();
    }
    obs::setMetricsEnabled(false);
}
BENCHMARK(BM_MetricsCounterEnabled)->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
    bench::banner("Speedup", "phase macromodels vs SPICE-level transient (paper Secs. 2/4)");
    bench::threadInfo();
    std::printf("Workloads: D-latch bit write over 40 cycles; serial adder over one %d-cycle\n",
                80);
    std::printf("bit slot.  Expect the GAE (scalar ODE) to be orders of magnitude faster\n");
    std::printf("and the non-averaged phase system to sit in between.\n\n");
    reportSweepSpeedup();
    reportSimdSpeedup();
    reportSparseScaling();
    reportCache();
    if (jsonOut().write("speedup"))
        std::printf("[exported bench_out/speedup.json]\n\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
