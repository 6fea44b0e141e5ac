#!/usr/bin/env python3
"""phlogon benchmark: one command, four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call builds the library, phlogond,
phlogon_trace and the workload runner from source into .bench_build/.

Workloads (BENCHMARK.json says why each is there):
  osc_characterize  cold ring-oscillator characterizations (PSS + PPV)
  fabric_slot       500-stage shift register on the 1000-latch fabric
  hold_error_mc     repeated 1024-trial hold-error Monte-Carlo experiments
  phlogond_mixed    the daemon under a seeded open-loop request mix

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer split
(replayed calls times the program's own counters, spans from
PHLOGON_TRACE, and the overhead of tracing).  Everything runs with
PHLOGON_THREADS=2 and every other PHLOGON_* variable cleared, so the
library is measured with its shipped defaults.  The last line of stdout
is the result object; the line before it stamps the configuration that ran.

Host speed.  On a shared host, neighbours slow a CPU by up to 1.5x for
seconds to minutes at a time, so the same code reads 20-40 % apart from run
to run.  The batch workloads therefore time a fixed reference kernel of the
benchmark's own (perfbench_work's referenceKernel, no library code) right
before and after every unit and set-up, where that work runs, and report
each time scaled to a host on which the kernel takes REF_MS: a unit that
took t ms next to a kernel call of k ms counts as t * REF_MS / k ms.  A
library change moves the unit's time but not the kernel's.  The daemon's
p50 depends as much on thread hand-offs between CPUs as on compute, which a
kernel call does not follow; so the daemon workload sends a share of its
requests, on the same client threads, to perfbench_work's reference server
(a fixed-cost service of the benchmark's own) and scales phlogond's p50 to
a host on which that server's p50 is REF_SERVER_MS; each daemon set-up is
scaled by that server's p50 over calls just before and after it.  The raw
wall times and the references' own times are per-layer metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import phlogond_load as load  # noqa: E402

TRACE_TOOL = BUILD / "tools" / "phlogon_trace"
BATCH = ("osc_characterize", "fabric_slot", "hold_error_mc")
WORKLOADS = BATCH + ("phlogond_mixed",)
SETUP_PROCESSES = 11  # fresh set-up processes per run
# Reference-kernel time (ms) the batch timings are scaled to.  It is a fixed
# unit: only ratios between runs of the same benchmark mean anything.
REF_MS = 0.6
# The daemon's p50 is scaled likewise to a host on which the reference
# server's p50 latency is REF_SERVER_MS, another fixed unit.
REF_SERVER_MS = 3.0
SETUP_REF_CALLS = 5  # reference-server calls before and after each daemon set-up
THREADS = "2"
WORK_UNIT = {"osc_characterize": "characterizations", "fabric_slot": "latch-cycles",
             "hold_error_mc": "trials", "phlogond_mixed": "requests"}

JOB_KINDS = {"characterize-latch": "characterize", "locking-range-sweep": "sweep",
             "hold-error-mc": "mc", "fsm-transient": "fsm"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def base_env(threads=THREADS):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PHLOGON_")}
    env["PHLOGON_THREADS"] = threads
    return env


def build():
    """Configure once, then build the four targets (incremental)."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock, open(BUILD / "build.log", "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                      "perfbench_work", "phlogond", "phlogon_trace"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed; see %s" % (BUILD / "build.log"), 1)


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout when it is a git work tree; source_digest()
    identifies the sources either way."""
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def work(workload, seed, extra, env, timeout=170):
    r = subprocess.run([str(BUILD / "perfbench_work"), workload, "--seed", str(seed)] + extra,
                       capture_output=True, text=True, env=env, timeout=timeout)
    if r.returncode != 0:
        fail("perfbench_work %s failed (%d): %s" % (workload, r.returncode, r.stderr.strip()), 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


pct = load.pct


def scaled_units(r):
    """Each timed unit's seconds at reference host speed: its wall time over
    the mean of the kernel calls just before and just after it, times REF_MS."""
    ref = r["unit_ref_ms"]
    return [w * REF_MS * 2.0 / (ref[i] + ref[i + 1]) for i, w in enumerate(r["unit_wall_s"])]


def rate_of(r):
    """Work per second over the timed units, at reference host speed."""
    return sum(r["unit_work"]) / sum(scaled_units(r))


def scaled_setup(r):
    """A set-up-only process's set-up seconds at reference host speed."""
    return r["setup_s"] * REF_MS / statistics.median(r["setup_ref_ms"])


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------

def batch_untraced(args, env, flags):
    setups = [scaled_setup(work(args.workload, args.seed, ["--mode", "setup"], env))
              for _ in range(SETUP_PROCESSES)]
    r = work(args.workload, args.seed,
             ["--mode", "run", "--seconds", str(args.seconds)] + flags, env)
    unit_ms = [1e3 * t for t in scaled_units(r)]
    log("%s: %d units, scaled p50 %.6g ms (wall %.6g ms, reference kernel %.4g ms), %.2f s "
        "timed; %d attempted, %d failed %s"
        % (args.workload, len(unit_ms), statistics.median(unit_ms),
           1e3 * statistics.median(r["unit_wall_s"]), statistics.median(r["unit_ref_ms"]),
           r["timed_wall_s"], r["attempted"], r["failed"], r["failures"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": r["peak_rss_mb"],
        "work_per_s": rate_of(r),
        "latency_p50_ms": statistics.median(unit_ms),
    }
    return r, metrics


def declared(kind):
    """BENCHMARK.json's metric list of `kind` (end_to_end or per_layer)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def layer_metrics():
    """Every per-layer metric name, at 0 until a workload measures it."""
    return dict.fromkeys((m["name"] for m in declared("per_layer")), 0.0)


def batch_traced(args, env, flags, trace_dir):
    half = str(max(1.0, args.seconds / 2))
    plain = work(args.workload, args.seed,
                 ["--mode", "run", "--seconds", str(args.seconds)] + flags, env)
    trace = trace_dir / ("%s-%d.json" % (args.workload, args.seed))
    tenv = dict(env, PHLOGON_TRACE=str(trace))
    r = work(args.workload, args.seed,
             ["--mode", "run", "--seconds", str(args.seconds), "--replay"] + flags, tenv)
    one = work(args.workload, args.seed, ["--mode", "run", "--seconds", half] + flags,
               base_env("1"))
    spans = span_summary(trace)
    m = layer_metrics()
    wall, cpu = r["timed_wall_s"], r["timed_cpu_s"]
    m["analysis.characterize_s"] = r["characterize_s"]
    m["numeric.pool_parallelism"] = cpu / wall
    m["numeric.pool_queue_wait_ms"] = r["pool_queue_wait_ms"]
    m["numeric.pool_jobs"] = r["pool_jobs"]
    m["numeric.pool_serial_runs"] = r["pool_serial_runs"]
    m["numeric.pool_speedup"] = rate_of(plain) / rate_of(one)
    m["obs.trace_overhead_pct"] = 100.0 * (rate_of(plain) / rate_of(r) - 1.0)
    m["bench.latency_p95_ms"] = pct([1e3 * t for t in scaled_units(plain)], 95)
    m["bench.wall_latency_p50_ms"] = 1e3 * statistics.median(plain["unit_wall_s"])
    m["bench.ref_ms"] = statistics.median(plain["unit_ref_ms"])

    if args.workload == "osc_characterize":
        steps = r["steps"]
        m["analysis.steps"] = steps
        m["analysis.rejected_steps"] = r["rejected_steps"]
        m["analysis.damping_events"] = r["damping_events"]
        m["analysis.newton_per_step"] = r["newton_iters"] / steps
        m["numeric.lu_per_step"] = r["lu_factorizations"] / steps
        for k in ("lu_factor_us", "lu_solve_us"):
            m["numeric." + k] = r[k]
        m["circuit.eval_us"] = r["eval_us"]
        m["circuit.residual_us"] = r["residual_us"]
        # Per-call cost x call count / timed wall (characterization is serial).
        eval_s = 1e-6 * (r["eval_us"] * r["jac_evals"] + r["residual_us"] * r["rhs_evals"])
        m["circuit.eval_share"] = eval_s / wall
        m["numeric.lu_factor_share"] = 1e-6 * r["lu_factor_us"] * r["lu_factorizations"] / wall
        m["numeric.lu_solve_share"] = 1e-6 * r["lu_solve_us"] * r["newton_iters"] / wall
        m["analysis.other_share"] = 1.0 - (m["circuit.eval_share"] + m["numeric.lu_factor_share"]
                                           + m["numeric.lu_solve_share"])
    elif args.workload == "fabric_slot":
        steps = r["rk_steps"]
        m["core.rk_steps"] = steps
        m["core.program_eval_us"] = r["program_eval_us"]
        m["core.projection_us"] = r["projection_us"]
        # One Program pass per (RK stage, delay group) on the calling thread;
        # the projection reads the PPV once per write path per stage, split
        # over the pool's threads.
        m["core.program_share"] = 1e-6 * r["program_eval_us"] * 4 * r["delay_groups"] * steps / wall
        m["core.projection_share"] = (1e-6 * r["projection_us"] * 4 * r["projection_per_stage"]
                                      * steps / r["threads"] / wall)
        m["core.combine_share"] = 1.0 - m["core.program_share"] - m["core.projection_share"]
        m["logic.compile_s"] = r["compile_s"]
        m["logic.decode_s"] = r["decode_s"]
        m["logic.toggle_ratio"] = r["toggle_ratio"]
    else:
        lane_steps = r["lane_steps"]
        m["core.mc_lane_steps"] = lane_steps
        m["core.mc_error_rate"] = r["errors"] / r["trials"]
        m["core.spline_ns"] = r["spline_ns"]
        m["numeric.rng_ns"] = r["rng_ns"]
        # The trials run on every pool thread: shares are of process CPU time.
        m["core.spline_share"] = 1e-9 * r["spline_ns"] * lane_steps / cpu
        m["numeric.rng_share"] = 1e-9 * r["rng_ns"] * lane_steps / cpu
        m["core.update_share"] = 1.0 - m["core.spline_share"] - m["numeric.rng_share"]
    log("%s traced: %d attempted, %d failed; rate %.6g traced vs %.6g plain vs %.6g at 1 "
        "thread; %s" % (args.workload, r["attempted"], r["failed"], rate_of(r), rate_of(plain),
                        rate_of(one), spans))
    attempted = r["attempted"] + plain["attempted"] + one["attempted"]
    failed = r["failed"] + plain["failed"] + one["failed"]
    return r, m, attempted, failed


def span_summary(trace):
    """Self time per span name, from phlogon_trace summarize."""
    r = subprocess.run([str(TRACE_TOOL), "summarize", str(trace)], capture_output=True,
                       text=True)
    if r.returncode != 0:
        fail("phlogon_trace summarize failed: " + r.stderr.strip(), 1)
    log(r.stdout.rstrip())
    unit = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
    selfs = {}
    for line in r.stdout.splitlines():
        f = line.split()
        if len(f) == 7 and f[1].isdigit():
            m = re.fullmatch(r"([\d.]+)(s|ms|us)", f[3])
            if m:
                selfs[f[0]] = float(m.group(1)) * unit[m.group(2)]
    return "span self times: " + ", ".join("%s %.3gs" % kv for kv in sorted(selfs.items()))


# ---------------------------------------------------------------------------
# phlogond_mixed
# ---------------------------------------------------------------------------

def reference_latencies(ref):
    """Milliseconds of SETUP_REF_CALLS back-to-back reference-server calls."""
    c = load.Client(ref.sock)
    try:
        out = []
        for _ in range(SETUP_REF_CALLS):
            t0 = time.monotonic()
            if not c.call({"type": "reference", "params": {}}).get("ok"):
                fail("reference server refused a call", 1)
            out.append(1e3 * (time.monotonic() - t0))
        return out
    finally:
        c.close()


def daemon_setup(env, seed, ref):
    """A cold daemon set-up.  Returns the daemon and the set-up's seconds,
    scaled by the reference server's p50 around it when `ref` is given."""
    before = reference_latencies(ref) if ref else []
    d, setup_s = load.cold_setup(BUILD / "tools" / "phlogond", BUILD / "run" / "daemon", env, seed)
    if not ref:
        return d, setup_s
    try:
        after = reference_latencies(ref)
    except BaseException:
        d.stop()
        raise
    return d, setup_s * REF_SERVER_MS / statistics.median(before + after)


def daemon_run(args, env, seconds, rate, corrupt, ref, warmup_s=2.0):
    """Cold set-up, untimed warm-up, then one timed open-loop window; with a
    reference server `ref`, it takes its share of requests in both.  Returns
    the set-up seconds, phlogond's records, the most requests in flight,
    phlogond's peak RSS and the reference server's p50 (ms)."""
    d, setup_s = daemon_setup(env, args.seed, ref)
    try:
        mix = load.Mix(args.seed)

        def sched(s):
            return mix.with_reference(mix.schedule(rate, s), s) if ref else mix.schedule(rate, s)

        load.open_loop(d, sched(warmup_s), corrupt, ref)
        records, max_inflight = load.open_loop(d, sched(seconds), corrupt, ref)
        rss = d.peak_rss_mb()
    finally:
        d.stop()
    refs = [r for r in records if r["type"] == "reference"]
    records = [r for r in records if r["type"] != "reference"]
    if any(r.get("fail") for r in refs):
        fail("reference server: %s" % next(r["fail"] for r in refs if r.get("fail")), 1)
    ref_p50 = pct([r["latency_ms"] for r in refs], 50) if ref else None
    return setup_s, records, max_inflight, rss, ref_p50


def reference_server(env):
    return load.RefServer(BUILD / "perfbench_work", BUILD / "run" / "ref", env)


def daemon_untraced(args, env, corrupt):
    ref = reference_server(env)
    try:
        setups = []
        for _ in range(SETUP_PROCESSES - 1):
            d, s = daemon_setup(env, args.seed, ref)
            d.stop()
            setups.append(s)
        s, records, max_inflight, rss, ref_p50 = daemon_run(args, env, args.seconds,
                                                            load.RATE_PER_S, corrupt, ref)
    finally:
        ref.stop()
    setups.append(s)
    sm = load.summarize(records, args.seconds)
    busy = sum(r.get("run_ms") or 0.0 for r in records) / (2e3 * args.seconds)
    log("phlogond_mixed: %d requests, %d failed %s; p50 %.3f ms, p95 %.3f ms (%d samples, %d "
        "beyond p95); reference server p50 %.3f ms; workers %.0f%% busy; max in flight %d"
        % (sm["attempted"], sm["failed"], sm["failures"], sm["p50_ms"], sm["p95_ms"],
           sm["samples"], sm["beyond_p95"], ref_p50, 100 * busy, max_inflight))
    if sm["beyond_p95"] < 10:
        log("phlogond_mixed: fewer than 10 samples beyond p95; lengthen --seconds")
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss,
               "work_per_s": sm["req_per_s"],
               "latency_p50_ms": sm["p50_ms"] * REF_SERVER_MS / ref_p50}
    return sm, metrics


def daemon_traced(args, env, corrupt, trace_dir):
    trace = trace_dir / ("phlogond_mixed-%d.json" % args.seed)
    tenv = dict(env, PHLOGON_TRACE=str(trace))
    ref = reference_server(env)
    try:
        _, plain, _, _, plain_ref = daemon_run(args, env, args.seconds, load.RATE_PER_S, corrupt,
                                               ref)
        _, records, max_inflight, _, traced_ref = daemon_run(args, tenv, args.seconds,
                                                             load.RATE_PER_S, corrupt, ref)
    finally:
        ref.stop()
    client = trace_dir / ("phlogond_mixed-%d-client.json" % args.seed)
    merged = trace_dir / ("phlogond_mixed-%d-merged.json" % args.seed)
    load.write_client_trace(records, client)
    if subprocess.run([str(TRACE_TOOL), "merge", str(merged), str(trace), str(client)],
                      capture_output=True).returncode != 0:
        fail("phlogon_trace merge failed", 1)
    spans = span_summary(merged)
    ok = [r for r in records if not r.get("fail")]
    m = layer_metrics()
    m["service.queue_p95_ms"] = pct([r["queued_ms"] for r in ok], 95)
    for kind, short in JOB_KINDS.items():
        runs = [r["run_ms"] for r in ok if r["type"] == kind]
        m["service.run_p50_ms." + short] = pct(runs, 50)
        m["service.run_p95_ms." + short] = pct(runs, 95)
    m["service.wire_p50_ms"] = pct([r["client_ms"] - r["queued_ms"] - r["run_ms"] for r in ok], 50)
    ckpt = [r for r in ok if r["type"] in ("hold-error-mc", "fsm-transient")]
    m["service.ckpt_reuse_ratio"] = (sum(1 for r in ckpt if (r["resumed"] or 0) > 0)
                                     / max(1, len(ckpt)))
    m["service.refused_ratio"] = sum(1 for r in records if r.get("refused")) / len(records)
    lookups = [r["cache"] for r in ok if r.get("cache")]
    lookups += [r["sweep_cache"] for r in ok if r.get("sweep_cache")]
    m["io.cache_hit_ratio"] = sum(1 for c in lookups if c == "hit") / max(1, len(lookups))
    misses = [r["run_ms"] for r in ok
              if r["type"] == "characterize-latch" and r["cache"] == "miss"]
    m["io.miss_run_p50_ms"] = pct(misses, 50)
    m["analysis.characterize_s"] = m["io.miss_run_p50_ms"] / 1e3
    m["bench.late_p95_ms"] = pct([r["late_ms"] for r in records if "late_ms" in r], 95)
    m["bench.max_inflight"] = max_inflight
    traced_p50 = load.summarize(records, args.seconds)["p50_ms"] / traced_ref
    plain_sm = load.summarize(plain, args.seconds)
    plain_p50 = plain_sm["p50_ms"] / plain_ref
    m["bench.latency_p95_ms"] = plain_sm["p95_ms"] * REF_SERVER_MS / plain_ref
    m["bench.wall_latency_p50_ms"] = plain_sm["p50_ms"]
    m["bench.ref_server_p50_ms"] = plain_ref
    # An open loop's throughput is its offered rate, so tracing shows as
    # latency: overhead is the traced median latency over the untraced one,
    # each scaled by its own window's reference-server p50.
    m["obs.trace_overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    m["service.capacity_req_per_s"] = capacity(args, env, corrupt)
    log("phlogond_mixed traced: %s" % spans)
    attempted = len(records) + len(plain)
    failed = sum(1 for r in records + plain if r.get("fail"))
    return m, attempted, failed


def capacity(args, env, corrupt):
    """Highest offered rate of a short ladder whose p95 meets the limit with
    no growing backlog (the last reply lands within a second of the window)."""
    best = 0.0
    window = 4.0
    for mult in (1, 2, 4, 8, 12, 16, 20):
        rate = load.RATE_PER_S * mult
        _, recs, _, _, _ = daemon_run(args, env, window, rate, corrupt, None, warmup_s=1.0)
        sm = load.summarize(recs, window)
        last = max((r.get("done", 0.0) for r in recs), default=0.0)
        met = sm["failed"] == 0 and sm["p95_ms"] <= load.P95_LIMIT_MS and last <= window + 1.0
        log("capacity ladder: %.1f req/s -> p95 %.2f ms, last reply %.2f s: %s"
            % (rate, sm["p95_ms"], last, "met" if met else "missed"))
        if not met:
            break
        best = rate
    return best


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="check against a deliberately wrong reference (gate tests)")
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so the finally blocks stop and wait for
    # every process this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for need in ("BENCHMARK.json", "src/CMakeLists.txt", "tools/phlogond.cpp",
                 "tools/phlogon_trace.cpp"):
        if not (ROOT / need).is_file():
            fail("run from the repository root: %s is missing" % need)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()

    env = base_env()
    flags = ["--corrupt"] if args.corrupt else []
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "commit": commit(), "source_digest": source_digest(),
             "env": {k: v for k, v in env.items() if k.startswith("PHLOGON_")},
             "work_unit": WORK_UNIT[args.workload]}

    if args.workload in BATCH:
        if args.trace:
            r, metrics, attempted, failed = batch_traced(args, env, flags, trace_dir)
        else:
            r, metrics = batch_untraced(args, env, flags)
            attempted, failed = r["attempted"], r["failed"]
        stamp.update({k: r[k] for k in ("threads", "simd", "lu", "build_type", "nproc")})
    else:
        probe = work(args.workload, args.seed, ["--mode", "config"], env)
        stamp.update({k: probe[k] for k in ("threads", "simd", "lu", "build_type", "nproc")})
        stamp["rate_per_s"] = load.RATE_PER_S
        stamp["p95_limit_ms"] = load.P95_LIMIT_MS
        if args.trace:
            metrics, attempted, failed = daemon_traced(args, env, args.corrupt, trace_dir)
        else:
            sm, metrics = daemon_untraced(args, env, args.corrupt)
            attempted, failed = sm["attempted"], sm["failed"]

    wanted = declared("per_layer" if args.trace else "end_to_end")
    if set(metrics) != {d["name"] for d in wanted}:
        fail("metrics %s do not match BENCHMARK.json" % sorted(metrics), 1)
    result = {"correct": failed == 0 and attempted > 0, "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                          for d in wanted}}
    print("config " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
