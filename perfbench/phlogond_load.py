"""phlogond_mixed: the shipped daemon under a seeded open-loop request mix.

One generator sends requests on a seeded Poisson schedule over at most
MAX_CONNS connections, so a slow daemon does not slow the arrivals: each
request is timed from its scheduled send time.  The mix covers the four
analysis job types; oscillator specs are drawn with Zipf popularity from a
seeded catalogue of load capacitances, the popular ones prefilled into the
cache during set-up, and a steady share of never-seen specs forces cold
characterizations throughout the run.  Monte-Carlo and FSM jobs mostly use
fresh seeds or bit patterns, plus a hot repeated set that completed
checkpoints answer.  Each schedule has exact counts of every kind of
request, so seeds change the inputs and their order but not the offered
work.  Requests to the reference server ride along on the same connection
threads; run.py scales phlogond's latency by theirs.
"""

import json
import math
import os
import queue
import random
import shutil
import socket
import struct
import subprocess
import threading
import time
from pathlib import Path

# Offered load, set once on the seed commit: the two default workers are
# then 10-15 % busy.  At 30-72 req/s (18-45 % busy) queueing and the growing
# artifact cache moved p95 by 20-50 % from seed to seed, and near 70 req/s
# the connections fill and the loop starts to close.
RATE_PER_S = 20.0
# Latency limit on p95 for the capacity ladder of the traced run.
P95_LIMIT_MS = 120.0
MAX_CONNS = 4
REQUEST_TIMEOUT_S = 30.0
# Requests per second to perfbench_work's reference server, interleaved with
# the mix on the same connection threads; phlogond's latency is scaled by
# that server's p50 (see RefServer).
REF_RATE_PER_S = 10.0

# Oscillator catalogue: seeded load capacitances with Zipf popularity.
CATALOGUE = 12
PREFILLED = 6
ZIPF_S = 1.1
CAP_RANGE = (4.2e-9, 5.2e-9)
NEW_SPEC_SHARE = 0.08  # of characterize-latch requests only
HOT_SHARE = 0.3
HOT_SET = 4

# Request mix: (type, weight), stratified per schedule().  Latency modes,
# fastest first, with their cumulative share: sweep-cache hits (~1.6 ms,
# 0-23 %); characterization cache hits (~2.3 ms, 23-80 %), which hold p50
# near their own median, far from either edge; sweep-cache misses and
# checkpoint repeats (80-84 %); fresh Monte-Carlo jobs (~20 ms, to 87 %);
# fresh 64-bit FSM jobs and cold characterizations of never-seen specs
# (30-50 ms, 87-100 %), which hold p95 near their own median.  The p95 mode
# is single-threaded work: Monte-Carlo jobs share the two-thread pool, so two
# at once take twice as long and split a mode.
MIX = [("characterize-latch", 0.62), ("locking-range-sweep", 0.24),
       ("hold-error-mc", 0.06), ("fsm-transient", 0.08)]
SWEEP_POINTS = 8
FSM_BITS = 64
# Monte-Carlo jobs: the noise study's operating point (c = 2e-7 s, 60 held
# cycles).  Over CAP_RANGE one trial fails with probability 0.24-0.33
# (3000-trial probes); the band is that range +-6 binomial sigma of one job.
MC_TRIALS = 120
MC_C = 2e-7
MC_HOLD_CYCLES = 60
MC_RATE_BAND = (0.01, 0.59)
F0_PER_CAP = 9598.0 * 4.7e-9  # Hz * F


class Client:
    """One blocking connection speaking the length-prefixed JSON frames."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(REQUEST_TIMEOUT_S)
        self.sock.connect(path)

    def call(self, req):
        payload = json.dumps(req).encode()
        self.sock.sendall(struct.pack("<I", len(payload)) + payload)
        n = struct.unpack("<I", self._read(4))[0]
        return json.loads(self._read(n))

    def _read(self, n):
        buf = b""
        while len(buf) < n:
            chunk = self.sock.recv(n - len(buf))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buf += chunk
        return buf

    def close(self):
        self.sock.close()


class Daemon:
    """A phlogond process with fresh cache and checkpoint directories."""

    def __init__(self, binary, workdir, env):
        self.workdir = Path(workdir)
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "cache").mkdir(parents=True)
        (self.workdir / "ckpt").mkdir()
        # A relative socket path keeps under the sun_path limit wherever the
        # checkout lives; every process here runs from the checkout root.
        self.sock = os.path.relpath(self.workdir / "d.sock")
        self.log = open(self.workdir / "phlogond.out", "w")
        self.proc = subprocess.Popen(
            [str(binary), "--socket", self.sock, "--cache", str(self.workdir / "cache"),
             "--ckpt", str(self.workdir / "ckpt")],
            stdout=self.log, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("phlogond exited during start-up")
            try:
                c = Client(self.sock)
                ok = c.call({"type": "ping"}).get("ok")
                c.close()
                if ok:
                    return
            except OSError:
                time.sleep(0.002)
        raise RuntimeError("phlogond did not answer ping")

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                c = Client(self.sock)
                c.call({"type": "shutdown", "params": {"mode": "drain"}})
                c.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class RefServer:
    """perfbench_work's reference server: a fixed-cost service on its own
    socket.  Its requests travel the same client threads, framing and host
    as phlogond's, and its code never changes with the library, so its
    latency measures how fast the host is during the window."""

    def __init__(self, binary, workdir, env):
        Path(workdir).mkdir(parents=True, exist_ok=True)
        self.sock = os.path.relpath(Path(workdir) / "ref.sock")
        self.proc = subprocess.Popen([str(binary), "reference_server", "--socket", self.sock],
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                     env=env)
        deadline = time.monotonic() + 10.0
        while True:
            try:
                Client(self.sock).close()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("reference server did not start")
                time.sleep(0.002)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


def spec_params(cap):
    """A ring-oscillator spec; f1 follows its f0 (9.6 kHz at 4.7 nF)."""
    return {"cap": cap, "f1": 9.6e3 * 4.7e-9 / cap}


class Mix:
    """Seeded request generator."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.ref_rng = random.Random(seed + 0x5EED)
        self.caps = [self.rng.uniform(*CAP_RANGE) for _ in range(CATALOGUE)]
        w = [1.0 / (i + 1) ** ZIPF_S for i in range(CATALOGUE)]
        self.weights = [x / sum(w) for x in w]
        # Hot repeated jobs: fixed (spec, seed) and (spec, bits) pairs on
        # prefilled specs, answered from completed checkpoints after their
        # first run.
        self.hot_mc = [(self.caps[i % PREFILLED], self.rng.randrange(1 << 30))
                       for i in range(HOT_SET)]
        self.hot_bits = [(self.caps[i % PREFILLED], self._bits()) for i in range(HOT_SET)]

    def prefill_requests(self):
        return [{"type": "characterize-latch", "params": spec_params(c)}
                for c in self.caps[:PREFILLED]]

    def _bits(self):
        return [self.rng.randrange(2) for _ in range(FSM_BITS)]

    def _cap(self):
        return self.rng.choices(self.caps, self.weights)[0]

    def request(self, kind, variant):
        """One request of `kind`; `variant` marks a hot repeated MC/FSM job
        or a never-seen characterization spec."""
        if kind == "hold-error-mc":
            cap, seed = (self.rng.choice(self.hot_mc) if variant
                         else (self._cap(), self.rng.randrange(1 << 30)))
            p = dict(spec_params(cap), trials=MC_TRIALS, c=MC_C, holdCycles=MC_HOLD_CYCLES,
                     seed=seed)
        elif kind == "fsm-transient":
            cap, bits = self.rng.choice(self.hot_bits) if variant else (self._cap(), self._bits())
            p = dict(spec_params(cap), bits=bits)
        elif kind == "locking-range-sweep":
            p = dict(spec_params(self._cap()), ampCount=SWEEP_POINTS)
        else:
            p = spec_params(self.rng.uniform(*CAP_RANGE) if variant else self._cap())
        return {"type": kind, "params": p}

    def schedule(self, rate, seconds):
        """Poisson arrivals conditioned on their count: exactly
        round(rate * seconds) uniform times.  The mix is stratified the same
        way: each job type, and the hot or never-seen share within it, gets
        its exact rounded count, shuffled over the arrivals, so the offered
        work does not vary from seed to seed."""
        n = max(1, round(rate * seconds))
        times = sorted(self.rng.uniform(0.0, seconds) for _ in range(n))
        kinds = []
        for kind, count in zip((m[0] for m in MIX), apportion(n, [m[1] for m in MIX])):
            share = NEW_SPEC_SHARE if kind == "characterize-latch" else (
                HOT_SHARE if kind in ("hold-error-mc", "fsm-transient") else 0.0)
            special = round(count * share)
            kinds += [(kind, i < special) for i in range(count)]
        self.rng.shuffle(kinds)
        return [(t, self.request(kind, variant)) for t, (kind, variant) in zip(times, kinds)]

    def with_reference(self, sched, seconds):
        """`sched` merged with REF_RATE_PER_S reference-server requests at
        their own uniform times."""
        n = max(1, round(REF_RATE_PER_S * seconds))
        ref = [(self.ref_rng.uniform(0.0, seconds), {"type": "reference", "params": {}})
               for _ in range(n)]
        return sorted(sched + ref, key=lambda e: e[0])


def apportion(n, weights):
    """Split n into integer counts proportional to weights (largest
    remainder), so they always sum to n."""
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_rest = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_rest[:n - sum(counts)]:
        counts[i] += 1
    return counts


def check_reply(req, rep, corrupt=False):
    """Correctness gate for one reply; returns None or the reason it fails."""
    if not rep.get("ok"):
        return "error reply: %s" % rep.get("error", {}).get("code", "?")
    if req["type"] == "reference":
        return None
    job = rep.get("job", {})
    res = job.get("result", {})
    p = req["params"]
    kind = req["type"]
    if kind == "characterize-latch":
        want = F0_PER_CAP / p["cap"] * (1.2 if corrupt else 1.0)
        if abs(res.get("f0", 0.0) / want - 1.0) > 0.01:
            return "f0 %.1f Hz, expected %.1f Hz" % (res.get("f0", 0.0), want)
    elif kind == "locking-range-sweep":
        rows = len(res.get("points", []))
        if rows != SWEEP_POINTS + (1 if corrupt else 0):
            return "sweep returned %d rows" % rows
    elif kind == "hold-error-mc":
        lo, hi = MC_RATE_BAND
        rate = res.get("errorRate", -1.0)
        if corrupt:
            lo, hi = hi, hi + 1.0
        if res.get("trials") != MC_TRIALS or not lo <= rate <= hi:
            return "MC rate %s over %s trials" % (rate, res.get("trials"))
    elif kind == "fsm-transient":
        if res.get("allWritten") is not (not corrupt):
            return "fsm allWritten=%s" % res.get("allWritten")
    return None


def prefill(daemon, mix):
    c = Client(daemon.sock)
    try:
        for req in mix.prefill_requests():
            rep = c.call(req)
            if not rep.get("ok"):
                raise RuntimeError("prefill failed: %s" % rep)
    finally:
        c.close()


def cold_setup(binary, workdir, env, seed):
    """Start a fresh daemon, wait for ping, prefill the cache; returns
    (daemon, seconds)."""
    t0 = time.monotonic()
    d = Daemon(binary, workdir, env)
    try:
        d.wait_ready()
        prefill(d, Mix(seed))
    except Exception:
        d.stop()
        raise
    return d, time.monotonic() - t0


def send(conn, req, corrupt, start, due):
    """One round trip on `conn`, timed from `due` (seconds after `start`);
    returns the request's record."""
    sent = time.monotonic()
    rep = conn.call(req)
    done = time.monotonic()
    job = rep.get("job", {})
    res = job.get("result", {})
    return {
        "type": req["type"],
        "sent": sent - start,
        "late_ms": (sent - start - due) * 1e3,
        "latency_ms": (done - start - due) * 1e3,
        "client_ms": (done - sent) * 1e3,
        "done": done - start,
        "fail": check_reply(req, rep, corrupt),
        "refused": rep.get("error", {}).get("code") == "queue-full",
        "queued_ms": job.get("queuedMs"),
        "run_ms": job.get("runMs"),
        "cache": res.get("cache", {}).get("outcome"),
        "sweep_cache": res.get("sweepCache", {}).get("outcome"),
        "resumed": res.get("resumedFrom"),
    }


def open_loop(daemon, sched, corrupt=False, ref=None):
    """Send `sched` open-loop from MAX_CONNS connection threads, requests of
    type "reference" to `ref`; returns one record per request and the most
    requests ever in flight."""
    records = [None] * len(sched)
    due = queue.Queue()
    lock = threading.Lock()
    inflight = [0, 0]  # current, max: due but not yet answered
    start = time.monotonic() + 0.05

    def connection(index):
        conns = {}
        while True:
            item = due.get()
            if item is None:
                break
            i, t_sched, req = item
            target = ref if req["type"] == "reference" else daemon
            try:
                if target not in conns:
                    conns[target] = Client(target.sock)
                rec = send(conns[target], req, corrupt, start, t_sched)
            except (OSError, ValueError) as e:
                rec = {"type": req["type"], "fail": "transport: %s" % e, "refused": False}
                if target in conns:
                    conns.pop(target).close()
            rec["conn"] = index
            records[i] = rec
            with lock:
                inflight[0] -= 1
        for c in conns.values():
            c.close()

    threads = [threading.Thread(target=connection, args=(k,), daemon=True)
               for k in range(MAX_CONNS)]
    for th in threads:
        th.start()
    for i, (t_sched, req) in enumerate(sched):
        delay = start + t_sched - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        with lock:
            inflight[0] += 1
            inflight[1] = max(inflight[1], inflight[0])
        due.put((i, t_sched, req))
    for _ in threads:
        due.put(None)
    for th in threads:
        th.join(REQUEST_TIMEOUT_S)
    for i, rec in enumerate(records):
        if rec is None:
            records[i] = {"type": sched[i][1]["type"], "fail": "timeout", "refused": False}
    return records, inflight[1]


def write_client_trace(records, path):
    """The generator's own spans, one per answered request on its connection
    thread, as Chrome trace events phlogon_trace can merge and summarize."""
    events = [{"name": "bench.request." + r["type"], "ph": "X", "pid": 2, "tid": r["conn"],
               "ts": r["sent"] * 1e6, "dur": r["client_ms"] * 1e3}
              for r in records if "client_ms" in r]
    Path(path).write_text(json.dumps({"displayTimeUnit": "ms", "traceEvents": events}))


def pct(values, q):
    """q-th percentile (0-100) with linear interpolation."""
    v = sorted(values)
    if not v:
        return 0.0
    k = (len(v) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def summarize(records, window_s):
    ok = [r for r in records if not r.get("fail")]
    lat = [r["latency_ms"] for r in ok]
    last = max((r["done"] for r in ok), default=window_s)
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "failures": [r["fail"] for r in records if r.get("fail")][:5],
        "req_per_s": len(ok) / last,
        "p50_ms": pct(lat, 50),
        "p95_ms": pct(lat, 95),
        "beyond_p95": sum(1 for x in lat if x > pct(lat, 95)),
        "samples": len(lat),
    }
