#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly, one seed per run, and print
each end-to-end metric's spread next to its bound from BENCHMARK.json.

    python3 perfbench/check.py [--runs 10] [--first-seed 1] [--seconds S]
                               [WORKLOAD ...]

Spread is the distance between the first and third quartiles of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median.
setup_s has no spread gate, only its bound on the median.  Run from the
repository root; exits 1 if a run fails its correctness gates or a gated
spread is not below its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    for w in args.workloads:
        if w not in names:
            sys.exit("unknown workload %s" % w)
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed), "--seconds",
                                      str(args.seconds), "--trace", "0"]
            r = subprocess.run(cmd, capture_output=True, text=True)
            if r.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (w, seed, r.returncode, r.stderr[-2000:]))
                ok = False
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print("%s seed %d: %d of %d failed" % (w, seed, res["failed"], res["attempted"]))
                ok = False
            for k, v in res["metrics"].items():
                values[k].append(v["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        print("\n%-16s %-16s %12s %8s %8s" % ("workload", "metric", "median", "spread", "bound"))
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            gated = m["name"] != "setup_s"
            verdict = "" if not gated else ("ok" if spread < m["bound"] else "TOO NOISY")
            ok = ok and (not gated or spread < m["bound"])
            print("%-16s %-16s %12.6g %8.4f %8.3f %s" % (w, m["name"], med, spread, m["bound"],
                                                        verdict))
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
