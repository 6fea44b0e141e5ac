#!/usr/bin/env python3
"""The benchmark's own tests: every correctness gate fires when it is given a
corrupted reference, and passes on the true one.

    python3 perfbench/test_gates.py        (from the repository root)

The end-to-end cases run each workload for one short unit with --corrupt
(about a minute in all, after the first build).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True

import phlogond_load as load  # noqa: E402


def run(workload, *extra):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "0", *extra],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


class CorruptedReferenceFailsEveryUnit(unittest.TestCase):
    def check(self, workload):
        res = run(workload, "--corrupt")
        self.assertGreater(res["attempted"], 0)
        self.assertEqual(res["failed"], res["attempted"])
        self.assertFalse(res["correct"])

    def test_osc_characterize(self):
        self.check("osc_characterize")

    def test_fabric_slot(self):
        self.check("fabric_slot")

    def test_hold_error_mc(self):
        self.check("hold_error_mc")

    def test_phlogond_mixed(self):
        self.check("phlogond_mixed")


class DaemonReplyGate(unittest.TestCase):
    """check_reply on hand-built replies: one good reply per job type, then
    each with the field its gate reads broken."""

    CAP = 4.7e-9

    def reply(self, result):
        return {"ok": True, "job": {"result": result}}

    def cases(self):
        p = load.spec_params(self.CAP)
        f0 = load.F0_PER_CAP / self.CAP
        return [
            ({"type": "characterize-latch", "params": p}, {"f0": f0}, {"f0": f0 * 1.02}),
            ({"type": "locking-range-sweep", "params": p},
             {"points": [{}] * load.SWEEP_POINTS}, {"points": [{}] * (load.SWEEP_POINTS - 1)}),
            ({"type": "hold-error-mc", "params": p},
             {"trials": load.MC_TRIALS, "errorRate": 0.3},
             {"trials": load.MC_TRIALS, "errorRate": 0.9}),
            ({"type": "fsm-transient", "params": p}, {"allWritten": True}, {"allWritten": False}),
        ]

    def test_good_replies_pass(self):
        for req, good, _ in self.cases():
            self.assertIsNone(load.check_reply(req, self.reply(good)), req["type"])

    def test_broken_replies_fail(self):
        for req, _, bad in self.cases():
            self.assertIsNotNone(load.check_reply(req, self.reply(bad)), req["type"])

    def test_error_reply_fails(self):
        req = self.cases()[0][0]
        rep = {"ok": False, "error": {"code": "queue-full"}}
        self.assertIn("queue-full", load.check_reply(req, rep))


class StratifiedMix(unittest.TestCase):
    """Every seed offers the same work: exact counts per job type and per
    hot or never-seen share, only their order and inputs differ."""

    def composition(self, seed, seconds):
        sched = load.Mix(seed).schedule(load.RATE_PER_S, seconds)
        kinds = {}
        for _, req in sched:
            kinds[req["type"]] = kinds.get(req["type"], 0) + 1
        return len(sched), kinds

    def test_same_counts_for_every_seed(self):
        for seconds in (2.0, 20.0):
            first = self.composition(1, seconds)
            self.assertEqual(first[0], round(load.RATE_PER_S * seconds))
            for seed in (2, 3, 99):
                self.assertEqual(self.composition(seed, seconds), first)

    def test_apportion_sums_to_n(self):
        for n in (1, 7, 40, 401):
            counts = load.apportion(n, [m[1] for m in load.MIX])
            self.assertEqual(sum(counts), n)


if __name__ == "__main__":
    unittest.main()
