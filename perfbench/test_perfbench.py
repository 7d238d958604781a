#!/usr/bin/env python3
"""The benchmark's own test: smoke-sized runs of every workload.

    python3 perfbench/test_perfbench.py

For each workload run.py accepts, untraced and traced, it asserts the
output schema, the metric names and units against BENCHMARK.json, and the
correctness gates.
It also checks that final_loss repeats exactly, that each run is logged
with its per-pass values, and that the command fails without printing a
result in a directory holding only BENCHMARK.json and perfbench/.

fleet_tcp's reference gate (final theta bit-identical to the in-process
fed::Platform run) fails on fleets whose node weights do not sum to exactly
1, a known defect of the program (README "Known failure", ROADMAP item 3).
The tests pin that characterisation instead of relying on a seed that
misses such fleets, and run one seed that hits one. That defect is why
BENCHMARK.json does not list fleet_tcp, although run.py runs it.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  every workload run.py accepts
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


# Smoke seed whose two fleet_tcp fleets include one whose node weights sum
# to 1 - 2^-53 in fed::Platform's order.
DEFECT_SEED = 19
REFERENCE_GATE = "theta equals the in-process fed::Platform run"


def run(workload, trace, seed=7, cwd=ROOT, env=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke", "1"]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def details_of(proc):
    """The provenance line: config, per-pass values, gate details."""
    return json.loads(proc.stdout.strip().splitlines()[-2])


def check_reference_gate(test, proc):
    """fleet_tcp: the reference gate fails exactly when some fleet's node
    weights do not sum to 1, and no other gate fails."""
    info = details_of(proc)
    ref = info["details"]
    failed = info["gates_failed"]
    test.assertTrue(all(g.startswith(REFERENCE_GATE) for g in failed),
                    failed)
    test.assertEqual(ref["reference_fleets_differ_weight_sum_1"], 0)
    test.assertEqual(bool(failed),
                     ref["reference_fleets_weight_sum_not_1"] > 0, ref)
    return failed


class Schema(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        failed = (check_reference_gate(self, proc) if workload == "fleet_tcp"
                  else [])
        self.assertEqual(res["correct"], not failed, proc.stdout[-2000:])
        self.assertEqual(proc.returncode, 0 if res["correct"] else 1)
        self.assertIsInstance(res["attempted"], int)
        self.assertIsInstance(res["failed"], int)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for m in spec:
                self.assertNotEqual(res["metrics"][m["name"]]["value"], 0,
                                    m["name"])
        else:
            self.assertIn("unattributed", proc.stdout)
            self.assertIn("wall clock", proc.stdout)
        return res


def _add_schema_tests():
    for w in WORKLOADS:
        for trace in (0, 1):
            def test(self, w=w, trace=trace):
                self.check(w, trace)
            setattr(Schema, f"test_{w}_trace{trace}", test)


_add_schema_tests()


class Behaviour(unittest.TestCase):
    def test_listed_workloads_are_runnable(self):
        listed = [w["name"] for w in SPEC["workloads"]]
        self.assertGreaterEqual(len(listed), 2)
        self.assertLessEqual(set(listed), set(WORKLOADS))

    def test_final_loss_repeats_exactly(self):
        a = result_of(run("train_sync", 0, seed=3))["metrics"]["final_loss"]
        b = result_of(run("train_sync", 0, seed=3))["metrics"]["final_loss"]
        self.assertEqual(a, b)

    def test_run_log_keeps_every_pass(self):
        proc = run("serve_zipf", 0, seed=5)
        self.assertEqual(proc.returncode, 0)
        log = BUILD_ROOT / "perfbench-runs.jsonl"
        last = json.loads(log.read_text().strip().splitlines()[-1])
        self.assertEqual(last["args"]["workload"], "serve_zipf")
        self.assertGreaterEqual(len(last["passes"]["throughput_per_s"]), 1)
        self.assertIn("cpu_model", last["provenance"])
        self.assertIn(last["provenance"]["kern_mode"], ("compat", "fast"))

    def test_reference_gate_fires_on_weight_sum_defect(self):
        proc = run("fleet_tcp", 0, seed=DEFECT_SEED)
        ref = details_of(proc)["details"]
        self.assertGreaterEqual(ref["reference_fleets_weight_sum_not_1"], 1,
                                "seed no longer draws a defective fleet")
        self.assertEqual(len(check_reference_gate(self, proc)), 1)
        self.assertFalse(result_of(proc)["correct"])
        self.assertEqual(proc.returncode, 1)

    @unittest.expectedFailure
    def test_fleet_matches_reference_when_weights_miss_1(self):
        """Fails until net::PlatformServer and fed::Platform share one merge
        rule (ROADMAP item 3)."""
        proc = run("fleet_tcp", 0, seed=DEFECT_SEED)
        self.assertTrue(result_of(proc)["correct"])

    def test_fails_without_the_repo(self):
        bare = BUILD_ROOT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = run("train_sync", 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
