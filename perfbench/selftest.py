"""Tests of the benchmark itself, on the smallest color rung of each workload.

    python3 perfbench/selftest.py

They run ``run.py`` as a user would and check that the same seed gives the
same operation sequence, input digest and per-layer counts, that the seed
does not change any verdict, that every metric in ``BENCHMARK.json`` is
printed with its unit, that tracing changes no verdict, and that the run
refuses to produce a result without the program's sources.  They take
about a minute.  The file name keeps them out of the repository's pytest
run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("span-ladder", "dual-products", "cli-session")
# Acceptance criterion 5: the linear/total duality instances that fail today.
CRITERION_5_AT_2 = {
    "dual-linear/d1d2/n2",
    "dual-total/d1d2/n2",
    "dual-total/multi_diff(1)/n2",
    "dual-total/multi_diff(2)/n2",
}


def smoke(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--max-colors", "2"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    details = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"stdout": lines, "result": json.loads(lines[-1]), "details": details}


class SmokeRuns(unittest.TestCase):
    runs: dict = {}

    @classmethod
    def setUpClass(cls) -> None:
        for workload in WORKLOADS:
            cls.runs[workload] = {
                "plain": smoke(workload, 3, 0),
                "traced": smoke(workload, 3, 1),
                "traced_again": smoke(workload, 3, 1),
                "other_seed": smoke(workload, 4, 0),
            }

    def test_same_seed_gives_same_sequence_and_digest(self):
        for workload, runs in self.runs.items():
            a, b = runs["plain"]["details"], runs["traced"]["details"]
            self.assertEqual(a["sequence"], b["sequence"], workload)
            self.assertEqual(a["digest"], b["digest"], workload)
            other = runs["other_seed"]["details"]
            self.assertNotEqual(a["digest"], other["digest"], workload)

    def test_seed_changes_no_verdict(self):
        for workload, runs in self.runs.items():
            a, b = runs["plain"]["details"], runs["other_seed"]["details"]
            self.assertEqual(a["verdict_table"], b["verdict_table"], workload)
            self.assertEqual(a["verdicts"], b["verdicts"], workload)

    def test_tracing_changes_no_verdict(self):
        for workload, runs in self.runs.items():
            self.assertEqual(runs["plain"]["details"]["verdicts"],
                             runs["traced"]["details"]["verdicts"], workload)

    def test_every_metric_printed_with_its_unit(self):
        expected = {"plain": BENCH["end_to_end"], "traced": BENCH["per_layer"]}
        for workload, runs in self.runs.items():
            for kind, metrics in expected.items():
                printed = runs[kind]["result"]["metrics"]
                report = runs[kind]["stdout"][:-1]
                for metric in metrics:
                    self.assertEqual(printed[metric["name"]]["unit"], metric["unit"], (workload, metric))
                    self.assertTrue(any(line.split()[:1] == [metric["name"]] and
                                        line.split()[-1] == metric["unit"] for line in report),
                                    (workload, metric["name"]))
            self.assertTrue(any(line.split()[:1] == ["op_fail_share"] for line in runs["plain"]["stdout"]))

    def test_result_line_shape(self):
        for workload, runs in self.runs.items():
            for run in runs.values():
                result = run["result"]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertGreaterEqual(result["attempted"], 1)

    def test_failures_are_exactly_criterion_5(self):
        for workload, runs in self.runs.items():
            for run in runs.values():
                failing = set(run["details"]["failing"])
                if workload == "dual-products":
                    self.assertEqual(failing, CRITERION_5_AT_2)
                    self.assertFalse(run["result"]["correct"])
                else:
                    self.assertEqual(failing, set(), workload)
                    self.assertTrue(run["result"]["correct"], workload)
                    self.assertEqual(run["result"]["failed"], 0, workload)

    def test_layer_counts_repeat_for_a_seed(self):
        counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] in ("count", "bytes")]
        self.assertTrue(counts)
        for workload, runs in self.runs.items():
            a = runs["traced"]["result"]["metrics"]
            b = runs["traced_again"]["result"]["metrics"]
            self.assertEqual({n: a[n]["value"] for n in counts}, {n: b[n]["value"] for n in counts}, workload)
            self.assertGreater(a["presentation.component_matrix.calls"]["value"], 0, workload)


class WithoutProgram(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(BENCH["command"] + ["--workload", "cli-session", "--seed", "1",
                                                      "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
