"""Run the benchmark over several seeds and record the spread of each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads span-ladder ...] [--output FILE]

For every workload named in ``BENCHMARK.json`` (or the ones given), runs
``run.py --trace 0`` once per seed, one run at a time, with the run length
from ``BENCHMARK.json``.  For each end-to-end metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound.  It then makes one traced run on the first seed.  With
``--output`` all runs are written as JSON together with the machine's
``nproc`` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result.update(seed=seed, wall_s=wall, digest=details["digest"], failing=sorted(details["failing"]))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--output", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "machine": platform.machine(), "run_seconds": bench["run_seconds"],
              "date": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()), "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, bench["run_seconds"]) for seed in seed_list(args.seeds)]
        summary = {}
        print(f"{workload}: {len(runs)} runs, longest {max(r['wall_s'] for r in runs):.1f} s, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {**summarize(values), "bound": bound}
            s = summary[name]
            print(f"  {name:12} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}")
        traced = run_once(workload, runs[0]["seed"], bench["run_seconds"], trace=1)
        record["workloads"][workload] = {"summary": summary, "runs": runs, "traced_run": traced}
    if args.output:
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
