"""Benchmark for opdkit: one workload, one seed, in one process.

    python3 perfbench/run.py --workload span-ladder --seed 1 --seconds 20 --trace 0

The loop is closed and single-threaded: each operation starts when the
previous one has finished.  A run first sets up ``SETUP_REPEATS`` times
(cold caches, fresh inputs, one untimed pass over the mix), then runs whole
passes over the mix until ``--seconds`` have gone by.  Every operation's
verdict or exit code is checked against the claim it instantiates.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.
It prints a readable report, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
operation sequence, the input digest, the verdicts, per-label latencies)
go to ``perfbench/out/``; a traced run writes its spans there too.

It builds nothing: it imports opdkit from ``src/`` of the checkout it sits
in, and exits with status 2 without a result when that is missing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# Median time of calibrate() on the baseline machine when the host is quiet
# (2-vCPU VM, Python 3.11.7); see NOTES.md.
CALIBRATION_S = 0.75e-3
TAIL_BEYOND = 10
E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "op_fail_share": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}


def load_program():
    """Import opdkit from this checkout's ``src/``, or exit 2."""
    package = ROOT / "src" / "opdkit"
    if not (package / "__init__.py").is_file():
        print(f"error: no opdkit sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import opdkit

    if Path(opdkit.__file__).resolve().parent != package.resolve():
        print(f"error: imported opdkit from {opdkit.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def clear_caches() -> None:
    """Empty every ``functools`` cache in opdkit, such as the tree-basis cache."""
    for name, module in list(sys.modules.items()):
        if name == "opdkit" or name.startswith("opdkit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def calibrate() -> float:
    """Time of a fixed loop of pure-Python big-integer and dict work.

    On a shared host the whole process slows down by up to 1.8x for seconds
    at a time; this loop slows down by the same factor as opdkit does.  Each
    operation's time is rescaled by ``CALIBRATION_S`` over the mean of the
    loop times measured just before and just after it, which gives times at
    the baseline machine's quiet speed.
    """
    start = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        table[(i, acc.denominator % 97)] = acc
    return time.perf_counter() - start


def rescaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the baseline machine's quiet speed, given the calibration
    times measured just before and just after them."""
    return seconds * 2 * CALIBRATION_S / (before + after)


class Tally:
    """Latencies, outcomes and failures of the operations of a run."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.verdicts: dict[str, object] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, ops, tracer=None) -> float:
        """Run every operation once; return the (rescaled) time spent inside them."""
        total = 0.0
        before = calibrate()
        for op_id, op in enumerate(ops):
            record = tracer.begin_op(op_id, op.label) if tracer else None
            start = time.perf_counter()
            try:
                outcome, error = op.run(), ""
            except Exception:
                outcome, error = "raised", traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            if tracer:
                tracer.end_op(record)
            after = calibrate()
            latency = rescaled(latency, before, after)
            before = after
            total += latency
            self.latencies[op.label].append(latency)
            self.attempted += 1
            reason = self._judge(op, outcome, error)
            if reason:
                self.failed += 1
                self.failures.setdefault(op.label, reason)
        return total

    def _judge(self, op, outcome, error: str) -> str:
        """Why the operation failed, or '' when it did what its claim says."""
        previous = self.verdicts.setdefault(op.label, outcome)
        if error:
            return error
        if previous != outcome:
            return f"outcome changed between passes: {previous!r} then {outcome!r}"
        if outcome != op.expected:
            return f"returned {outcome!r}; the claim says {op.expected!r}"
        if op.check is not None:
            try:
                if not op.check():
                    return "output does not match the library result"
            except Exception:
                return "output check raised: " + traceback.format_exc(limit=3)
        return ""


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with
    ``TAIL_BEYOND`` samples above it, or the maximum for short lists."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def setup(workloads, args, workdir: Path):
    """Build inputs and run one untimed pass, ``SETUP_REPEATS`` times from cold.

    Returns the last workload, the tally of its untimed passes and the time
    of each set-up (input generation plus the operations of the pass).
    """
    times, tally, workload = [], Tally(), None
    for _ in range(SETUP_REPEATS):
        clear_caches()
        before = calibrate()
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, workdir, args.max_colors)
        generated = rescaled(time.perf_counter() - start, before, calibrate())
        times.append(generated + tally.run_pass(workload.ops))
    return workload, tally, times


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict, dict]:
    medians = {label: statistics.median(v) for label, v in tally.latencies.items()}
    tail_value, tail_pct, beyond = tail(list(medians.values()))
    total = sum(sum(v) for v in tally.latencies.values())
    values = {
        "ops_per_s": tally.attempted / total,
        "op_p50_ms": 1000 * statistics.median(medians.values()),
        "op_tail_ms": 1000 * tail_value,
        "op_fail_share": tally.failed / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"labels": len(medians), "tail_percentile": round(tail_pct, 2),
              "tail_labels_beyond": beyond, "executions": tally.attempted,
              "label_ms": {k: [round(1000 * x, 4) for x in v] for k, v in sorted(tally.latencies.items())}}
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}, detail


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-colors", type=int, default=None,
                    help="cap the color ladder (2 gives the smallest rung, for smoke tests)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.max_colors is not None and args.max_colors < 2:
        ap.error("--max-colors must be at least 2")
    return args


def main(argv=None) -> int:
    load_program()
    import_s = time.perf_counter() - _T0
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload, warm, setup_times = setup(workloads, args, workdir)
        setup_s = import_s + statistics.median(setup_times)
        tally = Tally()
        spans = None
        start = time.perf_counter()
        if args.trace == 0:
            while tally.attempted == 0 or time.perf_counter() - start < args.seconds:
                tally.run_pass(workload.ops)
            metrics, detail = end_to_end(tally, setup_s)
            verdicts = tally.verdicts
        else:
            spans = tracing.Tracer()
            traced = Tally()
            plain_s, traced_s = [], []
            while not traced_s or time.perf_counter() - start < args.seconds:
                plain_s.append(tally.run_pass(workload.ops))
                spans.install()
                try:
                    spans.begin_pass()
                    traced_s.append(traced.run_pass(workload.ops, spans))
                finally:
                    spans.uninstall()
            overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
            metrics = spans.metrics(len(traced_s), overhead)
            detail = {"plain_pass_s": plain_s, "traced_pass_s": traced_s}
            verdicts = traced.verdicts
            for label, reason in traced.failures.items():
                tally.failures.setdefault(label, reason)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failing = sorted(set(tally.failures) | set(warm.failures))
    correct = tally.failed == 0 and warm.failed == 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "max_colors": args.max_colors, "nproc": os.cpu_count(), "python": platform.python_version(),
        "machine": platform.machine(), "digest": workload.digest,
        "sequence": [op.label for op in workload.ops],
        "verdict_table": workload.verdict_table(),
        "verdicts": dict(sorted(verdicts.items())),
        "failing": {label: tally.failures.get(label) or warm.failures[label] for label in failing},
        "setup_runs_s": setup_times, "import_s": import_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=repr))
    if spans is not None:
        spans.write(OUT / f"{args.workload}-seed{args.seed}-spans.json",
                    {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  digest {workload.digest[:16]}")
    print(f"mix {len(workload.ops)} operations; {tally.attempted} timed executions; "
          f"nproc {os.cpu_count()}; python {platform.python_version()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:14.6g} {unit}")
    if args.trace == 0:
        print(f"  op_tail_ms is p{detail['tail_percentile']} of {detail['labels']} label medians "
              f"({detail['tail_labels_beyond']} beyond it)")
    print(f"failing operations: {', '.join(failing) if failing else 'none'}")
    # op_fail_share stays in the readable report only: it is 0 on a healthy
    # workload, and the failures are in "failed" anyway.
    names = [n for n in metrics if n != "op_fail_share"]
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
