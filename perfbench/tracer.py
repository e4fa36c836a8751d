"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces the public functions of opdkit's modules with wrappers
at every module attribute that binds them (``opdkit.span_contains`` as well
as ``opdkit.linalg.span_contains`` and ``opdkit.presentation.span_contains``)
and puts the originals back afterwards.  Nothing under ``src/`` changes.

A span records a layer, a start, an end, its parent span and an operation
id.  Spans are kept in memory and written out when the run ends.  Time
spent computing counts is excluded from every span by running the clock
backwards by that much, so counting does not inflate a parent's self time.

Counts (``calls``, ``cells``, ``trees`` ...) are taken only for the
outermost span of a layer, so a layer that calls itself (``build_tot``
calling ``build_mat``) counts once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

# layer -> the functions it wraps, as (module, function name).
LAYERS: dict[str, list[tuple[str, str]]] = {
    "linalg.rref": [("opdkit.linalg", "rref")],
    "linalg.span_test": [("opdkit.linalg", "span_contains"), ("opdkit.linalg", "span_equal")],
    "linalg.complement": [("opdkit.linalg", "orthogonal_complement"), ("opdkit.linalg", "nullspace")],
    "presentation.component_matrix": [("opdkit.presentation", "component_matrix")],
    "presentation.span_compare": [("opdkit.presentation", "presentation_span_equal"),
                                  ("opdkit.presentation", "presentation_span_contains")],
    "trees.enumerate_basis": [("opdkit.trees", "enumerate_basis")],
    "compat.build": [("opdkit.compat", "build_lin"), ("opdkit.compat", "build_mat"),
                     ("opdkit.compat", "build_tot"), ("opdkit.compat", "build_compatible")],
    "compat.lin_encoding": [("opdkit.compat", "verify_lin_encoding")],
    "duality.koszul_dual": [("opdkit.duality", "koszul_dual")],
    "duality.self_dual": [("opdkit.duality", "is_self_dual")],
    "manin.product": [("opdkit.manin", "black_square"), ("opdkit.manin", "white_square")],
    "parser.parse": [("opdkit.parser", "parse_presentation")],
    "parser.serialize": [("opdkit.parser", "serialize")],
    "cli.main": [("opdkit.cli", "main")],
}

# The per-layer counts reported, in order: (name, unit).  They repeat
# exactly for a given seed; the self times of every layer and the two
# checks of the trace follow them.
COUNT_METRICS = [
    ("linalg.rref.calls", "count"), ("linalg.rref.cells_in", "count"), ("linalg.rref.rank_share", "ratio"),
    ("linalg.span_test.calls", "count"),
    ("linalg.complement.calls", "count"), ("linalg.complement.dim_out", "count"),
    ("presentation.component_matrix.calls", "count"), ("presentation.component_matrix.cells", "count"),
    ("presentation.component_matrix.fill", "ratio"),
    ("presentation.span_compare.calls", "count"), ("presentation.span_compare.components", "count"),
    ("trees.enumerate_basis.calls", "count"), ("trees.enumerate_basis.trees", "count"),
    ("trees.enumerate_basis.repeat_share", "ratio"),
    ("compat.build.calls", "count"), ("compat.build.relations_out", "count"), ("compat.build.terms_out", "count"),
    ("duality.koszul_dual.calls", "count"), ("duality.koszul_dual.relations_out", "count"),
    ("manin.product.calls", "count"),
    ("parser.parse.calls", "count"), ("parser.parse.bytes_in", "bytes"),
    ("parser.serialize.calls", "count"), ("parser.serialize.bytes_out", "bytes"),
    ("cli.main.calls", "count"),
]


def _rref(c: dict, args, result) -> None:
    m = args[0]
    c["cells_in"] += m.nrows * m.cols
    c["rows_in"] += m.nrows
    c["rank"] += len(result[1])


def _complement(c: dict, args, result) -> None:
    c["dim_out"] += result.nrows


def _component_matrix(c: dict, args, result) -> None:
    component, matrix = result
    c["cells"] += matrix.nrows * component.dimension
    c["nonzeros"] += sum(1 for row in matrix.rows for x in row if x)


def _built(c: dict, args, result) -> None:
    c["relations_out"] += len(result.relations)
    c["terms_out"] += sum(len(r.terms) for r in result.relations)


def _dual(c: dict, args, result) -> None:
    c["relations_out"] += len(result.relations)


def _parse(c: dict, args, result) -> None:
    c["bytes_in"] += len(args[0].encode())


def _serialize(c: dict, args, result) -> None:
    c["bytes_out"] += len(result.encode())


class Tracer:
    """Wraps opdkit's public functions and records spans while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # spans: [layer id, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self.seen_bases: set = set()
        self.paused = 0.0
        self.op_id = -1
        self._installed: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _layer_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def _enumerate_basis(self, c: dict, args, result) -> None:
        key = (tuple(args[0]), args[1], args[2])
        if key in self.seen_bases:
            c["repeats"] += 1
        self.seen_bases.add(key)
        c["trees"] += result.dimension

    def _wrap(self, layer: str, fn: Callable, count: Optional[Callable]) -> Callable:
        lid = self._layer_id(layer)
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [lid, self.now(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(record)
            depth[lid] += 1
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                record[2] = self.now()
                stack.pop()
                depth[lid] -= 1
                if depth[lid] == 0:
                    t = time.perf_counter()
                    c = self.counts[layer]
                    c["calls"] += 1
                    if ok and count is not None:
                        count(c, args, result)
                    self.paused += time.perf_counter() - t

        return wrapper

    def install(self) -> None:
        """Replace every binding of every traced function in loaded opdkit modules."""
        from opdkit.presentation import relation_gradings

        def compared_equal(c, args, result):
            c["components"] += len(relation_gradings(list(args[0].relations) + list(args[1].relations)))

        def compared_contains(c, args, result):
            c["components"] += len(relation_gradings(args[1].relations))

        hooks = {
            "rref": _rref, "orthogonal_complement": _complement, "nullspace": _complement,
            "component_matrix": _component_matrix,
            "presentation_span_equal": compared_equal, "presentation_span_contains": compared_contains,
            "enumerate_basis": self._enumerate_basis,
            "build_lin": _built, "build_mat": _built, "build_tot": _built, "build_compatible": _built,
            "koszul_dual": _dual, "parse_presentation": _parse, "serialize": _serialize,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "opdkit" or n.startswith("opdkit.")]
        for layer, targets in LAYERS.items():
            for module_name, fn_name in targets:
                original = getattr(sys.modules[module_name], fn_name)
                wrapper = self._wrap(layer, original, hooks.get(fn_name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def begin_pass(self) -> None:
        """Counts are per pass of the mix; basis repeats are judged within a pass."""
        self.seen_bases.clear()

    def begin_op(self, op_id: int, label: str) -> list:
        self.op_id = op_id
        record = [self._layer_id("op:" + label), self.now(), 0.0, -1, op_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end_op(self, record: list) -> None:
        record[2] = self.now()
        self.stack.pop()
        self.op_id = -1

    # ------------------------------------------------------------------

    def metrics(self, passes: int, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Per-pass counts and self times, plus the two checks of the trace."""
        child_time = [0.0] * len(self.spans)
        for lid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        op_time = covered = 0.0
        for i, (lid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[lid]
            if name.startswith("op:"):
                op_time += end - start
                covered += child_time[i]
            else:
                self_s[name] += (end - start) - child_time[i]

        def share(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name, unit in COUNT_METRICS:
            layer, key = name.rsplit(".", 1)
            if key == "rank_share":
                value = share(self.counts[layer]["rank"], self.counts[layer]["rows_in"])
            elif key == "fill":
                value = share(self.counts[layer]["nonzeros"], self.counts[layer]["cells"])
            elif key == "repeat_share":
                value = share(self.counts[layer]["repeats"], self.counts[layer]["calls"])
            else:
                value = self.counts[layer][key] / passes
            out[name] = (value, unit)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer] / passes, "s")
        out["trace.overhead_share"] = (overhead_share, "ratio")
        out["trace.unattributed_share"] = (share(op_time - covered, op_time), "ratio")
        return out

    def write(self, path: Path, meta: dict) -> None:
        doc = {**meta, "fields": ["name", "start", "end", "parent", "op"], "names": self.names,
               "spans": [[lid, round(s, 7), round(e, 7), p, op] for lid, s, e, p, op in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")))
