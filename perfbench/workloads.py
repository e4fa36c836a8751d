"""Seeded operation mixes for the opdkit benchmark.

A workload is a list of operations.  Each operation has a label that does
not depend on the seed, the verdict (or exit code) that the statement of the
claim it instantiates predicts, and a callable that does the timed work
through opdkit's public API or its CLI entry point.

The seed chooses three things, none of which changes a span:

* the order of the operations;
* the spelling of the color labels (a seeded prefix plus the color index,
  so the labels sort in index order and the tree bases keep their column
  order);
* a nonzero rational rescaling of each input relation.

So the verdict table is the same for every seed, and so are the matrix
shapes the linear algebra sees.  Library calls go through module
attributes at call time, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import opdkit.catalog as CAT
import opdkit.cli as CLI
import opdkit.compat as C
import opdkit.duality as D
import opdkit.manin as M
import opdkit.parser as PARSE
import opdkit.presentation as P
import opdkit.trees as T

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("span-ladder", "dual-products", "cli-session")

# Top color rung of each workload.  span-ladder stops at 4 colors: at 5 one
# pass takes about 26 s on a 2-core VM, too long for a 20 s measurement.
TOP_COLORS = {"span-ladder": 4, "dual-products": 4, "cli-session": 3}

SPAN_LADDER_KEYS = ("as", "dend", "d1d2", "rba0", "nijenhuis", "hom_as", "cubic_as")
DUAL_GRID = (("as", None), ("multi_diff", 1), ("multi_diff", 2), ("d1d2", None))
MANIN_KEYS = ("as", "dend")
MALFORMED = (
    "01_bad_char.opd",
    "05_slot_reuse.opd",
    "09_zero_denominator.opd",
    "14_unclosed_paren.opd",
    "16_empty_relation.opd",
)


@dataclass
class Op:
    """One operation of a workload.

    ``run`` does the timed work and returns the outcome: a verdict for
    library calls, an exit code for CLI calls.  ``check``, when present,
    validates what the call wrote and runs outside the timed region.
    """

    label: str
    expected: object
    run: Callable[[], object]
    check: Optional[Callable[[], bool]] = None


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    digest: str

    def verdict_table(self) -> dict[str, object]:
        return {op.label: op.expected for op in sorted(self.ops, key=lambda o: o.label)}


def _label(key: str, param: Optional[int]) -> str:
    return key if param is None else f"{key}({param})"


class _Inputs:
    """Seeded input generation: rescaled catalog entries and color sets."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.prefix = "".join(self.rng.choice(letters) for _ in range(self.rng.randint(1, 3)))
        self.cache: dict[str, P.Presentation] = {}
        self.texts: dict[str, str] = {}

    def colors(self, n: int) -> P.ColorSet:
        return P.ColorSet(tuple(f"{self.prefix}{i}" for i in range(1, n + 1)))

    def presentation(self, key: str, param: Optional[int] = None) -> P.Presentation:
        label = _label(key, param)
        if label not in self.cache:
            base = CAT.builtin(key, param)
            relations = []
            for rel in base.relations:
                scale = Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9), self.rng.randint(1, 9))
                terms = tuple(P.Term(t.coeff * scale, t.tree, t.slots) for t in rel.terms)
                relations.append(P.Relation(rel.name, terms))
            scaled = P.Presentation(base.name, base.unary, base.binary, tuple(relations))
            self.cache[label] = scaled
            self.texts[label] = PARSE.serialize(scaled)
        return self.cache[label]


def _finish(name: str, seed: int, ops: list[Op], inputs: _Inputs, extra: dict[str, str]) -> Workload:
    labels = [op.label for op in ops]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate operation labels in {name}")
    inputs.rng.shuffle(ops)
    texts = dict(sorted({**inputs.texts, **extra}.items()))
    h = hashlib.sha256()
    h.update(json.dumps({"workload": name, "prefix": inputs.prefix, "inputs": texts,
                         "sequence": [op.label for op in ops]}, sort_keys=True).encode())
    return Workload(name, seed, ops, h.hexdigest())


# ---------------------------------------------------------------------------
# span-ladder


def _span_ladder(seed: int, colors: range, workdir: Path) -> Workload:
    inp = _Inputs(seed)
    ops = []
    for key in SPAN_LADDER_KEYS:
        p = inp.presentation(key)
        for n in colors:
            w = inp.colors(n)
            # Statements: prop-totmat, prop-matlin and thm-comp.
            ops.append(Op(f"totmat/{key}/n{n}", True,
                          lambda p=p, w=w: P.presentation_span_contains(C.build_tot(p, w), C.build_mat(p, w))))
            ops.append(Op(f"matlin/{key}/n{n}", True,
                          lambda p=p, w=w: P.presentation_span_contains(C.build_mat(p, w), C.build_lin(p, w))))
            ops.append(Op(f"linenc/{key}/n{n}", True, lambda p=p, w=w: C.verify_lin_encoding(p, w)))
    return _finish("span-ladder", seed, ops, inp, {})


# ---------------------------------------------------------------------------
# dual-products


def _product_identity(kind: str, factor: P.Presentation, q: P.Presentation, w: P.ColorSet) -> bool:
    """The product identities of prop-maninbl, prop-maninbll and cor-totalwhite."""
    builder, product = {
        "maninbl": (C.build_lin, "black"),
        "maninbll-black": (C.build_mat, "black"),
        "maninbll-white": (C.build_mat, "white"),
        "totalwhite": (C.build_tot, "white"),
    }[kind]
    left = builder(factor, w)
    made = M.black_square(left, q) if product == "black" else M.white_square(left, q, "white_dual")
    renamed = P.rename_generators(made, M.colorize_tensor_map(left.binary, q.binary))
    return P.presentation_span_equal(renamed, builder(q, w))


def _dual_products(seed: int, colors: range, workdir: Path) -> Workload:
    inp = _Inputs(seed)
    ops = []
    for n in colors:
        w = inp.colors(n)
        # thm-mdul and thm-dul state that every instance holds.  The linear
        # and total instances on multi_diff(1|2) and d1d2 fail today
        # (acceptance criterion 5); they stay in the mix and count as failed.
        for kind in ("matching", "linear", "total"):
            grid = DUAL_GRID + ((("dend", None),) if kind == "matching" else ())
            for key, param in grid:
                p = inp.presentation(key, param)
                ops.append(Op(f"dual-{kind}/{_label(key, param)}/n{n}", True,
                              lambda kind=kind, p=p, w=w: D.check_dual_identity(kind, p, w)))
        for kind in ("maninbl", "maninbll-black", "maninbll-white", "totalwhite"):
            for key in MANIN_KEYS:
                factor, q = inp.presentation("as"), inp.presentation(key)
                ops.append(Op(f"{kind}/{key}/n{n}", True,
                              lambda kind=kind, factor=factor, q=q, w=w: _product_identity(kind, factor, q, w)))
    for a in MANIN_KEYS:
        for b in MANIN_KEYS:
            pa, pb = inp.presentation(a), inp.presentation(b)
            ops.append(Op(f"prodduality/{a}x{b}", True,
                          lambda pa=pa, pb=pb: M.check_product_duality(pa, pb)[0]))
    # cor-undual: all three are self-dual.
    two = inp.colors(2)
    for label, p in (("d1d2", inp.presentation("d1d2")),
                     ("mat(d1d2,2)", C.build_mat(inp.presentation("d1d2"), two)),
                     ("mat(as,2)", C.build_mat(inp.presentation("as"), two))):
        ops.append(Op(f"selfdual/{label}", True, lambda p=p: D.is_self_dual(p)))
    return _finish("dual-products", seed, ops, inp, {})


# ---------------------------------------------------------------------------
# cli-session


def json_to_dsl(doc: dict) -> str:
    """DSL text for a presentation serialized with ``--format json``.

    The JSON form carries each tree in canonical text and its slots apart;
    every internal vertex opens a parenthesis, in preorder, so the slots go
    in front of the parentheses in order.
    """
    lines = [f"operad {doc['name']}"]
    if doc["unary"]:
        lines.append("unary " + " ".join(doc["unary"]))
    if doc["binary"]:
        lines.append("binary " + " ".join(doc["binary"]))
    for rel in doc["relations"]:
        parts = []
        for i, term in enumerate(rel["terms"]):
            slots = iter(term["slots"])
            body = re.sub(r"\(", lambda _: f"@{next(slots)}(", term["tree"])
            coeff = Fraction(term["coeff"])
            sign = "-" if coeff < 0 else ("+" if i else "")
            parts.append(f"{sign} {abs(coeff)}*{body}")
        lines.append(f"relation {rel['name']}: " + " ".join(parts))
    return "\n".join(lines) + "\n"


class _Session:
    """Captured in-process CLI calls and the checks of what they write."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.last: dict[str, tuple[str, str]] = {}
        self.verified: dict[str, str] = {}

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def call(self, label: str, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(argv)
        self.last[label] = (out.getvalue(), err.getvalue())
        return code

    def take(self, output: str) -> str:
        """Text of an output file, which is removed so the next call must write it again."""
        path = Path(output)
        text = path.read_text()
        path.unlink()
        return text

    def output_matches(self, label: str, output: str, fmt: str, want: P.Presentation) -> bool:
        """The output file re-parses to a presentation span-equal to ``want``.

        Output is deterministic, so text already verified for this label is
        accepted without parsing it again.
        """
        text = self.take(output)
        if self.verified.get(label) == text:
            return True
        got = PARSE.parse_presentation(json_to_dsl(json.loads(text)) if fmt == "json" else text)
        ok = set(got.generators) == set(want.generators) and P.presentation_span_equal(got, want)
        if ok:
            self.verified[label] = text
        return ok

    def stdout_last_line(self, label: str, want: str) -> bool:
        lines = self.last[label][0].splitlines()
        return bool(lines) and lines[-1] == want

    def all_pass(self, label: str) -> bool:
        lines = self.last[label][0].splitlines()
        return bool(lines) and all(line.startswith("PASS") for line in lines)

    def reported_error(self, label: str) -> bool:
        return self.last[label][1].startswith("error:")


def _cli_session(seed: int, colors: range, workdir: Path) -> Workload:
    inp = _Inputs(seed)
    s = _Session(workdir)
    ops: list[Op] = []
    extra: dict[str, str] = {}

    def write(name: str, text: str) -> str:
        path = s.path(name)
        Path(path).write_text(text)
        extra[name] = text
        return path

    files = {}
    for key, param in (("as", None), ("dend", None), ("rba0", None), ("d1d2", None), ("multi_diff", 2)):
        label = _label(key, param)
        files[label] = write(f"{key}{param or ''}.opd", PARSE.serialize(inp.presentation(key, param)))

    def output_op(label, argv, fmt, want):
        out = s.path(label.replace("/", "_") + (".json" if fmt == "json" else ".opd"))
        full = argv + ["--format", fmt, "--output", out]
        ops.append(Op(label, 0, lambda: s.call(label, full),
                      lambda: s.output_matches(label, out, fmt, want)))

    kinds = {"lin": "linear", "mat": "matching", "tot": "total"}
    for n in colors:
        w = inp.colors(n)
        omega = ",".join(w.labels)
        for key in ("as", "dend", "rba0", "d1d2"):
            for kind, long_kind in kinds.items():
                want = C.build_compatible(long_kind, inp.presentation(key), w)
                for fmt in ("dsl", "json"):
                    output_op(f"build-{kind}/{key}/n{n}/{fmt}",
                              ["build", kind, files[key], "--omega", omega], fmt, want)
        # The README session: lin(as) black q is lin(q) after the tensor-colors
        # map, and likewise for mat (prop-maninbl, prop-maninbll).
        for kind in ("lin", "mat"):
            left = C.build_compatible(kinds[kind], inp.presentation("as"), w)
            product = write(f"black_{kind}_as_dend_{n}.opd",
                            PARSE.serialize(M.black_square(left, inp.presentation("dend"))))
            target = write(f"{kind}_dend_{n}.opd",
                           PARSE.serialize(C.build_compatible(kinds[kind], inp.presentation("dend"), w)))
            label = f"check-iso/{kind}(as)-black-dend/n{n}"
            argv = ["check-iso", product, target, "--map", "tensor-colors", "--quiet"]
            ops.append(Op(label, 0, lambda label=label, argv=argv: s.call(label, argv),
                          lambda label=label: s.stdout_last_line(label, "span-equal")))
    for key, param in (("as", None), ("dend", None), ("d1d2", None), ("multi_diff", 2)):
        label = _label(key, param)
        want = D.koszul_dual(inp.presentation(key, param))
        for fmt in ("dsl", "json"):
            output_op(f"dual/{label}/{fmt}", ["dual", files[label]], fmt, want)
    products = {"black": lambda a, b: M.black_square(a, b),
                "white-dual": lambda a, b: M.white_square(a, b, "white_dual"),
                "white-literal": lambda a, b: M.white_square(a, b, "white_literal")}
    for kind, make in products.items():
        for a in MANIN_KEYS:
            for b in MANIN_KEYS:
                want = make(inp.presentation(a), inp.presentation(b))
                fmts = ("dsl", "json") if (a, b) == ("as", "dend") else ("dsl",)
                for fmt in fmts:
                    output_op(f"product-{kind}/{a}x{b}/{fmt}",
                              ["product", kind, files[a], files[b]], fmt, want)
    for key, arity, weight in (("rba0", 3, 2), ("dend", 3, 2), ("as", 4, 3), ("d1d2", 2, 2)):
        p = inp.presentation(key)
        want = [T.tree_text(t) for t in T.enumerate_basis(p.generators, arity, weight).basis]
        label = f"basis/{key}/a{arity}w{weight}"
        out = s.path(label.replace("/", "_") + ".txt")
        argv = ["basis", files[key], "--arity", str(arity), "--weight", str(weight), "--output", out]
        ops.append(Op(label, 0, lambda label=label, argv=argv: s.call(label, argv),
                      lambda out=out, want=want: s.take(out).splitlines() == want))
    for claim in (["ex-rbcom"], ["ex-rbmat-dend"], ["ex-rbtot"], ["prop-kdualdda"],
                  ["prop-maninbl", "--omega", "2"]):
        label = "verify/" + " ".join(claim)
        argv = ["verify"] + claim
        ops.append(Op(label, 0, lambda label=label, argv=argv: s.call(label, argv),
                      lambda label=label: s.all_pass(label)))
    corpus = ROOT / "tests" / "malformed"
    for name in MALFORMED:
        path = write(f"malformed_{name}", (corpus / name).read_text())
        label = f"malformed/{name}"
        argv = ["build", "lin", path, "--omega", "2"]
        ops.append(Op(label, 2, lambda label=label, argv=argv: s.call(label, argv),
                      lambda label=label: s.reported_error(label)))
    return _finish("cli-session", seed, ops, inp, extra)


_BUILDERS = {"span-ladder": _span_ladder, "dual-products": _dual_products, "cli-session": _cli_session}


def build(name: str, seed: int, workdir: Path, max_colors: Optional[int] = None) -> Workload:
    """The seeded operation mix of one workload, colors 2..top (or ``max_colors``)."""
    top = TOP_COLORS[name] if max_colors is None else min(max_colors, TOP_COLORS[name])
    return _BUILDERS[name](seed, range(2, top + 1), workdir)
