"""Every opdkit name the benchmark, the acceptance gate and CI look up resolves.

``perfbench/tracer.py`` wraps functions it names as (module, name) pairs,
``perfbench/workloads.py`` reads attributes through module aliases, and
the CI workflow runs inline Python that imports from opdkit.  A refactor
that moves one of these names must fail here, in the tier-1 tests, not
only in a traced benchmark run or in CI.  The Python files are read with
``ast`` and the workflow as text, so nothing of them is imported or run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tree(relative: str) -> ast.Module:
    return ast.parse((ROOT / relative).read_text())


def _tracer_targets() -> list[tuple[str, str]]:
    """The (module, name) pairs of the tracer's ``LAYERS``, plus the
    ``relation_gradings`` its install imports from ``presentation``."""
    for node in _tree("perfbench/tracer.py").body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            layers = ast.literal_eval(node.value)
            return [pair for targets in layers.values() for pair in targets] + [
                ("opdkit.presentation", "relation_gradings")
            ]
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _workload_reads() -> list[tuple[str, str]]:
    """Every (module, attribute) that ``perfbench/workloads.py`` reads
    through an ``import opdkit.<module> as <alias>`` alias."""
    tree = _tree("perfbench/workloads.py")
    aliases = {
        alias.asname: alias.name
        for node in tree.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("opdkit.") and alias.asname
    }
    assert set(aliases) == {"CAT", "CLI", "C", "D", "M", "PARSE", "P", "T"}
    return sorted({
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    })


def _acceptance_imports() -> list[tuple[str, str]]:
    """Every (module, name) that ``tests/test_acceptance.py`` imports from opdkit."""
    return [
        (node.module, alias.name)
        for node in ast.walk(_tree("tests/test_acceptance.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("opdkit")
        for alias in node.names
    ]


# ``from opdkit[.module] import a, b`` in the workflow's shell and heredoc
# lines; the names end at what a name list cannot hold (``;``, ``'``, a
# line break).
_WORKFLOW_IMPORT = re.compile(r"\bfrom\s+(opdkit(?:\.\w+)*)\s+import\s+(\w+(?:\s*,\s*\w+)*)")


def _workflow_imports() -> list[tuple[str, str]]:
    """Every (module, name) that ``.github/workflows/tests.yml`` imports from opdkit."""
    text = (ROOT / ".github/workflows/tests.yml").read_text()
    found = _WORKFLOW_IMPORT.findall(text)
    # A form the pattern misses (a parenthesized list, say) must not slip by.
    imports = re.findall(r"\bfrom\s+opdkit(?:\.\w+)*\s+import\b", text)
    assert len(found) == len(imports), "unread opdkit import in tests.yml"
    return [(module, name.strip()) for module, names in found for name in names.split(",")]


READERS = {
    "tracer": _tracer_targets,
    "workloads": _workload_reads,
    "acceptance": _acceptance_imports,
    "workflow": _workflow_imports,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_opdkit_name_read_from_outside_resolves(reader):
    names = READERS[reader]()
    assert names, reader
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{reader}: {missing}"
