"""The benchmark reaches the program through module attributes: the layer
tracer replaces the names in perfbench/spans.py's PATCHES, and the workloads
call tribound.<module>.<name>.  A refactor that moves one of them breaks the
benchmark, so each must resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def patched_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _ in spans.PATCHES]


def called_names(path: Path) -> list[tuple[str, str]]:
    """(module, attribute) for each `from tribound.m import a` and each
    `alias.a` where `import tribound.m as alias`."""
    tree = ast.parse(path.read_text())
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname: a.name for a in node.names
                            if a.asname and a.name.startswith("tribound.")})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tribound"):
            names += [(node.module, a.name) for a in node.names]
    names += [(aliases[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases]
    return names


def test_patched_names_resolve():
    patched = patched_names()
    assert len(patched) >= 20
    missing = [(m, a) for m, a in patched if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_workload_names_resolve():
    called = called_names(PERFBENCH / "workloads.py")
    assert {("tribound.potential", "potential_value"),
            ("tribound.wavefunction", "sample_wavefunction"),
            ("tribound.solver", "solve_bound_states")} <= set(called)
    missing = [(m, a) for m, a in called if not hasattr(importlib.import_module(m), a)]
    assert missing == []
