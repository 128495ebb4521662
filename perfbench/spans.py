"""Outside-in layer tracing: wrappers around the names each caller looks up.

Nothing inside the program changes.  install() replaces module attributes
with wrappers that append a span (id, parent id, op id, name, start, end,
attributes) to an in-memory list; uninstall() puts the originals back.
layer_metrics() turns the spans of a traced run into per-op layer figures.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name).  Each entry patches the binding its
# caller resolves at call time: solve_bound_states resolves assemble_system
# and bound_states in tribound.solver, the CLI resolves its imported names in
# tribound.cli, the solver resolves LAPACK through scipy.linalg / numpy.linalg.
PATCHES = (
    ("tribound.solver", "solve_bound_states", "solver.solve"),
    ("tribound.solver", "plateau_scan", "solver.plateau"),
    ("tribound.solver", "assemble_system", "solver.assemble"),
    ("tribound.solver", "quadrature_rule", "solver.rule"),
    ("tribound.solver", "bound_states", "solver.bound_states"),
    ("tribound.potential", "classify_shape", "potential.classify"),
    ("tribound.potential", "potential_value", "potential.value"),
    ("tribound.wavefunction", "sample_wavefunction", "wavefunction.sample"),
    ("tribound.wavefunction", "state_coefficients", "wavefunction.coeffs"),
    ("tribound.wavefunction", "jacobi_sequence", "special.jacobi"),
    ("tribound.oracle", "direct_matrix_element", "oracle.element"),
    ("tribound.cli", "solve_bound_states", "solver.solve"),
    ("tribound.cli", "plateau_scan", "solver.plateau"),
    ("tribound.cli", "quadrature_rule", "solver.rule"),
    ("tribound.cli", "classify_shape", "potential.classify"),
    ("tribound.cli", "potential_value", "potential.value"),
    ("tribound.cli", "sample_wavefunction", "wavefunction.sample"),
    ("tribound.cli", "direct_matrix", "oracle.direct"),
    ("scipy.linalg", "lu_factor", "lapack.lu_factor"),
    ("scipy.linalg", "lu_solve", "lapack.lu_solve"),
    ("scipy.linalg", "eigh_tridiagonal", "lapack.tridiag"),
    ("scipy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigh", "lapack.eigh"),
)

# Spans that cli.self_ms subtracts from the CLI's main.
LIBRARY_SPANS = {"solver.solve", "solver.plateau", "solver.rule", "potential.classify",
                 "potential.value", "wavefunction.sample", "oracle.direct"}


def _attrs(name, args, kwargs, result) -> dict | None:
    """Work counts recorded with a span, where the layer has them."""
    if name == "solver.solve":
        size = args[1] if len(args) > 1 else kwargs["size"]
        return {"kept": len(result), "size": int(size)}
    if name == "wavefunction.sample":
        return {"points": int(result.psi.size), "clamped": int(result.clamped_count)}
    if name == "oracle.element":
        return {"evaluations": int(result.evaluations)}
    return None


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, op, name, t0, t1, attrs]
        self.stack: list[int] = []
        self.op: int | None = None
        self.warnings: Counter = Counter()   # op id -> LinAlgWarning count
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, self.op, name, time.perf_counter(),
                   None, None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
            rec[6] = _attrs(name, args, kwargs, result)
            return result

        return traced

    def _wrap_norm(self, fn):
        """numpy.linalg.norm, traced only for the 2-norm of a matrix."""
        traced_fn = self._wrap("solver.norm2", fn)

        def norm(x, ord=None, *args, **kwargs):
            if isinstance(ord, int) and ord == 2 and np.ndim(x) == 2:
                return traced_fn(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return norm

    def install(self):
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        mod = importlib.import_module("numpy.linalg")
        self._saved.append((mod, "norm", mod.norm))
        mod.norm = self._wrap_norm(mod.norm)

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of its own."""
        return self._wrap(name, fn)(*args, **kwargs)

    def merge(self, spans: list[list], op: int):
        """Append spans recorded by a child process, renumbered, under op."""
        base = len(self.spans)
        for sid, parent, _, name, t0, t1, attrs in spans:
            self.spans.append([base + sid, None if parent is None else base + parent,
                               op, name, t0, t1, attrs])

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans: list[list], n_ops: int, warnings: int) -> dict[str, float]:
    """Per-op layer figures from the spans of n_ops traced ops.

    Times are ms per op.  Self times subtract only the child spans named in
    each definition, so LAPACK time stays inside the stage that calls it.
    """
    dur = {s[0]: s[5] - s[4] for s in spans}
    child = defaultdict(float)          # (parent id, child name) -> seconds
    lib_child = defaultdict(float)      # parent id -> seconds in LIBRARY_SPANS
    for s in spans:
        if s[1] is not None:
            child[(s[1], s[3])] += dur[s[0]]
            if s[3] in LIBRARY_SPANS:
                lib_child[s[1]] += dur[s[0]]
    total = Counter()
    calls = Counter()
    work = Counter()
    for sid, _, _, name, _, _, attrs in spans:
        d = dur[sid]
        calls[name] += 1
        total[name] += d
        if name == "solver.solve":
            total["eigen"] += d - child[(sid, "solver.assemble")] - child[(sid, "solver.bound_states")]
        elif name == "solver.assemble":
            total["assemble_self"] += d - child[(sid, "solver.rule")]
        elif name == "solver.plateau":
            total["plateau_self"] += d - child[(sid, "solver.solve")]
        elif name == "cli.main":
            total["cli_self"] += d - lib_child[sid]
        for key, value in (attrs or {}).items():
            work[f"{name}.{key}"] += value
    n = max(n_ops, 1)

    def ms(key):
        return 1e3 * total[key] / n

    return {
        "solver.eigen_ms": ms("eigen"),
        "solver.assemble_ms": ms("assemble_self"),
        "solver.rule_ms": ms("solver.rule"),
        "solver.plateau_self_ms": ms("plateau_self"),
        "solver.norm2_ms": ms("solver.norm2"),
        "solver.kept_share": work["solver.solve.kept"] / max(work["solver.solve.size"], 1),
        "lapack.eigh_ms": ms("lapack.eigh"),
        "lapack.eigh.calls": calls["lapack.eigh"] / n,
        "lapack.tridiag_ms": ms("lapack.tridiag"),
        "refine.lu_calls": calls["lapack.lu_factor"] / n,
        "refine.lu_ms": 1e3 * (total["lapack.lu_factor"] + total["lapack.lu_solve"]) / n,
        "refine.kept_per_lu": work["solver.solve.kept"] / max(calls["lapack.lu_factor"], 1),
        "refine.singular_warnings": warnings / n,
        "wavefunction.sample_ms": ms("wavefunction.sample"),
        "wavefunction.points_per_s": (work["wavefunction.sample.points"]
                                      / total["wavefunction.sample"]
                                      if total["wavefunction.sample"] else 0.0),
        "wavefunction.coeffs_ms": ms("wavefunction.coeffs"),
        "wavefunction.clamped_share": (work["wavefunction.sample.clamped"]
                                       / max(work["wavefunction.sample.points"], 1)),
        "special.jacobi_ms": ms("special.jacobi"),
        "potential.value_ms": ms("potential.value"),
        "potential.classify_ms": ms("potential.classify"),
        "cli.main_ms": ms("cli.main"),
        "cli.self_ms": ms("cli_self"),
        "oracle.direct_ms": ms("oracle.direct"),
        "oracle.evaluations": work["oracle.element.evaluations"] / n,
    }
