"""Output checks for every benchmark op, against fixtures captured from the program.

Each check returns None when the output is correct and a one-line reason
when it is not.  The fixtures live in perfbench/fixtures and are regenerated
by perfbench/capture.py; loading them re-checks the reference entries
against the acceptance table, so a fixture captured from a broken program is
refused.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# Absolute tolerance on every level (-eps), the acceptance gate's tolerance.
LEVEL_TOL = 5e-7

# Reference levels at N=100, A=-300, B=5, C=3, default convention: the
# REFERENCE_LEVELS table of tests/test_acceptance.py.
REFERENCE_LEVELS_N100 = [249.6474353, 121.1387781, 54.5922342, 20.1738321, 4.2427578]

# Wavefunction samples agree to this share of the state's largest |psi|.
PSI_RTOL = 1e-7

# Crossings and extrema of the shape report agree to this relative tolerance.
SHAPE_RTOL = 1e-9


def level_key(A: float, N: int, consistent: bool) -> str:
    return f"A={A:g},N={N},{'consistent' if consistent else 'default'}"


def check_levels(got, want) -> str | None:
    """Exact state count, then every level within LEVEL_TOL."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"state count {got.size} != {want.size}"
    worst = float(np.max(np.abs(got - want), initial=0.0))
    if not worst <= LEVEL_TOL:
        return f"level deviation {worst:.3e} > {LEVEL_TOL:g}"
    return None


def count_nodes(psi: np.ndarray) -> int:
    """Sign changes of psi, ignoring exact zeros (underflowed samples).

    Kept apart from the program's count_sign_changes so that the check does
    not rely on the code it checks.
    """
    s = np.sign(psi)
    s = s[s != 0.0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0.0))


def potential_reference(A: float, B: float, C: float, lam: float, r: np.ndarray):
    """V(r) from the hyperbolic form and its largest term, for r with lambda r < 300.

    Shares no code with the program's exp(-2 lambda r) evaluation;
    coth t - 1 = 2 / (e^{2t} - 1) avoids the cancellation of cosh/sinh - 1.
    """
    t = lam * r
    coth_m1 = 2.0 / (np.exp(2.0 * t) - 1.0)
    terms = np.stack([A * coth_m1, -B / np.sinh(t) ** 2, C * np.cosh(t) / np.sinh(t) ** 3])
    half = 0.5 * lam * lam
    return half * terms.sum(axis=0), half * np.abs(terms).max(axis=0)


class Fixtures:
    """Expected outputs of every op, loaded once per run."""

    def __init__(self, root: Path = FIXTURES):
        self.levels = json.loads((root / "levels.json").read_text())
        self.plateau = json.loads((root / "plateau.json").read_text())
        self.states = json.loads((root / "states.json").read_text())
        manifest = json.loads((root / "cli.json").read_text())
        self.cli = {}
        for entry in manifest:
            name = entry["name"]
            self.cli[name] = (entry["exit"], (root / "cli" / f"{name}.stdout").read_bytes(),
                              (root / "cli" / f"{name}.stderr").read_bytes())
        ref = self.levels.get(level_key(-300.0, 100, False))
        if ref is None or check_levels(ref, REFERENCE_LEVELS_N100) is not None:
            raise ValueError("levels fixture does not reproduce the acceptance table at N=100")

    def check_spectrum(self, A: float, N: int, consistent: bool, report_units) -> str | None:
        return check_levels(report_units, self.levels[level_key(A, N, consistent)])

    def check_plateau(self, consistent: bool, table, state_count: int) -> str | None:
        want = self.plateau["consistent" if consistent else "default"]
        if state_count != len(want[0]):
            return f"plateau state count {state_count} != {len(want[0])}"
        return check_levels(np.asarray(table).ravel(), np.asarray(want).ravel())

    def check_shape(self, shape) -> str | None:
        want = self.states["shape"]
        got = {"crossings": [[c.x, c.r] for c in shape.crossings],
               "extrema": [[e.x, e.r, e.value] for e in shape.extrema]}
        for key in ("crossings", "extrema"):
            g, w = np.asarray(got[key], dtype=float), np.asarray(want[key], dtype=float)
            if g.shape != w.shape or not np.allclose(g, w, rtol=SHAPE_RTOL, atol=0.0):
                return f"shape {key} differ"
        return None

    def check_wavefunction(self, k: int, table) -> str | None:
        want = self.states["wavefunctions"][k]
        nodes = count_nodes(table.psi)
        if nodes != k:
            return f"state {k} has {nodes} nodes"
        if table.terms_used != want["terms_used"] or table.clamped_count != want["clamped_count"]:
            return f"state {k} terms/clamped differ"
        idx = self.states["sample_index"]
        got = table.psi[idx]
        ref = np.asarray(want["psi"])
        scale = np.abs(table.psi).max()
        if not np.all(np.abs(got - ref) <= PSI_RTOL * scale):
            return f"state {k} samples differ"
        return None

    def check_cli(self, name: str, code: int, stdout: bytes, stderr: bytes) -> str | None:
        want_code, want_out, want_err = self.cli[name]
        if code != want_code:
            return f"exit code {code} != {want_code}"
        if stdout != want_out:
            return "stdout differs from golden"
        if stderr != want_err:
            return "stderr differs from golden"
        return None
