"""Command-line front end.

Subcommands: spectrum | potential | wavefunction | plateau | check-quadrature.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
numeric output uses decimal notation with 10 significant digits; identical
configurations produce byte-identical output.  Each command builds one
document of unrounded values and hands it to `_emit`, which rounds only as it
writes the JSON or CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ParameterError, SolverError
from .potential import PotentialParams, classify_shape, max_basis_index, potential_value
from .recursion import BasisParams, auto_nu
from .wavefunction import sample_wavefunction

# Names from the scipy-backed layers, resolved through the package (which
# imports their layer on first use) so that a command loads only what it
# runs.  They become module globals when first looked up, and the handlers
# read them from there at call time, so a caller can replace them with
# setattr (the benchmark's tracer does).
_LAZY = ("solve_bound_states", "plateau_scan", "quadrature_rule", "quadrature_matrix",
         "direct_matrix")


def __getattr__(name: str):
    """Resolve a lazy name on first access (PEP 562) and keep it global."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(__package__), name)
    return value


def _bind(*names: str):
    """Make lazy names global unless they already are (or were replaced)."""
    for name in names:
        if name not in globals():
            __getattr__(name)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_KERNELS = (
    ("x", lambda x: x),
    ("1/(1-x)", lambda x: 1.0 / (1.0 - x)),
    ("1/(1+x)", lambda x: 1.0 / (1.0 + x)),
    ("1/(x^2-1)", lambda x: 1.0 / (x * x - 1.0)),
)


def fmt(v: float) -> str:
    """Decimal, 10 significant digits, locale independent."""
    return f"{float(v):.10g}"


def _rounded(obj):
    """obj with every float replaced by the value fmt prints, for JSON."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {key: _rounded(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _csv_cell(v) -> str:
    """fmt for a float, str for anything else; a list spreads over columns."""
    if isinstance(v, list):
        return ",".join(map(_csv_cell, v))
    return fmt(v) if isinstance(v, float) else str(v)


def _write_out(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit(cfg: dict, doc: dict, rows_key: str, columns: tuple, side=None, header=None):
    """Write one command's document as JSON or as CSV.

    doc holds raw values, with doc[rows_key] a list of row tuples whose cells
    follow columns.  JSON writes doc with each row as an object keyed by
    columns.  CSV writes the header (default: columns) and the rows to the
    output, then the side report to stderr: a string as is, anything else as
    one line of JSON.
    """
    if cfg["format"] == "json":
        doc = {**doc, rows_key: [dict(zip(columns, row)) for row in doc[rows_key]]}
        _write_out(json.dumps(_rounded(doc), indent=2) + "\n", cfg["out"])
        return
    lines = [",".join(header or columns)]
    lines += [",".join(map(_csv_cell, row)) for row in doc[rows_key]]
    _write_out("\n".join(lines) + "\n", cfg["out"])
    if isinstance(side, str):
        print(side, file=sys.stderr)
    elif side is not None:
        print(json.dumps(_rounded(side)), file=sys.stderr)


def _load_config(path: str) -> dict[str, str]:
    """Flat key-value file; keys identical to flag names, '#' comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, val = parts
        values[key.strip().lstrip("-")] = val.strip()
    return values


_COMMON_DEFAULTS = {
    "A": None, "B": None, "C": None, "lam": 1.0,
    "basis_degree": 100, "mu": 1.5, "nu": "auto",
    "format": "csv", "out": None,
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--A", type=float, default=None, help="strength of the 1/r term")
    p.add_argument("--B", type=float, default=None, help="strength of the 1/r^2 term (enters with a minus sign)")
    p.add_argument("--C", type=float, default=None, help="strength of the 1/r^3 term")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="range scale (default 1.0)")
    p.add_argument("--basis-degree", type=int, default=None,
                   help="number of basis functions (matrix dimension, default 100)")
    p.add_argument("--mu", type=float, default=None, help="computational basis parameter (default 1.5)")
    p.add_argument("--nu", default=None,
                   help="computational basis parameter; 'auto' means -2*basis_degree - mu - 2")
    p.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None, help="flat key-value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tribound",
                                 description="Bound states of the 1/r, 1/r^2, 1/r^3 "
                                             "singular short-range potential.")
    sub = ap.add_subparsers(dest="command", required=True)

    consistent_help = ("assemble the Hamiltonian consistently with the potential as "
                       "evaluated (default follows the tabulated reference convention, "
                       "which halves the coth strength A; see README)")

    sp = sub.add_parser("spectrum", help="compute the bound-state spectrum")
    _add_common(sp)
    sp.add_argument("--consistent-potential", action="store_true", default=None,
                    help=consistent_help)

    pp = sub.add_parser("potential", help="sample the potential and classify its shape")
    _add_common(pp)
    pp.add_argument("--r-min", type=float, default=None)
    pp.add_argument("--r-max", type=float, default=None)
    pp.add_argument("--samples", type=int, default=None)

    wp = sub.add_parser("wavefunction", help="sample one bound-state wavefunction")
    _add_common(wp)
    wp.add_argument("--consistent-potential", action="store_true", default=None,
                    help=consistent_help)
    wp.add_argument("--state", type=int, default=None, help="bound-state index k (default 0)")
    wp.add_argument("--r-min", type=float, default=None)
    wp.add_argument("--r-max", type=float, default=None)
    wp.add_argument("--samples", type=int, default=None)

    lp = sub.add_parser("plateau", help="scan mu for the stability plateau")
    _add_common(lp)
    lp.add_argument("--consistent-potential", action="store_true", default=None,
                    help=consistent_help)
    lp.add_argument("--mu-min", type=float, default=None)
    lp.add_argument("--mu-max", type=float, default=None)
    lp.add_argument("--mu-steps", type=int, default=None, help="number of grid points")

    cq = sub.add_parser("check-quadrature",
                        help="compare quadrature matrices against direct integration")
    _add_common(cq)
    cq.add_argument("--max-degree", type=int, default=None,
                    help="largest basis size checked, 2..8 (default 5)")
    return ap


def _number(cfg: dict, key: str, kind=float):
    """cfg[key] as a finite float (or int), or a ParameterError naming the key."""
    name = "lambda" if key == "lam" else key.replace("_", "-")
    try:
        value = kind(cfg[key])
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{name} must be {noun}, got {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {cfg[key]!r}")
    return value


def _resolve(args: argparse.Namespace, extra_defaults: dict | None = None) -> dict:
    """Merge hard defaults, config-file values and explicit flags."""
    merged: dict = dict(_COMMON_DEFAULTS)
    if extra_defaults:
        merged.update(extra_defaults)
    if getattr(args, "config", None):
        file_vals = _load_config(args.config)
        for key, raw in file_vals.items():
            dest = {"lambda": "lam"}.get(key, key.replace("-", "_"))
            if dest not in merged:
                raise ParameterError(f"unknown config key {key!r}")
            merged[dest] = raw
    for dest in merged:
        val = getattr(args, dest, None)
        if val is not None:
            merged[dest] = val
    for key in ("A", "B", "C"):
        if merged[key] is None:
            raise ParameterError(f"--{key} is required (flag or config file)")
        merged[key] = _number(merged, key)
    merged["lam"] = _number(merged, "lam")
    merged["basis_degree"] = _number(merged, "basis_degree", int)
    merged["mu"] = _number(merged, "mu")
    return merged


def _resolve_nu(cfg: dict) -> float:
    nu = cfg["nu"]
    if isinstance(nu, str) and nu.strip().lower() == "auto":
        return auto_nu(cfg["mu"], cfg["basis_degree"])
    return _number(cfg, "nu")


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        low = value.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ParameterError(f"expected a boolean, got {value!r}")
    return bool(value)


def _validate_basis(mu: float, nu: float, size: int):
    if not mu > -1.0:
        raise ParameterError(f"mu must exceed -1, got {mu}")
    if not (mu + nu < -2.0 * size - 1.0):
        raise ParameterError(
            f"mu + nu = {fmt(mu + nu)} violates mu + nu < -2*{size} - 1")


def _potential(cfg: dict) -> PotentialParams:
    return PotentialParams(A=cfg["A"], B=cfg["B"], C=cfg["C"], lam=cfg["lam"])


def _solve(cfg: dict):
    """Potential, bound spectrum and JSON params block for spectrum and wavefunction."""
    _bind("solve_bound_states")
    nu = _resolve_nu(cfg)
    _validate_basis(cfg["mu"], nu, cfg["basis_degree"])
    consistent = _as_bool(cfg["consistent_potential"])
    p = _potential(cfg)
    spectrum = solve_bound_states(p, cfg["basis_degree"], mu=cfg["mu"], nu=nu,
                                  consistent_potential=consistent)
    params = {"A": p.A, "B": p.B, "C": p.C, "lambda": p.lam,
              "basis_size": cfg["basis_degree"], "mu": cfg["mu"], "nu": nu,
              "consistent_potential": consistent}
    return p, spectrum, params


def _r_grid(cfg: dict, lam: float, min_samples: int) -> np.ndarray:
    """Geometric r grid; an unset bound takes default_r_grid's 1e-3/lambda or 15/lambda."""
    r_min = 1e-3 / lam if cfg["r_min"] is None else _number(cfg, "r_min")
    r_max = 15.0 / lam if cfg["r_max"] is None else _number(cfg, "r_max")
    samples = _number(cfg, "samples", int)
    if not (0.0 < r_min < r_max):
        raise ParameterError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    if samples < min_samples:
        raise ParameterError(f"samples must be at least {min_samples}, got {samples}")
    return np.geomspace(r_min, r_max, samples)


def _cmd_spectrum(args) -> int:
    cfg = _resolve(args, {"consistent_potential": False})
    _, spectrum, params = _solve(cfg)
    note = None
    if cfg["A"] > -0.5:
        note = f"A = {fmt(cfg['A'])} > -1/2 admits no bound states"
    n_max = max_basis_index(cfg["A"])
    doc = {
        "command": "spectrum",
        "params": params,
        "states": [(i, -e, e) for i, e in enumerate(spectrum.epsilons.tolist())],
        "diagnostics": {
            "discarded_count": spectrum.discarded_count,
            "max_residual": spectrum.max_residual,
            "bound_state_limit": None if n_max is None else n_max + 1,
            "note": note,
        },
    }
    _emit(cfg, doc, "states", ("n", "minus_epsilon", "E_over_half_lambda_sq"), note)
    return EXIT_OK


def _cmd_potential(args) -> int:
    cfg = _resolve(args, {"r_min": 0.05, "r_max": 10.0, "samples": 400})
    p = _potential(cfg)
    r = _r_grid(cfg, p.lam, 2)
    if p.C == 0.0:
        raise ParameterError("potential command needs C != 0 (figure units are lambda^2 C / 2)")
    # V in units lambda^2 C / 2
    v = potential_value(p, r) / (0.5 * p.lam**2 * p.C)
    doc = {
        "command": "potential",
        "params": {"A": p.A, "B": p.B, "C": p.C, "lambda": p.lam,
                   "gamma": p.gamma, "xi": p.xi},
        "shape": dataclasses.asdict(classify_shape(p)),
        "samples": list(zip(r.tolist(), v.tolist())),
    }
    _emit(cfg, doc, "samples", ("r", "V_over_half_lambda_sq_C"), doc["shape"])
    return EXIT_OK


def _cmd_wavefunction(args) -> int:
    cfg = _resolve(args, {"state": 0, "r_min": None, "r_max": None, "samples": 2000,
                          "consistent_potential": False})
    k = _number(cfg, "state", int)
    p, spectrum, params = _solve(cfg)
    if not 0 <= k < len(spectrum):
        raise ParameterError(
            f"state {k} out of range: {len(spectrum)} bound state(s) available")
    grid = _r_grid(cfg, p.lam, 1)
    table = sample_wavefunction(k, float(spectrum.epsilons[k]), p, grid)
    doc = {
        "command": "wavefunction",
        "params": params,
        "state": {
            "state": k,
            "epsilon": table.epsilon,
            "minus_epsilon": -table.epsilon,
            "mu_k": table.mu_k,
            "nu_k": table.nu_k,
            "terms_used": table.terms_used,
            "clamped_count": table.clamped_count,
        },
        "samples": list(zip(table.r_grid.tolist(), table.psi.tolist())),
    }
    _emit(cfg, doc, "samples", ("r", "psi"), doc["state"])
    return EXIT_OK


def _cmd_plateau(args) -> int:
    _bind("plateau_scan")
    cfg = _resolve(args, {"mu_min": 1.0, "mu_max": 2.0, "mu_steps": 11,
                          "consistent_potential": False})
    mu_min, mu_max = _number(cfg, "mu_min"), _number(cfg, "mu_max")
    steps = _number(cfg, "mu_steps", int)
    if steps < 1 or (steps == 1 and mu_min != mu_max) or mu_min > mu_max:
        raise ParameterError("invalid mu grid specification")
    grid = np.linspace(mu_min, mu_max, steps)
    size = cfg["basis_degree"]
    for m in grid:
        nu_m = auto_nu(float(m), size)
        if not (float(m) > -1.0 and float(m) + nu_m < -2.0 * size - 1.0):
            raise ParameterError(f"grid point mu = {fmt(m)} violates the basis constraints")
    consistent = _as_bool(cfg["consistent_potential"])
    p = _potential(cfg)
    scan = plateau_scan(p, size, grid, consistent_potential=consistent)
    doc = {
        "command": "plateau",
        "params": {"A": p.A, "B": p.B, "C": p.C, "lambda": p.lam, "basis_size": size,
                   "consistent_potential": consistent},
        "grid": list(zip(grid.tolist(), scan.table().tolist())),
        "plateaus": [dataclasses.asdict(s) for s in scan.stats],
    }
    header = ["mu"] + [f"minus_eps_{j}" for j in range(scan.state_count)]
    _emit(cfg, doc, "grid", ("mu", "minus_epsilons"), doc["plateaus"], header)
    return EXIT_OK


def _cmd_check_quadrature(args) -> int:
    _bind("quadrature_rule", "quadrature_matrix", "direct_matrix")
    cfg = _resolve(args, {"max_degree": 5})
    max_degree = _number(cfg, "max_degree", int)
    if max_degree > 8:
        raise ParameterError(f"max degree is capped at 8, got {max_degree}")
    if max_degree < 2:
        raise ParameterError(f"need max degree >= 2, got {max_degree}")
    mu = cfg["mu"]
    rows = []
    for size in range(2, max_degree + 1):
        basis = BasisParams.from_size(mu, auto_nu(mu, size), size)
        rule = quadrature_rule(basis)
        for name, w in _KERNELS:
            diff = np.abs(quadrature_matrix(rule, w) - direct_matrix(basis, w))
            rows.append((size, name, diff.max(), diff[:2, :2].max()))
    doc = {"command": "check_quadrature",
           "params": {"mu": mu, "max_degree": max_degree},
           "rows": rows}
    _emit(cfg, doc, "rows", ("size", "kernel", "max_abs_diff", "low_block_abs_diff"))
    return EXIT_OK


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "potential": _cmd_potential,
    "wavefunction": _cmd_wavefunction,
    "plateau": _cmd_plateau,
    "check-quadrature": _cmd_check_quadrature,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
