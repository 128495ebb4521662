"""Command-line front end.

Subcommands: spectrum | potential | wavefunction | plateau | check-quadrature.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
numeric output uses decimal notation with 10 significant digits; identical
configurations produce byte-identical output.  Each command builds one
document of unrounded values and hands it to `_emit`, which rounds only as it
writes the JSON or CSV.  scipy loads inside the library calls that use it,
one extension at a time, so a command loads only the scipy extensions it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ParameterError, SolverError
from .oracle import direct_matrix
from .potential import PotentialParams, classify_shape, max_basis_index, potential_value
from .recursion import BasisParams
from .solver import (_KERNELS, plateau_scan, quadrature_matrix, quadrature_rule,
                     solve_bound_states)
from .wavefunction import sample_wavefunction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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


def _csv_line(row) -> str:
    """One CSV line: fmt for a float, str for anything else; a list cell
    spreads into zero or more fields."""
    cells = [c for v in row for c in (v if isinstance(v, list) else [v])]
    return ",".join(fmt(c) if isinstance(c, float) else str(c) for c in cells)


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
    lines += [_csv_line(row) for row in doc[rows_key]]
    _write_out("\n".join(lines) + "\n", cfg["out"])
    if isinstance(side, str):
        print(side, file=sys.stderr)
    elif side is not None:
        print(json.dumps(_rounded(side)), file=sys.stderr)


def _load_config(path: str) -> dict[str, str]:
    """Flat 'key = value' lines, each key a flag name without '--'; '#' comments.

    The text is UTF-8, with or without a byte-order mark.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value'")
        values[key.strip()] = val.strip()
    return values


# Every option, dest -> (flag, type, help).  The type converts flag text, config
# text and defaults alike, in _convert: float and int by _number, bool (a flag
# without a value) by _as_bool, a tuple of choices by membership; str is kept.
_OPTIONS = {
    "A": ("--A", float, "strength of the 1/r term"),
    "B": ("--B", float, "strength of the 1/r^2 term (enters with a minus sign)"),
    "C": ("--C", float, "strength of the 1/r^3 term"),
    "lam": ("--lambda", float, "range scale (default 1.0)"),
    "basis_degree": ("--basis-degree", int, "number of basis functions (matrix dimension, default 100)"),
    "mu": ("--mu", float, "computational basis parameter (default 1.5)"),
    "consistent_potential": ("--consistent-potential", bool,
                             "assemble the Hamiltonian consistently with the potential as "
                             "evaluated (default follows the tabulated reference convention, "
                             "which halves the coth strength A; see README)"),
    "state": ("--state", int, "bound-state index k (default 0)"),
    "r_min": ("--r-min", float, None),
    "r_max": ("--r-max", float, None),
    "samples": ("--samples", int, None),
    "mu_min": ("--mu-min", float, None),
    "mu_max": ("--mu-max", float, None),
    "mu_steps": ("--mu-steps", int, "number of grid points"),
    "max_degree": ("--max-degree", int, "largest basis size checked, 2..8 (default 5)"),
    "format": ("--format", ("csv", "json"), "output format, csv or json (default csv)"),
    "out": ("--out", str, "output path (default stdout)"),
}

_REQUIRED = object()  # the default of an option that must be given
_POTENTIAL = {"A": _REQUIRED, "B": _REQUIRED, "C": _REQUIRED, "lam": 1.0}
_BASIS = {"basis_degree": 100, "mu": 1.5}
_OUTPUT = {"format": "csv", "out": None}


def _number(name: str, raw, kind=float):
    """raw as a finite float (or int), or a ParameterError naming the option."""
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{name} must be {noun}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {raw!r}")
    return value


def _as_bool(name: str, value) -> bool:
    low = str(value).strip().lower()
    if low not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ParameterError(f"{name} must be a boolean, got {value!r}")
    return low in ("1", "true", "yes", "on")


def _convert(dest: str, value):
    """One option's merged value, raw text or a default, as its declared type."""
    flag, kind, _ = _OPTIONS[dest]
    name = flag[2:]
    if value is _REQUIRED:
        raise ParameterError(f"{flag} is required (flag or config file)")
    if value is None:
        return None
    if kind is bool:
        return _as_bool(name, value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise ParameterError(f"{name} must be {' or '.join(kind)}, got {value!r}")
        return value
    return value if kind is str else _number(name, value, kind)


def _resolve(args: argparse.Namespace) -> dict:
    """The command's options from its defaults, the config file and the flags
    (later wins), each converted once by its declared type."""
    merged = dict(_COMMANDS[args.command][2])
    if args.config:
        dests = {_OPTIONS[dest][0][2:]: dest for dest in merged}
        for key, raw in _load_config(args.config).items():
            if key not in dests:
                raise ParameterError(f"unknown config key {key!r}")
            merged[dests[key]] = raw
    for dest in merged:
        if getattr(args, dest) is not None:
            merged[dest] = getattr(args, dest)
    return {dest: _convert(dest, value) for dest, value in merged.items()}


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: each valued flag has the one spelling _join_flag_values
    # joins to a negative number
    ap = argparse.ArgumentParser(prog="tribound", allow_abbrev=False,
                                 description="Bound states of the 1/r, 1/r^2, 1/r^3 "
                                             "singular short-range potential.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, text, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for dest in defaults:
            flag, kind, help_text = _OPTIONS[dest]
            how = {"action": "store_true"} if kind is bool else {}
            p.add_argument(flag, dest=dest, default=None, help=help_text, **how)
        p.add_argument("--config", default=None,
                       help="file of 'key = value' lines, keys named as flags; flags override it")
    return ap


def _potential(cfg: dict) -> PotentialParams:
    return PotentialParams(A=cfg["A"], B=cfg["B"], C=cfg["C"], lam=cfg["lam"])


def _solve(cfg: dict):
    """Potential, bound spectrum and JSON params block, whose basis is the solved one."""
    p = _potential(cfg)
    spectrum = solve_bound_states(p, cfg["basis_degree"], mu=cfg["mu"],
                                  consistent_potential=cfg["consistent_potential"])
    basis = spectrum.basis
    params = {"A": p.A, "B": p.B, "C": p.C, "lambda": p.lam,
              "basis_size": basis.size, "mu": basis.mu, "nu": basis.nu,
              "consistent_potential": cfg["consistent_potential"]}
    return p, spectrum, params


def _r_grid(cfg: dict, lam: float, min_samples: int, core: float, tail: float) -> np.ndarray:
    """Geometric r grid; an unset bound is core/lambda or tail/lambda."""
    r_min = core / lam if cfg["r_min"] is None else cfg["r_min"]
    r_max = tail / lam if cfg["r_max"] is None else cfg["r_max"]
    if not (0.0 < r_min < r_max):
        raise ParameterError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    if cfg["samples"] < min_samples:
        raise ParameterError(f"samples must be at least {min_samples}, got {cfg['samples']}")
    return np.geomspace(r_min, r_max, cfg["samples"])


def _cmd_spectrum(cfg: dict) -> int:
    p, spectrum, params = _solve(cfg)
    n_max = max_basis_index(p.A)
    note = None
    if len(spectrum) == 0 and n_max is None:
        note = f"A = {fmt(p.A)} > -1/2 admits no bound states"
    elif len(spectrum) == 0:
        basis = spectrum.basis
        note = (f"no bound state found at N = {basis.size}, mu = {fmt(basis.mu)}: "
                "a mu off the stability plateau can lose states; scan mu with `tribound plateau`")
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


def _cmd_potential(cfg: dict) -> int:
    p = _potential(cfg)
    r = _r_grid(cfg, p.lam, 2, 0.05, 10.0)
    if p.C == 0.0:
        raise ParameterError("potential command needs C != 0 (figure units are lambda^2 C / 2)")
    # V in units lambda^2 C / 2
    v = potential_value(p, r)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v /= 0.5 * p.lam**2 * p.C
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"V / (lambda^2 C / 2) overflows float64 at lambda = {p.lam:.6g}")
    doc = {
        "command": "potential",
        "params": {"A": p.A, "B": p.B, "C": p.C, "lambda": p.lam,
                   "gamma": p.gamma, "xi": p.xi},
        "shape": dataclasses.asdict(classify_shape(p)),
        "samples": list(zip(r.tolist(), v.tolist())),
    }
    _emit(cfg, doc, "samples", ("r", "V_over_half_lambda_sq_C"), doc["shape"])
    return EXIT_OK


def _cmd_wavefunction(cfg: dict) -> int:
    k = cfg["state"]
    p, spectrum, params = _solve(cfg)
    if not 0 <= k < len(spectrum):
        raise ParameterError(f"state {k} out of range: {len(spectrum)} bound state(s) available")
    grid = _r_grid(cfg, p.lam, 1, 1e-3, 15.0)
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


def _cmd_plateau(cfg: dict) -> int:
    mu_min, mu_max, steps = cfg["mu_min"], cfg["mu_max"], cfg["mu_steps"]
    if steps < 1 or (steps == 1 and mu_min != mu_max) or mu_min > mu_max:
        raise ParameterError("invalid mu grid specification")
    grid = np.linspace(mu_min, mu_max, steps)
    size, consistent = cfg["basis_degree"], cfg["consistent_potential"]
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


def _cmd_check_quadrature(cfg: dict) -> int:
    max_degree = cfg["max_degree"]
    if max_degree > 8:
        raise ParameterError(f"max degree is capped at 8, got {max_degree}")
    if max_degree < 2:
        raise ParameterError(f"need max degree >= 2, got {max_degree}")
    mu = cfg["mu"]
    rows = []
    for size in range(2, max_degree + 1):
        basis = BasisParams.from_size(mu, size)
        rule = quadrature_rule(basis)
        for name, w in _KERNELS.items():
            diff = np.abs(quadrature_matrix(rule, w) - direct_matrix(basis, w))
            rows.append((size, name, diff.max(), diff[:2, :2].max()))
    doc = {"command": "check_quadrature",
           "params": {"mu": mu, "max_degree": max_degree},
           "rows": rows}
    _emit(cfg, doc, "rows", ("size", "kernel", "max_abs_diff", "low_block_abs_diff"))
    return EXIT_OK


# Every command, name -> (handler, help, {dest: default}): it takes exactly
# these options, converted in this order.
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "compute the bound-state spectrum",
                 {**_POTENTIAL, **_BASIS, "consistent_potential": False, **_OUTPUT}),
    "potential": (_cmd_potential, "sample the potential and classify its shape",
                  {**_POTENTIAL, "r_min": None, "r_max": None, "samples": 400, **_OUTPUT}),
    "wavefunction": (_cmd_wavefunction, "sample one bound-state wavefunction",
                     {**_POTENTIAL, **_BASIS, "consistent_potential": False, "state": 0,
                      "r_min": None, "r_max": None, "samples": 2000, **_OUTPUT}),
    "plateau": (_cmd_plateau, "scan mu for the stability plateau",
                {**_POTENTIAL, "basis_degree": 100, "consistent_potential": False,
                 "mu_min": 1.0, "mu_max": 2.0, "mu_steps": 11, **_OUTPUT}),
    # A, B and C are optional and not read; taking them lets one potential's
    # flags fit every command
    "check-quadrature": (_cmd_check_quadrature,
                         "compare quadrature matrices against direct integration",
                         {"A": None, "B": None, "C": None, "mu": 1.5, "max_degree": 5,
                          **_OUTPUT}),
}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_flag_values(argv: list[str]) -> list[str]:
    """argv with each valued flag joined to a following number, as '--A=-3e2':
    argparse takes a value like '-3e2' or '-inf' for an option."""
    valued = {flag for flag, kind, _ in _OPTIONS.values() if kind is not bool}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in valued and _is_number(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command][0](_resolve(args))
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
