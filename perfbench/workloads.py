"""The four workloads: their op mixes, how one op runs, how its output is checked.

Each workload is a closed loop with one client.  An op mix is a "cycle";
the seed shuffles the order of every cycle and the runner times whole cycles
so each run sees the same mix.  The program receives only the generated
inputs.  Library ops call through module attributes (tribound.solver.X, ...)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tribound.potential as potential
import tribound.solver as solver
import tribound.wavefunction as wavefunction
from tribound.potential import PotentialParams
from spawner import Spawner
from verify import potential_reference

BENCH = Path(__file__).resolve().parent

B, C = 5.0, 3.0
REF = PotentialParams(A=-300.0, B=B, C=C)

# Depth sets the bound-state count: A=-20 / -300 / -2000 keep 1 / 5 / 17
# states (default convention).
SOLVE_A = (-20.0, -300.0, -2000.0)
SOLVE_N = (100, 200, 300)
# N=400 on the reference potential raises SolverError at the parent commit
# (float64 ceiling).  Workloads must not contain failing ops, so the
# ceiling is probed after the traced run of `solve` and counted there.
CEILING_N = 400

PLATEAU_N = 100
PLATEAU_GRID = np.round(np.arange(1.0, 2.0001, 0.1), 12)   # acceptance criterion 8

STATES_N = 50
STATES_POINTS = 100_000

_CLI_POT = ["--A", "-300", "--B", "5", "--C", "3"]
CLI_CALLS = {
    "spectrum_csv": ["spectrum", *_CLI_POT, "--basis-degree", "100"],
    "spectrum_json": ["spectrum", *_CLI_POT, "--basis-degree", "50", "--format", "json",
                      "--consistent-potential"],
    "potential": ["potential", *_CLI_POT, "--samples", "400"],
    "wavefunction": ["wavefunction", *_CLI_POT, "--basis-degree", "50", "--state", "4"],
    "plateau": ["plateau", *_CLI_POT, "--basis-degree", "50", "--mu-steps", "5"],
    "check_quadrature": ["check-quadrature", *_CLI_POT, "--max-degree", "3"],
}

# Added to one level by the verifier self-check; twice the level tolerance.
LEVEL_BUMP = 1e-6


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple


def _bump(levels: np.ndarray) -> np.ndarray:
    out = np.array(levels, dtype=float)
    out[0] += LEVEL_BUMP
    return out


def _conv(consistent: bool) -> str:
    return "consistent" if consistent else "default"


class Workload:
    """Base: a seeded op mix.  Subclasses define run, check and mutate."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def cycle(self) -> list[Op]:
        ops = self.ops()
        self.rng.shuffle(ops)
        return ops

    def self_check_op(self) -> Op:
        return self.ops()[0]

    def close(self):
        """Stop any process the workload keeps between ops."""


class Solve(Workload):
    """One op is one solve_bound_states call."""

    name = "solve"

    def ops(self):
        return [Op(f"A={A:g} N={N} {_conv(c)}", (A, N, c))
                for A in SOLVE_A for N in SOLVE_N for c in (False, True)]

    def self_check_op(self):
        return Op("A=-300 N=100 default", (-300.0, 100, False))

    def run(self, op):
        A, N, consistent = op.args
        return solver.solve_bound_states(PotentialParams(A=A, B=B, C=C), N,
                                         consistent_potential=consistent)

    def check(self, fx, op, out):
        A, N, consistent = op.args
        return fx.check_spectrum(A, N, consistent, out.report_units)

    def mutate(self, op, out):
        return dataclasses.replace(out, report_units=_bump(out.report_units))

    def ceiling_ops(self):
        return [Op(f"A=-300 N={CEILING_N} {_conv(c)}", (-300.0, CEILING_N, c))
                for c in (False, True)]


class Plateau(Workload):
    """One op is an 11-point plateau_scan at N=100; conventions alternate."""

    name = "plateau"

    def ops(self):
        return [Op(_conv(c), (c,)) for c in (False, True)]

    def run(self, op):
        return solver.plateau_scan(REF, PLATEAU_N, PLATEAU_GRID, consistent_potential=op.args[0])

    def check(self, fx, op, out):
        return fx.check_plateau(op.args[0], out.table(), out.state_count)

    def mutate(self, op, out):
        first = dataclasses.replace(out.spectra[0], report_units=_bump(out.spectra[0].report_units))
        return dataclasses.replace(out, spectra=[first, *out.spectra[1:]])


@dataclass(frozen=True)
class StatesOut:
    spectrum: object
    shape: object
    values: np.ndarray
    tables: list


class States(Workload):
    """One op: solve at N=50 (consistent), shape and V(r) on a dense grid,
    then every bound state's wavefunction on that grid."""

    name = "states"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grid = np.geomspace(1e-3, 15.0, STATES_POINTS)
        self._expected_v = None

    def ops(self):
        return [Op("states", ())]

    def run(self, op):
        spectrum = solver.solve_bound_states(REF, STATES_N, consistent_potential=True)
        shape = potential.classify_shape(REF)
        values = potential.potential_value(REF, self.grid)
        tables = [wavefunction.sample_wavefunction(k, float(eps), REF, self.grid)
                  for k, eps in enumerate(spectrum.epsilons)]
        return StatesOut(spectrum, shape, values, tables)

    def check(self, fx, op, out):
        problem = (fx.check_spectrum(REF.A, STATES_N, True, out.spectrum.report_units)
                   or fx.check_shape(out.shape))
        if problem:
            return problem
        if self._expected_v is None:
            self._expected_v = potential_reference(REF.A, REF.B, REF.C, REF.lam, self.grid)
        ref, scale = self._expected_v
        if not np.all(np.abs(out.values - ref) <= 1e-9 * scale):
            return "potential values differ from the hyperbolic form"
        for k, table in enumerate(out.tables):
            problem = fx.check_wavefunction(k, table)
            if problem:
                return problem
        return None

    def mutate(self, op, out):
        bumped = dataclasses.replace(out.spectrum, report_units=_bump(out.spectrum.report_units))
        return dataclasses.replace(out, spectrum=bumped)


@dataclass(frozen=True)
class CliOut:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class Cli(Workload):
    """One op is one fresh-interpreter `python -m tribound.cli ...` call."""

    name = "cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.out_dir = None      # where child output goes; set by the runner
        self.recorder = None     # set by the traced run
        self.spawner = None      # started on the first op; stopped by close()

    def ops(self):
        return [Op(name, tuple(args)) for name, args in CLI_CALLS.items()]

    def run(self, op):
        out, err = self.out_dir / "cli.stdout", self.out_dir / "cli.stderr"
        if self.spawner is None:
            self.spawner = Spawner()
        spawn = self.spawner
        if self.recorder is None:
            code, rss = spawn([sys.executable, "-m", "tribound.cli", *op.args], out, err)
        else:
            span_file = self.out_dir / "cli.spans.json"
            span_file.unlink(missing_ok=True)
            code, rss = spawn([sys.executable, str(BENCH / "cli_child.py"), str(span_file),
                               *op.args], out, err)
            child = json.loads(span_file.read_text())
            self.recorder.merge(child["spans"], self.recorder.op)
            self.recorder.warnings[self.recorder.op] += child["linalg_warnings"]
        return CliOut(code, out.read_bytes(), err.read_bytes(), rss)

    def check(self, fx, op, out):
        return fx.check_cli(op.label, out.code, out.stdout, out.stderr)

    def mutate(self, op, out):
        i = len(out.stdout) // 2
        stdout = out.stdout[:i] + bytes([out.stdout[i] ^ 0x01]) + out.stdout[i + 1:]
        return dataclasses.replace(out, stdout=stdout)

    def close(self):
        if self.spawner is not None:
            self.spawner.close()
            self.spawner = None


WORKLOADS = {w.name: w for w in (Solve, Plateau, States, Cli)}
