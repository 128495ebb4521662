"""Regenerate the verification fixtures from the program in this checkout.

Usage (from the checkout root): python3 perfbench/capture.py

Run it only at a commit whose outputs are known good: every later run of the
benchmark counts an op whose output differs from these fixtures as failed.
The levels at A=-300, N=100 are checked against the acceptance table before
anything is written.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                         os.environ.get("PYTHONPATH")]))

import numpy as np

import verify
import workloads as wl
from spawner import spawn


def main() -> int:
    fixtures = verify.FIXTURES
    (fixtures / "cli").mkdir(parents=True, exist_ok=True)

    solve = wl.Solve(0)
    levels = {}
    for op in solve.ops():
        A, N, consistent = op.args
        levels[verify.level_key(A, N, consistent)] = solve.run(op).report_units.tolist()
    states = wl.States(0)
    out = states.run(states.ops()[0])
    levels[verify.level_key(wl.REF.A, wl.STATES_N, True)] = out.spectrum.report_units.tolist()
    problem = verify.check_levels(levels[verify.level_key(-300.0, 100, False)],
                                  verify.REFERENCE_LEVELS_N100)
    if problem:
        print(f"refusing to write fixtures: N=100 reference levels: {problem}", file=sys.stderr)
        return 1
    (fixtures / "levels.json").write_text(json.dumps(levels, indent=1) + "\n")

    plateau = wl.Plateau(0)
    tables = {op.label: plateau.run(op).table().tolist() for op in plateau.ops()}
    (fixtures / "plateau.json").write_text(json.dumps(tables, indent=1) + "\n")

    index = np.linspace(0, wl.STATES_POINTS - 1, 21).astype(int).tolist()
    doc = {
        "shape": {"crossings": [[c.x, c.r] for c in out.shape.crossings],
                  "extrema": [[e.x, e.r, e.value] for e in out.shape.extrema]},
        "sample_index": index,
        "wavefunctions": [{"terms_used": t.terms_used, "clamped_count": t.clamped_count,
                           "psi": t.psi[index].tolist()} for t in out.tables],
    }
    (fixtures / "states.json").write_text(json.dumps(doc, indent=1) + "\n")

    manifest = []
    for name, args in wl.CLI_CALLS.items():
        code, _ = spawn([sys.executable, "-m", "tribound.cli", *args],
                           fixtures / "cli" / f"{name}.stdout", fixtures / "cli" / f"{name}.stderr")
        manifest.append({"name": name, "args": args, "exit": code})
    (fixtures / "cli.json").write_text(json.dumps(manifest, indent=1) + "\n")

    verify.Fixtures()
    print(f"fixtures written to {fixtures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
