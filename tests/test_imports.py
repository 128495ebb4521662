"""Import graph: each entry point loads only the scipy layers it runs.

Every check runs in a fresh interpreter, because the test session itself
has long since imported the solver and the oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

REFERENCE_ARGS = '"--A", "-300", "--B", "5", "--C", "3"'
LAZY_CLI_NAMES = ("solve_bound_states", "plateau_scan", "quadrature_rule",
                  "quadrature_matrix", "direct_matrix")

# The names the CLI, the benchmark and the paper's method use; helpers that
# only sibling modules and tests need stay importable from their modules.
PUBLIC_NAMES = [
    "AssembledSystem", "BasisParams", "BoundSpectrum", "Crossing", "Extremum",
    "ParameterError", "PlateauScan", "PlateauStat", "PotentialParams", "QuadratureRule",
    "ShapeReport", "SolverError", "WavefunctionTable", "assemble_system", "auto_nu",
    "bound_states", "classify_shape", "count_sign_changes", "direct_matrix",
    "h_polynomial_sequence", "jacobi_sequence", "max_basis_index", "plateau_scan",
    "potential_value", "quadrature_matrix", "quadrature_rule", "r_of_x", "recursion_coeffs",
    "sample_wavefunction", "solve_bound_states", "u_of_x", "x_of_r",
]


def run_fresh(code: str) -> tuple[str, set[str]]:
    """Run `code` in a new interpreter; its stdout and the modules it left loaded."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, _, modules = proc.stdout.rstrip("\n").rpartition("\n")
    return out, set(json.loads(modules))


def scipy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_import_tribound_loads_no_scipy():
    _, modules = run_fresh("import tribound")
    assert not scipy_modules(modules)
    assert "tribound.solver" not in modules and "tribound.oracle" not in modules


def test_import_cli_loads_neither_scipy_layer():
    _, modules = run_fresh("import tribound.cli")
    assert "scipy.linalg" not in modules
    assert "scipy.integrate" not in modules


def test_potential_command_loads_no_scipy():
    out, modules = run_fresh(
        "from tribound.cli import main\n"
        f'assert main(["potential", {REFERENCE_ARGS}, "--samples", "5"]) == 0')
    assert out.startswith("r,V_over_half_lambda_sq_C\n")
    assert not scipy_modules(modules)


def test_spectrum_command_loads_linalg_only():
    out, modules = run_fresh(
        "from tribound.cli import main\n"
        f'assert main(["spectrum", {REFERENCE_ARGS}, "--basis-degree", "10"]) == 0')
    assert out.splitlines()[1] == "0,249.618696,-249.618696"
    assert "scipy.linalg" in modules
    assert "scipy.integrate" not in modules


def test_check_quadrature_loads_both_layers():
    out, modules = run_fresh(
        "from tribound.cli import main\n"
        f'assert main(["check-quadrature", {REFERENCE_ARGS}, "--max-degree", "2"]) == 0')
    assert len(out.splitlines()) == 1 + 4
    assert {"scipy.linalg", "scipy.integrate"} <= modules


def test_public_names_resolve_lazily():
    out, _ = run_fresh(
        "import json, tribound\n"
        "names = tribound.__all__\n"
        "missing = [n for n in names if getattr(tribound, n, None) is None]\n"
        "listed = sorted(set(names) - set(dir(tribound)))\n"
        "scope = {}\n"
        "exec('from tribound import *', scope)\n"
        "unbound = sorted(set(names) - set(scope))\n"
        "stale = [n for layer, lazy in tribound._LAZY_LAYERS.items() for n in lazy\n"
        "         if not hasattr(getattr(tribound, layer), n)]\n"
        "print(json.dumps([names, missing, listed, unbound, stale,\n"
        "                  tribound.oracle.__name__]))")
    names, missing, listed, unbound, stale, oracle = json.loads(out)
    assert sorted(names) == PUBLIC_NAMES
    assert missing == [] and listed == [] and unbound == [] and stale == []
    assert oracle == "tribound.oracle"


def test_unknown_attribute_still_raises():
    out, _ = run_fresh(
        "import tribound, tribound.cli\n"
        "for mod in (tribound, tribound.cli):\n"
        "    try:\n"
        "        mod.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)")
    assert out.splitlines() == ["module 'tribound' has no attribute 'no_such_name'",
                                "module 'tribound.cli' has no attribute 'no_such_name'"]


def test_cli_lazy_names_can_be_replaced():
    # A caller may getattr a lazy name of tribound.cli and setattr a wrapper
    # in its place (the benchmark's layer tracer does); the handlers must then
    # call the wrapper.
    out, _ = run_fresh(
        "import json, tribound.cli as cli\n"
        "calls = {}\n"
        "def wrap(name, fn):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] = calls.get(name, 0) + 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapper\n"
        f"for name in {LAZY_CLI_NAMES!r}:\n"
        "    setattr(cli, name, wrap(name, getattr(cli, name)))\n"
        "codes = [cli.main([*argv, " + REFERENCE_ARGS + "]) for argv in (\n"
        "    ['spectrum', '--basis-degree', '10'],\n"
        "    ['plateau', '--basis-degree', '10', '--mu-steps', '2'],\n"
        "    ['check-quadrature', '--max-degree', '2'])]\n"
        "print(json.dumps([codes, calls]))")
    codes, calls = json.loads(out.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert calls == {"solve_bound_states": 1, "plateau_scan": 1, "quadrature_rule": 1,
                     "quadrature_matrix": 4, "direct_matrix": 4}
