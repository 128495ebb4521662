"""Import graph: each entry point loads only the scipy layers it runs.

A solve needs scipy's LAPACK extension, scipy.linalg._flapack, and neither
the scipy.linalg package nor scipy's package initializer; a direct integral
needs scipy's QUADPACK extension, scipy.integrate._quadpack, and neither the
scipy.integrate nor the scipy.linalg package, though QUADPACK's callback
layer (scipy._lib._ccallback) imports the top-level scipy package.

Every check runs in a fresh interpreter, because the test session itself
has long since imported the solver and the oracle.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

REFERENCE_ARGS = '"--A", "-300", "--B", "5", "--C", "3"'
REFERENCE_SOLVE = "tribound.solve_bound_states(tribound.PotentialParams(A=-300, B=5, C=3), 10)"
DIRECT_MATRIX = "tribound.direct_matrix(tribound.BasisParams.from_size(1.5, 3), lambda x: x)"
# what scipy's package initializer imports and a solve never needs
SCIPY_INITIALIZER = {"scipy", "scipy._lib._testutils"}
LAZY_CLI_NAMES = ("solve_bound_states", "plateau_scan", "quadrature_rule",
                  "quadrature_matrix", "direct_matrix")

# The paper's method end to end, its inputs, results and errors; the solver's
# stages (quadrature_rule, assemble_system, bound_states, ...) and the helpers
# (jacobi_sequence, x_of_r, count_sign_changes, ...) stay importable from their
# modules for the CLI, the benchmark and tests.
PUBLIC_NAMES = [
    "BasisParams", "BoundSpectrum", "Crossing", "Extremum", "ParameterError",
    "PlateauScan", "PlateauStat", "PotentialParams", "ShapeReport", "SolverError",
    "WavefunctionTable", "classify_shape", "direct_matrix", "plateau_scan",
    "potential_value", "sample_wavefunction", "solve_bound_states",
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


def scipy_subpackage_modules(modules: set[str]) -> set[str]:
    """The loaded modules under a public scipy subpackage such as scipy.linalg."""
    parts = (m.split(".") for m in scipy_modules(modules))
    return {".".join(p) for p in parts
            if len(p) > 1 and not p[1].startswith("_") and p[1] != "version"}


def test_import_tribound_loads_no_scipy():
    _, modules = run_fresh("import tribound")
    assert not scipy_modules(modules)


def test_scipy_loads_in_the_call_that_needs_it():
    # the solver and the oracle load scipy inside their functions, so no
    # module of the package loads it at import time; a solve loads scipy's
    # LAPACK extension alone, without scipy's initializer, and a direct
    # integral its QUADPACK extension without the package around it, whose
    # callback layer runs the initializer
    _, imported = run_fresh("import tribound, tribound.solver, tribound.oracle, tribound.cli")
    assert not scipy_modules(imported)
    _, solved = run_fresh(f"import tribound\n{REFERENCE_SOLVE}")
    assert scipy_modules(solved) == {"scipy.linalg._flapack"}
    _, integrated = run_fresh(f"import tribound\n{DIRECT_MATRIX}")
    assert scipy_subpackage_modules(integrated) == {"scipy.integrate._quadpack"}
    assert SCIPY_INITIALIZER | {"scipy._lib._ccallback"} <= integrated


def test_later_scipy_linalg_reuses_the_solvers_extension():
    out, _ = run_fresh(
        f"import tribound, tribound.solver\n{REFERENCE_SOLVE}\n"
        "import scipy.linalg\n"
        "from scipy.linalg import _flapack\n"
        "loaded, public = tribound.solver._lapack(), scipy.linalg.lapack\n"
        "print(public.dgetrf is loaded.dgetrf, public._flapack is loaded, _flapack is loaded)")
    assert out == "True True True"


# Records each load of the extension EXTENSION (whether scipy was imported by
# then) and refuses the first REFUSALS with ImportError, as a platform whose
# scipy initializer sets up a bundled LAPACK (delvewheel-patched Windows
# wheels) would refuse a load on its own.
RECORD_LOADS = (
    "import importlib.machinery, json, sys\n"
    "create, loads = importlib.machinery.ExtensionFileLoader.create_module, []\n"
    "def record(self, spec):\n"
    "    if spec.name == EXTENSION:\n"
    "        loads.append('scipy' in sys.modules)\n"
    "        if len(loads) <= REFUSALS:\n"
    "            raise ImportError('DLL load failed')\n"
    "    return create(self, spec)\n"
    "importlib.machinery.ExtensionFileLoader.create_module = record\n")
EXTENSION_CALLS = {"scipy.linalg._flapack": f"{REFERENCE_SOLVE}.epsilons",
                   "scipy.integrate._quadpack": DIRECT_MATRIX}


def load_and_call(extension: str, no_file: bool, refusals: int) -> tuple[list, set[str]]:
    """The loader's module name (or its ImportError), the call's bytes and the recorded loads."""
    out, modules = run_fresh(
        f"EXTENSION, REFUSALS = {extension!r}, {refusals}\n{RECORD_LOADS}"
        + ("importlib.machinery.EXTENSION_SUFFIXES = []\n" if no_file else "")
        + "import tribound, tribound.solver\n"
        "try:\n"
        "    name = tribound.solver._scipy_extension(EXTENSION).__name__\n"
        f"    print(json.dumps([name, {EXTENSION_CALLS[extension]}.tobytes().hex(), loads]))\n"
        "except ImportError as exc:\n"
        "    print(json.dumps([str(exc), None, loads]))")
    return json.loads(out), modules


@pytest.mark.parametrize("extension", [pytest.param(e, id=f"no-file-{e}") for e in EXTENSION_CALLS])
def test_loader_takes_the_standard_import(extension):
    # with no extension file to find, the loader imports the module the
    # standard way, after scipy and the package around it: the same routines
    # with the same bits
    package = extension.rpartition(".")[0]
    alone, alone_modules = load_and_call(extension, no_file=False, refusals=0)
    standard, standard_modules = load_and_call(extension, no_file=True, refusals=0)
    assert alone == [extension, alone[1], [False]]
    assert standard == [extension, alone[1], [True]]
    assert package not in alone_modules
    assert {"scipy", package} <= standard_modules


@pytest.mark.parametrize("extension", list(EXTENSION_CALLS))
@pytest.mark.parametrize("refusals", [
    pytest.param(1, id="retry-after-initializer"),
    pytest.param(2, id="public-after-refusal-raises"),
])
def test_loader_runs_scipys_initializer_when_the_extension_fails_alone(extension, refusals):
    # where scipy's initializer sets up the bundled LAPACK (delvewheel-patched
    # Windows wheels), the extension's own load raises ImportError: the
    # standard import runs the initializer and loads the file once more, with
    # the same routines and bits; if that load is refused too, its ImportError
    # reaches the caller and neither the extension nor its package is left
    # registered
    package = extension.rpartition(".")[0]
    refused, modules = load_and_call(extension, no_file=False, refusals=refusals)
    assert "scipy" in modules
    if refusals == 1:
        alone, _ = load_and_call(extension, no_file=False, refusals=0)
        assert refused == [extension, alone[1], [False, True]]
        assert package in modules
    else:
        assert refused == ["DLL load failed", None, [False, True]]
        assert not {extension, package} & modules


def test_loader_without_scipy_raises_module_not_found():
    # no scipy to find: the public import names it, and no scipy module is
    # left half-registered
    out, _ = run_fresh(
        "import sys, tribound.solver\n"
        "sys.modules['scipy'] = None\n"
        "try:\n"
        "    tribound.solver._lapack()\n"
        "except ModuleNotFoundError as exc:\n"
        "    print('scipy' in str(exc), sorted(m for m in sys.modules if m.startswith('scipy.')))")
    assert out == "True []"


def test_later_scipy_integrate_reuses_the_oracles_extension():
    out, _ = run_fresh(
        f"import sys, tribound\n{DIRECT_MATRIX}\n"
        "loaded = sys.modules['scipy.integrate._quadpack']\n"
        "import scipy.integrate\n"
        "print(scipy.integrate._quadpack_py._quadpack is loaded,\n"
        "      scipy.integrate.quad(lambda t: t, 0, 1)[0])")
    assert out == "True 0.5"


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


@pytest.mark.parametrize("argv, first_row", [
    pytest.param('"spectrum", "--basis-degree", "10"', "0,249.618696,-249.618696",
                 id="spectrum"),
    pytest.param('"wavefunction", "--basis-degree", "10", "--samples", "3"',
                 "0.001,1.390777641e-16", id="wavefunction"),
    pytest.param('"plateau", "--basis-degree", "10", "--mu-steps", "2"',
                 "1,249.6389844,121.1216075,54.57518251,20.1734278,4.764310345", id="plateau"),
])
def test_solving_command_loads_the_lapack_extension_only(argv, first_row):
    out, modules = run_fresh(
        "from tribound.cli import main\n"
        f"assert main([{argv}, {REFERENCE_ARGS}]) == 0")
    assert out.splitlines()[1] == first_row
    assert scipy_modules(modules) == {"scipy.linalg._flapack"}


def test_check_quadrature_loads_both_layers():
    # the Gauss rule's LAPACK extension and the oracle's QUADPACK extension,
    # and neither package around them; QUADPACK's callback layer runs
    # scipy's initializer
    out, modules = run_fresh(
        "from tribound.cli import main\n"
        f'assert main(["check-quadrature", {REFERENCE_ARGS}, "--max-degree", "2"]) == 0')
    assert len(out.splitlines()) == 1 + 4
    assert scipy_subpackage_modules(modules) == {"scipy.linalg._flapack",
                                                 "scipy.integrate._quadpack"}
    assert SCIPY_INITIALIZER | {"scipy._lib._ccallback"} <= modules


def test_public_names_resolve_lazily():
    out, _ = run_fresh(
        "import json, tribound\n"
        "names = tribound.__all__\n"
        "missing = [n for n in names if getattr(tribound, n, None) is None]\n"
        "listed = sorted(set(names) - set(dir(tribound)))\n"
        "scope = {}\n"
        "exec('from tribound import *', scope)\n"
        "unbound = sorted(set(names) - set(scope))\n"
        "print(json.dumps([names, missing, listed, unbound, tribound.oracle.__name__]))")
    names, missing, listed, unbound, oracle = json.loads(out)
    assert sorted(names) == PUBLIC_NAMES
    assert missing == [] and listed == [] and unbound == []
    assert oracle == "tribound.oracle"


def test_readme_lists_the_public_names():
    # README's list of the public names is written by hand: it must give
    # their number and name each one, no more
    text = (ROOT / "README.md").read_text()
    match = re.search(r"`tribound\.__all__` holds the (\d+) names[^\n]*\n[^\n]*:\n\n"
                      r"((?:[- ] .*\n)+)", text)
    assert match is not None
    assert int(match.group(1)) == len(PUBLIC_NAMES)
    assert sorted(re.findall(r"`(\w+)`", match.group(2))) == PUBLIC_NAMES


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
