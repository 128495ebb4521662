"""Command-line interface: outputs, exit codes, determinism, schemas."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tribound.cli import main
from tribound.recursion import BasisParams

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = REPO_ROOT / "schemas"

REFERENCE_ARGS = ["--A", "-300", "--B", "5", "--C", "3"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_schema(instance, schema):
    """Minimal validator covering the subset used by the shipped schemas."""
    kind = schema.get("type")
    if "enum" in schema:
        assert instance in schema["enum"], (instance, schema["enum"])
    if kind is None:
        return
    kinds = kind if isinstance(kind, list) else [kind]

    def matches(k):
        return {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "string": lambda v: isinstance(v, str),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }[k](instance)

    assert any(matches(k) for k in kinds), (instance, kinds)
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            assert key in instance, f"missing {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                validate_schema(instance[key], sub)
    if isinstance(instance, list) and "items" in schema:
        for item in instance:
            validate_schema(item, schema["items"])


def check_against(name, payload):
    schema = json.loads((SCHEMA_DIR / name).read_text())
    validate_schema(payload, schema)


class TestSpectrumCommand:
    def test_table_small_basis(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,minus_epsilon,E_over_half_lambda_sq"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert abs(float(first[1]) - 249.6186960) < 5e-7

    def test_converged_basis(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "100")
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        assert abs(float(first[1]) - 249.6474353) < 5e-7

    def test_shallow_potential_note(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--A", "-0.4", "--B", "5",
                                 "--C", "3", "--basis-degree", "20")
        assert code == 0
        assert out.strip().splitlines() == ["n,minus_epsilon,E_over_half_lambda_sq"]
        assert "admits no bound states" in err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "20",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        check_against("spectrum.schema.json", payload)
        assert payload["diagnostics"]["bound_state_limit"] == 12

    def test_deterministic_output(self, capsys):
        for args in (
            ("spectrum", *REFERENCE_ARGS, "--basis-degree", "30", "--format", "json"),
            ("spectrum", *REFERENCE_ARGS, "--basis-degree", "30"),
            ("potential", "--A", "-6", "--B", "6", "--C", "3", "--samples", "20"),
            ("plateau", *REFERENCE_ARGS, "--basis-degree", "25",
             "--mu-min", "1.4", "--mu-max", "1.6", "--mu-steps", "3"),
        ):
            _, out1, err1 = run_cli(capsys, *args)
            _, out2, err2 = run_cli(capsys, *args)
            assert out1 == out2 and err1 == err2

    def test_missing_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--A", "-300", "--B", "5")
        assert code == 2
        assert "--C" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "levels.csv"
        code, out, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "10",
                               "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("n,minus_epsilon")

    def test_consistent_potential_flag(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS,
                               "--basis-degree", "150", "--consistent-potential",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["consistent_potential"] is True
        values = [s["minus_epsilon"] for s in payload["states"]]
        assert len(values) == 8
        assert abs(values[0] - 794.613) < 5e-3


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("A = -300\nB = 5\nC = 3\nbasis-degree = 10\n# comment\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 249.6186960) < 5e-7
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg),
                               "--basis-degree", "50")
        assert code == 0
        assert abs(float(out.strip().splitlines()[1].split(",")[1]) - 249.6474353) < 5e-7

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--config", str(cfg))
        assert code == 2 and "bogus" in err

    def test_boolean_key_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("A = -300\nB = 5\nC = 3\nbasis-degree = 150\n"
                       "consistent-potential = true\n")
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8
        assert abs(float(rows[0].split(",")[1]) - 794.613) < 5e-3

    @pytest.mark.parametrize("key, value, message", [
        ("A", "abc", "A must be a number, got 'abc'"),
        ("basis-degree", "1.5", "basis-degree must be an integer, got '1.5'"),
        ("samples", "many", "samples must be an integer, got 'many'"),
    ])
    def test_non_numeric_value_is_config_error(self, capsys, tmp_path, key, value, message):
        values = {"A": "-300", "B": "5", "C": "3", key: value}
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        code, out, err = run_cli(capsys, "wavefunction", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--config", "/no/such/file")
        assert code == 2

    def test_format_validated(self, capsys, tmp_path):
        # a config format other than csv or json is refused, not written as csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "10",
                                 "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: format must be csv or json, got 'xml'\n"


# Each command takes only the common options it reads; the others are refused
# as a flag (by the parser) and as a config key, rather than silently ignored.
@pytest.mark.parametrize("command, option", [
    ("plateau", "mu"),
    ("potential", "basis-degree"),
    ("potential", "mu"),
    ("potential", "nu"),
    ("plateau", "nu"),
    ("check-quadrature", "lambda"),
    ("check-quadrature", "basis-degree"),
    ("check-quadrature", "nu"),
    ("spectrum", "nu"),
    ("wavefunction", "nu"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unread_common_option_refused(capsys, tmp_path, command, option, source):
    argv = [command, *REFERENCE_ARGS]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{option}", "7"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--{option}" in captured.err
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = 7\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: unknown config key {option!r}\n"


def test_non_utf8_config_is_config_error(capsys, tmp_path):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"\xff\xfe A = 1\n")
    code, out, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {cfg}: not UTF-8 text") and err.count("\n") == 1


def test_boolean_config_error_names_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("consistent-potential = maybe\n")
    code, out, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: consistent-potential must be a boolean, got 'maybe'\n"


# A flag and a config line carry the same raw text, converted by one function:
# the same bad value gives the same one-line error and exit 2 from either.
@pytest.mark.parametrize("key, value, message", [
    ("A", "abc", "A must be a number, got 'abc'"),
    ("basis-degree", "1.5", "basis-degree must be an integer, got '1.5'"),
    ("format", "xml", "format must be csv or json, got 'xml'"),
    ("r-max", "inf", "r-max must be finite, got 'inf'"),
])
def test_bad_value_same_from_flag_and_config(capsys, tmp_path, key, value, message):
    values = {"A": "-300", "B": "5", "C": "3", "basis-degree": "10", key: value}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    from_flag = run_cli(capsys, "wavefunction", *(a for k, v in values.items()
                                                   for a in (f"--{k}", v)))
    from_config = run_cli(capsys, "wavefunction", "--config", str(cfg),
                          *(a for k, v in values.items() if k != key for a in (f"--{k}", v)))
    assert from_flag == from_config == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-3e2", "-3.0E+02", "-300.0"])
def test_negative_value_in_any_float_form(capsys, value):
    # argparse alone reads '-3e2' after --A as an option and prints its usage block
    expected = run_cli(capsys, "spectrum", "--A=-300", "--B", "5", "--C", "3",
                       "--basis-degree", "10", "--mu", "1.5")
    assert expected[0] == 0
    assert run_cli(capsys, "spectrum", "--A", value, "--B", "5", "--C", "3",
                   "--basis-degree", "10", "--mu", "1.5") == expected


@pytest.mark.parametrize("flag, value", [("--A", "-inf"), ("--mu", "-1e400"), ("--r-min", "-inf")])
def test_negative_non_finite_value_is_config_error(capsys, flag, value):
    code, out, err = run_cli(capsys, "wavefunction", *REFERENCE_ARGS, "--basis-degree", "10",
                             flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {flag[2:]} must be finite, got '{value}'\n"


@pytest.mark.parametrize("value", ["2", "-1e-3"])
def test_abbreviated_flag_is_unrecognized(capsys, value):
    # an abbreviation would slip past the join of a flag to a negative number
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", *REFERENCE_ARGS, "--lam", value])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: --lam {value}\n" in capsys.readouterr().err
    assert run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--lambda", "-1e-3") == (
        2, "", "error: lambda must be positive, got -0.001\n")


def test_config_with_byte_order_mark(capsys, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfA = -300\nB = 5\nC = 3\nbasis-degree = 10\n")
    expected = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--basis-degree", "10")
    assert expected[0] == 0
    assert run_cli(capsys, "spectrum", "--config", str(cfg)) == expected


def test_config_line_without_equals_refused(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("B = 5\nA -300\n")
    code, out, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:2: expected 'key = value'\n"


# At C <= 0 the levels diverge with the basis size; every solving command
# refuses the potential instead of printing them.
@pytest.mark.parametrize("C", ["-3", "0"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--basis-degree", "20"],
    ["plateau", "--basis-degree", "20", "--mu-steps", "2"],
    ["wavefunction", "--basis-degree", "20", "--samples", "3"],
], ids=["spectrum", "plateau", "wavefunction"])
def test_non_positive_C_is_config_error(capsys, argv, C):
    code, out, err = run_cli(capsys, *argv, "--A", "-300", "--B", "5", "--C", C)
    assert code == 2 and out == ""
    assert err.startswith("error: C must be positive") and err.endswith(f", got C = {C}\n")


def test_default_grid_spans_singularity_and_tail(capsys):
    # the default r range scales with the range 1/lambda of the potential
    cases = [(["wavefunction", "--basis-degree", "20"], 2000, 1e-3, 15.0),
             (["potential"], 400, 0.05, 10.0)]
    for (command, *extra), samples, core, tail in cases:
        for lam in ("0.5", "2", "50"):
            code, out, _ = run_cli(capsys, command, *REFERENCE_ARGS, *extra, "--lambda", lam)
            assert code == 0
            r = [float(row.split(",")[0]) for row in out.splitlines()[1:]]
            assert len(r) == samples
            assert r[0] == pytest.approx(core / float(lam))
            assert r[-1] == pytest.approx(tail / float(lam))
            assert all(a < b for a, b in zip(r, r[1:]))


def _spectrum_defaults(doc):
    assert doc["params"] == {"A": -300.0, "B": 5.0, "C": 3.0, "lambda": 1.0, "basis_size": 100,
                             "mu": 1.5, "nu": -203.5, "consistent_potential": False}


def _potential_defaults(doc):
    assert doc["params"]["lambda"] == 1.0
    r = [row["r"] for row in doc["samples"]]
    assert (len(r), r[0], r[-1]) == (400, 0.05, 10.0)


def _wavefunction_defaults(doc):
    _spectrum_defaults(doc)
    assert doc["state"]["state"] == 0
    r = [row["r"] for row in doc["samples"]]
    assert (len(r), r[0], r[-1]) == (2000, 1e-3, 15.0)


def _plateau_defaults(doc):
    assert doc["params"] == {"A": -300.0, "B": 5.0, "C": 3.0, "lambda": 1.0, "basis_size": 100,
                             "consistent_potential": False}
    mu = [row["mu"] for row in doc["grid"]]
    assert (len(mu), mu[0], mu[-1]) == (11, 1.0, 2.0)


def _check_quadrature_defaults(doc):
    assert doc["params"] == {"mu": 1.5, "max_degree": 5}
    assert sorted({row["size"] for row in doc["rows"]}) == [2, 3, 4, 5]


# Every command's option contract: the option strings its subparser lists in
# --help, and its defaults as they show in its JSON output.
@pytest.mark.parametrize("command, options, argv, check_defaults", [
    ("spectrum", ["--lambda", "--basis-degree", "--mu", "--consistent-potential"],
     REFERENCE_ARGS, _spectrum_defaults),
    ("potential", ["--lambda", "--r-min", "--r-max", "--samples"],
     REFERENCE_ARGS, _potential_defaults),
    ("wavefunction", ["--lambda", "--basis-degree", "--mu", "--consistent-potential",
                      "--state", "--r-min", "--r-max", "--samples"],
     REFERENCE_ARGS, _wavefunction_defaults),
    ("plateau", ["--lambda", "--basis-degree", "--consistent-potential",
                 "--mu-min", "--mu-max", "--mu-steps"],
     REFERENCE_ARGS, _plateau_defaults),
    ("check-quadrature", ["--mu", "--max-degree"], [], _check_quadrature_defaults),
])
def test_option_contract(capsys, command, options, argv, check_defaults):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"^  (-[^\s,]+)(?:, (-[^\s,]+))?", capsys.readouterr().out, re.M)
    assert {flag for pair in listed for flag in pair if flag} == {
        "-h", "--help", "--A", "--B", "--C", "--format", "--out", "--config", *options}
    code, out, _ = run_cli(capsys, command, *argv, "--format", "json")
    assert code == 0
    check_defaults(json.loads(out))


# Shape ratios B/C and A/C far from 1: the shape report is finite and right,
# or the command is refused with one error line.
def test_shape_report_overflow_is_config_error(capsys):
    code, out, err = run_cli(capsys, "potential", "--A", "-6", "--B", "6", "--C", "1e-300",
                             "--r-min", "1e-3", "--r-max", "1", "--samples", "3")
    assert code == 2 and out == ""
    assert err == ("error: shape report needs |B/C| and |A/C| <= 1e+150, "
                   "got B/C = 6e+300, A/C = -6e+300\n")


def test_shape_report_radius_at_large_x(capsys):
    # the crossing sits at x ~ 1e17, where (x+1)/(x-1) rounds to 1
    code, out, _ = run_cli(capsys, "potential", "--A", "-6", "--B", "1", "--C", "1e-17",
                           "--samples", "3", "--format", "json")
    assert code == 0
    shape = json.loads(out)["shape"]
    assert [c["r"] for c in shape["crossings"]] == [1e-17]
    assert [e["r"] for e in shape["extrema"]] == [1.5e-17]


@pytest.mark.parametrize("argv, message", [
    (["potential", "--A", "-6", "--B", "6", "--C", "3", "--samples", "3", "--r-max", "inf"],
     "r-max must be finite, got 'inf'"),
    (["wavefunction", *REFERENCE_ARGS, "--basis-degree", "30", "--r-max", "inf"],
     "r-max must be finite, got 'inf'"),
    (["plateau", *REFERENCE_ARGS, "--basis-degree", "20", "--mu-max", "inf"],
     "mu-max must be finite, got 'inf'"),
    (["wavefunction", *REFERENCE_ARGS, "--basis-degree", "30", "--samples", "-1"],
     "samples must be at least 1, got -1"),
], ids=["potential-r-max-inf", "wavefunction-r-max-inf", "plateau-mu-max-inf",
        "wavefunction-negative-samples"])
def test_out_of_range_number_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# lambda and r whose V, coth(lambda r) or series is not a finite float64 are
# refused with one error line naming them: no numpy warning, no nan or
# infinite row, no traceback.
@pytest.mark.parametrize("argv, message", [
    (["potential", "--A", "-6", "--B", "6", "--C", "3", "--lambda", "1e-320",
      "--r-min", "1e-10", "--r-max", "1", "--samples", "3"],
     "lambda * r = 0 is below 2.22507e-308, where coth(lambda r) overflows float64 "
     "(lambda = 9.99989e-321)"),
    (["potential", "--A", "-6", "--B", "6", "--C", "3",
      "--r-min", "1e-110", "--r-max", "1", "--samples", "3"],
     "V(r) overflows float64 at r = 1e-110, lambda = 1"),
    (["potential", *REFERENCE_ARGS, "--samples", "3", "--lambda", "1e200"],
     "lambda = 1e+200 is too large: lambda^2 overflows"),
    (["wavefunction", *REFERENCE_ARGS, "--basis-degree", "20",
      "--r-min", "1e-320", "--r-max", "1", "--samples", "3"],
     "lambda * r = 9.99989e-321 is below 2.22507e-308, where coth(lambda r) overflows "
     "float64 (lambda = 1)"),
    (["potential", "--A", "-6", "--B", "6", "--C", "3", "--lambda", "1e-170",
      "--r-min", "1e160", "--r-max", "1e170", "--samples", "3"],
     "V / (lambda^2 C / 2) overflows float64 at lambda = 1e-170"),
], ids=["potential-tiny-lambda", "potential-tiny-r", "potential-huge-lambda",
        "wavefunction-tiny-r", "potential-figure-units-underflow"])
def test_unrepresentable_lambda_r_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# Strengths near the float64 limit overflow the eigenpair residuals.  A fresh
# interpreter with Python's default warning filters shows what a user sees:
# exit 3 and one line naming the overflow, no numpy warning.
@pytest.mark.parametrize("strengths, norm", [
    (["--A", "-300", "--B", "5", "--C", "1e300"], "2.571e+302"),
    (["--A", "-1e300", "--B", "5", "--C", "3"], "2.473e+299"),
    (["--A", "-300", "--B", "1e300", "--C", "3"], "1.000e+300"),
    (["--A", "-300", "--B", "-1e300", "--C", "3"], "1.000e+300"),
], ids=["C", "A", "B", "-B"])
def test_overflowing_strength_is_numerical_failure(strengths, norm):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "tribound.cli", "spectrum", *strengths,
                           "--basis-degree", "20"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("numerical failure: generalized eigenpair residual overflows "
                           f"float64 (||H|| = {norm})\n")


def test_overflowed_refinement_prints_no_warning(capsys):
    # at C = 1e300 a refinement shift is exactly singular: the solve is refused
    # with one line, and scipy's LinAlgWarning about the shift never escapes
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "plateau", "--A", "-300", "--B", "5", "--C", "1e300",
                                 "--basis-degree", "20", "--mu-steps", "2")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure:")
    assert [str(w.message) for w in seen] == []


# With the rule nu, mu + nu = -2*size - 2 exactly; a large mu loses the size
# term in float64, and the error must name mu, not a cancelled sum.
@pytest.mark.parametrize("argv, message", [
    (["spectrum", *REFERENCE_ARGS, "--basis-degree", "10", "--mu", "1e300"],
     "mu = 1e+300 is too large for a basis of 10 functions"),
    (["plateau", *REFERENCE_ARGS, "--mu-min", "1e17", "--mu-max", "2e17", "--mu-steps", "2"],
     "mu = 1e+17 is too large for a basis of 100 functions"),
    (["plateau", *REFERENCE_ARGS, "--mu-min", "-2"],
     "mu must exceed -1, got -2.0"),
], ids=["spectrum-huge-mu", "plateau-huge-mu", "plateau-mu-below-minus-one"])
def test_auto_nu_basis_error_names_mu(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# The params block reports the basis the solve built; the CLI builds none of its own.
@pytest.mark.parametrize("argv", [
    ["spectrum", *REFERENCE_ARGS, "--basis-degree", "20", "--format", "json"],
    ["wavefunction", *REFERENCE_ARGS, "--basis-degree", "20", "--samples", "50",
     "--format", "json"],
], ids=["spectrum", "wavefunction"])
def test_one_basis_built_per_command(capsys, monkeypatch, argv):
    sizes = []
    build = BasisParams.from_size

    def counting(mu, size):
        sizes.append(size)
        return build(mu, size)

    monkeypatch.setattr(BasisParams, "from_size", counting)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sizes == [20]
    params = json.loads(out)["params"]
    assert (params["basis_size"], params["mu"], params["nu"]) == (20, 1.5, -43.5)


class TestPotentialCommand:
    def test_csv_with_shape_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "potential", "--A", "-6", "--B", "6", "--C", "3",
                                 "--r-min", "0.1", "--r-max", "5", "--samples", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,V_over_half_lambda_sq_C"
        assert len(lines) == 11
        shape = json.loads(err)
        assert shape["admits_bound_states"] is True
        assert len(shape["crossings"]) == 1

    def test_json_schema_and_figure_units(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--A", "-6", "--B", "6", "--C", "3",
                               "--format", "json", "--samples", "5")
        assert code == 0
        payload = json.loads(out)
        check_against("potential.schema.json", payload)
        assert payload["params"]["gamma"] == 2.0
        assert payload["params"]["xi"] == -2.0

    def test_extrema_report(self, capsys):
        code, out, _ = run_cli(capsys, "potential", "--A", "17", "--B", "7", "--C", "1",
                               "--format", "json", "--samples", "5")
        assert code == 0
        ext = json.loads(out)["shape"]["extrema"]
        assert [e["x"] for e in ext] == [2.0, pytest.approx(8.0 / 3.0)]

    def test_invalid_range(self, capsys):
        code, _, _ = run_cli(capsys, "potential", "--A", "-6", "--B", "6", "--C", "3",
                             "--r-min", "2", "--r-max", "1")
        assert code == 2

    def test_zero_C_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "potential", "--A", "-6", "--B", "6", "--C", "0")
        assert code == 2


class TestWavefunctionCommand:
    def test_states_have_expected_node_counts(self, capsys):
        for k in range(5):
            code, out, _ = run_cli(capsys, "wavefunction", *REFERENCE_ARGS,
                                   "--basis-degree", "50", "--state", str(k),
                                   "--samples", "3000")
            assert code == 0
            psi = [float(row.split(",")[1]) for row in out.strip().splitlines()[1:]]
            signs = [v for v in psi if v != 0.0]
            changes = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
            assert changes == k

    def test_out_of_range_state(self, capsys):
        code, _, err = run_cli(capsys, "wavefunction", *REFERENCE_ARGS,
                               "--basis-degree", "50", "--state", "5")
        assert code == 2
        assert "5 bound state" in err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "wavefunction", *REFERENCE_ARGS,
                               "--basis-degree", "50", "--state", "1",
                               "--samples", "50", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        check_against("wavefunction.schema.json", payload)
        assert payload["state"]["terms_used"] == 2


class TestPlateauCommand:
    def test_small_scan(self, capsys):
        code, out, err = run_cli(capsys, "plateau", *REFERENCE_ARGS, "--basis-degree", "30",
                                 "--mu-min", "1.3", "--mu-max", "1.7", "--mu-steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,minus_eps_0,minus_eps_1,minus_eps_2,minus_eps_3,minus_eps_4"
        assert len(lines) == 4
        stats = json.loads(err)
        assert [s["state"] for s in stats] == [0, 1, 2, 3, 4]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "plateau", *REFERENCE_ARGS, "--basis-degree", "30",
                               "--mu-min", "1.4", "--mu-max", "1.6", "--mu-steps", "3",
                               "--format", "json")
        assert code == 0
        check_against("plateau.schema.json", json.loads(out))

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "plateau", *REFERENCE_ARGS, "--basis-degree", "30",
                               "--mu-min", "1.5", "--mu-max", "1.5", "--mu-steps", "1",
                               "--format", "json")
        assert code == 0
        stats = json.loads(out)["plateaus"]
        assert all(s["delta"] is None for s in stats)

    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "plateau", *REFERENCE_ARGS, "--basis-degree", "30",
                             "--mu-min", "2.0", "--mu-max", "1.0", "--mu-steps", "5")
        assert code == 2

    def test_no_state_rows_match_header(self, capsys):
        # no bound state: each row holds mu alone, as the header does
        code, out, _ = run_cli(capsys, "plateau", "--A", "-0.4", "--B", "5", "--C", "3",
                               "--basis-degree", "20", "--mu-steps", "3")
        assert code == 0
        assert out == "mu\n1\n1.5\n2\n"


class TestCheckQuadratureCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "check-quadrature", *REFERENCE_ARGS,
                               "--max-degree", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        check_against("check_quadrature.schema.json", payload)
        rows = payload["rows"]
        assert {r["size"] for r in rows} == {2, 3, 4}
        x_rows = [r for r in rows if r["kernel"] == "x"]
        assert all(r["max_abs_diff"] < 1e-9 for r in x_rows)

    def test_degree_bounds(self, capsys):
        assert run_cli(capsys, "check-quadrature", *REFERENCE_ARGS, "--max-degree", "1")[0] == 2
        assert run_cli(capsys, "check-quadrature", *REFERENCE_ARGS, "--max-degree", "9")[0] == 2

    def test_potential_optional(self, capsys):
        code, out, _ = run_cli(capsys, "check-quadrature", "--max-degree", "2")
        assert code == 0
        assert out == run_cli(capsys, "check-quadrature", *REFERENCE_ARGS, "--max-degree", "2")[1]
