"""Command-line interface: outputs, exit codes, determinism, schemas."""

import json
from pathlib import Path

import pytest

from tribound.cli import main

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

    def test_invalid_nu_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS,
                               "--basis-degree", "10", "--nu", "-5")
        assert code == 2
        assert "mu + nu" in err

    def test_non_numeric_nu_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", *REFERENCE_ARGS, "--nu", "abc")
        assert code == 2 and out == ""
        assert err == "error: nu must be a number, got 'abc'\n"

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
        ("basis_degree", "1.5", "basis-degree must be an integer, got '1.5'"),
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


@pytest.mark.parametrize("argv, message", [
    (["potential", "--A", "-6", "--B", "6", "--C", "3", "--samples", "3", "--r-max", "inf"],
     "r-max must be finite, got inf"),
    (["wavefunction", *REFERENCE_ARGS, "--basis-degree", "30", "--r-max", "inf"],
     "r-max must be finite, got inf"),
    (["plateau", *REFERENCE_ARGS, "--basis-degree", "20", "--mu-max", "inf"],
     "mu-max must be finite, got inf"),
    (["wavefunction", *REFERENCE_ARGS, "--basis-degree", "30", "--samples", "-1"],
     "samples must be at least 1, got -1"),
], ids=["potential-r-max-inf", "wavefunction-r-max-inf", "plateau-mu-max-inf",
        "wavefunction-negative-samples"])
def test_out_of_range_number_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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
