"""Golden CLI invocations: exit code, stdout and stderr pinned byte for byte.

Every case runs through `main()` in-process.  The fixture file holds the
expected output of each case; regenerate it (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tribound.cli import main

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cli_golden.json"

REF = ["--A", "-300", "--B", "5", "--C", "3"]
SHALLOW = ["--A", "-0.4", "--B", "5", "--C", "3", "--basis-degree", "20"]
POT = ["--A", "-6", "--B", "6", "--C", "3"]
SCAN = [*REF, "--basis-degree", "25", "--mu-min", "1.4", "--mu-max", "1.6", "--mu-steps", "3"]
POINT = [*REF, "--basis-degree", "25", "--mu-min", "1.5", "--mu-max", "1.5", "--mu-steps", "1"]

CASES = {
    "spectrum_csv": ["spectrum", *REF, "--basis-degree", "20"],
    "spectrum_json": ["spectrum", *REF, "--basis-degree", "20", "--format", "json"],
    "spectrum_consistent_csv": ["spectrum", *REF, "--basis-degree", "30",
                                "--consistent-potential"],
    "spectrum_consistent_json": ["spectrum", *REF, "--basis-degree", "30",
                                 "--consistent-potential", "--format", "json"],
    "spectrum_note_csv": ["spectrum", *SHALLOW],
    "spectrum_note_json": ["spectrum", *SHALLOW, "--format", "json"],
    "spectrum_no_state_csv": ["spectrum", *REF, "--basis-degree", "50", "--mu", "1000"],
    "spectrum_no_state_json": ["spectrum", *REF, "--basis-degree", "50", "--mu", "1000",
                               "--format", "json"],
    "potential_csv": ["potential", *POT, "--samples", "20"],
    "potential_json": ["potential", *POT, "--samples", "10", "--format", "json"],
    "potential_range_csv": ["potential", *POT, "--r-min", "0.1", "--r-max", "5",
                            "--samples", "12"],
    "wavefunction_csv": ["wavefunction", *REF, "--basis-degree", "30", "--state", "2",
                         "--samples", "30"],
    "wavefunction_json": ["wavefunction", *REF, "--basis-degree", "30", "--state", "1",
                          "--samples", "20", "--format", "json"],
    "wavefunction_r_min_csv": ["wavefunction", *REF, "--basis-degree", "30", "--state", "3",
                               "--r-min", "0.01", "--samples", "25"],
    "wavefunction_consistent_json": ["wavefunction", *REF, "--basis-degree", "30",
                                     "--consistent-potential", "--r-min", "0.05",
                                     "--r-max", "6", "--samples", "15", "--format", "json"],
    "plateau_csv": ["plateau", *SCAN],
    "plateau_json": ["plateau", *SCAN, "--format", "json"],
    "plateau_point_csv": ["plateau", *POINT],
    "plateau_point_json": ["plateau", *POINT, "--format", "json"],
    "check_quadrature_csv": ["check-quadrature", *REF, "--max-degree", "3"],
    "check_quadrature_json": ["check-quadrature", *REF, "--max-degree", "3",
                              "--format", "json"],
    "error_state_out_of_range": ["wavefunction", *REF, "--basis-degree", "30",
                                 "--state", "5"],
    "error_descending_mu_grid": ["plateau", *REF, "--basis-degree", "25",
                                 "--mu-min", "2.0", "--mu-max", "1.0", "--mu-steps", "5"],
}


def run(argv):
    """(exit code, stdout, stderr) of one in-process call of main()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert all(golden[name]["args"] == args for name, args in CASES.items())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(golden, name):
    expected = golden[name]
    code, out, err = run(CASES[name])
    assert code == expected["exit"]
    assert out == expected["stdout"]
    assert err == expected["stderr"]


if __name__ == "__main__":
    doc = {}
    for name, args in CASES.items():
        code, out, err = run(args)
        doc[name] = {"args": args, "exit": code, "stdout": out, "stderr": err}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(doc)} cases written to {FIXTURE}", file=sys.stderr)
