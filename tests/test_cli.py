"""File formats and the command-line surface (exit codes, round-trips)."""

import json
import re
import subprocess
import sys
import time

import gen
import pytest

from skein import fixtures
from skein.cli import main
from skein.polyio import PolyFormatError, parse_poly_document, serialize_poly_document
from skein.rings import CIRCLE_FACTOR, LOOP_FACTOR, LaurentPoly, LocalizedElement


def run_cli(args, **kw):
    import os
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "skein.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


# -- polynomial documents ---------------------------------------------------------


def test_poly_document_roundtrip():
    for elem in (CIRCLE_FACTOR, LOOP_FACTOR, LocalizedElement(LaurentPoly({0: 10**40}))):
        assert parse_poly_document(serialize_poly_document(elem)) == elem


def test_poly_document_whitespace_insensitive():
    doc = '{ "terms" : [ [ 1 , 4 ] ,\n [ 1, 0 ], [1, -4] ] , "d_power" : 0 }'
    assert parse_poly_document(doc) == CIRCLE_FACTOR


def test_poly_document_defaults_and_errors():
    assert parse_poly_document('{"terms": []}').is_zero()
    for bad in (
        "not json",
        "[1, 2]",
        '{"terms": [[1]]}',
        '{"terms": [[1, 2.5]]}',
        '{"terms": [], "d_power": -1}',
        '{"terms": [[true, 2]]}',
    ):
        with pytest.raises(PolyFormatError):
            parse_poly_document(bad)


def test_petersen_fixture_is_bit_exact():
    pet = fixtures.load_poly("petersen")
    assert pet.d_power == 0
    assert pet.num.coeff(-34) == -1
    assert pet.num.coeff(38) == 1
    assert pet.num.coeff(14) == 61
    assert len(pet.num) == 18


# -- CLI ------------------------------------------------------------------------


def test_cli_yamada_text_and_machine(tmp_path):
    f = tmp_path / "circle.graph"
    f.write_text("O\n")
    out = run_cli(["yamada", str(f)])
    assert out.returncode == 0
    assert "d^2 - 1" in out.stdout
    assert "A^4 + 1 + A^-4" in out.stdout

    out = run_cli(["yamada", str(f), "--output", "machine"])
    assert out.returncode == 0
    assert parse_poly_document(out.stdout) == CIRCLE_FACTOR


def test_cli_yamada_bouquet():
    out = run_cli(["yamada", "fixture:bouquet2.graph"])
    assert out.returncode == 0
    assert "d^3 - 2*d + d^-1" in out.stdout


def test_cli_yamada_exit_codes(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("V 1 1\nV 2\n")  # arc 2 used once
    out = run_cli(["yamada", str(bad)])
    assert out.returncode == 1
    assert "once" in out.stderr

    missing = run_cli(["yamada", str(tmp_path / "none.graph")])
    assert missing.returncode == 1

    rays = run_cli(["yamada", "fixture:pants_x.graph"])
    assert rays.returncode == 2


def test_cli_fixture_names_without_a_suffix(capsys):
    def run(args):
        rc = main(args)
        out, err = capsys.readouterr()
        return rc, out, err

    theta = run(["yamada", "fixture:theta.graph"])
    assert theta[0] == 0
    assert run(["yamada", "fixture:theta"]) == theta
    report = run(["symmetry", "--p", "5", "--poly", "fixture:petersen.poly"])
    assert report[0] == 0
    assert run(["symmetry", "--p", "5", "--poly", "fixture:petersen"]) == report

    rc, out, err = run(["yamada", "fixture:nosuch"])
    assert (rc, out) == (1, "")
    assert "no fixture named 'nosuch.graph'" in err
    # a name with a suffix is read as given
    rc, _, err = run(["yamada", "fixture:petersen.poly"])
    assert rc == 1
    assert err.startswith("error: fixture:petersen.poly: ")


def test_cli_parse_error_names_the_file_labels(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("X a b c d\n")
    out = run_cli(["bracket", str(bad)])
    assert out.returncode == 1
    assert out.stderr.strip().endswith("arc label(s) used only once: a, b, c, d")


def test_cli_yamada_past_key_limit_is_a_clean_error(tmp_path):
    theta = tmp_path / "theta300.graph"
    labels = [str(i) for i in range(300)]
    theta.write_text("V " + " ".join(labels) + "\nV " + " ".join(reversed(labels)) + "\n")
    out = run_cli(["yamada", str(theta)])
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "255" in lines[0]


def test_cli_bracket():
    out = run_cli(["bracket", "fixture:hopf.graph", "--output", "machine"])
    assert out.returncode == 0
    value = parse_poly_document(out.stdout)
    assert value == LocalizedElement(LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1}))
    vertexed = run_cli(["bracket", "fixture:theta.graph"])
    assert vertexed.returncode == 2


def test_cli_phi_plane_machine_roundtrip():
    out = run_cli(["phi", "fixture:theta.graph", "--output", "machine"])
    assert out.returncode == 0
    from skein.cabling import phi_plane

    assert parse_poly_document(out.stdout) == phi_plane(fixtures.load_diagram("theta"))


def test_cli_phi_pants_reports_delta():
    out = run_cli(["phi", "fixture:pants_t.graph", "--surface", "pants"])
    assert out.returncode == 0
    assert "delta vs printed t-image" in out.stdout
    machine = run_cli(
        ["phi", "fixture:pants_t.graph", "--surface", "pants", "--output", "machine"]
    )
    doc = json.loads(machine.stdout)
    assert "delta_vs_printed_t_image" in doc
    assert doc["value"]["x*y*z"]["terms"] == [[1, 0]]


def test_cli_phi_machine_coefficients_parse_back():
    from skein.cabling import phi_punctured
    from skein.polyxyz import mono_str
    from skein.surfaces import PHI_T_PRINTED

    out = run_cli(
        ["phi", "fixture:pants_t.graph", "--surface", "pants", "--output", "machine"]
    )
    doc = json.loads(out.stdout)
    value = phi_punctured(fixtures.load_diagram("pants_t"))
    for key, poly in (("value", value), ("delta_vs_printed_t_image", value - PHI_T_PRINTED)):
        expected = {mono_str(m): c for m, c in poly.items()}
        assert expected and list(doc[key]) == list(expected)
        for name, coeff in doc[key].items():
            assert parse_poly_document(json.dumps(coeff)) == expected[name]


def test_cli_phi_of_the_petersen_diagram_finishes(capsys):
    # the frontier sweep holds at most 260 states here; the 2^15 kernel calls
    # of 2^20 states each that it replaced did not finish in a minute
    start = time.perf_counter()
    rc = main(["phi", "fixture:petersen_diagram"])
    assert rc == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.startswith("phi = (10*A^40 - 26*A^36")


def test_cli_phi_past_the_sweep_budget_exits_2(monkeypatch, capsys):
    from skein import core

    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 16)
    assert main(["phi", "fixture:petersen_diagram"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: phi_plane: the frontier sweep holds ")
    assert err.rstrip().endswith("live states, past its budget of 16")


@pytest.mark.parametrize(
    "command, code",
    [("bracket", gen.braid_closure(2, [(0, 1)] * 60)), ("phi", gen.grid(6, 6))],
    ids=["bracket_torus_2_60", "phi_grid6x6"],
)
def test_cli_past_a_state_budget_exits_2_before_counting(
    monkeypatch, capsys, tmp_path, command, code
):
    # T(2, 60) has 2^60 smoothing states and the flat 6x6 grid 2^60 cable
    # terms: both are refused before the circle counter is called
    from skein import cabling, tl

    def kernel(n_arcs, crossings):
        raise AssertionError(f"circle counter called on {len(crossings)} crossings")

    monkeypatch.setattr(tl, "state_circle_counts", kernel)
    monkeypatch.setattr(cabling, "state_circle_counts", kernel)
    path = tmp_path / "big.graph"
    path.write_text(code.text())
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f"2^60 = {2**60} " in lines[0]


def test_cli_phi_annulus():
    out = run_cli(["phi", "fixture:annulus_core.graph", "--surface", "annulus"])
    assert out.returncode == 0
    assert "b^2 - 1" in out.stdout


def test_cli_phi_annulus_rejects_hole_two():
    out = run_cli(["phi", "fixture:pants_y.graph", "--surface", "annulus"])
    assert out.returncode == 2
    assert not out.stdout
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "2+" in lines[0]


def test_cli_symmetry_exit_codes(tmp_path):
    out = run_cli(["symmetry", "--p", "6", "--poly", "fixture:petersen.poly"])
    assert out.returncode == 2
    assert "prime" in out.stderr

    out = run_cli(["symmetry", "--p", "5", "--poly", str(tmp_path / "nope.poly")])
    assert out.returncode == 1

    out = run_cli(["symmetry", "--p", "5", "--poly", "fixture:petersen.poly"])
    assert out.returncode == 0  # verdicts live in the report, not the exit code


def test_cli_symmetry_finishes_at_a_large_prime():
    # A^(8p) - 1 = (A^8 - 1)^p is stripped of A^4 + 1 at its p-th root; one
    # division at a time, p = 1009 took 2.5 s and p = 10007 over a minute
    start = time.perf_counter()
    out = run_cli(["symmetry", "--p", "10007", "--poly", "fixture:petersen.poly"])
    assert out.returncode == 0, out.stderr
    assert time.perf_counter() - start < 2.0
    assert "p = 10007" in out.stdout


def test_cli_symmetry_machine_report():
    out = run_cli(
        ["symmetry", "--p", "5", "--poly", "fixture:petersen.poly", "--output", "machine"]
    )
    doc = json.loads(out.stdout)
    assert doc["prime"] == 5
    by_id = {t["test"]: t for t in doc["tests"]}
    assert by_id["palindrome"]["verdict"] == "Obstructed"
    assert by_id["palindrome"]["modulus"] == "A^40 - 1"
    assert by_id["free-symmetry"]["verdict"] == "Skipped"
    assert by_id["free-symmetry"]["modulus"] == "d^10 - d^2"
    assert by_id["free-symmetry"]["modulus_localized"] == "d^8 - 1"


def test_cli_symmetry_with_quotient_and_diagram_inputs(tmp_path):
    quot = tmp_path / "quot.poly"
    quot.write_text(serialize_poly_document(CIRCLE_FACTOR))
    out = run_cli(
        ["symmetry", "--p", "3", "--diagram", "fixture:circle.graph",
         "--quotient-poly", str(quot), "--output", "machine"]
    )
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    by_id = {t["test"]: t for t in doc["tests"]}
    assert by_id["free-symmetry"]["verdict"] == "Inconclusive"
    assert by_id["vertex-fixing"]["verdict"] == "Inconclusive"


THETA_OVER_CIRCLE_P5_TEXT = """\
order-p symmetry obstructions for p = 5 (mode: saturated)
  [Obstructed  ] free-symmetry: fixed-point-free order-p symmetry (quotient power)  modulo (p, d^10 - d^2) = (p, d^8 - 1)
      witness: A^8 + A^6 + A^4 + 2*A^2 + 2 + 2*A^-2 + A^-4 + A^-6 + A^-8
  [Obstructed  ] vertex-fixing: vertex-fixing order-p symmetry (quotient power)  modulo (p, d^4 - 1)
      witness: 3*A^-8 + 4*A^-10 + 2*A^-12 + 2*A^-14 + 2*A^-16 + 2*A^-18 + 4*A^-20 + 3*A^-22
  [Inconclusive] palindrome: order-p symmetry (palindromy in A)  modulo (p, A^40 - 1)
  [Obstructed  ] periodicity-power: p-periodicity (quotient power, earlier criterion)  modulo (p, d^5 - d) = (p, d^4 - 1)
      witness: 3*A^-8 + 4*A^-10 + 2*A^-12 + 2*A^-14 + 2*A^-16 + 2*A^-18 + 4*A^-20 + 3*A^-22
  [Inconclusive] periodicity-palindrome: p-periodicity (palindromy, earlier criterion)  modulo (p, A^10 - 1)
"""

_POWER_WITNESS = [[3, -22], [4, -20], [2, -18], [2, -16], [2, -14], [2, -12], [4, -10], [3, -8]]

THETA_OVER_CIRCLE_P5_MACHINE = {
    "prime": 5,
    "mode": "saturated",
    "tests": [
        {"test": "free-symmetry", "name": "fixed-point-free order-p symmetry (quotient power)",
         "modulus": "d^10 - d^2", "modulus_localized": "d^8 - 1", "mode": "saturated",
         "verdict": "Obstructed",
         "witness_terms": [[1, -8], [1, -6], [1, -4], [2, -2], [2, 0], [2, 2], [1, 4], [1, 6],
                           [1, 8]]},
        {"test": "vertex-fixing", "name": "vertex-fixing order-p symmetry (quotient power)",
         "modulus": "d^4 - 1", "modulus_localized": "d^4 - 1", "mode": "saturated",
         "verdict": "Obstructed", "witness_terms": _POWER_WITNESS},
        {"test": "palindrome", "name": "order-p symmetry (palindromy in A)",
         "modulus": "A^40 - 1", "modulus_localized": "A^40 - 1", "mode": "saturated",
         "verdict": "Inconclusive", "witness_terms": []},
        {"test": "periodicity-power", "name": "p-periodicity (quotient power, earlier criterion)",
         "modulus": "d^5 - d", "modulus_localized": "d^4 - 1", "mode": "saturated",
         "verdict": "Obstructed", "witness_terms": _POWER_WITNESS},
        {"test": "periodicity-palindrome", "name": "p-periodicity (palindromy, earlier criterion)",
         "modulus": "A^10 - 1", "modulus_localized": "A^10 - 1", "mode": "saturated",
         "verdict": "Inconclusive", "witness_terms": []},
    ],
}


def test_cli_symmetry_obstructed_quotient_power_rows_print_their_witnesses():
    args = ["symmetry", "--diagram", "fixture:theta.graph",
            "--quotient-diagram", "fixture:circle.graph", "--p", "5"]
    out = run_cli(args)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == THETA_OVER_CIRCLE_P5_TEXT

    out = run_cli([*args, "--output", "machine"])
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == json.dumps(THETA_OVER_CIRCLE_P5_MACHINE) + "\n"


def test_cli_symmetry_at_p2_prints_d_to_the_first_as_d(capsys):
    # p - 1 = 1: the vertex-fixing modulus and the localized modulus of both
    # d-power rows read d - 1, not d^1 - 1
    args = ["symmetry", "--diagram", "fixture:theta.graph",
            "--quotient-diagram", "fixture:circle.graph", "--p", "2"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].endswith("vertex-fixing order-p symmetry (quotient power)  modulo (p, d - 1)")
    assert lines[4].endswith("modulo (p, d^2 - d) = (p, d - 1)")
    assert "d^1" not in "\n".join(lines)

    assert main([*args, "--output", "machine"]) == 0
    by_id = {t["test"]: t for t in json.loads(capsys.readouterr().out)["tests"]}
    assert (by_id["vertex-fixing"]["modulus"], by_id["vertex-fixing"]["modulus_localized"]) == (
        "d - 1", "d - 1")
    assert (by_id["periodicity-power"]["modulus"],
            by_id["periodicity-power"]["modulus_localized"]) == ("d^2 - d", "d - 1")
    assert by_id["free-symmetry"]["modulus_localized"] == "d^2 - 1"


def test_cli_symmetry_quotient_options_are_exclusive():
    out = run_cli(
        ["symmetry", "--p", "3", "--poly", "fixture:petersen.poly",
         "--quotient-poly", "fixture:petersen.poly",
         "--quotient-diagram", "fixture:circle.graph"]
    )
    assert out.returncode == 2
    assert "not allowed with" in out.stderr


def test_cli_verify_single_suite():
    out = run_cli(["verify", "--suite", "jw"])
    assert out.returncode == 0
    assert "[pass] suite jw" in out.stdout


def test_cli_verify_prints_the_same_stdout_on_every_run():
    # the suite's wall time goes to stderr, so stdout depends on the code alone
    first, second = (run_cli(["verify", "--suite", "jw"]) for _ in range(2))
    assert first.stdout == second.stdout
    assert first.stdout.startswith("[pass] suite jw\n")
    assert re.fullmatch(r"suite jw: \d+\.\d\ds\n", first.stderr)


def test_cli_verify_unknown_suite():
    out = run_cli(["verify", "--suite", "nope"])
    assert out.returncode == 2


def test_main_callable_directly(capsys):
    rc = main(["yamada", "fixture:circle.graph"])
    assert rc == 0
    assert "d^2 - 1" in capsys.readouterr().out
