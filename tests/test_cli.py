"""File formats and the command-line surface (exit codes, round-trips)."""

import json
import subprocess
import sys

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


def test_cli_verify_unknown_suite():
    out = run_cli(["verify", "--suite", "nope"])
    assert out.returncode == 2


def test_main_callable_directly(capsys):
    rc = main(["yamada", "fixture:circle.graph"])
    assert rc == 0
    assert "d^2 - 1" in capsys.readouterr().out
