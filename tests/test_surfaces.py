"""The t^2 relation derivation, its published comparison, and the inverse map."""

import json
from fractions import Fraction

import pytest

from skein.polyio import parse_poly_document
from skein.polyxyz import PolyXYZ, mono_str
from skein.rings import D_INV, ONE, LocalizedElement
from skein.surfaces import (
    PHI_T_PRINTED,
    PHI_X,
    PHI_Y,
    PHI_Z,
    EliminationError,
    annulus_phi_powers,
    derive_t_squared_relation,
    phi_apply,
    printed_t_squared_relation,
    psi_apply,
    verify_psi_phi,
)


def _as_fraction(coeff: LocalizedElement, d_value: Fraction) -> Fraction:
    """Evaluate a coefficient that is a Laurent polynomial in d at d = d_value."""
    in_d = coeff.to_d_laurent()
    assert in_d is not None, f"coefficient {coeff} is not a d-polynomial"
    return sum((Fraction(c) * d_value**k for k, c in in_d.items()), Fraction(0))


def test_relation_identity_and_uniqueness():
    report = derive_t_squared_relation()
    assert report.identity_holds
    assert report.unique_leading


def test_derived_coefficients():
    report = derive_t_squared_relation()
    dinv2 = D_INV * D_INV
    two_dinv = D_INV.scale(2)
    assert report.derived[(0, 0, 0, 1)] == -two_dinv  # t
    assert report.derived[(1, 0, 0, 1)] == -two_dinv  # tx
    assert report.derived[(0, 1, 0, 1)] == -two_dinv  # ty
    assert report.derived[(1, 1, 0, 0)] == ONE - dinv2.scale(2)  # xy
    assert report.derived[(1, 0, 1, 0)] == ONE  # xz
    assert report.derived[(0, 1, 1, 0)] == ONE  # zy
    assert report.derived[(2, 0, 0, 0)] == -dinv2  # x^2
    assert report.derived[(0, 2, 0, 0)] == -dinv2  # y^2
    assert report.derived[(1, 1, 1, 0)] == ONE  # xyz
    assert report.derived[(0, 0, 1, 0)] == ONE  # z
    # the three that differ from the printed relation
    assert report.derived[(0, 0, 0, 0)] == ONE - dinv2
    assert report.derived[(1, 0, 0, 0)] == ONE - dinv2.scale(2)
    assert report.derived[(0, 1, 0, 0)] == ONE - dinv2.scale(2)


def test_mismatch_set_is_exactly_constant_x_y():
    report = derive_t_squared_relation()
    assert sorted(name for name, _, _ in report.mismatches) == ["1", "x", "y"]
    assert len(report.matches) == 11
    assert "epsilon-split-uniqueness" in report.matches


def test_x_y_symmetry_of_derived_relation():
    report = derive_t_squared_relation()
    swapped = {(j, i, k, e): c for (i, j, k, e), c in report.derived.items()}
    assert swapped == report.derived


def test_numeric_spot_check_at_d2():
    """Independent arithmetic route: evaluate both relations with Fractions at
    d = 2 and (x, y, z) = (2, 0, 0)."""
    d = Fraction(2)
    x, y, z = Fraction(2), Fraction(0), Fraction(0)
    phi = {
        "x": x * x - 1,
        "y": y * y - 1,
        "z": z * z - 1,
        "t": x * y * z - (x * x) / d - (y * y) / d + 1 / d,
    }
    t_sq = phi["t"] ** 2
    assert t_sq == Fraction(9, 4)

    def rhs(coeffs):
        total = Fraction(0)
        for (i, j, k, e), c in coeffs.items():
            val = _as_fraction(c, d)
            val *= phi["x"] ** i * phi["y"] ** j * phi["z"] ** k * phi["t"] ** e
            total += val
        return total

    report = derive_t_squared_relation()
    assert rhs(report.derived) == Fraction(9, 4)
    assert rhs(printed_t_squared_relation()) == Fraction(3, 4)


def test_psi_phi_inverse_pair():
    assert verify_psi_phi()
    x, t = PolyXYZ.gen("x"), PolyXYZ.gen("t")
    assert psi_apply(PHI_X) == x
    assert psi_apply(PHI_T_PRINTED) == t
    xyz = PolyXYZ.gen("x") * PolyXYZ.gen("y") * PolyXYZ.gen("z")
    from skein.surfaces import PSI_XYZ

    assert phi_apply(PSI_XYZ) == xyz


def test_psi_rejects_odd_monomials():
    with pytest.raises(EliminationError):
        psi_apply(PolyXYZ.gen("x"))


def test_annulus_powers():
    one = PolyXYZ.constant(ONE)
    assert annulus_phi_powers(0) == one
    assert annulus_phi_powers(1) == PHI_X
    x = PolyXYZ.gen("x")
    assert annulus_phi_powers(2) == x**4 - (x * x).scale(ONE.scale(2)) + one
    # monic of degree 2k: the powers are linearly independent
    for k in range(7):
        assert annulus_phi_powers(k).coeff((2 * k, 0, 0, 0)) == ONE


def test_printed_relation_has_thirteen_terms():
    printed = printed_t_squared_relation()
    assert len(printed) == 13
    assert {mono_str(m) for m in printed} >= {"1", "x", "y", "z", "t", "x*y*z"}


def test_relation_report_coefficients_parse_back():
    report = derive_t_squared_relation()
    doc = report.to_dict()
    for key, coeffs in (("derived", report.derived), ("printed", report.printed)):
        expected = {mono_str(m): coeffs[m] for m in sorted(coeffs)}
        assert list(doc[key]) == list(expected)
        for name, coeff in doc[key].items():
            assert parse_poly_document(json.dumps(coeff)) == expected[name]
