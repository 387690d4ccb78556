"""Congruence obstruction tests over GF(p) with the localized moduli."""

import random

import pytest

from skein import fixtures
from skein.rings import (
    CIRCLE_FACTOR,
    D_LAURENT,
    LOOP_FACTOR,
    ONE,
    GfpLaurent,
    LaurentPoly,
    LocalizedElement,
    RingError,
)
from skein.symmetry import (
    CRITERIA,
    Mode,
    ModulusKind,
    Verdict,
    check_free_symmetry,
    check_palindrome,
    check_periodic_link_style,
    check_vertex_fixing,
    full_report,
    ideal_member,
)

PETERSEN = fixtures.load_poly("petersen")


def test_theorem_modulus_mapping():
    assert ModulusKind.free_symmetry(5) == ModulusKind("D", 8)
    assert ModulusKind.vertex_fixing(5) == ModulusKind("D", 4)
    assert ModulusKind.palindrome(5) == ModulusKind("A", 40)
    assert ModulusKind.periodic_power(5) == ModulusKind("D", 4)
    assert ModulusKind.periodic_palindrome(5) == ModulusKind("A", 10)


def test_ideal_member_frobenius_identity():
    # (d^2-1)^p - (d^2-1) lies in (p, d^{2p-2} - 1)
    for p in (3, 5, 7):
        e = CIRCLE_FACTOR**p - CIRCLE_FACTOR
        member, witness = ideal_member(e, p, ModulusKind.free_symmetry(p))
        assert member and witness.is_zero()


def test_ideal_member_unit_fold():
    for p in (3, 5):
        e = LocalizedElement(LaurentPoly.monomial(1, 8 * p + 1)) - LocalizedElement(
            LaurentPoly.monomial(1, 1)
        )
        assert ideal_member(e, p, ModulusKind.palindrome(p), Mode.FOLDED)[0]
        assert ideal_member(e, p, ModulusKind.palindrome(p), Mode.SATURATED)[0]


def test_ideal_member_loop_factor_identity():
    # (d - 1/d)^p d^p - (d - 1/d)^p d = (d - 1/d)^p d (d^{p-1} - 1)
    p = 3
    e = LOOP_FACTOR**p * (LocalizedElement.d_to_the(p) - LocalizedElement.d_to_the(1))
    assert ideal_member(e, p, ModulusKind.periodic_power(p))[0]


def test_folded_mode_preconditions():
    with pytest.raises(RingError):
        ideal_member(LOOP_FACTOR, 3, ModulusKind.palindrome(3), Mode.FOLDED)
    with pytest.raises(RingError):
        ideal_member(ONE, 3, ModulusKind.vertex_fixing(3), Mode.FOLDED)
    with pytest.raises(RingError):
        ideal_member(ONE, 4, ModulusKind.palindrome(2))


def test_folded_mode_rejects_a_d_power_modulus_before_the_zero_shortcut():
    # a difference that vanishes mod p is a member of any ideal, but FOLDED
    # is undefined for a D-power modulus whatever the difference
    yquot = CIRCLE_FACTOR
    yg = yquot**3
    for modulus in (ModulusKind.vertex_fixing(3), ModulusKind.free_symmetry(3)):
        with pytest.raises(RingError):
            ideal_member(yg - yg, 3, modulus, Mode.FOLDED)
        with pytest.raises(RingError):
            ideal_member(LocalizedElement.from_int(3), 3, modulus, Mode.FOLDED)
    for check in (check_vertex_fixing, check_free_symmetry):
        with pytest.raises(RingError):
            check(yg, yquot, 3, Mode.FOLDED)
        assert check(yg, yquot, 3, Mode.SATURATED)[0] is Verdict.INCONCLUSIVE
    with pytest.raises(RingError):
        check_periodic_link_style(yg, yquot, 3, Mode.FOLDED)


def test_palindrome_petersen_both_modes():
    for mode in (Mode.FOLDED, Mode.SATURATED):
        verdict, witness = check_palindrome(PETERSEN, 5, mode)
        assert verdict is Verdict.OBSTRUCTED
        assert not witness.is_zero()
    # modes agree at p = 3 as well (the computed verdict; see the ledger for
    # the discrepancy with the published example)
    v_folded, _ = check_palindrome(PETERSEN, 3, Mode.FOLDED)
    v_sat, _ = check_palindrome(PETERSEN, 3, Mode.SATURATED)
    assert v_folded == v_sat


def test_palindrome_spot_check_folded_coefficients():
    # folded coefficient of A^6 mod (5, A^40-1): 4 for Y(A), 1 for Y(A^-1)
    num, _ = PETERSEN.to_gfp(5)
    folded = {}
    for e, c in num.items():
        folded[e % 40] = (folded.get(e % 40, 0) + c) % 5
    assert folded[6] == 4
    num_inv, _ = PETERSEN.invert_variable().to_gfp(5)
    folded_inv = {}
    for e, c in num_inv.items():
        folded_inv[e % 40] = (folded_inv.get(e % 40, 0) + c) % 5
    assert folded_inv[6] == 1


def test_palindromic_input_inconclusive():
    for p in (2, 3, 5, 7):
        verdict, witness = check_palindrome(CIRCLE_FACTOR, p)
        assert verdict is Verdict.INCONCLUSIVE and witness.is_zero()


def test_free_symmetry_positive_controls():
    for p in (3, 5, 7):
        verdict, _ = check_free_symmetry(CIRCLE_FACTOR, CIRCLE_FACTOR, p)
        assert verdict is Verdict.INCONCLUSIVE


def test_free_symmetry_exact_power_is_trivially_inconclusive():
    yq = LOOP_FACTOR * CIRCLE_FACTOR
    assert check_free_symmetry(yq**3, yq, 3)[0] is Verdict.INCONCLUSIVE


def test_free_symmetry_squared_circle_is_member():
    # (d^2-1)^2 - (d^2-1)^3 = -(d^2-1)(d^4-1) mod 3: exactly divisible, so
    # the brute-division oracle returns member (Inconclusive)
    diff = CIRCLE_FACTOR**2 - CIRCLE_FACTOR**3
    prod = -(CIRCLE_FACTOR * (LocalizedElement.d_to_the(4) - ONE))
    num3 = (diff - prod).to_gfp(3)[0]
    assert num3.is_zero()
    assert check_free_symmetry(CIRCLE_FACTOR**2, CIRCLE_FACTOR, 3)[0] is Verdict.INCONCLUSIVE


def test_vertex_fixing_bouquet_controls():
    for k, p in ((1, 3), (1, 5), (2, 3)):
        yg = LOOP_FACTOR ** (k * p - 1) * CIRCLE_FACTOR
        yq = LOOP_FACTOR ** (k - 1) * CIRCLE_FACTOR
        assert check_vertex_fixing(yg, yq, p)[0] is Verdict.INCONCLUSIVE


def test_vertex_fixing_negative_control():
    assert check_vertex_fixing(CIRCLE_FACTOR, ONE, 3)[0] is Verdict.OBSTRUCTED


def test_periodic_link_style():
    va, vb = check_periodic_link_style(CIRCLE_FACTOR, CIRCLE_FACTOR, 7)
    assert va is Verdict.INCONCLUSIVE and vb is Verdict.INCONCLUSIVE
    va, vb = check_periodic_link_style(PETERSEN, None, 5)
    assert va is None and vb is Verdict.OBSTRUCTED
    va, vb = check_periodic_link_style(ONE, ONE, 5)
    assert va is Verdict.INCONCLUSIVE and vb is Verdict.INCONCLUSIVE


def test_full_report_petersen_p5():
    report = full_report(PETERSEN, None, 5)
    assert report.outcome("palindrome").verdict is Verdict.OBSTRUCTED
    assert report.outcome("free-symmetry").verdict is Verdict.SKIPPED
    assert report.outcome("vertex-fixing").verdict is Verdict.SKIPPED
    assert report.outcome("periodicity-power").verdict is Verdict.SKIPPED
    assert report.outcome("periodicity-palindrome").verdict is Verdict.OBSTRUCTED
    doc = report.to_dict()
    assert doc["prime"] == 5 and len(doc["tests"]) == 5


def test_full_report_p5_names_the_moduli_in_order():
    doc = full_report(PETERSEN, None, 5).to_dict()
    assert [(t["test"], t["modulus"], t["modulus_localized"]) for t in doc["tests"]] == [
        ("free-symmetry", "d^10 - d^2", "d^8 - 1"),
        ("vertex-fixing", "d^4 - 1", "d^4 - 1"),
        ("palindrome", "A^40 - 1", "A^40 - 1"),
        ("periodicity-power", "d^5 - d", "d^4 - 1"),
        ("periodicity-palindrome", "A^10 - 1", "A^10 - 1"),
    ]
    assert [c.test_id for c in CRITERIA] == [t["test"] for t in doc["tests"]]


def _check_result(test_id, yg, yquot, p, mode):
    """Verdict and witness of the check_* function behind ``test_id``.
    check_periodic_link_style reports verdicts only: its witness is None."""
    if test_id == "palindrome":
        return check_palindrome(yg, p, mode)
    if test_id == "periodicity-palindrome":
        return check_periodic_link_style(yg, None, p, mode)[1], None
    if yquot is None:
        return Verdict.SKIPPED, None
    if test_id == "periodicity-power":
        return check_periodic_link_style(yg, yquot, p, mode)[0], None
    check = {"free-symmetry": check_free_symmetry, "vertex-fixing": check_vertex_fixing}
    return check[test_id](yg, yquot, p, mode)


def _random_value(rng, d_power):
    terms = {rng.randint(-12, 12): rng.randint(-5, 5) for _ in range(4)}
    return LocalizedElement(LaurentPoly(terms), d_power)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_full_report_agrees_with_the_check_functions(p):
    rng = random.Random(400 + p)
    seen = set()
    for trial in range(24):
        yquot = None if trial % 4 == 0 else _random_value(rng, rng.randint(0, 1))
        yg = _random_value(rng, trial % 3)  # d_power 1 and 2 keep a d denominator
        if trial % 6 == 1:
            yg = yg + yg.invert_variable()  # palindromic
        elif trial % 6 == 5 and yquot is not None:
            yg = yquot**p  # an exact quotient power
        for mode in Mode:
            try:
                report = full_report(yg, yquot, p, mode)
            except RingError:
                # FOLDED is undefined on a difference with a d denominator
                assert mode is Mode.FOLDED
                with pytest.raises(RingError):
                    check_palindrome(yg, p, mode)
                with pytest.raises(RingError):
                    check_periodic_link_style(yg, None, p, mode)
                seen.add("undefined")
                continue
            for t in report.tests:
                # D-power moduli are decided in SATURATED mode in either report
                d_power = t.test_id in ("free-symmetry", "vertex-fixing", "periodicity-power")
                assert t.mode_used == (Mode.SATURATED if d_power else mode).value
                verdict, witness = _check_result(t.test_id, yg, yquot, p, Mode(t.mode_used))
                assert t.verdict is verdict, (t.test_id, mode)
                if witness is not None:
                    assert t.witness == witness, (t.test_id, mode)
                seen.add((mode, t.verdict))
    assert "undefined" in seen
    for mode in Mode:
        assert {(mode, v) for v in Verdict} <= seen


def test_full_report_with_quotient_runs_all():
    report = full_report(CIRCLE_FACTOR, CIRCLE_FACTOR, 3)
    assert all(t.verdict is Verdict.INCONCLUSIVE for t in report.tests)


def test_full_report_rejects_composite():
    with pytest.raises(RingError):
        full_report(CIRCLE_FACTOR, None, 4)


def test_membership_monotonicity():
    # members of (p, d^{2p-2}-1) are members of (p, d^{p-1}-1)
    rng = random.Random(31)
    for p in (3, 5):
        big = ModulusKind.free_symmetry(p)
        small = ModulusKind.vertex_fixing(p)
        modulus_elem = LocalizedElement.d_to_the(2 * p - 2) - ONE
        for _ in range(50):
            terms = {rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(3)}
            g = LocalizedElement(LaurentPoly(terms), rng.randint(0, 2))
            e = g * modulus_elem
            assert ideal_member(e, p, big)[0]
            assert ideal_member(e, p, small)[0]


def test_frobenius_consistency_gfp():
    for p in (3, 5, 7):
        lhs = (CIRCLE_FACTOR**p).to_gfp(p)[0]
        rhs = (LocalizedElement.d_to_the(2 * p) - ONE).to_gfp(p)[0]
        assert lhs == rhs


def test_witness_reduction_matches_mode():
    verdict, witness = check_palindrome(PETERSEN, 5, Mode.FOLDED)
    assert verdict is Verdict.OBSTRUCTED
    assert all(0 <= e < 40 for e, _ in witness.items())


def test_full_report_checks_its_prime_a_bounded_number_of_times(monkeypatch):
    # GF(p) arithmetic reuses the checked p: the count no longer grows with
    # the length of the division chains, which grows with p
    import skein.rings as rings

    calls = []
    is_prime = rings.is_prime
    monkeypatch.setattr(rings, "is_prime", lambda n: calls.append(n) or is_prime(n))
    counts = {}
    for p in (3, 41):
        calls.clear()
        full_report(PETERSEN, PETERSEN, p)
        counts[p] = len(calls)
        assert set(calls) == {p}
    assert counts[3] == counts[41] <= 21


def test_zero_witnesses_are_falsy_and_print_no_terms():
    report = full_report(CIRCLE_FACTOR, CIRCLE_FACTOR, 3)
    for t in report.tests:
        assert t.verdict is Verdict.INCONCLUSIVE
        assert t.witness is not None and not t.witness
    assert all(t["witness_terms"] == [] for t in report.to_dict()["tests"])
    skipped = full_report(PETERSEN, None, 3).outcome("free-symmetry")
    assert skipped.witness is None and skipped.to_dict()["witness_terms"] == []
