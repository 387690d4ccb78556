"""Congruence obstruction tests over GF(p) with the localized moduli."""

import random
from functools import lru_cache
from math import comb

import pytest

from skein import fixtures, rings, symmetry
from skein.rings import (
    CIRCLE_FACTOR,
    D_LAURENT,
    LOOP_FACTOR,
    ONE,
    GfpLaurent,
    LaurentPoly,
    LocalizedElement,
    RingError,
    gfp_divrem,
    gfp_gcd,
)
from skein.symmetry import (
    CRITERIA,
    Mode,
    ModulusKind,
    Verdict,
    full_report,
    ideal_member,
)
from skein.yamada import yamada

PETERSEN = fixtures.load_poly("petersen")


def test_theorem_modulus_mapping():
    assert {c.test_id: c.modulus(5) for c in CRITERIA} == {
        "free-symmetry": ModulusKind("D", 8),
        "vertex-fixing": ModulusKind("D", 4),
        "palindrome": ModulusKind("A", 40),
        "periodicity-power": ModulusKind("D", 4),
        "periodicity-palindrome": ModulusKind("A", 10),
    }


def test_ideal_member_frobenius_identity():
    # (d^2-1)^p - (d^2-1) lies in (p, d^{2p-2} - 1)
    for p in (3, 5, 7):
        e = CIRCLE_FACTOR**p - CIRCLE_FACTOR
        member, witness = ideal_member(e, p, ModulusKind("D", 2 * p - 2))
        assert member and witness.is_zero()


def test_ideal_member_unit_fold():
    for p in (3, 5):
        e = LocalizedElement(LaurentPoly.monomial(1, 8 * p + 1)) - LocalizedElement(
            LaurentPoly.monomial(1, 1)
        )
        assert ideal_member(e, p, ModulusKind("A", 8 * p), Mode.FOLDED)[0]
        assert ideal_member(e, p, ModulusKind("A", 8 * p), Mode.SATURATED)[0]


def test_ideal_member_loop_factor_identity():
    # (d - 1/d)^p d^p - (d - 1/d)^p d = (d - 1/d)^p d (d^{p-1} - 1)
    p = 3
    e = LOOP_FACTOR**p * (LocalizedElement.d_to_the(p) - LocalizedElement.d_to_the(1))
    assert ideal_member(e, p, ModulusKind("D", p - 1))[0]


def test_folded_mode_preconditions():
    with pytest.raises(RingError):
        ideal_member(LOOP_FACTOR, 3, ModulusKind("A", 24), Mode.FOLDED)
    with pytest.raises(RingError):
        ideal_member(ONE, 3, ModulusKind("D", 2), Mode.FOLDED)
    with pytest.raises(RingError):
        ideal_member(ONE, 4, ModulusKind("A", 16))


def test_folded_mode_rejects_a_d_power_modulus_before_the_zero_shortcut():
    # a difference that vanishes mod p is a member of any ideal, but FOLDED
    # is undefined for a D-power modulus whatever the difference
    yquot = CIRCLE_FACTOR
    yg = yquot**3
    for modulus in (ModulusKind("D", 2), ModulusKind("D", 4)):
        with pytest.raises(RingError):
            ideal_member(yg - yg, 3, modulus, Mode.FOLDED)
        with pytest.raises(RingError):
            ideal_member(LocalizedElement.from_int(3), 3, modulus, Mode.FOLDED)
    # full_report decides the D-power rows in SATURATED mode whatever the
    # caller's mode, and records that
    for mode in Mode:
        report = full_report(yg, yquot, 3, mode)
        for test_id in ("free-symmetry", "vertex-fixing", "periodicity-power"):
            t = report.outcome(test_id)
            assert t.mode_used == "saturated"
            assert t.verdict is Verdict.INCONCLUSIVE


def test_palindrome_petersen_both_modes():
    for mode in (Mode.FOLDED, Mode.SATURATED):
        t = full_report(PETERSEN, None, 5, mode).outcome("palindrome")
        assert t.verdict is Verdict.OBSTRUCTED
        assert not t.witness.is_zero()
    # modes agree at p = 3 as well (the computed verdict; see the ledger for
    # the discrepancy with the published example)
    v_folded = full_report(PETERSEN, None, 3, Mode.FOLDED).outcome("palindrome").verdict
    v_sat = full_report(PETERSEN, None, 3, Mode.SATURATED).outcome("palindrome").verdict
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
        t = full_report(CIRCLE_FACTOR, None, p).outcome("palindrome")
        assert t.verdict is Verdict.INCONCLUSIVE and t.witness.is_zero()


def test_free_symmetry_positive_controls():
    for p in (3, 5, 7):
        t = full_report(CIRCLE_FACTOR, CIRCLE_FACTOR, p).outcome("free-symmetry")
        assert t.verdict is Verdict.INCONCLUSIVE


def test_free_symmetry_exact_power_is_trivially_inconclusive():
    yq = LOOP_FACTOR * CIRCLE_FACTOR
    assert full_report(yq**3, yq, 3).outcome("free-symmetry").verdict is Verdict.INCONCLUSIVE


def test_free_symmetry_squared_circle_is_member():
    # (d^2-1)^2 - (d^2-1)^3 = -(d^2-1)(d^4-1) mod 3: exactly divisible, so
    # the brute-division oracle returns member (Inconclusive)
    diff = CIRCLE_FACTOR**2 - CIRCLE_FACTOR**3
    prod = -(CIRCLE_FACTOR * (LocalizedElement.d_to_the(4) - ONE))
    num3 = (diff - prod).to_gfp(3)[0]
    assert num3.is_zero()
    t = full_report(CIRCLE_FACTOR**2, CIRCLE_FACTOR, 3).outcome("free-symmetry")
    assert t.verdict is Verdict.INCONCLUSIVE


def test_vertex_fixing_bouquet_controls():
    for k, p in ((1, 3), (1, 5), (2, 3)):
        yg = LOOP_FACTOR ** (k * p - 1) * CIRCLE_FACTOR
        yq = LOOP_FACTOR ** (k - 1) * CIRCLE_FACTOR
        assert full_report(yg, yq, p).outcome("vertex-fixing").verdict is Verdict.INCONCLUSIVE


def test_vertex_fixing_negative_control():
    t = full_report(CIRCLE_FACTOR, ONE, 3).outcome("vertex-fixing")
    assert t.verdict is Verdict.OBSTRUCTED


def test_periodic_link_style():
    def verdicts(yg, yquot, p):
        report = full_report(yg, yquot, p)
        ids = ("periodicity-power", "periodicity-palindrome")
        return tuple(report.outcome(test_id).verdict for test_id in ids)

    inconclusive = (Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE)
    assert verdicts(CIRCLE_FACTOR, CIRCLE_FACTOR, 7) == inconclusive
    assert verdicts(PETERSEN, None, 5) == (Verdict.SKIPPED, Verdict.OBSTRUCTED)
    assert verdicts(ONE, ONE, 5) == inconclusive


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


def _reference_checks(yg, yquot, p):
    """The five congruences as the theorems state them, in report order:
    (test id, the difference, the localized modulus, decided in SATURATED
    mode).  A quotient-power difference is None without a quotient."""
    power = None if yquot is None else yg - yquot**p
    mirror = yg - yg.invert_variable()
    return (
        ("free-symmetry", power, ModulusKind("D", 2 * p - 2), True),  # d^{2p} - d^2
        ("vertex-fixing", power, ModulusKind("D", p - 1), True),
        ("palindrome", mirror, ModulusKind("A", 8 * p), False),
        ("periodicity-power", power, ModulusKind("D", p - 1), True),  # d^p - d
        ("periodicity-palindrome", mirror, ModulusKind("A", 2 * p), False),
    )


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
                # FOLDED is undefined on a difference with a d denominator:
                # every A-power row of the reference raises too
                assert mode is Mode.FOLDED
                for _, diff, modulus, saturated in _reference_checks(yg, yquot, p):
                    if not saturated:
                        with pytest.raises(RingError):
                            ideal_member(diff, p, modulus, mode)
                seen.add("undefined")
                continue
            checks = _reference_checks(yg, yquot, p)
            for t, (test_id, diff, modulus, saturated) in zip(report.tests, checks, strict=True):
                run_mode = Mode.SATURATED if saturated else mode
                if diff is None:
                    verdict, witness = Verdict.SKIPPED, None
                else:
                    member, witness = ideal_member(diff, p, modulus, run_mode)
                    verdict = Verdict.INCONCLUSIVE if member else Verdict.OBSTRUCTED
                assert t.test_id == test_id
                assert t.mode_used == run_mode.value, (test_id, mode)
                assert t.verdict is verdict, (test_id, mode)
                assert t.witness == witness, (test_id, mode)
                seen.add((mode, t.verdict))
    assert "undefined" in seen
    for mode in Mode:
        assert {(mode, v) for v in Verdict} <= seen


@pytest.mark.parametrize("p", [2, 3, 5, 41])
def test_quotient_power_by_frobenius_equals_the_integer_path(p):
    rng = random.Random(1900 + p)
    pairs = [
        (_random_value(rng, g), _random_value(rng, k))
        for g, k in ((0, 0), (0, 1), (2, 0), (1, 1), (3, 1), (p, 1), (p + 1, 1), (2 * p, 2))
        for _ in range(3)
    ]
    # equal d-powers, and a d cancels over the integers: yg - yq^p = r / d^(p-1)
    yq = _random_value(rng, 1)
    r = LaurentPoly({1: 2, -3: -1})
    yg = yq**p + LocalizedElement(r * D_LAURENT, p)
    assert yg.d_power == p and (yg - yq**p).d_power == p - 1
    pairs.append((yg, yq))
    for yg, yq in pairs:
        assert symmetry._power_difference(yg, yq, p) == (yg - yq**p).to_gfp(p)
    # a denominator other than a power of d is rejected on either path
    yq = LocalizedElement(LaurentPoly.one(), 0, ((1, 1),))
    with pytest.raises(RingError):
        symmetry._power_difference(PETERSEN, yq, p)


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
        big = ModulusKind("D", 2 * p - 2)
        small = ModulusKind("D", p - 1)
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
    t = full_report(PETERSEN, None, 5, Mode.FOLDED).outcome("palindrome")
    assert t.verdict is Verdict.OBSTRUCTED
    assert all(0 <= e < 40 for e, _ in t.witness.items())


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


def test_d_modulus_reduced_before_its_power_equals_the_integer_power_reduced():
    # reduction mod p is a ring homomorphism, so d^m - 1 may be raised in GF(p)
    one = LaurentPoly.one()
    for p in (2, 3, 5, 41, 101):
        for m in (1, 2, 3, p - 1, p, 2 * p):
            expect = GfpLaurent.from_laurent(D_LAURENT**m - one, p)
            assert ModulusKind("D", m).gfp_poly(p) == expect


def _dense_gfp_poly(modulus, p):
    """The modulus expanded over Z and then reduced mod p."""
    m = modulus.power
    if modulus.base == "A":
        return GfpLaurent(p, {m: 1, 0: -1})
    terms = [(2 * m - 4 * j, (-1) ** m * comb(m, j)) for j in range(m + 1)]
    return GfpLaurent(p, terms + [(0, -1)])


@lru_cache(maxsize=None)
def _strip_by_division(f):
    """f stripped of A^4 + 1 by dividing out its gcd with A^4 + 1, one
    division at a time."""
    cyclo = GfpLaurent(f.p, {4: 1, 0: 1})
    f = f.shifted(-f.min_exp())
    while (g := gfp_gcd(f, cyclo)).max_exp():
        q, r = gfp_divrem(f, g)
        while not r:
            f = q.shifted(-q.min_exp())
            q, r = gfp_divrem(f, g)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 41, 101, 211, 1009])
def test_full_report_equals_the_dense_modulus_computation(monkeypatch, p):
    # the p-th root strip and the Lucas binomials against the expansion over
    # Z and the division-at-a-time strip, with a quotient, in both modes
    quotient = yamada(fixtures.load_diagram("theta"))
    for yg, yquot in ((PETERSEN, PETERSEN), (CIRCLE_FACTOR, quotient)):
        reports = [full_report(yg, yquot, p, mode).to_dict() for mode in Mode]
        with monkeypatch.context() as m:
            m.setattr(symmetry, "_strip_unit_factors", _strip_by_division)
            m.setattr(ModulusKind, "gfp_poly", _dense_gfp_poly)
            assert reports == [full_report(yg, yquot, p, mode).to_dict() for mode in Mode]


def test_zero_witnesses_are_falsy_and_print_no_terms():
    report = full_report(CIRCLE_FACTOR, CIRCLE_FACTOR, 3)
    for t in report.tests:
        assert t.verdict is Verdict.INCONCLUSIVE
        assert t.witness is not None and not t.witness
    assert all(t["witness_terms"] == [] for t in report.to_dict()["tests"])
    skipped = full_report(PETERSEN, None, 3).outcome("free-symmetry")
    assert skipped.witness is None and skipped.to_dict()["witness_terms"] == []


def _stuck_division(result):
    """A ``gfp_divrem`` stand-in that never lowers the degree; past 100 calls
    it fails the test rather than let a loop with no bound run on."""
    calls = []

    def divrem(a, f):
        calls.append(1)
        assert len(calls) < 100, "a division loop kept going without progress"
        return result(a)

    return divrem


def test_division_loops_raise_when_a_step_does_not_lower_the_degree(monkeypatch):
    zero = GfpLaurent(5, {})
    # the dividend handed back as the remainder
    dividend_as_remainder = _stuck_division(lambda a: (zero, a))
    monkeypatch.setattr(rings, "gfp_divrem", dividend_as_remainder)
    monkeypatch.setattr(symmetry, "gfp_divrem", dividend_as_remainder)
    with pytest.raises(RingError, match="did not lower the degree"):
        rings.gfp_gcd(GfpLaurent(5, {8: 1, 0: -1}), GfpLaurent(5, {4: 1, 0: 1}))
    with pytest.raises(RingError, match="did not lower the degree"):
        symmetry._strip_unit_factors(GfpLaurent(5, {8: 1, 0: -1}))
    # an exact division by the gcd that hands back the dividend as quotient
    monkeypatch.undo()
    monkeypatch.setattr(symmetry, "gfp_divrem", _stuck_division(lambda a: (a, zero)))
    with pytest.raises(RingError, match="did not lower the degree"):
        symmetry._strip_unit_factors(GfpLaurent(5, {8: 1, 0: -1}))
