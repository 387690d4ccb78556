"""Exact arithmetic: Laurent polynomials, the localized ring, GF(p), fractions."""

import random

import pytest

from skein.rings import (
    CIRCLE_FACTOR,
    D,
    D_INV,
    D_LAURENT,
    LOOP_FACTOR,
    ONE,
    ZERO,
    GfpLaurent,
    LaurentPoly,
    LocalizedElement,
    RationalFunction,
    RingError,
    gfp_divrem,
    gfp_gcd,
    is_prime,
)


def lp(pairs):
    return LaurentPoly(dict(pairs))


def test_d_square_expansion():
    assert (D * D).num == lp({4: 1, 0: 2, -4: 1})
    assert (D * D).d_power == 0


def test_circle_factor_expansion():
    # (-A^2 - A^-2)^2 - 1 expanded by hand
    assert CIRCLE_FACTOR.num == lp({4: 1, 0: 1, -4: 1})


def test_localization_identity():
    assert D_INV * D == ONE
    assert D * D_INV == ONE


def test_canonical_form_reduces_d_power():
    raw = LocalizedElement(D_LAURENT * D_LAURENT, 1)  # d^2 / d
    assert raw == D
    assert raw.d_power == 0


def test_canonical_equality_cross_multiplication():
    a = LOOP_FACTOR  # d - 1/d, stored as (d^2-1)/d
    assert a.d_power == 1
    assert a * D == CIRCLE_FACTOR


def test_invert_variable_examples():
    p = LocalizedElement(lp({3: 1, -1: 2}))
    assert p.invert_variable() == LocalizedElement(lp({-3: 1, 1: 2}))
    assert D.invert_variable() == D
    assert ZERO.invert_variable() == ZERO


def test_invert_variable_on_petersen_fixture():
    from skein import fixtures

    inverted = fixtures.load_poly("petersen").invert_variable()
    assert inverted.num.coeff(34) == -1
    assert inverted.num.coeff(-38) == 1


def test_invert_variable_is_involution_and_homomorphism():
    rng = random.Random(3)
    for _ in range(50):
        a = _random_elem(rng)
        b = _random_elem(rng)
        assert a.invert_variable().invert_variable() == a
        assert (a * b).invert_variable() == a.invert_variable() * b.invert_variable()
        assert (a + b).invert_variable() == a.invert_variable() + b.invert_variable()


def _random_elem(rng):
    terms = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
    return LocalizedElement(LaurentPoly(terms), rng.randint(0, 3))


def test_ring_axioms_random():
    rng = random.Random(12345)
    for _ in range(80):
        a, b, c = (_random_elem(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO


_LP_ONE_PLUS_D = D_LAURENT + LaurentPoly({0: 1})


def test_sums_over_mixed_d_powers_match_fractions():
    # only the operand with the lower d_power is raised; fractions of
    # Laurent polynomials add independently of that
    rng = random.Random(77)
    cases = [(_random_elem(rng), _random_elem(rng)) for _ in range(60)]
    # sums whose numerator takes a factor d, so the result drops a power
    cases += [
        (LocalizedElement(_LP_ONE_PLUS_D, 1), -D_INV),
        (-D_INV, LocalizedElement(_LP_ONE_PLUS_D, 1)),
        (LocalizedElement(D_LAURENT + lp({0: 1}), 2), LocalizedElement(lp({0: -1}), 2)),
        (LOOP_FACTOR, D_INV),
        (D, LOOP_FACTOR),
    ]
    mixed = 0
    for a, b in cases:
        mixed += a.d_power != b.d_power
        fa, fb = RationalFunction.from_localized(a), RationalFunction.from_localized(b)
        assert RationalFunction.from_localized(a + b) == fa + fb
        assert RationalFunction.from_localized(a - b) == fa - fb
        assert RationalFunction.from_localized(b - a) == fb - fa
    assert mixed >= 40
    assert LocalizedElement(_LP_ONE_PLUS_D, 1) - D_INV == ONE
    assert (LOOP_FACTOR + D_INV) == D and (LOOP_FACTOR + D_INV).d_power == 0


def test_to_gfp_examples():
    ten_a6 = LocalizedElement(lp({6: 10}))
    num, dp = ten_a6.to_gfp(5)
    assert num.is_zero() and dp == 0

    m6 = LocalizedElement(lp({-30: -6}))
    num, _ = m6.to_gfp(5)
    assert num == GfpLaurent(5, {-30: 4})

    m1 = LocalizedElement(lp({-34: -1}))
    num, _ = m1.to_gfp(3)
    assert num == GfpLaurent(3, {-34: 2})


def test_to_gfp_carries_d_power_and_rejects_composite():
    num, dp = LOOP_FACTOR.to_gfp(7)
    assert dp == 1
    with pytest.raises(RingError):
        LOOP_FACTOR.to_gfp(6)


def test_to_gfp_is_ring_homomorphism():
    rng = random.Random(9)
    for p in (3, 5):
        for _ in range(30):
            a, b = _random_elem(rng), _random_elem(rng)
            na, ka = a.to_gfp(p)
            nb, kb = b.to_gfp(p)
            ns, ks = (a * b).to_gfp(p)
            # products before reduction: compare after aligning d-powers
            assert (na * nb).shifted(0) == ns * GfpLaurent(
                p, {0: 1}
            ) * GfpLaurent.from_laurent(D_LAURENT, p) ** (ka + kb - ks)
            nsum, ksum = (a + b).to_gfp(p)
            dd = GfpLaurent.from_laurent(D_LAURENT, p)
            k = max(ka, kb)
            lifted = na * dd ** (k - ka) + nb * dd ** (k - kb)
            assert lifted == nsum * dd ** (k - ksum)


def test_gfp_divrem_exponent_folding():
    a = GfpLaurent(5, {41: 1})
    f = GfpLaurent(5, {40: 1, 0: -1})
    q, r = gfp_divrem(a, f)
    assert r == GfpLaurent(5, {1: 1})
    assert q * f + r == a


def test_gfp_divrem_identity_random():
    rng = random.Random(77)
    for _ in range(60):
        p = rng.choice([3, 5, 7])
        a = GfpLaurent(p, {rng.randint(-8, 12): rng.randint(1, p - 1) for _ in range(5)})
        f = GfpLaurent(p, {rng.randint(-3, 6): rng.randint(1, p - 1) for _ in range(3)})
        if f.is_zero():
            continue
        q, r = gfp_divrem(a, f)
        assert q * f + r == a


def test_gfp_divrem_zero_divisor_rejected():
    with pytest.raises(RingError):
        gfp_divrem(GfpLaurent(5, {0: 1}), GfpLaurent(5, {}))


def test_gfp_gcd_cyclotomic_factor():
    # A^8 - 1 = (A^4 - 1)(A^4 + 1); the oracle identity checked explicitly
    lhs = GfpLaurent(5, {4: 1, 0: -1}) * GfpLaurent(5, {4: 1, 0: 1})
    assert lhs == GfpLaurent(5, {8: 1, 0: -1})
    g = gfp_gcd(GfpLaurent(5, {4: 1, 0: 1}), GfpLaurent(5, {8: 1, 0: -1}))
    assert g == GfpLaurent(5, {4: 1, 0: 1})


def test_gfp_gcd_coprime_with_loop_power_modulus():
    # d^{2p-2} - 1 at p=3, expanded; evaluates to -1 at roots of A^4 + 1
    d4m1 = D_LAURENT**4 - LaurentPoly.from_int(1)
    g = gfp_gcd(GfpLaurent(3, {4: 1, 0: 1}), GfpLaurent.from_laurent(d4m1, 3))
    assert g == GfpLaurent(3, {0: 1})


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_reduction_mod_p_is_a_ring_homomorphism(p):
    # GfpLaurent computes in Z[A^{+-1}] and reduces; reducing first must agree
    rng = random.Random(p)

    def rand():
        span = 3 * p
        return LaurentPoly(
            {rng.randint(-6, 6): rng.randint(-span, span) for _ in range(rng.randint(0, 5))}
        )

    def red(poly):
        return GfpLaurent.from_laurent(poly, p)

    for _ in range(40):
        a, b = rand(), rand()
        n, k = rng.randint(0, 5), rng.randint(-7, 7)
        assert red(a + b) == red(a) + red(b)
        assert red(a - b) == red(a) - red(b)
        assert red(-a) == -red(a)
        assert red(a * b) == red(a) * red(b)
        assert red(a**n) == red(a) ** n
        assert red(a.shifted(k)) == red(a).shifted(k)


def test_zero_gfp_polynomial_is_falsy():
    assert not GfpLaurent(5, {})
    assert not GfpLaurent(5, {3: 10, -1: 5})
    assert len(GfpLaurent(5, {3: 10})) == 0
    one = GfpLaurent(5, {0: 6})
    assert one and len(one) == 1
    assert not (one - one) and len(one * one - one) == 0


def test_gfp_results_reuse_the_checked_prime(monkeypatch):
    import skein.rings as rings

    a = GfpLaurent(7, {3: 2, -1: 4, 0: 1})
    b = GfpLaurent(7, {1: 1, 0: 3})
    calls = []
    monkeypatch.setattr(rings, "is_prime", lambda n: calls.append(n) or True)
    results = [a + b, a - b, -a, a * b, a**9, a.shifted(-4), gfp_gcd(a, b * b)]
    results += gfp_divrem(a * a, b)
    assert calls == []
    assert all(r.p == 7 for r in results)
    monkeypatch.undo()
    with pytest.raises(RingError):
        GfpLaurent(4, {0: 1})
    with pytest.raises(RingError):
        GfpLaurent.from_laurent(D_LAURENT, 9)


def test_primality():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)


def test_rational_function_reduction():
    d = RationalFunction.from_laurent(D_LAURENT)
    one = RationalFunction.from_int(1)
    assert d / d == one
    mu1 = one / d
    mu2 = (d - mu1).inverse()
    # mu2 = d / (d^2 - 1)
    assert mu2 == d / (d * d - one)
    assert (mu2 * (d * d - one)) == d


def test_rational_function_canonical_sign():
    r = RationalFunction(LaurentPoly.from_int(1), lp({2: -1}))
    assert r.den.coeff(r.den.max_exp()) > 0


def test_rational_function_equality_after_unreduced_construction():
    d = RationalFunction.from_laurent(D_LAURENT)
    a = RationalFunction(D_LAURENT * D_LAURENT, D_LAURENT)
    assert a == d


def test_d_form_printer():
    assert CIRCLE_FACTOR.d_form() == "d^2 - 1"
    assert LOOP_FACTOR.d_form() == "d - d^-1"
    assert LocalizedElement(lp({4: 1})).d_form() is None
    assert ZERO.d_form() == "0"


def test_to_d_laurent_roundtrip():
    rng = random.Random(4)
    for _ in range(40):
        coeffs = {rng.randint(-3, 4): rng.randint(-5, 5) for _ in range(4)}
        elem = ZERO
        for k, c in coeffs.items():
            elem = elem + LocalizedElement.d_to_the(k).scale(c)
        ind = elem.to_d_laurent()
        assert ind is not None
        rebuilt = ZERO
        for k, c in ind.items():
            rebuilt = rebuilt + LocalizedElement.d_to_the(k).scale(c)
        assert rebuilt == elem
