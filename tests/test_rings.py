"""Exact arithmetic: Laurent polynomials, the localized ring, GF(p), fractions."""

import random
from fractions import Fraction

import pytest
import test_cabling

from skein import cabling, core
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
    RingError,
    _divisible_by_d,
    _to_localized,
    gfp_divrem,
    gfp_gcd,
    is_prime,
    require_prime,
)
from skein.polyio import poly_document
from skein.tl import chebyshev_delta, jones_wenzl, markov_trace


def lp(pairs):
    return LaurentPoly(dict(pairs))


def _at(x: LocalizedElement, a: int | Fraction) -> Fraction:
    """x at A = a: its numerator over its denominator, as Fractions."""

    def poly_at(poly: LaurentPoly) -> Fraction:
        return sum((c * Fraction(a) ** e for e, c in poly.items()), Fraction(0))

    return poly_at(x.num) / poly_at(x.den)


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


def _reference_d_division(num, k):
    """The constructor's division by d as it was before the synthetic pass:
    the fold test, then one generic exact_div per power of d."""
    if num.is_zero():
        return num, 0
    while k > 0 and _divisible_by_d(num):
        num = num.exact_div(D_LAURENT)
        k -= 1
    return num, k


def _kinked_theta_numerator():
    """The sweep's numerator and d-power for a theta with 3 kinks and 20
    free circles, whose digits fill the sweep's width."""
    g = test_cabling._kinked_theta(3, 20)
    n_arcs, crossings, n_cable, loops = cabling._Strands(g, None).smoothing_diagram(g.free_circles)
    return core.frontier_sweep(n_arcs, crossings, n_cable, loops), len(crossings) - n_cable


def test_synthetic_d_division_matches_the_generic_division():
    rng = random.Random(29)
    cases = [(LaurentPoly.zero(), k) for k in range(3)]
    cases.append(_kinked_theta_numerator())
    for _ in range(400):
        # spans under 4 exponents, one parity or mixed parities
        lo, span = rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 9, 17))
        step = rng.choice((1, 2, 4))
        p = LaurentPoly(
            {lo + step * rng.randrange(span): rng.randint(-9, 9) for _ in range(rng.randint(1, 6))}
        )
        j = rng.randint(0, 8)
        # d_power below, at and above the power of d that divides
        cases += [(p * D_LAURENT**j, k) for k in (max(j - 2, 0), j, j + 3)]
    divisible = 0
    for num, k in cases:
        got = LocalizedElement(num, k)
        ref_num, ref_k = _reference_d_division(num, k)
        assert (got.num, got.d_power) == (ref_num, ref_k), (num, k)
        assert hash(got.num) == hash(ref_num)
        assert hash(got) == hash(LocalizedElement._canonical(ref_num, ref_k, ()))
        divisible += ref_k < k
    assert divisible > 300


_LP_ONE_PLUS_D = D_LAURENT + LaurentPoly({0: 1})


def test_sums_over_mixed_d_powers_match_fractions():
    # only the operand with the lower d_power is raised; the values at
    # A = 2 and A = -3 add as fractions independently of that
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
        for at in (2, -3):
            fa, fb = _at(a, at), _at(b, at)
            assert _at(a + b, at) == fa + fb
            assert _at(a - b, at) == fa - fb
            assert _at(b - a, at) == fb - fa
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
        # deg r < deg f once a's and f's negative exponents are lifted
        if not r.is_zero():
            assert r.max_exp() - min(a.min_exp(), 0) < f.max_exp() - min(f.min_exp(), 0)


def _reference_gfp_divrem(a, f):
    """Division with remainder as ``gfp_divrem`` computed it before its single
    downward pass: ``max(rem)`` is taken twice per quotient term."""
    p = a.p
    if a.is_zero():
        return a, a
    sa, sf = min(a.min_exp(), 0), min(f.min_exp(), 0)
    rem = {e - sa: c for e, c in a.items()}
    div = {e - sf: c for e, c in f.items()}
    df = max(div)
    inv_lead = pow(div[df], p - 2, p)
    quot = {}
    while rem and max(rem) >= df:
        dr = max(rem)
        c = rem[dr] * inv_lead % p
        quot[dr - df] = c
        for e, cd in div.items():
            k = e + dr - df
            s = (rem.get(k, 0) - c * cd) % p
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    q = GfpLaurent(p, {e + sa - sf: c for e, c in quot.items()})
    return q, GfpLaurent(p, {e + sa: c for e, c in rem.items()})


@pytest.mark.parametrize("p", [2, 3, 5, 41, 1000003])
def test_gfp_divrem_matches_the_rescanning_reference(p):
    rng = random.Random(600 + p)

    def poly(lo, hi, n):
        return GfpLaurent(p, {rng.randint(lo, hi): rng.randrange(p) for _ in range(n)})

    negative = lower = 0
    for _ in range(300):
        a = poly(-10, 14, rng.randint(0, 8))
        f = poly(-6, 9, rng.randint(1, 4))
        if f.is_zero():
            continue
        if not a.is_zero():
            negative += a.min_exp() < 0 or f.min_exp() < 0
            lower += a.max_exp() < f.max_exp()
        q, r = gfp_divrem(a, f)
        assert (q, r) == _reference_gfp_divrem(a, f)
        assert q.p == r.p == p
    assert negative >= 50 and lower >= 20


def test_gfp_frobenius_is_the_p_th_power():
    rng = random.Random(41)
    for p in (2, 3, 5, 41):
        for _ in range(5):
            x = GfpLaurent(p, {rng.randint(-9, 9): rng.randrange(p) for _ in range(4)})
            assert x.frobenius() == x**p


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


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_primality_near_the_strong_pseudoprimes_psi_12_and_psi_13():
    # psi_12 passes Miller-Rabin to every base up to 37, psi_13 to every base
    # up to 41 (Sorenson and Webster, Math. Comp. 86, 2017)
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    with pytest.raises(RingError):
        require_prime(PSI_12)
    # beyond the witnesses' reach: the bound is named rather than guessed past
    with pytest.raises(RingError, match=str(PSI_13)):
        require_prime(PSI_13)
    with pytest.raises(RingError, match=str(PSI_13)):
        GfpLaurent(PSI_13 + 2, {0: 1})
    assert require_prime(2**61 - 1) == 2**61 - 1


def test_rational_function_reduction():
    d = LocalizedElement.from_laurent(D_LAURENT)
    one = LocalizedElement.from_int(1)
    assert d / d == one
    mu1 = one / d
    mu2 = (d - mu1).inverse()
    # mu2 = d / (d^2 - 1)
    assert mu2 == d / (d * d - one)
    assert (mu2 * (d * d - one)) == d


def test_rational_function_canonical_sign():
    # a unit of the denominator sits in the numerator; each Phi_m is monic
    r = ONE / LocalizedElement.from_laurent(lp({2: -1}))
    assert r.num == lp({-2: -1}) and r.den == LaurentPoly.one()
    r = ONE / LocalizedElement.from_laurent(lp({3: -1, 2: -1, 1: -1}))
    assert r.num == lp({-1: -1}) and r.den == lp({2: 1, 1: 1, 0: 1})
    assert r.den.coeff(r.den.max_exp()) > 0


def test_rational_function_equality_after_unreduced_construction():
    d = LocalizedElement.from_laurent(D_LAURENT)
    phi3 = lp({2: 1, 1: 1, 0: 1})
    a = LocalizedElement(D_LAURENT * D_LAURENT * phi3, 1, ((3, 1),))
    assert a == d and a.phi == ()


def test_rational_functions_invert_only_cyclotomic_polynomials():
    a_plus_2 = lp({1: 1, 0: 2})
    with pytest.raises(RingError):
        ONE / LocalizedElement.from_laurent(a_plus_2)
    with pytest.raises(RingError):
        LocalizedElement.from_laurent(a_plus_2).inverse()
    with pytest.raises(RingError):
        ONE / LocalizedElement.from_laurent(LaurentPoly.zero())
    with pytest.raises(RingError):
        ONE / LocalizedElement.from_int(0)
    with pytest.raises(RingError):
        LocalizedElement.from_int(2).inverse()
    with pytest.raises(RingError):
        LocalizedElement.from_int(2) ** -1
    # a unit times cyclotomics: -A^3 (A - 1)^2 (A^2 + A + 1) (A^4 + 1), and
    # A^4 + 1 = -A^2 d, so 1/den = A^-5 / (d (A - 1)^2 (A^2 + A + 1))
    den = lp({1: 1, 0: -1}) ** 2 * lp({2: 1, 1: 1, 0: 1}) * lp({4: 1, 0: 1}) * lp({3: -1})
    r = ONE / LocalizedElement.from_laurent(den)
    assert (r.num, r.d_power, r.phi) == (lp({-5: 1}), 1, ((1, 2), (3, 1)))
    assert r.den == den * lp({-5: 1})
    assert r * LocalizedElement.from_laurent(den) == ONE
    assert r == LocalizedElement.from_laurent(den) ** -1
    for at in (2, -3):
        assert _at(r, at) == 1 / _at(LocalizedElement.from_laurent(den), at)


def test_rational_function_canonical_form_does_not_depend_on_the_route():
    d, one = D, ONE
    mu2 = (d - one / d).inverse()
    pairs = [
        (d * d / d, d),
        (mu2, d / (d * d - one)),
        (chebyshev_delta(3), LocalizedElement.from_laurent(D_LAURENT**3 - D_LAURENT.scale(2))),
        (chebyshev_delta(3), d * d * d - d - d),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert (x.num, x.den) == (y.num, y.den)
    # d / (d^2 - 1) = -(A^6 + A^2) / (A^8 + A^4 + 1): the monic denominator
    assert mu2.num == lp({6: -1, 2: -1}) and mu2.den == lp({8: 1, 4: 1, 0: 1})
    assert (one / d).as_laurent() is None
    assert markov_trace(jones_wenzl(2)).as_laurent() == D_LAURENT**2 - LaurentPoly.one()


def test_d_form_printer():
    assert CIRCLE_FACTOR.d_form() == "d^2 - 1"
    assert LOOP_FACTOR.d_form() == "d - d^-1"
    assert LocalizedElement(lp({4: 1})).d_form() is None
    assert ZERO.d_form() == "0"


def test_to_d_laurent_roundtrip():
    rng = random.Random(4)
    lows = set()  # the lowest exponent's sign
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
        poly = LaurentPoly(coeffs)
        assert _to_localized(poly) == elem
        if poly:
            lows.add((poly.min_exp() > 0) - (poly.min_exp() < 0))
    assert lows == {-1, 0, 1}


_PHIS = [(), ((1, 1),), ((3, 1), (6, 2)), ((1, 2), (2, 1), (12, 1)), ((5, 1),)]


def _random_phi_elem(rng, trial):
    terms = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))}
    return LocalizedElement(LaurentPoly(terms), rng.randint(0, 3), _PHIS[trial % len(_PHIS)])


def test_arithmetic_over_cyclotomic_denominators_matches_fractions():
    rng = random.Random(23)
    unit_phi3 = LocalizedElement.from_laurent(lp({3: -1, 2: -1, 1: -1}))  # -A Phi_3
    for trial in range(60):
        a, b = _random_phi_elem(rng, trial), _random_phi_elem(rng, trial + 2)
        p = lp({rng.randint(-3, 3): rng.randint(1, 4)})
        combo = LocalizedElement.sum_of_products([(p, (a, b)), (LaurentPoly.one(), (b,))])
        for at in (2, -3):
            fa, fb = _at(a, at), _at(b, at)
            assert _at(a + b, at) == fa + fb and _at(a - b, at) == fa - fb
            assert _at(a * b, at) == fa * fb and _at(a * a, at) == fa * fa
            assert _at(a**3, at) == fa**3
            assert _at(a / unit_phi3, at) == fa / _at(unit_phi3, at)
            assert _at(combo, at) == _at(LocalizedElement.from_laurent(p), at) * fa * fb + fb
        assert combo == LocalizedElement.from_laurent(p) * a * b + b


def test_negation_scaling_and_inversion_keep_the_canonical_form():
    # A^4 + 1 and every Phi_m are primitive, and A -> A^-1 fixes d and takes
    # each Phi_m to a unit times itself, so none of the three cancels anything
    rng = random.Random(17)
    for trial in range(80):
        x = _random_phi_elem(rng, trial)
        n = rng.choice([-3, -1, 2, 5])
        assert -x == LocalizedElement(-x.num, x.d_power, x.phi)
        assert x.scale(n) == LocalizedElement(x.num.scale(n), x.d_power, x.phi)
        assert x.scale(0) == ZERO
        inverted = LocalizedElement.from_laurent(x.num.substitute_inverse())
        inverted = inverted / LocalizedElement.from_laurent(x.den.substitute_inverse())
        assert x.invert_variable() == inverted
        assert x.invert_variable().invert_variable() == x
        assert _at(x.invert_variable(), 2) == _at(x, Fraction(1, 2))


def test_yamada_values_and_projector_coefficients_share_one_ring():
    from skein import fixtures, yamada

    coeffs = {c for n in (3, 4) for _, c in jones_wenzl(n).items()}
    assert any(c.phi and c.d_power for c in coeffs)
    for y in (fixtures.load_poly("petersen"), yamada(fixtures.load_diagram("theta"))):
        for c in coeffs:
            back = y * c / c
            assert back == y and back.phi == () and poly_document(back) == poly_document(y)
            assert y + c - c == y


def test_a_phi_3_denominator_has_no_d_form_gfp_image_or_document():
    x = ONE / LocalizedElement.from_laurent(lp({2: 1, 1: 1, 0: 1}))
    for value in (x, x * D_INV + D, -x):
        assert value.phi == ((3, 1),)
        assert value.d_form() is None
        with pytest.raises(RingError):
            value.to_gfp(5)
        with pytest.raises(RingError):
            poly_document(value)
    assert str(x * D_INV) == f"(1) / ({D_LAURENT * lp({2: 1, 1: 1, 0: 1})})"
