"""The one signed-sum printer against the four printers it replaced.

``LaurentPoly.__str__``, ``LocalizedElement.d_form``, ``GfpLaurent.__str__``
and ``PolyXYZ.__str__`` each had their own loop; the ``_reference_*``
functions below keep those loops as they were, and every printed value must
match them byte for byte.
"""

import random

from skein.polyxyz import PolyXYZ
from skein.rings import ZERO, GfpLaurent, LaurentPoly, LocalizedElement


def _reference_laurent_str(poly):
    terms = dict(poly.items())
    if not terms:
        return "0"
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "A" if e == 1 else f"A^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _reference_localized_str(elem):
    if elem.d_power == 0:
        return _reference_laurent_str(elem.num)
    return f"({_reference_laurent_str(elem.num)}) / d^{elem.d_power}"


def _reference_d_form(elem):
    ind = elem.to_d_laurent()
    if ind is None:
        return None
    if not ind:
        return "0"
    parts = []
    for e, c in sorted(ind.items(), reverse=True):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "d" if e == 1 else f"d^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _reference_gfp_str(poly):
    terms = dict(poly.items())
    if not terms:
        return "0"
    parts = []
    for e, c in sorted(terms.items(), reverse=True):
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append(f"{c}*A" if c != 1 else "A")
        else:
            parts.append(f"{c}*A^{e}" if c != 1 else f"A^{e}")
    return " + ".join(parts)


def _reference_polyxyz_str(poly):
    terms = dict(poly.items())
    if not terms:
        return "0"
    out = ""
    for mono in sorted(terms, key=lambda m: (sum(m), m), reverse=True):
        c = terms[mono]
        body = "*".join((v if e == 1 else f"{v}^{e}") for v, e in zip("xyzt", mono) if e)
        as_int = None
        if c.d_power == 0 and len(c.num) == 1 and c.num.coeff(0):
            as_int = c.num.coeff(0)
        if as_int is not None:
            sign = "-" if as_int < 0 else "+"
            mag = abs(as_int)
            text = body if (mag == 1 and body) else (f"{mag}*{body}" if body else str(mag))
        else:
            d_form = _reference_d_form(c)
            sign = "+"
            text = f"({d_form if d_form is not None else _reference_localized_str(c)})"
            if body:
                text = f"{text}*{body}"
        if not out:
            out = f"-{text}" if sign == "-" else text
        else:
            out += f" {sign} {text}"
    return out


def _random_laurent(rng, size=4):
    # exponents 0, 1 and negative ones; coefficients +-1 and larger, both signs
    return LaurentPoly(
        {rng.randint(-5, 5): rng.choice([1, -1, 2, -2, 3, -7, 12]) for _ in range(size)}
    )


def _random_d_poly(rng):
    """A sum of c*d^k with d-denominators from negative k."""
    elem = ZERO
    for _ in range(rng.randint(0, 4)):
        elem = elem + LocalizedElement.d_to_the(rng.randint(-3, 4)).scale(
            rng.choice([1, -1, 2, -3, 5])
        )
    return elem


def _random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return LocalizedElement(LaurentPoly({0: rng.choice([1, -1, 2, -2, 9])}))
    if kind == 1:
        return _random_d_poly(rng)
    # elements with no d-form, with and without a d-denominator
    return LocalizedElement(_random_laurent(rng, 3), rng.randint(0, 2))


def test_laurent_and_localized_printers_match_the_references():
    rng = random.Random(101)
    values = [LaurentPoly(), LaurentPoly({0: 1}), LaurentPoly({0: -1}), LaurentPoly({1: -1})]
    values += [_random_laurent(rng, rng.randint(1, 5)) for _ in range(300)]
    for poly in values:
        assert str(poly) == _reference_laurent_str(poly)
        for k in (0, 1, 3):
            elem = LocalizedElement(poly, k)
            assert str(elem) == _reference_localized_str(elem)
    printed = " ".join(str(v) for v in values)
    assert all(s in printed for s in ("-A^", "+ A ", "- A^-", "+ 1", "- 7", "12*A"))


def test_d_form_matches_the_reference():
    rng = random.Random(202)
    values = [_random_d_poly(rng) for _ in range(300)]
    values += [LocalizedElement(_random_laurent(rng), rng.randint(0, 2)) for _ in range(100)]
    forms = [v.d_form() for v in values]
    assert forms == [_reference_d_form(v) for v in values]
    assert None in forms and "0" in forms
    assert any("d^-" in f for f in forms if f) and any(" - d" in f for f in forms if f)


def test_gfp_printer_matches_the_reference():
    rng = random.Random(303)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 41])
        poly = GfpLaurent.from_laurent(_random_laurent(rng, rng.randint(0, 5)), p)
        assert str(poly) == _reference_gfp_str(poly)
    assert str(GfpLaurent(5, {})) == _reference_gfp_str(GfpLaurent(5, {})) == "0"


def test_polyxyz_printer_matches_the_reference():
    rng = random.Random(404)
    values = [PolyXYZ()]
    for _ in range(200):
        values.append(
            PolyXYZ(
                (tuple(rng.randint(0, 2) for _ in range(4)), _random_coefficient(rng))
                for _ in range(rng.randint(1, 5))
            )
        )
    printed = [str(v) for v in values]
    assert printed == [_reference_polyxyz_str(v) for v in values]
    joined = " ".join(printed)
    assert all(s in joined for s in ("/ d^", "(d", "(-", ")*x", " - ", "^2"))
