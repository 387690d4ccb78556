"""Exact coefficient arithmetic for skein computations.

Everything here is immutable and exact over arbitrary-precision integers;
there is no floating point anywhere in the evaluation pipeline.

The rings:

* :class:`LaurentPoly` -- Z[A, A^-1], sparse exponent -> coefficient maps.
* :class:`LocalizedElement` -- Z[A^{+-1}, d^-1] with d = -A^2 - A^-2, stored
  as a Laurent numerator over a minimal power of d.
* :class:`GfpLaurent` -- (Z/p)[A^{+-1}] with division and gcd, used by the
  congruence obstruction tests.  It is a :class:`LaurentPoly` of residues
  1..p-1: its ring operations are integer ones followed by reduction mod p,
  a ring homomorphism, so every result is exact.
* :class:`RationalFunction` -- reduced fractions of Laurent polynomials,
  needed only for Temperley-Lieb projector coefficients beyond the first.

``LaurentPoly``'s sum, difference and product are the one hand-written
sparse kernel; :func:`power` and :func:`signed_sum` serve every ring here
and in :mod:`skein.polyxyz`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Mapping, TypeVar


class RingError(ValueError):
    """Raised for invalid ring operations (division by zero, composite p)."""


_R = TypeVar("_R")


def power(base: _R, n: int, one: _R) -> _R:
    """``base**n`` for n >= 0 by repeated squaring; ``one`` is the ring's unit."""
    if n < 0:
        raise RingError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def signed_sum(terms: Iterable[tuple[int | str, str]]) -> str:
    """Print (coefficient, monomial) pairs as a sum in the given order.

    A coefficient is an integer, printed as its sign and magnitude, or an
    already printed factor, which counts as positive.  Unit magnitudes and
    the constant monomial ``"1"`` are left out of products; no terms print
    as ``"0"``.
    """
    out = ""
    for c, mono in terms:
        neg = isinstance(c, int) and c < 0
        mag = str(abs(c)) if isinstance(c, int) else c
        text = mono if mag == "1" else mag if mono == "1" else f"{mag}*{mono}"
        if not out:
            out = f"-{text}" if neg else text
        else:
            out = f"{out} {'-' if neg else '+'} {text}"
    return out or "0"


def _power_str(var: str, e: int) -> str:
    return "1" if e == 0 else var if e == 1 else f"{var}^{e}"


# ---------------------------------------------------------------------------
# Laurent polynomials over Z
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A Laurent polynomial in the framing variable A with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for exp, coeff in items:
            if coeff:
                acc[exp] = acc.get(exp, 0) + coeff
                if not acc[exp]:
                    del acc[exp]
        self._terms = acc
        self._hash: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _LP_ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _LP_ONE

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: coeff} if coeff else {})

    @staticmethod
    def from_int(n: int) -> "LaurentPoly":
        return LaurentPoly.monomial(n, 0)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def min_exp(self) -> int:
        if not self._terms:
            raise RingError("zero polynomial has no exponent range")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise RingError("zero polynomial has no exponent range")
        return max(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = acc
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, 0) - c
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = acc
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        out._hash = None
        return out

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return _LP_ZERO
        # iterate over the smaller operand
        a, b = (self._terms, other._terms)
        if len(a) > len(b):
            a, b = b, a
        acc: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = acc
        out._hash = None
        return out

    __rmul__ = __mul__

    def scale(self, n: int) -> "LaurentPoly":
        if not n:
            return _LP_ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: c * n for e, c in self._terms.items()}
        out._hash = None
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        return power(self, n, _LP_ONE)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by the unit A^k."""
        if not k:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e + k: c for e, c in self._terms.items()}
        out._hash = None
        return out

    def substitute_inverse(self) -> "LaurentPoly":
        """The substitution A -> A^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {-e: c for e, c in self._terms.items()}
        out._hash = None
        return out

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self/divisor in Z[A^{+-1}], or None if not divisible."""
        if divisor.is_zero():
            raise RingError("division by the zero polynomial")
        if self.is_zero():
            return _LP_ZERO
        a_shift = self.min_exp()
        b_shift = divisor.min_exp()
        rem = {e - a_shift: c for e, c in self._terms.items()}
        div = {e - b_shift: c for e, c in divisor._terms.items()}
        db = max(div)
        lead = div[db]
        quot: dict[int, int] = {}
        while rem:
            dr = max(rem)
            if dr < db:
                return None
            lr = rem[dr]
            if lr % lead:
                return None
            c = lr // lead
            quot[dr - db] = c
            for e, cd in div.items():
                k = e + dr - db
                s = rem.get(k, 0) - c * cd
                if s:
                    rem[k] = s
                elif k in rem:
                    del rem[k]
        return LaurentPoly(quot).shifted(a_shift - b_shift)

    # -- comparisons / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        terms = sorted(self._terms.items(), reverse=True)
        return signed_sum((c, _power_str("A", e)) for e, c in terms)


_LP_ZERO = LaurentPoly.__new__(LaurentPoly)
_LP_ZERO._terms = {}
_LP_ZERO._hash = None
_LP_ONE = LaurentPoly.__new__(LaurentPoly)
_LP_ONE._terms = {0: 1}
_LP_ONE._hash = None

#: The loop value d = -A^2 - A^-2 expanded into A-terms.
D_LAURENT = LaurentPoly({2: -1, -2: -1})


def _divisible_by_d(poly: LaurentPoly) -> bool:
    # d = -A^-2 (A^4 + 1); fold A^4 -> -1 and test zero.
    folded: dict[int, int] = {}
    for e, c in poly._terms.items():
        q, r = divmod(e, 4)
        s = folded.get(r, 0) + (c if q % 2 == 0 else -c)
        if s:
            folded[r] = s
        elif r in folded:
            del folded[r]
    return not folded


# ---------------------------------------------------------------------------
# The localized ring Z[A^{+-1}, d^-1]
# ---------------------------------------------------------------------------


class LocalizedElement:
    """An exact element numerator / d^k of the localized coefficient ring.

    Canonical form: k is minimal, i.e. the numerator is not divisible by d
    unless k = 0.  Equality and hashing act on the canonical form, so values
    are usable as dictionary keys.
    """

    __slots__ = ("num", "d_power")

    def __init__(self, numerator: LaurentPoly, d_power: int = 0):
        if d_power < 0:
            raise RingError("d_power must be nonnegative")
        if numerator.is_zero():
            numerator, d_power = _LP_ZERO, 0
        else:
            while d_power > 0 and _divisible_by_d(numerator):
                quotient = numerator.exact_div(D_LAURENT)
                if quotient is None:  # pragma: no cover - fold test is exact
                    break
                numerator = quotient
                d_power -= 1
        object.__setattr__(self, "num", numerator)
        object.__setattr__(self, "d_power", d_power)

    def __setattr__(self, *args) -> None:
        raise AttributeError("LocalizedElement is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "LocalizedElement":
        return LocalizedElement(LaurentPoly.from_int(n))

    @staticmethod
    def d_to_the(k: int) -> "LocalizedElement":
        """The element d^k for any integer k (negative k allowed)."""
        if k >= 0:
            return LocalizedElement(D_LAURENT**k)
        return LocalizedElement(_LP_ONE, -k)

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ---------------------------------------------------------------

    def _common_denominator(
        self, other: "LocalizedElement"
    ) -> tuple[LaurentPoly, LaurentPoly, int]:
        """Both numerators over d^k, k the larger d_power: only the side with
        the lower power is multiplied, by d to the difference."""
        a, b = self.num, other.num
        k = self.d_power
        gap = other.d_power - k
        if gap > 0:
            a = a * D_LAURENT**gap
            k = other.d_power
        elif gap < 0:
            b = b * D_LAURENT**-gap
        return a, b, k

    def __add__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        a, b, k = self._common_denominator(other)
        return LocalizedElement(a + b, k)

    def __sub__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        a, b, k = self._common_denominator(other)
        return LocalizedElement(a - b, k)

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(-self.num, self.d_power)

    def __mul__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return LocalizedElement(self.num * other.num, self.d_power + other.d_power)

    def __pow__(self, n: int) -> "LocalizedElement":
        if n < 0:
            raise RingError("negative power of a localized element")
        return LocalizedElement(self.num**n, self.d_power * n)

    def scale(self, n: int) -> "LocalizedElement":
        return LocalizedElement(self.num.scale(n), self.d_power)

    def invert_variable(self) -> "LocalizedElement":
        """The substitution A -> A^-1; d is fixed, so d_power is preserved."""
        return LocalizedElement(self.num.substitute_inverse(), self.d_power)

    def to_gfp(self, p: int) -> "tuple[GfpLaurent, int]":
        """Reduce coefficients mod the prime p; d_power carried through."""
        return GfpLaurent.from_laurent(self.num, p), self.d_power

    # -- display ---------------------------------------------------------------

    def to_d_laurent(self) -> dict[int, int] | None:
        """Express self as an integer Laurent polynomial in d, if possible.

        Returns {k: c} with self = sum c*d^k, or None when the element is not
        a polynomial in d alone.  Display helper; values are stored in A-form.
        """
        if self.num.is_zero():
            return {}
        work = dict(self.num._terms)
        out: dict[int, int] = {}
        while work:
            top = max(work)
            if top < 0 or top % 2:
                return None
            j = top // 2
            c = work[top] * (-1 if j % 2 else 1)
            out[j] = out.get(j, 0) + c
            for e, cd in (D_LAURENT**j)._terms.items():
                s = work.get(e, 0) - c * cd
                if s:
                    work[e] = s
                elif e in work:
                    del work[e]
        return {j - self.d_power: c for j, c in out.items() if c}

    def d_form(self) -> str | None:
        """Human-readable d-polynomial string, or None if not expressible."""
        ind = self.to_d_laurent()
        if ind is None:
            return None
        terms = sorted(ind.items(), reverse=True)
        return signed_sum((c, _power_str("d", e)) for e, c in terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self.d_power == other.d_power and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.d_power))

    def __repr__(self) -> str:
        return f"LocalizedElement({self})"

    def __str__(self) -> str:
        if self.d_power == 0:
            return str(self.num)
        return f"({self.num}) / d^{self.d_power}"


ZERO = LocalizedElement.from_int(0)
ONE = LocalizedElement.from_int(1)
D = LocalizedElement(D_LAURENT)
D_INV = LocalizedElement(_LP_ONE, 1)
#: d^2 - 1, the value of a disjoint circle next to a graph.
CIRCLE_FACTOR = D * D - ONE
#: d - d^-1, the loop-deletion factor.
LOOP_FACTOR = D - D_INV


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all inputs below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise RingError(f"p must be prime, got {p}")
    return p


# ---------------------------------------------------------------------------
# Laurent polynomials over GF(p)
# ---------------------------------------------------------------------------


class GfpLaurent:
    """A Laurent polynomial with coefficients in GF(p), p prime.

    Stored as a :class:`LaurentPoly` of residues 1..p-1.  Arithmetic is the
    integer arithmetic of those polynomials followed by reduction mod p;
    results reuse the operands' p, so primality is checked only where a p
    enters from outside.
    """

    __slots__ = ("p", "_poly")

    def __init__(self, p: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        require_prime(p)
        self._set(p, LaurentPoly(terms))

    def _set(self, p: int, poly: LaurentPoly) -> "GfpLaurent":
        residues = {e: c % p for e, c in poly._terms.items()}
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_poly", LaurentPoly(residues))
        return self

    def _with(self, poly: LaurentPoly) -> "GfpLaurent":
        """``poly`` reduced into this polynomial's field."""
        return GfpLaurent.__new__(GfpLaurent)._set(self.p, poly)

    def __setattr__(self, *args) -> None:
        raise AttributeError("GfpLaurent is immutable")

    @staticmethod
    def from_laurent(poly: LaurentPoly, p: int) -> "GfpLaurent":
        return GfpLaurent(p, poly._terms)

    def is_zero(self) -> bool:
        return self._poly.is_zero()

    def coeff(self, exp: int) -> int:
        return self._poly.coeff(exp)

    def items(self) -> Iterator[tuple[int, int]]:
        return self._poly.items()

    def min_exp(self) -> int:
        return self._poly.min_exp()

    def max_exp(self) -> int:
        return self._poly.max_exp()

    def __len__(self) -> int:
        return len(self._poly)

    def __bool__(self) -> bool:
        return bool(self._poly)

    def _require_same_field(self, other: "GfpLaurent") -> None:
        if self.p != other.p:
            raise RingError(f"field mismatch: GF({self.p}) vs GF({other.p})")

    def __add__(self, other: "GfpLaurent") -> "GfpLaurent":
        self._require_same_field(other)
        return self._with(self._poly + other._poly)

    def __sub__(self, other: "GfpLaurent") -> "GfpLaurent":
        self._require_same_field(other)
        return self._with(self._poly - other._poly)

    def __neg__(self) -> "GfpLaurent":
        return self._with(-self._poly)

    def __mul__(self, other: "GfpLaurent") -> "GfpLaurent":
        self._require_same_field(other)
        return self._with(self._poly * other._poly)

    def __pow__(self, n: int) -> "GfpLaurent":
        return power(self, n, self._with(_LP_ONE))

    def shifted(self, k: int) -> "GfpLaurent":
        return self._with(self._poly.shifted(k))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GfpLaurent):
            return NotImplemented
        return self.p == other.p and self._poly == other._poly

    def __hash__(self) -> int:
        return hash((self.p, self._poly))

    def __repr__(self) -> str:
        return f"GfpLaurent(p={self.p}, {self._poly})"

    def __str__(self) -> str:
        return str(self._poly)


def gfp_divrem(a: GfpLaurent, f: GfpLaurent) -> tuple[GfpLaurent, GfpLaurent]:
    """Division with remainder in GF(p)[A^{+-1}].

    Both operands are shifted to nonnegative exponents by unit powers of A,
    divided as ordinary polynomials, and the shifts undone, so that
    a == q*f + r exactly with deg r < deg f in the shifted sense.
    """
    a._require_same_field(f)
    if f.is_zero():
        raise RingError("division by the zero polynomial")
    if a.is_zero():
        return a, a
    p = a.p
    # lift negative exponents only; positive ranges stay put so that the
    # remainder is genuinely reduced below deg f
    sa, sf = min(a.min_exp(), 0), min(f.min_exp(), 0)
    rem = {e - sa: c for e, c in a._poly._terms.items()}
    div = {e - sf: c for e, c in f._poly._terms.items()}
    df = max(div)
    inv_lead = pow(div[df], p - 2, p)
    quot: dict[int, int] = {}
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
    q = LaurentPoly(quot).shifted(sa - sf)
    return a._with(q), a._with(LaurentPoly(rem).shifted(sa))


def gfp_gcd(a: GfpLaurent, b: GfpLaurent) -> GfpLaurent:
    """Monic gcd in GF(p)[A], normalized to nonnegative exponents with a
    nonzero constant term (units A^k are divided out)."""
    a._require_same_field(b)
    x, y = a, b
    while not y.is_zero():
        _, r = gfp_divrem(x, y)
        x, y = y, r
    if x.is_zero():
        return x
    inv_lead = pow(x.coeff(x.max_exp()), a.p - 2, a.p)
    return x._with(x._poly.shifted(-x.min_exp()).scale(inv_lead))


# ---------------------------------------------------------------------------
# Rational functions (fractions of Laurent polynomials)
# ---------------------------------------------------------------------------


def _poly_primitive_part(terms: dict[int, int]) -> tuple[dict[int, int], int]:
    g = gcd(*terms.values())
    if g in (0, 1):
        return dict(terms), g or 1
    return {e: c // g for e, c in terms.items()}, g


def _poly_pseudo_rem(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    # pseudo-remainder of integer polynomials (nonnegative exponents)
    db = max(b)
    lb = b[db]
    rem = dict(a)
    while rem and max(rem) >= db:
        dr = max(rem)
        lr = rem[dr]
        # multiply remainder by lb so the leading term cancels exactly
        rem = {e: c * lb for e, c in rem.items()}
        for e, c in b.items():
            k = e + dr - db
            s = rem.get(k, 0) - lr * c
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
        rem, _ = _poly_primitive_part(rem)
    return rem


def _poly_gcd_z(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Gcd of primitive integer polynomials via the primitive Euclidean scheme."""
    if not a:
        out, _ = _poly_primitive_part(b)
    elif not b:
        out, _ = _poly_primitive_part(a)
    else:
        pa, ca = _poly_primitive_part(a)
        pb, cb = _poly_primitive_part(b)
        x, y = pa, pb
        while y:
            r = _poly_pseudo_rem(x, y)
            x, y = y, r
        x, _ = _poly_primitive_part(x)
        c = gcd(ca, cb)
        out = {e: v * c for e, v in x.items()} if c != 1 else x
    if out and out[max(out)] < 0:
        out = {e: -c for e, c in out.items()}
    return out


class RationalFunction:
    """A reduced fraction of Laurent polynomials in A.

    Canonical form: the denominator is an ordinary polynomial with a nonzero
    constant term and positive leading coefficient, shares no content or
    polynomial factor with the numerator; unit powers of A live in the
    numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _LP_ONE):
        if den.is_zero():
            raise RingError("zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", _LP_ZERO)
            object.__setattr__(self, "den", _LP_ONE)
            return
        shift = den.min_exp()
        num = num.shifted(-shift)
        den_terms = {e - shift: c for e, c in den._terms.items()}
        num_shift = num.min_exp()
        num_terms = {e - num_shift: c for e, c in num._terms.items()}
        g = _poly_gcd_z(num_terms, den_terms)
        if g and (len(g) > 1 or max(g) > 0 or g.get(0) not in (1, -1)):
            num_poly = LaurentPoly(num_terms).exact_div(LaurentPoly(g))
            den_poly = LaurentPoly(den_terms).exact_div(LaurentPoly(g))
            assert num_poly is not None and den_poly is not None
            num_terms = dict(num_poly._terms)
            den_terms = dict(den_poly._terms)
        c = gcd(*num_terms.values(), *den_terms.values())
        if c > 1:
            num_terms = {e: v // c for e, v in num_terms.items()}
            den_terms = {e: v // c for e, v in den_terms.items()}
        if den_terms[max(den_terms)] < 0:
            num_terms = {e: -v for e, v in num_terms.items()}
            den_terms = {e: -v for e, v in den_terms.items()}
        object.__setattr__(self, "num", LaurentPoly(num_terms).shifted(num_shift))
        object.__setattr__(self, "den", LaurentPoly(den_terms))

    def __setattr__(self, *args) -> None:
        raise AttributeError("RationalFunction is immutable")

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RationalFunction":
        return RationalFunction(LaurentPoly.from_int(n))

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction(p)

    @staticmethod
    def from_localized(x: LocalizedElement) -> "RationalFunction":
        return RationalFunction(x.num, D_LAURENT**x.d_power)

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_laurent(self) -> LaurentPoly | None:
        """The underlying Laurent polynomial when the denominator is trivial."""
        if self.den == _LP_ONE:
            return self.num
        q = self.num.exact_div(self.den)
        return q

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.is_zero():
            raise RingError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, RF_ONE)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise RingError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction({self})"

    def __str__(self) -> str:
        if self.den == _LP_ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


RF_ONE = RationalFunction.from_int(1)
RF_D = RationalFunction.from_laurent(D_LAURENT)
