"""Exact coefficient arithmetic for skein computations.

Everything here is immutable and exact over arbitrary-precision integers;
there is no floating point anywhere in the evaluation pipeline.

The rings:

* :class:`LaurentPoly` -- Z[A, A^-1], sparse exponent -> coefficient maps.
* :class:`LocalizedElement` -- Z[A^{+-1}] localized at the cyclotomic
  polynomials Phi_m(A), which holds every Yamada value, bracket and
  Temperley-Lieb projector coefficient: a Laurent numerator over a power of
  d = -A^2 - A^-2 (d stands in for Phi_8) and a product of the other Phi_m,
  normalized by exact division.  ``RationalFunction`` is another name for it.
* :class:`GfpLaurent` -- (Z/p)[A^{+-1}] with division and gcd, used by the
  congruence obstruction tests.  It is a :class:`LaurentPoly` of residues
  1..p-1: its ring operations are integer ones followed by reduction mod p,
  a ring homomorphism, so every result is exact.

``LaurentPoly``'s sum, difference and product are the one hand-written
sparse kernel; :func:`power` and :func:`signed_sum` serve every ring here
and in :mod:`skein.polyxyz`.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping, TypeVar


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


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> LaurentPoly:
    """Phi_m(A): A^m - 1 divided exactly by Phi_k for each proper divisor k."""
    poly = LaurentPoly({m: 1, 0: -1})
    for k in range(1, m):
        if m % k == 0:
            poly = poly.exact_div(_cyclotomic(k))
    return poly


@lru_cache(maxsize=None)
def _totient(m: int) -> int:
    """Euler's phi(m), the degree of Phi_m, by the least prime factor p of m."""
    if m == 1:
        return 1
    p = next((q for q in range(2, isqrt(m) + 1) if m % q == 0), m)
    return (p if m // p % p == 0 else p - 1) * _totient(m // p)


#: A cyclotomic part prod Phi_m^k as sorted pairs (m, k), m != 8, k > 0.
Phi = tuple[tuple[int, int], ...]


def _phi_merge(p: Phi, q: Phi, op: Callable[[int, int], int]) -> Phi:
    """The pairs (m, op(k_p, k_q)) with a nonzero exponent, missing k as 0."""
    acc = dict(p)
    for m, k in q:
        acc[m] = op(acc.get(m, 0), k)
    return tuple(sorted((m, k) for m, k in acc.items() if k))


def _phi_poly(phi: Phi) -> LaurentPoly:
    return prod((_cyclotomic(m) ** k for m, k in phi), start=_LP_ONE)


def _lift(num: LaurentPoly, k: int, phi: Phi, to_k: int, to_phi: Phi) -> LaurentPoly:
    """num / (d^k prod phi) as a numerator over d^to_k prod to_phi, a multiple
    of that denominator."""
    if to_k > k:
        num = num * D_LAURENT ** (to_k - k)
    if to_phi != phi:
        num = num * _phi_poly(_phi_merge(to_phi, phi, sub))
    return num


def _inverse_factors(poly: LaurentPoly) -> tuple[LaurentPoly, int, Phi]:
    """Write poly as u d^j prod Phi_m^k (m != 8) with u = +-A^i: return 1/u,
    j and the cyclotomic part.

    Trial division runs over the m with phi(m) at most the degree left, all
    below twice its square as phi(m) >= sqrt(m/2); other factors raise.
    Each Phi_8 = -A^2 d found counts as a power of d.
    """
    if poly.is_zero():
        raise RingError("division by zero")
    low = poly.min_exp()
    rest = poly.shifted(-low)
    exps: dict[int, int] = {}
    m = 1
    while (deg := rest.max_exp()) and m <= 2 * deg * deg:
        q = rest.exact_div(_cyclotomic(m)) if _totient(m) <= deg else None
        if q is None:
            m += 1
        else:
            rest, exps[m] = q, exps.get(m, 0) + 1
    if rest not in (_LP_ONE, -_LP_ONE):
        raise RingError(f"{poly} is not a unit times cyclotomic polynomials")
    j = exps.pop(8, 0)
    unit = LaurentPoly.monomial(rest.coeff(0) * (-1) ** j, -low - 2 * j)
    return unit, j, tuple(sorted(exps.items()))


# ---------------------------------------------------------------------------
# The localized ring: Z[A^{+-1}] localized at the cyclotomic polynomials
# ---------------------------------------------------------------------------


class LocalizedElement:
    """An exact element num / (d^k prod Phi_m^e) of Z[A^{+-1}] localized at
    the cyclotomic polynomials Phi_m(A): the ring of Yamada values, brackets
    and Temperley-Lieb projector coefficients.

    d = -A^-2 Phi_8 stands in for Phi_8: ``d_power`` is k and ``phi`` the
    sorted pairs (m, e) of the other factors, m != 8.  Values whose
    denominator is a power of d, every Yamada value among them, share the
    empty ``phi``.  Canonical form: no factor of the denominator divides the
    numerator, which holds the unit powers of A.  Equality and hashing act on
    it, so values are usable as dictionary keys.  A divisor (``inverse``,
    ``/``, negative ``**``) must be +-A^j times cyclotomic polynomials; any
    other (A + 2, say) raises RingError.
    """

    __slots__ = ("num", "d_power", "phi")

    def __init__(self, numerator: LaurentPoly, d_power: int = 0, phi: Phi = ()):
        if d_power < 0:
            raise RingError("d_power must be nonnegative")
        if numerator.is_zero():
            numerator, d_power, phi = _LP_ZERO, 0, ()
        else:
            while d_power > 0 and _divisible_by_d(numerator):
                quotient = numerator.exact_div(D_LAURENT)
                if quotient is None:  # pragma: no cover - fold test is exact
                    break
                numerator = quotient
                d_power -= 1
            if phi:
                left = []
                for m, k in phi:
                    while k and (q := numerator.exact_div(_cyclotomic(m))) is not None:
                        numerator, k = q, k - 1
                    if k:
                        left.append((m, k))
                phi = tuple(left)
        object.__setattr__(self, "num", numerator)
        object.__setattr__(self, "d_power", d_power)
        object.__setattr__(self, "phi", phi)

    @staticmethod
    def _canonical(num: LaurentPoly, d_power: int, phi: Phi) -> "LocalizedElement":
        """num / (d^d_power prod phi), already in canonical form."""
        out = LocalizedElement.__new__(LocalizedElement)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "d_power", d_power)
        object.__setattr__(out, "phi", phi)
        return out

    def __setattr__(self, *args) -> None:
        raise AttributeError("LocalizedElement is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "LocalizedElement":
        return LocalizedElement(LaurentPoly.from_int(n))

    @staticmethod
    def from_laurent(p: LaurentPoly) -> "LocalizedElement":
        return LocalizedElement(p)

    @staticmethod
    def d_to_the(k: int) -> "LocalizedElement":
        """The element d^k for any integer k (negative k allowed)."""
        if k >= 0:
            return LocalizedElement(D_LAURENT**k)
        return LocalizedElement(_LP_ONE, -k)

    @staticmethod
    def sum_of_products(
        terms: Iterable[tuple[LaurentPoly, Iterable["LocalizedElement"]]],
    ) -> "LocalizedElement":
        """The sum of poly * prod(factors) over the (poly, factors) terms,
        taken over the least common denominator and normalized once."""
        fracs, top, lcm = [], 0, ()
        for num, factors in terms:
            k, phi = 0, ()
            for f in factors:
                num, k = num * f.num, k + f.d_power
                if f.phi:
                    phi = _phi_merge(phi, f.phi, add)
            fracs.append((num, k, phi))
            top = max(top, k)
            if phi:
                lcm = _phi_merge(lcm, phi, max)
        total = sum((_lift(num, k, phi, top, lcm) for num, k, phi in fracs), _LP_ZERO)
        return LocalizedElement(total, top, lcm)

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def den(self) -> LaurentPoly:
        """The denominator d^k prod Phi_m^e, so that self = num / den."""
        return D_LAURENT**self.d_power * _phi_poly(self.phi)

    def as_laurent(self) -> LaurentPoly | None:
        """The numerator when the denominator is 1, else None."""
        return None if self.d_power or self.phi else self.num

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return LocalizedElement.sum_of_products(((_LP_ONE, (self,)), (_LP_ONE, (other,))))

    def __sub__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return LocalizedElement.sum_of_products(((_LP_ONE, (self,)), (-_LP_ONE, (other,))))

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement._canonical(-self.num, self.d_power, self.phi)

    def __mul__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        phi = _phi_merge(self.phi, other.phi, add) if other.phi else self.phi
        return LocalizedElement(self.num * other.num, self.d_power + other.d_power, phi)

    def __truediv__(self, other: "LocalizedElement") -> "LocalizedElement":
        if not isinstance(other, LocalizedElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int) -> "LocalizedElement":
        if n < 0:
            return self.inverse() ** -n
        phi = tuple((m, k * n) for m, k in self.phi) if self.phi and n else ()
        return LocalizedElement(self.num**n, self.d_power * n, phi)

    def inverse(self) -> "LocalizedElement":
        # canonical as built: the factors of num and of den are disjoint
        unit, k, phi = _inverse_factors(self.num)
        return LocalizedElement._canonical(unit * self.den, k, phi)

    def scale(self, n: int) -> "LocalizedElement":
        # Phi_m and A^4 + 1 are primitive: they divide n * num only if num
        if not n:
            return ZERO
        return LocalizedElement._canonical(self.num.scale(n), self.d_power, self.phi)

    def invert_variable(self) -> "LocalizedElement":
        """The substitution A -> A^-1.  It fixes d and takes Phi_m to
        A^-phi(m) Phi_m (to -A^-1 Phi_1 for m = 1), units the numerator
        absorbs, so no factor is cancelled again."""
        num = self.num.substitute_inverse()
        if self.phi:
            num = num.shifted(sum(_totient(m) * k for m, k in self.phi))
            if self.phi[0][0] == 1 and self.phi[0][1] % 2:
                num = -num
        return LocalizedElement._canonical(num, self.d_power, self.phi)

    def to_gfp(self, p: int) -> "tuple[GfpLaurent, int]":
        """Reduce coefficients mod the prime p; d_power carried through.
        A denominator with any Phi_m other than d's Phi_8 raises RingError."""
        if self.phi:
            raise RingError(f"{self} has a denominator other than a power of d")
        return GfpLaurent.from_laurent(self.num, p), self.d_power

    # -- display ---------------------------------------------------------------

    def to_d_laurent(self) -> dict[int, int] | None:
        """Express self as an integer Laurent polynomial in d, if possible.

        Returns {k: c} with self = sum c*d^k, or None when the element is not
        a polynomial in d alone.  Display helper; values are stored in A-form.
        """
        if self.num.is_zero():
            return {}
        if self.phi:
            return None
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
        return self.d_power == other.d_power and self.num == other.num and self.phi == other.phi

    def __hash__(self) -> int:
        if self.phi:
            return hash((self.num, self.d_power, self.phi))
        return hash((self.num, self.d_power))

    def __repr__(self) -> str:
        return f"LocalizedElement({self})"

    def __str__(self) -> str:
        if self.phi:
            return f"({self.num}) / ({self.den})"
        if self.d_power == 0:
            return str(self.num)
        return f"({self.num}) / d^{self.d_power}"


#: Another name for the localized ring, which Temperley-Lieb callers use.
RationalFunction = LocalizedElement

ZERO = LocalizedElement.from_int(0)
ONE = LocalizedElement.from_int(1)
D = LocalizedElement(D_LAURENT)
D_INV = LocalizedElement(_LP_ONE, 1)
#: d^2 - 1, the value of a disjoint circle next to a graph.
CIRCLE_FACTOR = D * D - ONE
#: d - d^-1, the loop-deletion factor.
LOOP_FACTOR = D - D_INV


def _to_localized(p: LaurentPoly) -> LocalizedElement:
    """The ring element equal to p read as a polynomial in d = -A^2 - A^-2,
    the converse of :meth:`LocalizedElement.to_d_laurent`, by Horner's rule.

    The rule runs on a dense coefficient list in x = A^2: after k steps,
    index i holds the coefficient of x^(i - k), and a step multiplies by
    -(x + 1/x) and adds the next coefficient at x^0.
    """
    if not p:
        return ZERO
    lo = min(p.min_exp(), 0)
    c = [p.coeff(e) for e in range(lo, p.max_exp() + 1)]
    acc = [c[-1]]
    pad = [0, 0]
    for k, x in enumerate(reversed(c[:-1]), 1):
        acc = [-(a + b) for a, b in zip(pad + acc, acc + pad)]
        acc[k] += x
    top = len(acc) - 1  # the exponent of x at the last index
    num = LaurentPoly({2 * i - top: a for i, a in enumerate(acc) if a})
    return LocalizedElement(num, -lo)


# ---------------------------------------------------------------------------
# Primality
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_13: bases up to 41 decide every n below it (Sorenson & Webster 2017)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < psi_13 ~ 3.3e24."""
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
    if p >= _PSI_13:
        raise RingError(f"p must be below {_PSI_13}, where the primality test is exact; got {p}")
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

    def frobenius(self) -> "GfpLaurent":
        """The p-th power: mod p, (sum a_i A^i)^p = sum a_i A^(ip)."""
        return self._with(LaurentPoly({e * self.p: c for e, c in self._poly.items()}))

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
    a == q*f + r exactly with deg r < deg f in the shifted sense.  The
    division runs on dense coefficient lists in B = A^g, g the gcd of f's
    exponents: f is a polynomial in B, and the terms of a whose exponents
    are r mod g divide on their own, as A^r times a polynomial in B.
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
    div = {e - sf: c for e, c in f._poly._terms.items()}
    g = gcd(*div) or 1
    top = max(div) // g
    dense = [0] * (top + 1)
    for e, c in div.items():
        dense[e // g] = c
    inv_lead = pow(dense[top], p - 2, p)
    # the terms of a by exponent class r mod g, as dense lists in B
    classes: dict[int, list[int]] = {}
    for e, c in a._poly._terms.items():
        i, r = divmod(e - sa, g)
        coeffs = classes.setdefault(r, [])
        if len(coeffs) <= i:
            coeffs.extend([0] * (i + 1 - len(coeffs)))
        coeffs[i] = c
    quot: dict[int, int] = {}
    rem: dict[int, int] = {}
    for r, coeffs in classes.items():
        # one pass down the degrees: each leading term is cancelled against
        # the whole divisor; coefficients are reduced mod p only when read
        for dr in range(len(coeffs) - 1, top - 1, -1):
            lead = coeffs[dr] % p
            if lead:
                c = lead * inv_lead % p
                quot[r + g * (dr - top)] = c
                lo = dr - top
                coeffs[lo : dr + 1] = map(sub, coeffs[lo : dr + 1], map(c.__mul__, dense))
        rem.update((r + g * i, c % p) for i, c in enumerate(coeffs[:top]))
    q = LaurentPoly(quot).shifted(sa - sf)
    return a._with(q), a._with(LaurentPoly(rem).shifted(sa))


def gfp_gcd(a: GfpLaurent, b: GfpLaurent) -> GfpLaurent:
    """Monic gcd in GF(p)[A], normalized to nonnegative exponents with a
    nonzero constant term (units A^k are divided out)."""
    a._require_same_field(b)
    x, y = a, b
    while not y.is_zero():
        _, r = gfp_divrem(x, y)
        # each step must lower the degree in gfp_divrem's shifted sense, or
        # the loop would never end
        if not r.is_zero() and (
            r.max_exp() - min(r.min_exp(), 0) >= y.max_exp() - min(y.min_exp(), 0)
        ):
            raise RingError("gfp_divrem did not lower the degree")
        x, y = y, r
    if x.is_zero():
        return x
    inv_lead = pow(x.coeff(x.max_exp()), a.p - 2, a.p)
    return x._with(x._poly.shifted(-x.min_exp()).scale(inv_lead))

