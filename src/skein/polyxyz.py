"""Polynomials in the boundary-curve generators x, y, z (and t) over the
localized coefficient ring.

x, y, z are the curves around hole 1, hole 2 and both holes of the twice
punctured disk; t is the extra theta-shaped generator of the graph algebra.
Monomials are exponent 4-tuples (i, j, k, eps); the data structure is the
free commutative polynomial ring, with no skein reduction applied.  Sums and
products hand their terms to the constructor, which collects them;
coefficient arithmetic, powers and printing come from :mod:`skein.rings`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .rings import ONE, ZERO, LocalizedElement, power, signed_sum

Monomial = tuple[int, int, int, int]

_VARS = ("x", "y", "z", "t")


class PolyXYZ:
    """A polynomial in x, y, z, t with LocalizedElement coefficients."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Monomial, LocalizedElement]
        | Iterable[tuple[Monomial, LocalizedElement]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, LocalizedElement] = {}
        for mono, coeff in items:
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            if not coeff.is_zero():
                prev = acc.get(mono)
                s = coeff if prev is None else prev + coeff
                if s.is_zero():
                    acc.pop(mono, None)
                else:
                    acc[mono] = s
        self._terms = acc

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def constant(c: LocalizedElement) -> "PolyXYZ":
        return PolyXYZ({(0, 0, 0, 0): c})

    @staticmethod
    def monomial(mono: Monomial, coeff: LocalizedElement) -> "PolyXYZ":
        return PolyXYZ({mono: coeff})

    @staticmethod
    def gen(name: str) -> "PolyXYZ":
        idx = _VARS.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(4))
        return PolyXYZ({mono: ONE})

    # -- queries ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, mono: Monomial) -> LocalizedElement:
        return self._terms.get(mono, ZERO)

    def items(self) -> Iterator[tuple[Monomial, LocalizedElement]]:
        return iter(sorted(self._terms.items()))

    def monomials(self) -> list[Monomial]:
        return sorted(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "PolyXYZ") -> "PolyXYZ":
        if not isinstance(other, PolyXYZ):
            return NotImplemented
        return PolyXYZ([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "PolyXYZ") -> "PolyXYZ":
        return self + (-other)

    def __neg__(self) -> "PolyXYZ":
        out = PolyXYZ.__new__(PolyXYZ)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __mul__(self, other: "PolyXYZ") -> "PolyXYZ":
        if not isinstance(other, PolyXYZ):
            return NotImplemented
        return PolyXYZ(
            ((m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3]), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    def scale(self, c: LocalizedElement) -> "PolyXYZ":
        if c.is_zero():
            return PolyXYZ()
        out = PolyXYZ.__new__(PolyXYZ)
        out._terms = {m: v * c for m, v in self._terms.items()}
        return out

    def __pow__(self, n: int) -> "PolyXYZ":
        return power(self, n, PolyXYZ.constant(ONE))

    def substitute(self, images: Mapping[str, "PolyXYZ"]) -> "PolyXYZ":
        """Apply the ring homomorphism sending each variable to its image."""
        gens = [images.get(v, PolyXYZ.gen(v)) for v in _VARS]
        total = PolyXYZ()
        for mono, c in self._terms.items():
            term = PolyXYZ.constant(c)
            for g, e in zip(gens, mono):
                if e:
                    term = term * g**e
            total = total + term
        return total

    # -- comparisons ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyXYZ):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        return f"PolyXYZ({self})"

    def __str__(self) -> str:
        monos = sorted(self._terms, key=lambda m: (sum(m), m), reverse=True)
        return signed_sum((_coeff_factor(self._terms[m]), mono_str(m)) for m in monos)


def _coeff_factor(c: LocalizedElement) -> int | str:
    """An integer coefficient as itself, any other in parentheses, in d-form
    where it has one."""
    if c.d_power == 0 and len(c.num) == 1 and c.num.coeff(0):
        return c.num.coeff(0)
    d_form = c.d_form()
    return f"({c if d_form is None else d_form})"


def mono_str(mono: Monomial) -> str:
    """Readable name for a monomial, '1' for the constant."""
    body = "*".join((v if e == 1 else f"{v}^{e}") for v, e in zip(_VARS, mono) if e)
    return body or "1"
