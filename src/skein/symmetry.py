"""Congruence obstructions to order-p symmetry of spatial graphs.

Each test reduces a difference of Yamada values modulo a prime p and a
modulus polynomial, in one of two membership modes:

* SATURATED (default): ideal membership in the localized ring
  GF(p)[A^{+-1}, d^{-1}].  The modulus is expanded into a polynomial in A;
  factors shared with A^4 + 1 (the numerator of d, a unit) are stripped by
  repeated gcd division, and membership is plain divisibility.
* FOLDED: exponent folding modulo an A-power modulus on denominator-free
  inputs, the literal finite quotient-ring computation.

The five criteria are the rows of ``CRITERIA``, and ``full_report`` is the one
entry point: it runs every row, and ``full_report(...).outcome(test_id)`` gives
one criterion's verdict and witness.  Moduli stated as d^{2p} - d^2 and
d^p - d are used in their localized forms d^{2p-2} - 1 and d^{p-1} - 1 (d is
a unit).  A failed congruence means the symmetry is Obstructed; a passing one
is only ever Inconclusive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import comb
from typing import Callable, NamedTuple

from .rings import (
    D_LAURENT,
    GfpLaurent,
    LocalizedElement,
    RingError,
    _power_str,
    gfp_divrem,
    gfp_gcd,
    require_prime,
)


class Mode(enum.Enum):
    FOLDED = "folded"
    SATURATED = "saturated"


class Verdict(enum.Enum):
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class ModulusKind:
    """A modulus polynomial: A^m - 1 or the localized d^m - 1."""

    base: str  # "A" or "D"
    power: int

    def __post_init__(self) -> None:
        if self.base not in ("A", "D"):
            raise ValueError("base must be 'A' or 'D'")
        if self.power < 1:
            raise ValueError("power must be positive")

    def localized_str(self) -> str:
        return f"{_power_str('A' if self.base == 'A' else 'd', self.power)} - 1"

    def gfp_poly(self, p: int) -> GfpLaurent:
        m = self.power
        if self.base == "A":
            return GfpLaurent(p, {m: 1, 0: -1})
        # d^m = (-1)^m sum_j C(m, j) A^(2m - 4j)
        terms = [(2 * m - 4 * j, (-1) ** m * comb(m, j)) for j in range(m + 1)]
        return GfpLaurent(p, terms + [(0, -1)])


class Criterion(NamedTuple):
    """An order-p criterion: the value is compared, modulo (p, modulus), with
    the quotient value's p-th power or else with its own A -> A^-1 image."""

    test_id: str
    name: str
    printed: Callable[[int], str]  # the modulus as the theorem states it
    modulus: Callable[[int], ModulusKind]
    quotient_power: bool


#: the five criteria, in report order
CRITERIA: tuple[Criterion, ...] = (
    Criterion("free-symmetry", "fixed-point-free order-p symmetry (quotient power)",
              lambda p: f"d^{2 * p} - d^2", lambda p: ModulusKind("D", 2 * p - 2), True),
    Criterion("vertex-fixing", "vertex-fixing order-p symmetry (quotient power)",
              lambda p: f"{_power_str('d', p - 1)} - 1", lambda p: ModulusKind("D", p - 1), True),
    Criterion("palindrome", "order-p symmetry (palindromy in A)",
              lambda p: f"A^{8 * p} - 1", lambda p: ModulusKind("A", 8 * p), False),
    Criterion("periodicity-power", "p-periodicity (quotient power, earlier criterion)",
              lambda p: f"d^{p} - d", lambda p: ModulusKind("D", p - 1), True),
    Criterion("periodicity-palindrome", "p-periodicity (palindromy, earlier criterion)",
              lambda p: f"A^{2 * p} - 1", lambda p: ModulusKind("A", 2 * p), False),
)


def _strip_unit_factors(f: GfpLaurent) -> GfpLaurent:
    """Remove all factors of A^4 + 1 (numerator of the unit d) and unit
    powers of A from a modulus polynomial over GF(p)."""
    p = f.p
    cyclo = GfpLaurent(p, {4: 1, 0: 1})
    f = f.shifted(-f.min_exp())
    while True:
        g = gfp_gcd(f, cyclo)
        if g.is_zero() or g.max_exp() == 0:
            return f
        q, r = gfp_divrem(f, g)
        if not r.is_zero():  # pragma: no cover - gcd divides exactly
            raise RingError("gcd division left a remainder")
        # divide g out as often as it goes before taking the next gcd
        while r.is_zero():
            q = q.shifted(-q.min_exp())
            # g has positive degree, so dividing by it must lower f's, or
            # the loop would never end
            if q.max_exp() >= f.max_exp():
                raise RingError("gfp_divrem did not lower the degree")
            f = q
            q, r = gfp_divrem(f, g)


def ideal_member(
    e: LocalizedElement, p: int, modulus: ModulusKind, mode: Mode = Mode.SATURATED
) -> tuple[bool, GfpLaurent]:
    """Decide membership of ``e`` in the ideal (p, modulus).

    Returns (member, witness): the witness is the reduced remainder, zero
    exactly when the element is a member.  FOLDED mode is defined only for
    an A-power modulus and raises ``RingError`` for any other, whatever the
    element, zero mod p included.
    """
    require_prime(p)
    if mode is Mode.FOLDED and modulus.base != "A":
        raise RingError("FOLDED mode requires an A-power modulus")
    return _residue_member(*e.to_gfp(p), modulus, mode)


def _residue_member(
    num: GfpLaurent, d_power: int, modulus: ModulusKind, mode: Mode
) -> tuple[bool, GfpLaurent]:
    """:func:`ideal_member` of num / d^d_power, already reduced mod p."""
    p = num.p
    if num.is_zero():
        return True, num
    if mode is Mode.FOLDED:
        if d_power:
            raise RingError("FOLDED mode requires a denominator-free element")
        m = modulus.power
        folded = GfpLaurent(p, [(exp % m, c) for exp, c in num.items()])
        return folded.is_zero(), folded
    f = _strip_unit_factors(modulus.gfp_poly(p))
    if f.max_exp() == 0:
        return True, GfpLaurent(p, {})
    _, r = gfp_divrem(num, f)
    return r.is_zero(), r


@dataclass(frozen=True)
class TestOutcome:
    test_id: str
    name: str
    modulus_printed: str
    modulus_localized: str
    mode_used: str
    verdict: Verdict
    witness: GfpLaurent | None = None

    def to_dict(self) -> dict:
        return {
            "test": self.test_id,
            "name": self.name,
            "modulus": self.modulus_printed,
            "modulus_localized": self.modulus_localized,
            "mode": self.mode_used,
            "verdict": self.verdict.value,
            "witness_terms": (
                [] if self.witness is None else [[c, e] for e, c in self.witness.items()]
            ),
        }


@dataclass(frozen=True)
class ObstructionReport:
    prime: int
    mode: str
    tests: tuple[TestOutcome, ...] = field(default_factory=tuple)

    def outcome(self, test_id: str) -> TestOutcome:
        for t in self.tests:
            if t.test_id == test_id:
                return t
        raise KeyError(test_id)

    def to_dict(self) -> dict:
        return {
            "prime": self.prime,
            "mode": self.mode,
            "tests": [t.to_dict() for t in self.tests],
        }


def _power_difference(
    yg: LocalizedElement, yquot: LocalizedElement, p: int
) -> tuple[GfpLaurent, int]:
    """``(yg - yquot**p).to_gfp(p)`` without the integer p-th power.

    Mod p, (sum a_i A^i)^p = sum a_i A^(ip), so the quotient's numerator is
    reduced first and then sent A -> A^p, over d^(kp) for its d-power k.
    Both sides are brought to d^max(g, kp), g the d-power of yg, in GF(p).
    This is the reduction of the integer difference, which the constructor
    puts in lowest terms first, unless a d cancels there.  None can when g
    != kp: the numerator with the larger d-power is prime to d, as a
    canonical numerator over a power of d, or the p-th power of one, is.  So
    g = kp > 0 takes the integer path, as do values with a cyclotomic factor
    other than d's, which ``to_gfp`` rejects.
    """
    g, kp = yg.d_power, yquot.d_power * p
    if yg.phi or yquot.phi or g == kp > 0:
        return (yg - yquot**p).to_gfp(p)
    num, _ = yg.to_gfp(p)
    quot, _ = yquot.to_gfp(p)
    quot = quot.frobenius()
    top = max(g, kp)
    if top:
        d = GfpLaurent.from_laurent(D_LAURENT, p)
        num = num * d ** (top - g)
        quot = quot * d ** (top - kp)
    return num - quot, top


def full_report(
    yg: LocalizedElement,
    yquot: LocalizedElement | None,
    p: int,
    mode: Mode = Mode.SATURATED,
) -> ObstructionReport:
    """Run every criterion of :data:`CRITERIA` and collect the verdicts.

    D-power moduli are always decided in SATURATED mode (FOLDED folding is
    only defined for A-power moduli); the per-test mode is recorded.  The
    quotient-power criteria are Skipped without a quotient.
    """
    require_prime(p)
    # both differences reduced mod p once, as (numerator, d-power)
    pal_diff = (yg - yg.invert_variable()).to_gfp(p)
    pow_diff = None if yquot is None else _power_difference(yg, yquot, p)
    entries: list[TestOutcome] = []
    # rows with the same difference and modulus (vertex-fixing and
    # periodicity-power) share one membership test
    decided: dict[tuple, tuple[bool, GfpLaurent]] = {}
    for c in CRITERIA:
        modulus = c.modulus(p)
        run_mode = mode if modulus.base == "A" else Mode.SATURATED
        diff = pow_diff if c.quotient_power else pal_diff
        if diff is None:
            verdict, witness = Verdict.SKIPPED, None
        else:
            key = (c.quotient_power, modulus, run_mode)
            if key not in decided:
                decided[key] = _residue_member(*diff, modulus, run_mode)
            member, witness = decided[key]
            verdict = Verdict.INCONCLUSIVE if member else Verdict.OBSTRUCTED
        entries.append(
            TestOutcome(
                c.test_id, c.name, c.printed(p), modulus.localized_str(),
                run_mode.value, verdict, witness,
            )
        )
    return ObstructionReport(p, mode.value, tuple(entries))
