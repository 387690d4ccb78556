"""Congruence obstructions to order-p symmetry of spatial graphs.

Each test reduces a difference of Yamada values modulo a prime p and a
modulus polynomial, in one of two membership modes:

* SATURATED (default): ideal membership in the localized ring
  GF(p)[A^{+-1}, d^{-1}].  The modulus is expanded into a polynomial in A;
  factors shared with A^4 + 1 (the numerator of d, a unit) are stripped by
  repeated gcd division, and membership is plain divisibility.
* FOLDED: exponent folding modulo an A-power modulus on denominator-free
  inputs, the literal finite quotient-ring computation.

The five criteria are the rows of ``CRITERIA``; ``full_report`` runs them
all and the ``check_*`` functions run them one at a time.  Moduli stated as
d^{2p} - d^2 and d^p - d are used in their localized forms d^{2p-2} - 1 and
d^{p-1} - 1 (d is a unit).  A failed congruence means the symmetry is
Obstructed; a passing one is only ever Inconclusive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .rings import (
    D_LAURENT,
    GfpLaurent,
    LocalizedElement,
    RingError,
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

    # constructor helpers for the five theorem moduli
    @staticmethod
    def free_symmetry(p: int) -> "ModulusKind":
        return ModulusKind("D", 2 * p - 2)  # localized form of d^{2p} - d^2

    @staticmethod
    def vertex_fixing(p: int) -> "ModulusKind":
        return ModulusKind("D", p - 1)

    @staticmethod
    def palindrome(p: int) -> "ModulusKind":
        return ModulusKind("A", 8 * p)

    @staticmethod
    def periodic_power(p: int) -> "ModulusKind":
        return ModulusKind("D", p - 1)  # localized form of d^p - d

    @staticmethod
    def periodic_palindrome(p: int) -> "ModulusKind":
        return ModulusKind("A", 2 * p)

    def localized_str(self) -> str:
        return f"{'A' if self.base == 'A' else 'd'}^{self.power} - 1"

    def gfp_poly(self, p: int) -> GfpLaurent:
        if self.base == "A":
            return GfpLaurent(p, {self.power: 1, 0: -1})
        poly = D_LAURENT**self.power - D_LAURENT**0
        return GfpLaurent.from_laurent(poly, p)


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
              lambda p: f"d^{2 * p} - d^2", ModulusKind.free_symmetry, True),
    Criterion("vertex-fixing", "vertex-fixing order-p symmetry (quotient power)",
              lambda p: f"d^{p - 1} - 1", ModulusKind.vertex_fixing, True),
    Criterion("palindrome", "order-p symmetry (palindromy in A)",
              lambda p: f"A^{8 * p} - 1", ModulusKind.palindrome, False),
    Criterion("periodicity-power", "p-periodicity (quotient power, earlier criterion)",
              lambda p: f"d^{p} - d", ModulusKind.periodic_power, True),
    Criterion("periodicity-palindrome", "p-periodicity (palindromy, earlier criterion)",
              lambda p: f"A^{2 * p} - 1", ModulusKind.periodic_palindrome, False),
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
        f = q.shifted(-q.min_exp())


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
    num, d_power = e.to_gfp(p)
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
                [[c, e] for e, c in self.witness.items()] if self.witness else []
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


def _run(
    diff: LocalizedElement, p: int, modulus: ModulusKind, mode: Mode
) -> tuple[Verdict, GfpLaurent]:
    member, witness = ideal_member(diff, p, modulus, mode)
    return (Verdict.INCONCLUSIVE if member else Verdict.OBSTRUCTED), witness


def check_palindrome(
    yg: LocalizedElement, p: int, mode: Mode = Mode.SATURATED
) -> tuple[Verdict, GfpLaurent]:
    """Necessary condition for any order-p symmetry: the value is congruent
    to its A -> A^-1 image modulo (p, A^{8p} - 1)."""
    diff = yg - yg.invert_variable()
    return _run(diff, p, ModulusKind.palindrome(p), mode)


def check_free_symmetry(
    yg: LocalizedElement, yquot: LocalizedElement, p: int, mode: Mode = Mode.SATURATED
) -> tuple[Verdict, GfpLaurent]:
    """Fixed-point-free order-p symmetry: value congruent to the p-th power
    of the quotient value modulo (p, d^{2p} - d^2)."""
    diff = yg - yquot**p
    return _run(diff, p, ModulusKind.free_symmetry(p), mode)


def check_vertex_fixing(
    yg: LocalizedElement, yquot: LocalizedElement, p: int, mode: Mode = Mode.SATURATED
) -> tuple[Verdict, GfpLaurent]:
    """Vertex-fixing order-p symmetry: same congruence modulo (p, d^{p-1} - 1)."""
    diff = yg - yquot**p
    return _run(diff, p, ModulusKind.vertex_fixing(p), mode)


def check_periodic_link_style(
    yg: LocalizedElement,
    yquot: LocalizedElement | None,
    p: int,
    mode: Mode = Mode.SATURATED,
) -> tuple[Verdict | None, Verdict]:
    """The earlier periodicity tests: quotient power modulo (p, d^p - d) and
    palindromy modulo (p, A^{2p} - 1).  The first requires a quotient input
    and is reported as None (Skipped) without one.

    Both halves run in ``mode``.  The d^p - d half is undefined in FOLDED
    mode, so with a quotient FOLDED raises ``RingError``; ``full_report``
    decides that criterion in SATURATED mode.  Unlike the other ``check_*``
    functions this one returns verdicts without witnesses.
    """
    va = None
    if yquot is not None:
        va, _ = _run(yg - yquot**p, p, ModulusKind.periodic_power(p), mode)
    vb, _ = _run(yg - yg.invert_variable(), p, ModulusKind.periodic_palindrome(p), mode)
    return va, vb


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
    pal_diff = yg - yg.invert_variable()
    pow_diff = None if yquot is None else yg - yquot**p
    entries: list[TestOutcome] = []
    for c in CRITERIA:
        modulus = c.modulus(p)
        run_mode = mode if modulus.base == "A" else Mode.SATURATED
        diff = pow_diff if c.quotient_power else pal_diff
        verdict, witness = (
            (Verdict.SKIPPED, None) if diff is None else _run(diff, p, modulus, run_mode)
        )
        entries.append(
            TestOutcome(
                c.test_id, c.name, c.printed(p), modulus.localized_str(),
                run_mode.value, verdict, witness,
            )
        )
    return ObstructionReport(p, mode.value, tuple(entries))
