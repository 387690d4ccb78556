"""Kauffman bracket evaluation and the Temperley-Lieb algebra.

The bracket of a link diagram is the 2^c state sum with smoothing weights
A / A^-1 and a factor d per circle, normalized so the empty diagram is 1.

tau_n is modeled on crossingless perfect matchings of 2n boundary points
(n bottom, n top); closed loops formed under stacking evaluate to d.
Projector coefficients live in the rational-function field because the
recursion needs inverses of d^2 - 1 and friends beyond the first projector.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .core import components, state_circle_counts
from .diagrams import GraphDiagram, InvalidDiagramError
from .rings import (
    D_LAURENT,
    RF_D,
    RF_ONE,
    LaurentPoly,
    RationalFunction,
    RingError,
)

# ---------------------------------------------------------------------------
# Kauffman bracket of a diagram
# ---------------------------------------------------------------------------


def bracket(g: GraphDiagram) -> LaurentPoly:
    """State-sum Kauffman bracket; requires a link diagram (no flat vertices)."""
    if g.vertices:
        raise InvalidDiagramError("bracket is defined on link diagrams (flat vertex present)")
    _, crossing_ends = g.end_ids()
    c = len(g.crossings)
    counts = state_circle_counts(len(g.arc_ends()), crossing_ends)
    # multiplicities of (B-smoothings, circle count); state mask has
    # A-exponent c - 2 * popcount(mask)
    weights = Counter(zip(map(int.bit_count, range(1 << c)), counts))
    total = LaurentPoly.zero()
    d_pows: dict[int, LaurentPoly] = {}
    for (b, circles), mult in sorted(weights.items()):
        dp = d_pows.get(circles)
        if dp is None:
            dp = D_LAURENT**circles
            d_pows[circles] = dp
        total = total + dp.scale(mult).shifted(c - 2 * b)
    if g.free_circles:
        total = total * D_LAURENT**g.free_circles
    return total


# ---------------------------------------------------------------------------
# Planar pairings
# ---------------------------------------------------------------------------


class PlanarPairing:
    """A crossingless perfect matching of 2n points: bottom 0..n-1 (left to
    right) and top n..2n-1 (left to right)."""

    __slots__ = ("n", "pairs")

    def __init__(self, n: int, pairs):
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        if len(norm) != n:
            raise ValueError(f"need exactly {n} arcs, got {len(norm)}")
        seen = [p for pair in norm for p in pair]
        if sorted(seen) != list(range(2 * n)):
            raise ValueError("pairs must partition the 2n boundary points")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", norm)
        if self._crosses():
            raise ValueError(f"pairing is not planar: {norm}")

    def __setattr__(self, *args):
        raise AttributeError("PlanarPairing is immutable")

    def _circ(self, p: int) -> int:
        # circular boundary position: bottom left-to-right, then top right-to-left
        return p if p < self.n else 3 * self.n - 1 - p

    def _crosses(self) -> bool:
        cpairs = [tuple(sorted((self._circ(a), self._circ(b)))) for a, b in self.pairs]
        for i in range(len(cpairs)):
            a, b = cpairs[i]
            for j in range(i + 1, len(cpairs)):
                c, d = cpairs[j]
                if (a < c < b < d) or (c < a < d < b):
                    return True
        return False

    @staticmethod
    def identity(n: int) -> "PlanarPairing":
        return PlanarPairing(n, [(i, n + i) for i in range(n)])

    @staticmethod
    def cup_cap(n: int, i: int) -> "PlanarPairing":
        """The generator U_i (1-indexed, 1 <= i <= n-1): bottom points i-1,i
        joined, top points i-1,i joined, all other strands vertical."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"U_{i} undefined in tau_{n}")
        pairs = [(i - 1, i), (n + i - 1, n + i)]
        for j in range(n):
            if j not in (i - 1, i):
                pairs.append((j, n + j))
        return PlanarPairing(n, pairs)

    def __eq__(self, other):
        if not isinstance(other, PlanarPairing):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __lt__(self, other: "PlanarPairing"):
        return (self.n, self.pairs) < (other.n, other.pairs)

    def __hash__(self):
        return hash((self.n, self.pairs))

    def __repr__(self):
        return f"PlanarPairing({self.n}, {list(self.pairs)})"


@lru_cache(maxsize=None)
def all_pairings(n: int) -> tuple[PlanarPairing, ...]:
    """All crossingless matchings of 2n points; there are Catalan(n) of them."""

    def gen(positions: tuple[int, ...]):
        if not positions:
            yield []
            return
        first = positions[0]
        for k in range(1, len(positions), 2):
            left = positions[1:k]
            right = positions[k + 1 :]
            for lp in gen(left):
                for rp in gen(right):
                    yield [(first, positions[k])] + lp + rp

    # circular boundary order, mapped back to point labels
    order = list(range(n)) + [n + j for j in range(n - 1, -1, -1)]
    out = []
    for combo in gen(tuple(range(2 * n))):
        pairs = [(order[a], order[b]) for a, b in combo]
        out.append(PlanarPairing(n, pairs))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Temperley-Lieb elements
# ---------------------------------------------------------------------------


class TangleElement:
    """A formal linear combination of planar pairings with rational-function
    coefficients.  The constructor sums repeated pairings and drops zeros."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[PlanarPairing, RationalFunction] = {}
        for pairing, coeff in items:
            if pairing.n != n:
                raise RingError("strand-count mismatch in TangleElement")
            if not coeff.is_zero():
                prev = acc.get(pairing)
                s = coeff if prev is None else prev + coeff
                if s.is_zero():
                    acc.pop(pairing, None)
                else:
                    acc[pairing] = s
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, *args):
        raise AttributeError("TangleElement is immutable")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "TangleElement":
        return TangleElement(n, [(PlanarPairing.identity(n), RF_ONE)])

    @staticmethod
    def generator(n: int, i: int) -> "TangleElement":
        return TangleElement(n, [(PlanarPairing.cup_cap(n, i), RF_ONE)])

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, pairing: PlanarPairing) -> RationalFunction:
        return self._terms.get(pairing, RationalFunction.from_int(0))

    def items(self):
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0]))

    def __len__(self):
        return len(self._terms)

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other: "TangleElement") -> "TangleElement":
        if not isinstance(other, TangleElement):
            return NotImplemented
        if self.n != other.n:
            raise RingError("strand-count mismatch")
        return TangleElement(self.n, [*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "TangleElement") -> "TangleElement":
        return self + (-other)

    def __neg__(self) -> "TangleElement":
        return TangleElement(self.n, {p: -c for p, c in self._terms.items()})

    def scale(self, c: RationalFunction) -> "TangleElement":
        if c.is_zero():
            return TangleElement(self.n)
        return TangleElement(self.n, {p: v * c for p, v in self._terms.items()})

    # -- multiplication -----------------------------------------------------------

    def __mul__(self, other: "TangleElement") -> "TangleElement":
        """Stack ``other`` atop ``self``; each closed loop contributes d."""
        if not isinstance(other, TangleElement):
            return NotImplemented
        if self.n != other.n:
            raise RingError("strand-count mismatch")
        terms = []
        for p1, c1 in self._terms.items():
            for p2, c2 in other._terms.items():
                pairing, loops = _compose(p1, p2)
                c = c1 * c2
                if loops:
                    c = c * RationalFunction.from_laurent(D_LAURENT**loops)
                terms.append((pairing, c))
        return TangleElement(self.n, terms)

    def __eq__(self, other):
        if not isinstance(other, TangleElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self._terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self._terms:
            return f"TangleElement({self.n}, 0)"
        bits = [f"({c}) * {p!r}" for p, c in self.items()]
        return " + ".join(bits)


def _compose(bottom: PlanarPairing, top: PlanarPairing) -> tuple[PlanarPairing, int]:
    """Glue bottom's top boundary to top's bottom boundary.

    Returns the resulting pairing on (bottom.bottom, top.top) and the number
    of closed loops formed in the middle.  Points 0..n-1 are the result
    bottom, n..2n-1 the result top and 2n..3n-1 the glued middle.  Each of
    the n components holding boundary points is an arc of the result, and
    its least point is one end of it; the other components are loops.
    """
    n = bottom.n
    glued = [(a if a < n else a + n, b if b < n else b + n) for a, b in bottom.pairs]
    glued += [(a + 2 * n if a < n else a, b + 2 * n if b < n else b) for a, b in top.pairs]
    count, least = components(3 * n, glued)
    return PlanarPairing(n, [(least[x], x) for x in range(2 * n) if least[x] != x]), count - n


# ---------------------------------------------------------------------------
# Jones-Wenzl projectors and the trace
# ---------------------------------------------------------------------------


def add_strand(elem: TangleElement) -> TangleElement:
    """Include tau_n into tau_{n+1} by a vertical strand on the right."""
    n = elem.n
    out: dict[PlanarPairing, RationalFunction] = {}
    for pairing, c in elem._terms.items():
        pairs = [
            (
                a if a < n else a + 1,
                b if b < n else b + 1,
            )
            for a, b in pairing.pairs
        ]
        pairs.append((n, 2 * n + 1))
        out[PlanarPairing(n + 1, pairs)] = c
    return TangleElement(n + 1, out)


def jones_wenzl(n: int) -> TangleElement:
    """The projector on n strands via the Wenzl recursion.

    p(1) is the single strand; p(k+1) = p(k) - mu_k p(k) U_k p(k) with
    mu_1 = 1/d and mu_{k+1} = 1/(d - mu_k).  For n=2 this is 1 - (1/d) U_1.
    """
    if n < 1:
        raise ValueError("jones_wenzl needs n >= 1")
    return _jones_wenzl_cached(n)


@lru_cache(maxsize=None)
def _jones_wenzl_cached(n: int) -> TangleElement:
    proj = TangleElement.identity(1)
    mu: RationalFunction | None = None
    for k in range(1, n):
        proj = add_strand(proj)
        mu = RF_ONE / RF_D if mu is None else (RF_D - mu).inverse()
        cup = TangleElement.generator(k + 1, k)
        proj = proj - (proj * cup * proj).scale(mu)
    return proj


def markov_trace(elem: TangleElement) -> RationalFunction:
    """Close the tangle around the side (bottom i to top i); each closed loop
    is worth d."""
    n = elem.n
    total = RationalFunction.from_int(0)
    closure = [(i, n + i) for i in range(n)]
    for pairing, c in elem._terms.items():
        comps, _ = components(2 * n, list(pairing.pairs) + closure)
        total = total + c * RationalFunction.from_laurent(D_LAURENT**comps)
    return total


def chebyshev_delta(n: int) -> RationalFunction:
    """Delta_n with Delta_0 = 1, Delta_1 = d, Delta_{n+1} = d Delta_n - Delta_{n-1}."""
    if n < 0:
        raise ValueError("negative index")
    prev, cur = RF_ONE, RF_D
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, RF_D * cur - prev
    return cur
