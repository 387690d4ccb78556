"""Kauffman bracket evaluation and the Temperley-Lieb algebra.

The bracket of a link diagram is the 2^c state sum with smoothing weights
A / A^-1 and a factor d per circle, normalized so the empty diagram is 1.
It is summed Kronecker-packed and read back by the frontier sweep's reader.

tau_n is modeled on crossingless perfect matchings of 2n boundary points
(n bottom, n top); closed loops formed under stacking evaluate to d.
Projector coefficients need inverses of d^2 - 1 and the other quantum
integers, so they live in Z[A^{+-1}] localized at the cyclotomic polynomials.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .core import _read_digits, components, state_circle_counts
from .diagrams import GraphDiagram, InvalidDiagramError
from .rings import D, D_LAURENT, ONE, ZERO, LaurentPoly, LocalizedElement, RingError

# ---------------------------------------------------------------------------
# Kauffman bracket of a diagram
# ---------------------------------------------------------------------------

#: most crossings ``bracket`` expands: its circle counter holds two bytes per
#: state, so 2^26 states peak at 128 MiB (tracemalloc, T(2, 26))
MAX_BRACKET_CROSSINGS = 26


def bracket(g: GraphDiagram) -> LaurentPoly:
    """State-sum Kauffman bracket; requires a link diagram (no flat vertices).

    One :func:`state_circle_counts` call counts the circles of all 2^c
    states, and :func:`bracket_sums` values them.  A diagram of more than
    MAX_BRACKET_CROSSINGS crossings raises InvalidDiagramError, which
    states its 2^c states.
    """
    if g.vertices:
        raise InvalidDiagramError("bracket is defined on link diagrams (flat vertex present)")
    c = len(g.crossings)
    if c > MAX_BRACKET_CROSSINGS:
        raise InvalidDiagramError(
            f"bracket would count 2^{c} = {1 << c} smoothing states; "
            f"the limit is {MAX_BRACKET_CROSSINGS} crossings"
        )
    _, crossing_ends = g.end_ids()
    counts = state_circle_counts(g.num_arcs, crossing_ends)
    return bracket_sums(counts, g.num_arcs, c, g.free_circles)


def bracket_sums(counts: bytes, n_arcs: int, c: int, free: int) -> LaurentPoly:
    """The bracket state sum of a vertexless diagram of ``n_arcs`` arcs and
    ``c`` crossings from its circle counts, as :func:`state_circle_counts`
    returns them, with ``free`` more circles in every state.

    A state with b B-smoothings and n circles, ``free`` included, weighs
    A^(c - 2b) d^n = (-1)^n A^-c u^(c - b - n) (u^2 + 1)^n, u = A^2.  The
    sum is taken at u = 2^K (Kronecker substitution), so that each weight,
    times u^m for m the most circles of any state, is one integer whose
    signed base-2^K digits are the A-coefficients.  The 2^c states have
    coefficients of absolute sum at most 2^(c + m), so K = c + m + 2 keeps
    every digit of every partial sum below 2^(K-1) in absolute value, and
    the digits of the total read back exactly.

    With k = c // 2 and the state bits ``hi * 2^k + lo``, ``lo`` holding
    crossings k-1 .. 0, the 2^k counts sharing ``hi`` form one contiguous
    block.  The pairs (B-smoothings of ``hi``, block) are counted, and each
    block is valued from its two halves: the states of the first half have
    the top bit of ``lo`` A-smoothed, one B-smoothing fewer than those of
    the second, so they weigh u times more.  Values are kept per distinct byte string, and
    :func:`state_circle_counts` copies repeated blocks at every level, so a
    half shared by many blocks is valued once.  Each value held has at most
    (k + 2m + 1)K bits, one per distinct string of at most 2^k counts.
    """
    k = c // 2
    size = 1 << k
    # the most circles of any state: a scan per candidate count, in C
    most = next(n for n in range(n_arcs, -1, -1) if n in counts) + free
    width = c + most + 2
    u2_plus_1 = (1 << 2 * width) + 1
    values: dict[bytes, int] = {}

    def value(block: bytes) -> int:
        # the sum over the block's states, with lo_b B-smoothings among its
        # j crossings and n circles, of (-1)^n u^(j - lo_b + most - n)
        # (u^2 + 1)^n
        v = values.get(block)
        if v is None:
            half = len(block) >> 1
            if half:
                v = (value(block[:half]) << width) + value(block[half:])
            else:
                n = block[0] + free
                v = u2_plus_1**n << width * (most - n)
                if n & 1:
                    v = -v
            values[block] = v
        return v

    blocks = (counts[i : i + size] for i in range(0, len(counts), size))
    pairs = Counter(zip(map(int.bit_count, range(1 << (c - k))), blocks))
    total = sum(
        mult * value(block) << width * (c - k - hi_b) for (hi_b, block), mult in pairs.items()
    )
    # value refers to itself through its closure cell; unbinding it frees
    # the cycle, and the values with it, now
    value = None
    return _read_digits(total, width, -c - 2 * most)


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
    """A formal linear combination of planar pairings with coefficients in
    the localized ring.  The constructor sums repeated pairings and drops zeros."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[PlanarPairing, LocalizedElement] = {}
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
        return TangleElement(n, [(PlanarPairing.identity(n), ONE)])

    @staticmethod
    def generator(n: int, i: int) -> "TangleElement":
        return TangleElement(n, [(PlanarPairing.cup_cap(n, i), ONE)])

    # -- queries -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, pairing: PlanarPairing) -> LocalizedElement:
        return self._terms.get(pairing, ZERO)

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

    def scale(self, c: LocalizedElement) -> "TangleElement":
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
        sums: dict[PlanarPairing, list] = {}
        for p1, c1 in self._terms.items():
            for p2, c2 in other._terms.items():
                pairing, loops = _compose(p1, p2)
                sums.setdefault(pairing, []).append((D_LAURENT**loops, (c1, c2)))
        return TangleElement(
            self.n, {p: LocalizedElement.sum_of_products(t) for p, t in sums.items()}
        )

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
    out: dict[PlanarPairing, LocalizedElement] = {}
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


@lru_cache(maxsize=None)
def jones_wenzl(n: int) -> TangleElement:
    """The projector on n strands via the Wenzl recursion, cached per n
    (an n below 1 raises ValueError, which is not cached).

    p(1) is the single strand; p(k+1) = p(k) - mu_k p(k) U_k p(k) with
    mu_1 = 1/d and mu_{k+1} = 1/(d - mu_k).  For n=2 this is 1 - (1/d) U_1.
    """
    if n < 1:
        raise ValueError("jones_wenzl needs n >= 1")
    proj = TangleElement.identity(1)
    mu: LocalizedElement | None = None
    for k in range(1, n):
        proj = add_strand(proj)
        mu = ONE / D if mu is None else (D - mu).inverse()
        cup = TangleElement.generator(k + 1, k)
        proj = proj - (proj * cup * proj).scale(mu)
    return proj


def markov_trace(elem: TangleElement) -> LocalizedElement:
    """Close the tangle around the side (bottom i to top i); each closed loop
    is worth d."""
    n = elem.n
    closure = [(i, n + i) for i in range(n)]
    terms = []
    for pairing, c in elem._terms.items():
        comps, _ = components(2 * n, list(pairing.pairs) + closure)
        terms.append((D_LAURENT**comps, (c,)))
    return LocalizedElement.sum_of_products(terms)


def chebyshev_delta(n: int) -> LocalizedElement:
    """Delta_n with Delta_0 = 1, Delta_1 = d, Delta_{n+1} = d Delta_n - Delta_{n-1}."""
    if n < 0:
        raise ValueError("negative index")
    prev, cur = ONE, D
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, D * cur - prev
    return cur
