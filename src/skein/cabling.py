"""The edge-doubling homomorphism from graph diagrams to link diagrams.

Every edge of the input is replaced by a 2-cable carrying the 2-strand
projector (identity minus 1/d times a turnback), every degree-n vertex by
an n-gon of arcs joining adjacent cable strands, and every crossing by the
2x2 grid of cable crossings.  Expanding the projector choice per edge gives
2^|E| weighted vertexless diagrams.  The plane evaluation sums their
weighted Kauffman brackets without calling the bracket (see below); the
punctured-disk evaluation classifies the resulting circles by their
winding parities around the holes.

Conventions: at every vertex or crossing slot the two cable ends of an arc
are ordered counterclockwise ("first", "second"); along an arc the strand
that is ccw-first at one end is ccw-second at the other.

Where the work is done.  :class:`_Strands` builds the cable's open strands
once per call.  :func:`cable` builds each of the 2^|E| terms by joining
the turnback arcs into a fresh copy of them, except on crossingless,
unwound input, where the bracket kernel
:func:`skein.core.state_circle_counts` counts the circles of all choices
at once, as the smoothings of one vertexless diagram
(:meth:`_Strands.smoothing_diagram`).  :func:`phi_plane` on input with
crossings builds no term: it evaluates the same diagram, cable crossings
included, by one frontier sweep (:func:`skein.core.frontier_sweep`).  Each
function's docstring describes its path.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping

from .core import SweepBudgetError, frontier_sweep, state_circle_counts
from .diagrams import GraphDiagram, InvalidDiagramError
from .polyxyz import PolyXYZ
from .rings import LaurentPoly, LocalizedElement, _to_localized

# unused here, but skeinbench/tracing.py rebinds this name in this module
from .tl import bracket  # noqa: F401

#: winding contribution of each ray token: (around hole 1, around hole 2)
_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}

#: most edge classes and free circles ``cable`` expands: 2^20 terms.  A
#: crossingless expansion holds about 10 bytes per term (tracemalloc peak of
#: the 3x4 grid with 3 free circles, 2^20 terms: 10.3 MiB)
MAX_CABLED_CLASSES = 20

#: most cable crossings, summed over its terms, that ``cable`` builds on
#: input with crossings: each term holds its own diagram, 158 to 332 bytes
#: per cable crossing (tracemalloc peaks of seeded twisted K4s with free
#: circles, from 16 input crossings per term down to 1), so at most about
#: 21 MiB at this limit
MAX_CABLED_CROSSINGS = 1 << 16

#: the ``bytes.translate`` table that adds 1 to every byte
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


def _pack(w1: int, w2: int) -> int:
    """A winding as one int, so that windings add and negate as ints.
    :func:`_unpack` inverts it while |w1| < 2^31; a circle winds at most
    twice the number of ray tokens of the diagram."""
    return w1 + (w2 << 32)


def _unpack(w: int) -> tuple[int, int]:
    w2 = (w + (1 << 31)) >> 32
    return w - (w2 << 32), w2


@dataclass(frozen=True)
class MulticurveMonomial:
    """Classification of one expansion term's circles in the 2-holed disk."""

    x_power: int  # circles around hole 1 only
    y_power: int  # circles around hole 2 only
    z_power: int  # circles around both holes
    contractible: int  # circles around neither hole (each worth d)


@dataclass(frozen=True, eq=False)
class CabledTerm:
    """A weighted vertexless diagram of a cable expansion.  Terms compare and
    hash by identity: ``cable`` shares one object among equal crossingless terms."""

    coeff: LocalizedElement
    diagram: GraphDiagram  # vertexless; free_circles counts the closed cycles
    # sorted; each circle's winding unoriented, the larger of w and -w
    cycle_windings: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CabledExpansion:
    edge_count: int
    terms: tuple[CabledTerm, ...]


def cable(g: GraphDiagram, insertion: Mapping[int, int] | None = None) -> CabledExpansion:
    """Expand the 2-cable of ``g`` with one projector per edge.

    Terms come in mask order: bit k of the mask picks the turnback on the
    k-th edge class (then on each free circle), and the term's coefficient
    is (-1/d)^popcount(mask), built directly in its canonical form
    (-1)^t / d^t.  A term lists the windings of its circles as
    an unordered, unoriented multiset: each circle's winding is the larger
    of (w1, w2) and (-w1, -w2), and the list is sorted.

    Both paths first join the arcs that never carry a turnback straight
    (see :class:`_Strands`).  Each open strand end then holds its far end
    and its winding.

    With crossings, or when some arc winds, each term starts from a copy
    of those strands and places every turnback arc by its bit of the mask
    (:meth:`_Strands.place`), so a term costs one copy of the strands and
    two joins per turnback arc.  The bits above the edge classes are the
    free circles: straight, one cables to 2 circles, under its turnback
    to 1.  The term numbers its chains by first anchor from the far ends.

    Without crossings and without winding, every circle winds (0, 0), so a
    term is given by its (turnbacks, circles).  The choices are then the
    smoothings of the vertexless diagram of :meth:`_Strands.smoothing_diagram`
    with one projector crossing per edge class and free circle, and
    :func:`skein.core.state_circle_counts` counts the circles of all states
    at once, reusing repeated blocks as it does for the bracket; cable mask
    m is state mask ``full ^ m``, so the counts are read reversed.  The
    turnbacks per mask are one byte each too, and one pass looks each term
    up in the row of its turnback count, a dict keyed by circle count (see
    :class:`_Row`), with no tuple key built per term.

    Terms without crossings are shared: equal (coefficient, windings) give
    one immutable term object and equal windings one diagram, so ``terms``
    has 2^|E| entries but, on a flat diagram, only as many distinct objects
    as (turnbacks, windings) pairs.  Terms with crossings get one object
    and one diagram each, so memory grows as 2^|E| times the crossings of
    the input.  More than MAX_CABLED_CLASSES edge classes and free circles
    raise InvalidDiagramError, which states the 2^|E| terms, and so does
    input with crossings whose terms would hold more than
    MAX_CABLED_CROSSINGS (2^16) cable crossings in all, at most about 21
    MiB: ``cable(petersen_diagram)``, 2^15 terms of 20 cable crossings
    each, is refused.  Both checks come before any term or kernel call.

    ``insertion`` optionally moves the turnback of an edge class: it maps
    the least arc label of the class to the arc of that class that carries
    the turnback (by default the least arc itself).  On a diagram with
    crossings the move slides the projector through cable crossings and
    changes the terms but not their evaluation; ``skein verify`` checks
    that.  A key that is not the least arc of an edge class, or an arc
    outside the key's class, raises ``InvalidDiagramError``.
    """
    strands = _Strands(g, insertion)
    closed = strands.closed
    n_classes = len(strands.turn_arcs) + g.free_circles
    if n_classes > MAX_CABLED_CLASSES:
        raise InvalidDiagramError(
            f"cable would expand 2^{n_classes} = {1 << n_classes} projector terms; "
            f"the limit is {MAX_CABLED_CLASSES} edge classes and free circles"
        )
    n_cabled = (4 * len(g.crossings)) << n_classes
    if n_cabled > MAX_CABLED_CROSSINGS:
        raise InvalidDiagramError(
            f"cable would build 2^{n_classes} terms of {4 * len(g.crossings)} cable crossings, "
            f"{n_cabled} in all; the limit is {MAX_CABLED_CROSSINGS}"
        )
    coeffs = _turnback_coeffs(n_classes)
    # crossingless terms, one per (turnbacks, windings), and their diagrams,
    # one per winding list
    shared_terms: dict[tuple[int, tuple], CabledTerm] = {}
    shared_diagrams: dict[tuple, GraphDiagram] = {}

    def shared_term(turned: int, windings: tuple) -> CabledTerm:
        term = shared_terms.get((turned, windings))
        if term is None:
            diagram = shared_diagrams.get(windings)
            if diagram is None:
                diagram = shared_diagrams[windings] = GraphDiagram([], [], len(windings))
            term = shared_terms[turned, windings] = CabledTerm(coeffs[turned], diagram, windings)
        return term

    if not g.crossings and not any(strands.arc_wind):
        n_arcs, crossings, _, loops = strands.smoothing_diagram(g.free_circles)
        # per cable mask m: its circles, those of state mask full ^ m, and
        # its turnbacks, popcount(m), as bytes
        circles = state_circle_counts(n_arcs, crossings)[::-1]
        turnbacks = b"\0"
        for _ in range(n_classes):
            turnbacks += turnbacks.translate(_PLUS_ONE)
        # one row of terms per turnback count, by circle count; the circles
        # closed by the straight arcs are in every term
        rows = [_Row(shared_term, t, loops) for t in range(n_classes + 1)]
        return CabledExpansion(
            n_classes, tuple(map(dict.__getitem__, map(rows.__getitem__, turnbacks), circles))
        )

    # each term joins the turnback arcs into a copy of the strands; its
    # chains run anchor to anchor and are numbered by first anchor
    n_junctions = strands.n_junctions
    n_turn = len(strands.turn_arcs)
    start = strands.far, strands.wind, closed
    anchors = [n for seg in strands.static for n in seg if n >= n_junctions]
    terms: list[CabledTerm] = []
    for mask in range(1 << n_classes):
        strands.far, strands.wind, strands.closed = (x[:] for x in start)
        for bit, arc in enumerate(strands.turn_arcs):
            strands.place(arc, mask >> bit & 1)
        free = 2 * g.free_circles - (mask >> n_turn).bit_count()
        # (0, 0) is the least unoriented winding, so this is sorted
        windings = ((0, 0),) * free + tuple(sorted(strands.closed))
        turned = mask.bit_count()
        if not anchors:
            terms.append(shared_term(turned, windings))
            continue
        far = strands.far
        chain = [-1] * (len(far) - n_junctions)
        n_chains = 0
        for x in anchors:
            if chain[x - n_junctions] < 0:
                chain[x - n_junctions] = chain[far[x] - n_junctions] = n_chains
                n_chains += 1
        crossings = [chain[k : k + 4] for k in range(0, len(chain), 4)]
        diagram = GraphDiagram([], crossings, len(windings))
        terms.append(CabledTerm(coeffs[turned], diagram, windings))
    return CabledExpansion(n_classes, tuple(terms))


class _Strands:
    """The open strands of the 2-cable of ``g``: the vertex polygons and
    crossing grids, with every arc that never carries a turnback joined
    straight.  ``place`` joins a turnback arc by the projector term a
    choice picks for it.

    Node ids.  Cable end s (0 = ccw-first, 1 = ccw-second) at the arc end
    with end id e (from end_ids()) is 2e + s, so arc i owns the four
    junctions 4i..4i+3, and a straight strand joins n to n ^ 3, a turnback
    n to n ^ 1.  Above them, crossing ci has the 16 anchors n_junctions +
    16ci + 4grid + side, grids ordered NW, NE, SW, SE and sides W, S, E, N:
    each run of 4 anchors is one cable crossing's slots.

    The open strands are kept at their ends as in
    :func:`skein.core.state_circle_counts`: ``far[x]`` is the strand's other
    end and ``wind[x]`` the strand's winding walked from x (packed, see
    :func:`_pack`), so ``wind[far[x]] == -wind[x]``, and a join keeps both.
    ``closed`` holds the unoriented winding of each closed circle.
    """

    __slots__ = ("turn_arcs", "arc_wind", "n_junctions", "static", "far", "wind", "closed")

    def __init__(self, g: GraphDiagram, insertion: Mapping[int, int] | None) -> None:
        for vi, slots in enumerate(g.vertices):
            if len(slots) == 0:
                raise InvalidDiagramError(f"vertex {vi} is isolated; cabling undefined")
        arcs = g.arcs
        classes = g.edge_classes()
        self.turn_arcs = [bisect_left(arcs, a) for a in _turnback_arcs(classes, insertion)]
        self.n_junctions = n_junctions = 4 * g.num_arcs
        vertex_ids, crossing_ids = g.end_ids()
        static: list[tuple[int, int]] = []  # vertex polygons and crossing grids
        for ids in vertex_ids:
            k = len(ids)
            for i in range(k):
                static.append((2 * ids[i] + 1, 2 * ids[(i + 1) % k]))
        for ci, (e0, e1, e2, e3) in enumerate(crossing_ids):
            # vertical (over) cable at slots 2 and 4 of each grid crossing
            nw, ne, sw, se = (n_junctions + 16 * ci + 4 * grid for grid in range(4))
            static += [
                (2 * e0, nw), (nw + 2, ne), (ne + 2, 2 * e2 + 1),
                (2 * e0 + 1, sw), (sw + 2, se), (se + 2, 2 * e2),
                (2 * e1, sw + 1), (sw + 3, nw + 1), (nw + 3, 2 * e3 + 1),
                (2 * e1 + 1, se + 1), (se + 3, ne + 1), (ne + 3, 2 * e3),
            ]
        self.static = static
        n_nodes = n_junctions + 16 * len(crossing_ids)
        # at first every static segment is a strand
        self.far = far = [0] * n_nodes
        self.wind = [0] * n_nodes
        for u, v in static:
            far[u], far[v] = v, u
        # winding of a straight strand walked from end 0 to end 1 of its arc;
        # a turnback strand reads w + reverse(w) and winds nowhere
        self.arc_wind = arc_wind = [0] * g.num_arcs
        for a, word in g.ray_words.items():
            arc_wind[bisect_left(arcs, a)] = sum(_pack(*_TOKEN_WINDING[t]) for t in word)
        self.closed: list[tuple[int, int]] = []
        turned_arc = set(self.turn_arcs)
        for i in range(g.num_arcs):
            if i not in turned_arc:
                self.place(i, 0)

    def join(self, p: int, q: int, w: int) -> None:
        """Join the strands at ends p and q by a cable strand that winds w
        from p to q."""
        far, wind = self.far, self.wind
        a = far[p]
        if a == q:
            w1, w2 = _unpack(w + wind[q])
            self.closed.append(max((w1, w2), (-w1, -w2)))
            return
        b = far[q]
        far[a] = b
        far[b] = a
        w = wind[a] + w + wind[q]
        wind[a] = w
        wind[b] = -w

    def place(self, arc: int, turn: int) -> None:
        """Join the four junctions of ``arc`` by its turnback (``turn`` = 1)
        or by its two straight strands."""
        n = 4 * arc
        if turn:
            self.join(n, n + 1, 0)
            self.join(n + 2, n + 3, 0)
        else:
            w = self.arc_wind[arc]
            self.join(n, n + 3, w)
            self.join(n + 1, n + 2, w)

    def smoothing_diagram(self, free_circles: int) -> tuple[int, list[tuple], int, int]:
        """The open strands as a vertexless diagram, in the arguments of
        :func:`skein.core.frontier_sweep`: its number of arcs, its crossings
        in the arc-end ids of :func:`skein.core.state_circle_counts`, how
        many of them are cable crossings, and the circles already closed.
        The crossings are the cable crossings, then every turnback arc, each
        a crossing on its junctions n .. n + 3 in order, so that its
        A-smoothing is the turnback and its B-smoothing the straight pair,
        then ``free_circles`` free circles.
        A free circle is a crossing on two fresh strands (a0, a1) and (b0,
        b1) as (a0, b0, b1, a1): straight closes two circles and the
        turnback one.  Strand k has the ends 2k and 2k + 1, numbered by
        first node in crossing order."""
        far = self.far
        quads = [range(n, n + 4) for n in range(self.n_junctions, len(far), 4)]
        n_cable = len(quads)
        quads += [range(4 * a, 4 * a + 4) for a in self.turn_arcs]
        end_id: dict[int, int] = {}
        for quad in quads:
            for n in quad:
                if n not in end_id:
                    end_id[n] = len(end_id)
                    end_id[far[n]] = len(end_id)
        crossings = [tuple(map(end_id.__getitem__, quad)) for quad in quads]
        fresh = len(end_id)
        ends = fresh + 4 * free_circles
        crossings += [(e, e + 2, e + 3, e + 1) for e in range(fresh, ends, 4)]
        return ends // 2, crossings, n_cable, len(self.closed)


def _turnback_coeffs(n: int) -> list[LocalizedElement]:
    """(-1/d)^t for t = 0 .. n, each built as its canonical form (-1)^t / d^t."""
    return [
        LocalizedElement._canonical(LaurentPoly.from_int((-1) ** t), t, ()) for t in range(n + 1)
    ]


class _Row(dict):
    """The shared crossingless terms of ``turned`` turnbacks by circle
    count: a missing count c is filled with ``make(turned, windings)``, c
    plus ``closed`` circles winding (0, 0), so the terms take one pass of
    lookups and each distinct (turnbacks, circles) pair one call."""

    __slots__ = ("make", "turned", "closed")

    def __init__(self, make: Callable[[int, tuple], CabledTerm], turned: int, closed: int) -> None:
        super().__init__()
        self.make = make
        self.turned = turned
        self.closed = closed

    def __missing__(self, circles: int) -> CabledTerm:
        value = self[circles] = self.make(self.turned, ((0, 0),) * (circles + self.closed))
        return value


def _turnback_arcs(
    classes: list[list[int]], insertion: Mapping[int, int] | None
) -> list[int]:
    """The arc of each edge class that carries its turnback: the least arc
    unless ``insertion`` moves it."""
    class_of = {cls[0]: cls for cls in classes}
    arcs = {root: root for root in class_of}
    for root, arc in (insertion or {}).items():
        if root not in class_of:
            raise InvalidDiagramError(
                f"insertion key {root} is not the least arc of an edge class"
            )
        if arc not in class_of[root]:
            raise InvalidDiagramError(f"turnback arc {arc} not in edge class of {root}")
        arcs[root] = arc
    return [arcs[cls[0]] for cls in classes]


def phi_plane(
    g: GraphDiagram, insertion: Mapping[int, int] | None = None
) -> LocalizedElement:
    """Cabled evaluation in the plane: weighted sum of Kauffman brackets,
    phi = sum over cable terms of (-1/d)^turnbacks * bracket(term).

    The path is picked from ``g.crossings``.  Without crossings every term
    is crossingless, and ``cable`` already counts the circles of all terms
    in one kernel call over the projector crossings alone.  Its terms are
    tallied per distinct term object (terms compare by identity, and
    ``cable`` shares one object among equal crossingless terms), counted
    per (turnbacks, circles) and summed as one d-polynomial (see
    :func:`_d_polynomial`).

    With crossings no term diagram is built and ``bracket`` is not called.
    The whole cable is one vertexless smoothing diagram
    (:meth:`_Strands.smoothing_diagram`): its arcs are the open strands,
    its first C = 4c crossings the cable crossings and the others one
    projector crossing per edge class and free circle, P in all, whose
    A-smoothing is the turnback.  As (-1/d)^t = (-1)^t d^(P - t) / d^P,

        phi = (1/d^P) * sum over states of A^(#A - #B) (-1)^turnbacks
              d^(straight pairs + circles),

    the circles closed by the straight arcs included, and one
    :func:`skein.core.frontier_sweep` sums it, taking the crossings in a
    greedy order, so the cost follows the live states of the sweep (260 at
    most on ``petersen_diagram``), not the 2^(C + P) states.  A sweep past
    its budget of 2^14 live states raises InvalidDiagramError, which states
    the count; the sweep's docstring bounds the memory by the budget.

    ``insertion`` places the projector of an edge class on the inserted
    arc, as in ``cable``.
    """
    if g.has_rays():
        raise InvalidDiagramError("phi_plane needs a plane diagram (found ray words)")
    if g.crossings:
        return _phi_crossed(g, insertion)
    counts: dict[tuple[int, int], int] = {}
    for term, mult in Counter(cable(g, insertion).terms).items():
        key = (term.coeff.d_power, term.diagram.free_circles)
        counts[key] = counts.get(key, 0) + mult
    return _d_polynomial(counts)


def _phi_crossed(g: GraphDiagram, insertion: Mapping[int, int] | None) -> LocalizedElement:
    """``phi_plane`` of a diagram with crossings."""
    n_arcs, crossings, n_cable, loops = _Strands(g, insertion).smoothing_diagram(g.free_circles)
    try:
        num = frontier_sweep(n_arcs, crossings, n_cable, loops)
    except SweepBudgetError as exc:
        raise InvalidDiagramError(f"phi_plane: {exc}") from None
    # 1/d^P: the sweep weighed a straight pair d and a turnback -1
    return LocalizedElement(num, len(crossings) - n_cable)


def _d_polynomial(counts: Mapping[tuple[int, int], int]) -> LocalizedElement:
    """The sum of mult * (-1/d)^t * d^circles over the crossingless terms
    counted as (t, circles) -> mult, t the turnbacks: a term's coefficient
    (-1/d)^t has denominator d^t.  The sum is taken as one integer Laurent
    polynomial in d and converted to the ring once."""
    return _to_localized(
        LaurentPoly((circles - t, -mult if t & 1 else mult) for (t, circles), mult in counts.items())
    )


def classify_cycles(windings: tuple[tuple[int, int], ...]) -> MulticurveMonomial:
    """Sort circles of one expansion term into the x / y / z / contractible
    classes by winding parity; rejects non-embedded windings."""
    a = b = c = contractible = 0
    for w1, w2 in windings:
        if abs(w1) > 1 or abs(w2) > 1:
            raise InvalidDiagramError(
                f"circle winds {(w1, w2)} times around the holes; diagram is not embedded"
            )
        if w1 and w2:
            c += 1
        elif w1:
            a += 1
        elif w2:
            b += 1
        else:
            contractible += 1
    return MulticurveMonomial(a, b, c, contractible)


def phi_punctured(g: GraphDiagram) -> PolyXYZ:
    """Cabled evaluation in the 2-holed disk (annulus diagrams included).

    Requires a flat diagram; circles of each expansion term are classified by
    the holes they wind around into x (hole 1), y (hole 2), z (both) or a
    factor d for contractible ones; a circle is unoriented and its place in
    the list does not matter.  Terms are tallied per distinct term object
    first (terms compare by identity), so each winding list is classified
    once per distinct term, not once per term.  Each (x, y, z) monomial's
    coefficient is then one d-polynomial over its (turnbacks, contractible)
    counts (see :func:`_d_polynomial`), converted to the ring once.
    """
    if g.crossings:
        raise InvalidDiagramError("phi_punctured needs a flat diagram (crossings present)")
    counts: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}
    for term, mult in Counter(cable(g).terms).items():
        m = classify_cycles(term.cycle_windings)
        by_d = counts.setdefault((m.x_power, m.y_power, m.z_power), {})
        key = (term.coeff.d_power, m.contractible)
        by_d[key] = by_d.get(key, 0) + mult
    return PolyXYZ(
        ((x, y, z, 0), _d_polynomial(by_d)) for (x, y, z), by_d in counts.items()
    )
