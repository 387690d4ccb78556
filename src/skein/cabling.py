"""The edge-doubling homomorphism from graph diagrams to link diagrams.

Every edge of the input is replaced by a 2-cable carrying the 2-strand
projector (identity minus 1/d times a turnback), every degree-n vertex by
an n-gon of arcs joining adjacent cable strands, and every crossing by the
2x2 grid of cable crossings.  Expanding the projector choice per edge gives
2^|E| weighted vertexless diagrams: the plane evaluation feeds them to the
Kauffman bracket, the punctured-disk evaluation classifies the resulting
circles by their winding parities around the holes.

Conventions: at every vertex or crossing slot the two cable ends of an arc
are ordered counterclockwise ("first", "second"); along an arc the strand
that is ccw-first at one end is ccw-second at the other.

Cost: 2^|E| terms.  ``cable`` numbers the static part (vertex polygons and
crossing grids) once per call on integer node ids and joins the arcs that
never carry a turnback straight once.  On a diagram without crossings
whose ray words wind nowhere (plane diagrams, and ray words such as
``1+ 1-`` that sum to 0), every circle winds (0, 0) and the projector
choices are the smoothings of a vertexless diagram on the open strands,
so one call of the bracket kernel
:func:`skein.core.state_circle_counts` counts the circles of all terms,
reusing repeated blocks as it does for the bracket.  Every other input
takes one depth-first walk over the projector choices, over one array of
open strand ends, as the state sums of :mod:`skein.core` walk
smoothings: a choice joins the four cable ends of its turnback arc, the
way back undoes the joins, and a join carries the strands' windings and
least static segments, so a term costs O(1) joins plus its own output.
Crossingless terms are shared: one term object per (turnbacks,
windings) and one diagram per winding list, built once per call, so the
2^|E| entries of a flat diagram hold a few dozen objects.  Terms with
crossings hold one diagram each, so memory grows as 2^|E| times the
crossings of the input: ``cable(petersen_diagram)`` (2^15 terms of 80
cable crossings each) needs hundreds of MB.  The evaluations tally terms by
object identity, then count them as integers per coefficient and circle
class, so a coefficient is hashed and a winding list classified once per
distinct term.  The crossingless terms of one value, or of one (x, y, z)
monomial, are summed as one integer polynomial in d and converted to the
coefficient ring once; only terms with crossings, which come from
crossings of the input, call the bracket.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping

from .core import state_circle_counts
from .diagrams import GraphDiagram, InvalidDiagramError
from .polyxyz import PolyXYZ
from .rings import ONE, LaurentPoly, LocalizedElement, _to_localized
from .tl import bracket

#: winding contribution of each ray token: (around hole 1, around hole 2)
_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}

_NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)

_second = itemgetter(1)

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


@dataclass(frozen=True)
class CabledTerm:
    coeff: LocalizedElement
    diagram: GraphDiagram  # vertexless; free_circles counts the closed cycles
    cycle_windings: tuple[tuple[int, int], ...]  # net winding of each cycle


@dataclass(frozen=True)
class CabledExpansion:
    edge_count: int
    terms: tuple[CabledTerm, ...]


def cable(g: GraphDiagram, insertion: Mapping[int, int] | None = None) -> CabledExpansion:
    """Expand the 2-cable of ``g`` with one projector per edge.

    Terms come in mask order: bit k of the mask picks the turnback on the
    k-th edge class (then on each free circle), and the term's coefficient
    is (-1/d)^popcount(mask).  A term lists the windings of its circles,
    first those of the free circles, then the others by least static
    segment, each taken along that segment's u to v direction.

    Both paths first join the arcs that never carry a turnback straight.
    Each open strand end then holds its far end, its winding, its least
    static segment and the direction in which it crosses it.

    With crossings, or when some arc winds, the terms are the leaves of one
    depth-first walk over the class bits, the highest outermost and
    straight before turnback, so they come in mask order.  A leaf numbers
    the chains by first anchor from the far ends.

    Without crossings and without winding, every circle winds (0, 0), so a
    term is given by its (turnbacks, circles).  Every open strand end is
    then one of the four junctions of a turnback arc, and the choices are
    the smoothings of a vertexless diagram: its arcs are the open strands,
    strand k with the ends 2k and 2k + 1 by first junction, and class k's
    turnback arc is crossing k with the ends at its junctions n .. n + 3 in
    order, so the A-smoothing is the turnback and the B-smoothing the
    straight pair.  A free circle is one more crossing, on two fresh
    strands (a0, a1) and (b0, b1) as (a0, b0, b1, a1): straight closes two
    circles and the turnback one.  :func:`skein.core.state_circle_counts`
    counts the circles of all states at once; cable mask m is state mask
    ``full ^ m``, so the counts are read reversed.  The turnbacks per mask
    are bytes too, and one pass maps each (turnbacks, circles) pair to its
    shared term.

    Terms without crossings are shared: equal (coefficient, windings) give
    one immutable term object and equal windings one diagram, so ``terms``
    has 2^|E| entries but, on a flat diagram, only as many distinct objects
    as (turnbacks, windings) pairs.  Terms with crossings get one object
    each (see the module docstring for the memory this takes).

    ``insertion`` optionally moves the turnback of an edge class: it maps
    the least arc label of the class to the arc of that class that carries
    the turnback (by default the least arc itself).  On a diagram with
    crossings the move slides the projector through cable crossings and
    changes the terms but not their evaluation; ``skein verify`` checks
    that.  A key that is not the least arc of an edge class, or an arc
    outside the key's class, raises ``InvalidDiagramError``.
    """
    for vi, slots in enumerate(g.vertices):
        if len(slots) == 0:
            raise InvalidDiagramError(f"vertex {vi} is isolated; cabling undefined")
    arcs = g.arcs
    classes = g.edge_classes()
    turn_arcs = [bisect_left(arcs, a) for a in _turnback_arcs(classes, insertion)]

    # Node ids.  Cable end s (0 = ccw-first, 1 = ccw-second) at the arc end
    # with end id e (from end_ids()) is 2e + s, so arc i owns the four
    # junctions 4i..4i+3, and a straight strand joins n to n ^ 3, a
    # turnback n to n ^ 1.  Above them, crossing ci has the 16 anchors
    # n_junctions + 16ci + 4grid + side, grids ordered NW, NE, SW, SE and
    # sides W, S, E, N: each run of 4 anchors is one cable crossing's slots.
    n_junctions = 4 * g.num_arcs
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
    n_nodes = n_junctions + 16 * len(crossing_ids)

    # The open strands, kept at their ends as in core.state_circle_counts:
    # far[x] is the strand's other end, wind[x] the strand's winding walked
    # from x (packed, see _pack) and least[x] twice its least static
    # segment, plus 1 when the walk from x crosses that segment from v to u.
    # So wind[far[x]] == -wind[x] and least[far[x]] == least[x] ^ 1, and a
    # join keeps all three.  At first every static segment is a strand.
    far = [0] * n_nodes
    wind = [0] * n_nodes
    least = [0] * n_nodes
    for sid, (u, v) in enumerate(static):
        far[u], far[v] = v, u
        least[u], least[v] = 2 * sid, 2 * sid + 1
    # winding of a straight strand walked from end 0 to end 1 of its arc; a
    # turnback strand reads w + reverse(w) and winds nowhere
    arc_wind = [sum(_pack(*_TOKEN_WINDING[t]) for t in g.ray_word(a)) for a in arcs]
    # (least static segment, winding u to v along it) of each closed circle
    closed: list[tuple[int, tuple[int, int]]] = []

    def join(p: int, q: int, w: int) -> None:
        """Join the strands at ends p and q by a cable strand that winds w
        from p to q."""
        a = far[p]
        if a == q:
            w += wind[q]
            closed.append((least[q] >> 1, _unpack(-w if least[q] & 1 else w)))
            return
        b = far[q]
        far[a] = b
        far[b] = a
        w = wind[a] + w + wind[q]
        wind[a] = w
        wind[b] = -w
        if least[a] < least[b]:
            least[b] = least[a] ^ 1
        else:
            least[a] = least[b] ^ 1

    def unjoin(p: int, q: int) -> None:
        """Undo join(p, q, ...): p and q no longer end a strand, so they
        still hold what their old far ends need back."""
        a = far[p]
        if a == q:
            closed.pop()
            return
        b = far[q]
        far[a] = p
        far[b] = q
        wind[a] = -wind[p]
        wind[b] = -wind[q]
        least[a] = least[p] ^ 1
        least[b] = least[q] ^ 1

    # arcs without a turnback are straight in every term
    turned_arc = set(turn_arcs)
    for i in range(g.num_arcs):
        if i not in turned_arc:
            n = 4 * i
            join(n, n + 3, arc_wind[i])
            join(n + 1, n + 2, arc_wind[i])

    n_classes = len(classes) + g.free_circles
    coeffs = [ONE]
    for _ in range(n_classes):
        coeffs.append(coeffs[-1] * _NEG_DINV)
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

    if not crossing_ids and not any(arc_wind):
        # the open strands as arcs of a vertexless diagram, numbered by
        # first junction, and its crossings: the turnback arcs, then the
        # free circles
        end_id: dict[int, int] = {}
        for n in (4 * a + s for a in turn_arcs for s in range(4)):
            if n not in end_id:
                end_id[n] = len(end_id)
                end_id[far[n]] = len(end_id)
        crossings = [tuple(map(end_id.__getitem__, range(4 * a, 4 * a + 4))) for a in turn_arcs]
        fresh = len(end_id)
        ends = fresh + 4 * g.free_circles
        crossings += [(e, e + 2, e + 3, e + 1) for e in range(fresh, ends, 4)]
        # per cable mask m: its circles, those of state mask full ^ m, and
        # its turnbacks, popcount(m), as bytes
        circles = state_circle_counts(ends // 2, crossings)[::-1]
        turnbacks = b"\0"
        for _ in range(n_classes):
            turnbacks += turnbacks.translate(_PLUS_ONE)
        # the circles closed by the straight arcs are in every term
        lookup = _Lookup(lambda t, c: shared_term(t, ((0, 0),) * (c + len(closed))))
        return CabledExpansion(n_classes, tuple(map(lookup.__getitem__, zip(turnbacks, circles))))

    # chains run anchor to anchor; they are numbered by first anchor
    anchors = [n for seg in static for n in seg if n >= n_junctions]
    terms: list[CabledTerm] = []

    def visit(bit: int, turned: int, free: int) -> None:
        # ``free`` counts the circles the free circles have cabled to
        if bit < 0:
            windings = ((0, 0),) * free + tuple(map(_second, sorted(closed)))
            if not anchors:
                terms.append(shared_term(turned, windings))
                return
            chain = [-1] * (n_nodes - n_junctions)
            n_chains = 0
            for x in anchors:
                if chain[x - n_junctions] < 0:
                    chain[x - n_junctions] = chain[far[x] - n_junctions] = n_chains
                    n_chains += 1
            crossings = [chain[k : k + 4] for k in range(0, len(chain), 4)]
            diagram = GraphDiagram([], crossings, len(windings))
            terms.append(CabledTerm(coeffs[turned], diagram, windings))
            return
        if bit >= len(classes):
            # a free circle cables to two circles, or to one under its turnback
            visit(bit - 1, turned, free)
            visit(bit - 1, turned + 1, free - 1)
            return
        n = 4 * turn_arcs[bit]
        w = arc_wind[turn_arcs[bit]]
        join(n, n + 3, w)
        join(n + 1, n + 2, w)
        visit(bit - 1, turned, free)
        unjoin(n + 1, n + 2)
        unjoin(n, n + 3)
        join(n, n + 1, 0)
        join(n + 2, n + 3, 0)
        visit(bit - 1, turned + 1, free)
        unjoin(n + 2, n + 3)
        unjoin(n, n + 1)

    visit(n_classes - 1, 0, 2 * g.free_circles)
    # visit refers to itself through its closure cell; unbinding it frees
    # the cycle now, not at the next garbage collection
    visit = None
    return CabledExpansion(n_classes, tuple(terms))


class _Lookup(dict):
    """Shared terms by (turnbacks, circles): a missing key is filled with
    ``make(*key)``, so the terms take one pass and each distinct key one
    call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int, int], CabledTerm]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: tuple[int, int]) -> CabledTerm:
        value = self[key] = self.make(*key)
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


def _tally(terms: tuple[CabledTerm, ...]) -> list[tuple[CabledTerm, int]]:
    """Each distinct term object of ``terms`` with the number of times it
    occurs, counted by identity: no coefficient or diagram is hashed."""
    by_id = dict(zip(map(id, terms), terms))
    return [(by_id[i], mult) for i, mult in Counter(map(id, terms)).items()]


def phi_plane(
    g: GraphDiagram, insertion: Mapping[int, int] | None = None
) -> LocalizedElement:
    """Cabled evaluation in the plane: weighted sum of Kauffman brackets.

    Terms are tallied per distinct term object, which ``cable`` shares
    among crossingless terms.  Crossingless terms are then counted per
    (turnbacks, circles) and summed as one d-polynomial (see
    :func:`_d_polynomial`); terms with crossings, one object each, add
    their brackets per coefficient, so a coefficient is hashed once per
    distinct term.  Both sums then add up over one denominator, normalized
    once.  ``insertion`` is passed to ``cable``.
    """
    if g.has_rays():
        raise InvalidDiagramError("phi_plane needs a plane diagram (found ray words)")
    counts: dict[tuple[int, int], int] = {}
    sums: dict[LocalizedElement, LaurentPoly] = {}
    zero = LaurentPoly.zero()
    for term, mult in _tally(cable(g, insertion).terms):
        if term.diagram.crossings:
            sums[term.coeff] = sums.get(term.coeff, zero) + bracket(term.diagram).scale(mult)
        else:
            key = (term.coeff.d_power, term.diagram.free_circles)
            counts[key] = counts.get(key, 0) + mult
    return LocalizedElement.sum_of_products(
        [*((value, (coeff,)) for coeff, value in sums.items()),
         (LaurentPoly.one(), (_d_polynomial(counts),))]
    )


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
    their winding parities into x (hole 1), y (hole 2), z (both) or a factor
    d for contractible ones.  Terms are tallied per distinct term object
    first, so each winding list is classified once per distinct term, not
    once per term.  Each (x, y, z) monomial's coefficient is then one
    d-polynomial over its (turnbacks, contractible) counts (see
    :func:`_d_polynomial`), converted to the ring once.
    """
    if g.crossings:
        raise InvalidDiagramError("phi_punctured needs a flat diagram (crossings present)")
    counts: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {}
    for term, mult in _tally(cable(g).terms):
        m = classify_cycles(term.cycle_windings)
        by_d = counts.setdefault((m.x_power, m.y_power, m.z_power), {})
        key = (term.coeff.d_power, m.contractible)
        by_d[key] = by_d.get(key, 0) + mult
    return PolyXYZ(
        ((x, y, z, 0), _d_polynomial(by_d)) for (x, y, z), by_d in counts.items()
    )
