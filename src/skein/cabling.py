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
never carry a turnback straight once.  It then walks the projector choices
depth first over one array of open strand ends, as the state sums of
:mod:`skein.core` walk smoothings: a choice joins the four cable ends of its
turnback arc and the way back undoes the joins, so a term costs O(1) joins
plus its own output.  A join that closes a circle records the circle's
least static segment and winding.  Terms without crossings that have equal
windings share one diagram, built once per call; terms with crossings hold
one diagram each, so memory grows as 2^|E| times the crossings of the
input: ``cable(petersen_diagram)`` (2^15 terms of 80 cable crossings each)
needs hundreds of MB.  The evaluations count terms as integers per
coefficient and circle class and touch the coefficient ring once per
distinct key; only terms with crossings, which come from crossings of the
input, call the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping

from .diagrams import GraphDiagram, InvalidDiagramError
from .polyxyz import PolyXYZ
from .rings import D, D_LAURENT, ONE, LocalizedElement, LaurentPoly, ZERO
from .tl import bracket

#: winding contribution of each ray token: (around hole 1, around hole 2)
_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}

_NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)

_second = itemgetter(1)


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

    The terms are the leaves of one depth-first walk over the class bits,
    the highest outermost and straight before turnback, so they come in
    mask order.  Each open strand end holds its far end, its winding, its
    least static segment and the direction in which it crosses it; a leaf
    numbers the chains by first anchor from the far ends.  Terms without
    crossings that have equal windings share one immutable diagram; terms
    with crossings get one each (see the module docstring for the memory
    this takes).

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
    labels = sorted(g.arc_ends())
    index = {a: i for i, a in enumerate(labels)}
    classes = g.edge_classes()
    turn_arcs = [index[a] for a in _turnback_arcs(classes, insertion)]

    # Node ids.  Cable end s (0 = ccw-first, 1 = ccw-second) at the arc end
    # with end id e (from end_ids()) is 2e + s, so arc i owns the four
    # junctions 4i..4i+3, and a straight strand joins n to n ^ 3, a
    # turnback n to n ^ 1.  Above them, crossing ci has the 16 anchors
    # n_junctions + 16ci + 4grid + side, grids ordered NW, NE, SW, SE and
    # sides W, S, E, N: each run of 4 anchors is one cable crossing's slots.
    n_junctions = 4 * len(labels)
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
    # far[x] is the strand's other end, wind[x] its winding walked from x
    # (packed, see _pack) and least[x] twice its least static segment, plus
    # 1 when the walk from x crosses that segment from v to u.  So
    # wind[far[x]] == -wind[x] and least[far[x]] == least[x] ^ 1, and a
    # join keeps both.  At first every static segment is a strand.
    far = [0] * n_nodes
    wind = [0] * n_nodes
    least = [0] * n_nodes
    for sid, (u, v) in enumerate(static):
        far[u], far[v] = v, u
        least[u], least[v] = 2 * sid, 2 * sid + 1
    # winding of a straight strand walked from end 0 to end 1 of its arc; a
    # turnback strand reads w + reverse(w) and winds nowhere
    arc_wind = [sum(_pack(*_TOKEN_WINDING[t]) for t in g.ray_word(a)) for a in labels]
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
    for i in range(len(labels)):
        if i not in turned_arc:
            n = 4 * i
            join(n, n + 3, arc_wind[i])
            join(n + 1, n + 2, arc_wind[i])

    n_classes = len(classes) + g.free_circles
    coeffs = [ONE]
    for _ in range(n_classes):
        coeffs.append(coeffs[-1] * _NEG_DINV)
    # chains run anchor to anchor; they are numbered by first anchor
    anchors = [n for seg in static for n in seg if n >= n_junctions]
    shared: dict[tuple[tuple[int, int], ...], GraphDiagram] = {}
    terms: list[CabledTerm] = []

    def visit(bit: int, turned: int, free: int) -> None:
        # ``free`` counts the circles the free circles have cabled to
        if bit < 0:
            windings = ((0, 0),) * free + tuple(map(_second, sorted(closed)))
            if anchors:
                chain = [-1] * (n_nodes - n_junctions)
                n_chains = 0
                for x in anchors:
                    if chain[x - n_junctions] < 0:
                        chain[x - n_junctions] = chain[far[x] - n_junctions] = n_chains
                        n_chains += 1
                crossings = [chain[k : k + 4] for k in range(0, len(chain), 4)]
                diagram = GraphDiagram([], crossings, len(windings))
            else:
                diagram = shared.get(windings)
                if diagram is None:
                    diagram = shared[windings] = GraphDiagram([], [], len(windings))
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
    """Cabled evaluation in the plane: weighted sum of Kauffman brackets.

    Crossingless terms are counted per (coefficient, circles); terms with
    crossings add their brackets per coefficient.  Each coefficient then
    multiplies its sum once.  ``insertion`` is passed to ``cable``.
    """
    if g.has_rays():
        raise InvalidDiagramError("phi_plane needs a plane diagram (found ray words)")
    counts: dict[tuple[LocalizedElement, int], int] = {}
    sums: dict[LocalizedElement, LaurentPoly] = {}
    zero = LaurentPoly.zero()
    for term in cable(g, insertion).terms:
        if term.diagram.crossings:
            sums[term.coeff] = sums.get(term.coeff, zero) + bracket(term.diagram)
        else:
            key = (term.coeff, term.diagram.free_circles)
            counts[key] = counts.get(key, 0) + 1
    for (coeff, circles), mult in counts.items():
        sums[coeff] = sums.get(coeff, zero) + (D_LAURENT**circles).scale(mult)
    total = ZERO
    for coeff, value in sums.items():
        total = total + coeff * LocalizedElement(value)
    return total


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
    d for contractible ones.
    """
    if g.crossings:
        raise InvalidDiagramError("phi_punctured needs a flat diagram (crossings present)")
    counts: dict[tuple[LocalizedElement, int, int, int, int], int] = {}
    for term in cable(g).terms:
        m = classify_cycles(term.cycle_windings)
        key = (term.coeff, m.x_power, m.y_power, m.z_power, m.contractible)
        counts[key] = counts.get(key, 0) + 1
    return PolyXYZ(
        ((x, y, z, 0), (coeff * D**contractible).scale(mult))
        for (coeff, x, y, z, contractible), mult in counts.items()
    )
