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

Cost: 2^|E| terms, one ``GraphDiagram`` each.  ``cable`` numbers the static
part (vertex polygons and crossing grids) once per call on integer node
ids; a term only re-pairs the four cable ends of each turnback arc and
walks its chains and circles over int lists.  The evaluations count terms
as integers per coefficient and circle class and touch the coefficient
ring once per distinct key; only terms with crossings, which come from
crossings of the input, call the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .diagrams import GraphDiagram, InvalidDiagramError
from .polyxyz import PolyXYZ
from .rings import D, D_LAURENT, ONE, LocalizedElement, LaurentPoly, ZERO
from .tl import bracket

#: winding contribution of each ray token: (around hole 1, around hole 2)
_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}

_NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)


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
    is (-1/d)^popcount(mask).

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
    partner = [0] * n_nodes  # the other end of the node's static segment
    seg_of = [0] * n_nodes  # index of the node's static segment
    for sid, (u, v) in enumerate(static):
        partner[u], partner[v] = v, u
        seg_of[u] = seg_of[v] = sid
    # chains are numbered by their first anchor in order of appearance
    anchors = [n for seg in static for n in seg if n >= n_junctions]
    straight = [n ^ 3 for n in range(n_junctions)]
    # winding added when a straight strand is left at junction n: the
    # arc's word sum from end 0, its negation from end 1; a turnback
    # strand reads w + reverse(w) and adds nothing.  A plane diagram winds
    # nowhere and skips the sums: on the plain 3x3 grid, whose 4096 terms
    # are all circles, summing zeros cost 8-14% of the cable workload's
    # throughput in three paired runs
    winds = None
    if g.has_rays():
        winds = []
        for a in labels:
            w1 = w2 = 0
            for t in g.ray_word(a):
                d1, d2 = _TOKEN_WINDING[t]
                w1 += d1
                w2 += d2
            winds += [(w1, w2), (w1, w2), (-w1, -w2), (-w1, -w2)]

    n_classes = len(classes) + g.free_circles
    coeffs = [ONE]
    for _ in range(n_classes):
        coeffs.append(coeffs[-1] * _NEG_DINV)
    terms: list[CabledTerm] = []
    for mask in range(1 << n_classes):
        mate = straight[:]
        for bit, i in enumerate(turn_arcs):
            if mask >> bit & 1:
                n = 4 * i
                mate[n], mate[n + 1], mate[n + 2], mate[n + 3] = n + 1, n, n + 3, n + 2
        used = [False] * len(static)
        chain = [0] * (n_nodes - n_junctions)
        n_chains = 0
        # open chains run anchor to anchor and become arcs of the cabled diagram
        for start in anchors:
            if used[seg_of[start]]:
                continue
            used[seg_of[start]] = True
            n = partner[start]
            while n < n_junctions:
                m = mate[n]
                used[seg_of[m]] = True
                n = partner[m]
            chain[start - n_junctions] = chain[n - n_junctions] = n_chains
            n_chains += 1
        # a free circle cables to two circles, or to one under its turnback
        turned = (mask >> len(classes)).bit_count()
        windings = [(0, 0)] * (2 * g.free_circles - turned)
        # closed chains are circles, each walked u to v from its first static segment
        for sid, (_u, n) in enumerate(static):
            if used[sid]:
                continue
            used[sid] = True
            w1 = w2 = 0
            while True:
                m = mate[n]
                if winds is not None and m ^ n == 3:
                    d1, d2 = winds[n]
                    w1 += d1
                    w2 += d2
                s = seg_of[m]
                if used[s]:
                    break
                used[s] = True
                n = partner[m]
            windings.append((w1, w2))
        crossings = [chain[k : k + 4] for k in range(0, len(chain), 4)]
        diagram = GraphDiagram([], crossings, len(windings))
        terms.append(CabledTerm(coeffs[mask.bit_count()], diagram, tuple(windings)))
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
