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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .diagrams import GraphDiagram, InvalidDiagramError, reversed_ray_word
from .polyxyz import PolyXYZ
from .rings import D, ONE, LocalizedElement, LaurentPoly, ZERO
from .tl import bracket

#: winding contribution of each ray token: (around hole 1, around hole 2)
_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}

_NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)

_GRID_SIDES = ("W", "S", "E", "N")


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


def _word_sum(word: tuple[str, ...]) -> tuple[int, int]:
    w1 = w2 = 0
    for t in word:
        d1, d2 = _TOKEN_WINDING[t]
        w1 += d1
        w2 += d2
    return w1, w2


def cable(
    g: GraphDiagram,
    insertion: Mapping[int, tuple[int, int]] | None = None,
) -> CabledExpansion:
    """Expand the 2-cable of ``g`` with one projector per edge.

    ``insertion`` optionally overrides where the turnback of an edge class is
    placed: it maps the least arc label of the class to (arc, split index in
    that arc's ray word).  The placement never changes the result; a test
    perturbs it to demonstrate that.
    """
    for vi, slots in enumerate(g.vertices):
        if len(slots) == 0:
            raise InvalidDiagramError(f"vertex {vi} is isolated; cabling undefined")

    segments_static: list[tuple[tuple, tuple, tuple[str, ...]]] = []

    def jn(arc: int, end: int, sub: int) -> tuple:
        return ("j", arc, end, sub)

    def an(ci: int, grid: str, side: str) -> tuple:
        return ("a", ci, grid, side)

    # the occurrence (0 or 1) of each slot's arc is the low bit of its end id
    vertex_ids, crossing_ids = g.end_ids()

    # vertex polygons
    for slots, ids in zip(g.vertices, vertex_ids):
        k = len(slots)
        slot_ends = [(a, eid & 1) for a, eid in zip(slots, ids)]
        for i in range(k):
            a1, e1 = slot_ends[i]
            a2, e2 = slot_ends[(i + 1) % k]
            segments_static.append((jn(a1, e1, 1), jn(a2, e2, 0), ()))

    # crossing grids: four sub-crossings per crossing, vertical (over) cable
    # at slots 2 and 4 of each
    grid_crossings: list[tuple[tuple, tuple, tuple, tuple]] = []
    for ci, (slots, ids) in enumerate(zip(g.crossings, crossing_ids)):
        (a0, e0), (a1, e1), (a2, e2), (a3, e3) = [(a, eid & 1) for a, eid in zip(slots, ids)]
        segments_static += [
            (jn(a0, e0, 0), an(ci, "NW", "W"), ()),
            (an(ci, "NW", "E"), an(ci, "NE", "W"), ()),
            (an(ci, "NE", "E"), jn(a2, e2, 1), ()),
            (jn(a0, e0, 1), an(ci, "SW", "W"), ()),
            (an(ci, "SW", "E"), an(ci, "SE", "W"), ()),
            (an(ci, "SE", "E"), jn(a2, e2, 0), ()),
            (jn(a1, e1, 0), an(ci, "SW", "S"), ()),
            (an(ci, "SW", "N"), an(ci, "NW", "S"), ()),
            (an(ci, "NW", "N"), jn(a3, e3, 1), ()),
            (jn(a1, e1, 1), an(ci, "SE", "S"), ()),
            (an(ci, "SE", "N"), an(ci, "NE", "S"), ()),
            (an(ci, "NE", "N"), jn(a3, e3, 0), ()),
        ]
        for grid in ("NW", "NE", "SW", "SE"):
            grid_crossings.append(tuple(an(ci, grid, side) for side in _GRID_SIDES))

    classes = g.edge_classes()
    n_classes = len(classes) + g.free_circles

    terms: list[CabledTerm] = []
    for mask in range(1 << n_classes):
        segs = list(segments_static)
        coeff = ONE
        extra_cycles: list[tuple[int, int]] = []
        for bit, cls in enumerate(classes):
            root = cls[0]
            turn = (mask >> bit) & 1
            if turn:
                coeff = coeff * _NEG_DINV
                arc_t, split = (insertion or {}).get(root, (root, 0))
                if arc_t not in cls:
                    raise InvalidDiagramError(
                        f"turnback arc {arc_t} not in edge class of {root}"
                    )
            else:
                arc_t, split = -1, 0
            for a in cls:
                w = g.ray_word(a)
                if turn and a == arc_t:
                    split = max(0, min(split, len(w)))
                    near = w[:split] + reversed_ray_word(w[:split])
                    far = reversed_ray_word(w[split:]) + w[split:]
                    segs.append((jn(a, 0, 0), jn(a, 0, 1), near))
                    segs.append((jn(a, 1, 0), jn(a, 1, 1), far))
                else:
                    segs.append((jn(a, 0, 0), jn(a, 1, 1), w))
                    segs.append((jn(a, 0, 1), jn(a, 1, 0), w))
        for fc in range(g.free_circles):
            if (mask >> (len(classes) + fc)) & 1:
                coeff = coeff * _NEG_DINV
                extra_cycles.append((0, 0))
            else:
                extra_cycles.extend([(0, 0), (0, 0)])
        diagram, windings = _assemble(segs, grid_crossings, extra_cycles)
        terms.append(CabledTerm(coeff, diagram, windings))
    return CabledExpansion(n_classes, tuple(terms))


def _assemble(
    segs: list[tuple[tuple, tuple, tuple[str, ...]]],
    grid_crossings: list[tuple],
    extra_cycles: list[tuple[int, int]],
) -> tuple[GraphDiagram, tuple[tuple[int, int], ...]]:
    incident: dict[tuple, list[int]] = {}
    for sid, (u, v, _w) in enumerate(segs):
        incident.setdefault(u, []).append(sid)
        incident.setdefault(v, []).append(sid)
    for node, ids in incident.items():
        expect = 1 if node[0] == "a" else 2
        if len(ids) != expect:
            raise AssertionError(f"cable node {node} has degree {len(ids)}")

    used = [False] * len(segs)
    chain_at_anchor: dict[tuple, int] = {}
    n_chains = 0
    # open chains run anchor-to-anchor and become arcs of the cabled diagram
    for start, ids in incident.items():
        if start[0] != "a" or used[ids[0]]:
            continue
        sid = ids[0]
        node = start
        while True:
            used[sid] = True
            u, v, _w = segs[sid]
            node = v if node == u else u
            if node[0] == "a":
                chain_at_anchor[start] = n_chains
                chain_at_anchor[node] = n_chains
                n_chains += 1
                break
            e1, e2 = incident[node]
            sid = e2 if e1 == sid else e1
    # closed chains are circles; sum signed words along the traversal
    windings = list(extra_cycles)
    for sid0 in range(len(segs)):
        if used[sid0]:
            continue
        w1 = w2 = 0
        sid = sid0
        node = segs[sid][0]
        while not used[sid]:
            used[sid] = True
            u, v, w = segs[sid]
            s1, s2 = _word_sum(w)
            if node == u:
                w1 += s1
                w2 += s2
                node = v
            else:
                w1 -= s1
                w2 -= s2
                node = u
            e1, e2 = incident[node]
            sid = e2 if e1 == sid else e1
        windings.append((w1, w2))

    crossings = [
        [chain_at_anchor[anchor] for anchor in grid] for grid in grid_crossings
    ]
    diagram = GraphDiagram([], crossings, len(windings))
    return diagram, tuple(windings)


def phi_plane(g: GraphDiagram) -> LocalizedElement:
    """Cabled evaluation in the plane: weighted sum of Kauffman brackets."""
    if g.has_rays():
        raise InvalidDiagramError("phi_plane needs a plane diagram (found ray words)")
    total = ZERO
    for term in cable(g).terms:
        total = total + term.coeff * LocalizedElement(bracket(term.diagram))
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


def phi_punctured(
    g: GraphDiagram, insertion: Mapping[int, tuple[int, int]] | None = None
) -> PolyXYZ:
    """Cabled evaluation in the 2-holed disk (annulus diagrams included).

    Requires a flat diagram; circles of each expansion term are classified by
    their winding parities into x (hole 1), y (hole 2), z (both) or a factor
    d for contractible ones.
    """
    if g.crossings:
        raise InvalidDiagramError("phi_punctured needs a flat diagram (crossings present)")
    total = PolyXYZ()
    for term in cable(g, insertion).terms:
        m = classify_cycles(term.cycle_windings)
        coeff = term.coeff * D**m.contractible
        total = total + PolyXYZ.monomial(
            (m.x_power, m.y_power, m.z_power, 0), coeff
        )
    return total
