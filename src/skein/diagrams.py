"""Combinatorial spatial-graph and link diagrams.

A diagram is a PD-style code: flat vertices (cyclic arc order), crossings
(four arc slots counterclockwise, with the strand through slots 2 and 4
passing over the strand through slots 1 and 3), a count of free circles,
and optional ray words for diagrams drawn in a disk with marked holes.

Every arc label occurs exactly twice across all slots; an arc's direction
runs from its first occurrence (in vertex-then-crossing scan order) to its
second, which orients its ray word.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import components, resolution_states

RAY_TOKENS = ("1+", "1-", "2+", "2-")


class DiagramParseError(ValueError):
    """Malformed diagram text (bad line, bad token, label not used twice)."""


class InvalidDiagramError(ValueError):
    """Structurally valid diagram used outside an operation's domain."""


class Resolution(enum.Enum):
    SMOOTH_A = "A"
    SMOOTH_B = "B"
    VERTEX = "V"


@dataclass(frozen=True)
class FlatState:
    """Crossing-free residue of a diagram: an abstract multigraph plus circles."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs (u, v) with u <= v
    circle_count: int = 0

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if not (0 <= u <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")

    @staticmethod
    def make(num_vertices: int, edges: Iterable[tuple[int, int]], circles: int = 0) -> "FlatState":
        norm = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))
        return FlatState(num_vertices, norm, circles)


class GraphDiagram:
    """Immutable PD-style diagram of a spatial graph or link."""

    __slots__ = ("vertices", "crossings", "free_circles", "_rays", "_ends")

    def __init__(
        self,
        vertices: Sequence[Sequence[int]] = (),
        crossings: Sequence[Sequence[int]] = (),
        free_circles: int = 0,
        ray_words: Mapping[int, Sequence[str]] | None = None,
    ):
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in vertices))
        xs = []
        for x in crossings:
            t = tuple(x)
            if len(t) != 4:
                raise DiagramParseError(f"crossing needs 4 slots, got {t}")
            xs.append(t)
        object.__setattr__(self, "crossings", tuple(xs))
        if free_circles < 0:
            raise DiagramParseError("free_circles must be nonnegative")
        object.__setattr__(self, "free_circles", free_circles)
        rays = tuple(sorted((a, tuple(w)) for a, w in (ray_words or {}).items()))
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_ends", None)
        self._validate()

    def __setattr__(self, *args) -> None:
        raise AttributeError("GraphDiagram is immutable")

    # -- basic structure -------------------------------------------------------

    @property
    def ray_words(self) -> dict[int, tuple[str, ...]]:
        return dict(self._rays)

    def ray_word(self, arc: int) -> tuple[str, ...]:
        return dict(self._rays).get(arc, ())

    def has_rays(self) -> bool:
        return bool(self._rays)

    def arc_labels(self) -> list[int]:
        seen = []
        found = set()
        for slots in list(self.vertices) + [list(x) for x in self.crossings]:
            for a in slots:
                if a not in found:
                    found.add(a)
                    seen.append(a)
        return seen

    def _slot_scan(self):
        """Yield (position, arc) over all slots; position = (kind, index, slot)."""
        for vi, slots in enumerate(self.vertices):
            for si, a in enumerate(slots):
                yield ("v", vi, si), a
        for ci, slots in enumerate(self.crossings):
            for si, a in enumerate(slots):
                yield ("x", ci, si), a

    def arc_ends(self) -> dict[int, tuple[tuple, tuple]]:
        """Map arc -> (position of end 0, position of end 1) in scan order."""
        if self._ends is not None:
            return self._ends
        firsts: dict[int, tuple] = {}
        ends: dict[int, tuple[tuple, tuple]] = {}
        for pos, a in self._slot_scan():
            if a in ends:
                raise DiagramParseError(f"arc label {a} used more than twice")
            if a in firsts:
                ends[a] = (firsts.pop(a), pos)
            else:
                firsts[a] = pos
        if firsts:
            missing = ", ".join(str(a) for a in sorted(firsts))
            raise DiagramParseError(f"arc label(s) used only once: {missing}")
        object.__setattr__(self, "_ends", ends)
        return ends

    def _validate(self) -> None:
        ends = self.arc_ends()
        for a, _w in self._rays:
            if a not in ends:
                raise DiagramParseError(f"ray word on unknown arc {a}")
        for _a, w in self._rays:
            for tok in w:
                if tok not in RAY_TOKENS:
                    raise DiagramParseError(f"bad ray token {tok!r}")

    def end_ids(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Arc-end ids of every slot, as (vertex slots, crossing slots): arc
        i (dense index in label order) has id 2*i at its first occurrence in
        scan order and 2*i + 1 at its second."""
        ends = self.arc_ends()
        index = {a: i for i, a in enumerate(sorted(ends))}

        def ids(kind: str, k: int, slots: Sequence[int]) -> tuple[int, ...]:
            return tuple(
                2 * index[a] + (ends[a][0] != (kind, k, si)) for si, a in enumerate(slots)
            )

        return (
            tuple(ids("v", vi, slots) for vi, slots in enumerate(self.vertices)),
            tuple(ids("x", ci, slots) for ci, slots in enumerate(self.crossings)),
        )

    def edge_classes(self) -> list[list[int]]:
        """Arcs grouped into the edges of the underlying abstract graph
        (strands merged through crossings); each class sorted, classes
        ordered by least arc label."""
        labels = sorted(self.arc_ends())
        index = {a: i for i, a in enumerate(labels)}
        through = [
            (index[x], index[y]) for a, b, c, d in self.crossings for x, y in ((a, c), (b, d))
        ]
        _count, root = components(len(labels), through)
        groups: dict[int, list[int]] = {}
        for a in labels:
            groups.setdefault(root[index[a]], []).append(a)
        return list(groups.values())

    def num_edges(self) -> int:
        """Edges of the underlying abstract graph: edge classes with an arc
        end at a vertex (the others are closed link components)."""
        ends = self.arc_ends()
        return sum(
            1
            for cls in self.edge_classes()
            if any(p[0] == "v" for a in cls for p in ends[a])
        )

    def edge_excess(self) -> int:
        """#edges - #vertices of the underlying abstract graph."""
        return self.num_edges() - len(self.vertices)

    # -- equality ----------------------------------------------------------------

    def _norm_crossings(self) -> tuple[tuple[int, int, int, int], ...]:
        # (a,b,c,d) and (c,d,a,b) encode the same crossing (the over strand
        # stays at slots 2 and 4); equality uses the smaller rotation
        return tuple(
            min(t, (t[2], t[3], t[0], t[1])) for t in self.crossings
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDiagram):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self._norm_crossings() == other._norm_crossings()
            and self.free_circles == other.free_circles
            and self._rays == other._rays
        )

    def __hash__(self) -> int:
        return hash(
            (self.vertices, self._norm_crossings(), self.free_circles, self._rays)
        )

    def __repr__(self) -> str:
        return (
            f"GraphDiagram(vertices={self.vertices}, crossings={self.crossings}, "
            f"free_circles={self.free_circles}, ray_words={dict(self._rays)})"
        )


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_diagram(text: str) -> GraphDiagram:
    """Parse the line-oriented diagram format (V / X / O / RAY, # comments)."""
    vertices: list[list[str]] = []
    crossings: list[list[str]] = []
    free_circles = 0
    ray_lines: list[tuple[int, str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0].upper(), tokens[1:]
        if head == "V":
            vertices.append(rest)
        elif head == "X":
            if len(rest) != 4:
                raise DiagramParseError(
                    f"line {lineno}: crossing needs exactly 4 arc labels, got {len(rest)}"
                )
            crossings.append(rest)
        elif head == "O":
            if rest:
                raise DiagramParseError(f"line {lineno}: 'O' takes no arguments")
            free_circles += 1
        elif head == "RAY":
            if len(rest) < 1:
                raise DiagramParseError(f"line {lineno}: RAY needs an arc label")
            ray_lines.append((lineno, rest[0], rest[1:]))
        else:
            raise DiagramParseError(f"line {lineno}: unknown directive {tokens[0]!r}")

    # check label counts here, where the file's own labels are still known
    uses = Counter(t for slots in vertices + crossings for t in slots)
    over = [t for t, n in uses.items() if n > 2]
    if over:
        raise DiagramParseError(f"arc label(s) used more than twice: {', '.join(over)}")
    once = [t for t, n in uses.items() if n == 1]
    if once:
        raise DiagramParseError(f"arc label(s) used only once: {', '.join(once)}")

    labels: dict[str, int] = {}

    def intern(tok: str) -> int:
        if tok not in labels:
            labels[tok] = len(labels)
        return labels[tok]

    v_norm = [[intern(t) for t in slots] for slots in vertices]
    x_norm = [[intern(t) for t in slots] for slots in crossings]
    rays: dict[int, tuple[str, ...]] = {}
    for lineno, arc_tok, word in ray_lines:
        if arc_tok not in labels:
            raise DiagramParseError(f"line {lineno}: ray word on unknown arc {arc_tok!r}")
        arc = labels[arc_tok]
        if arc in rays:
            raise DiagramParseError(f"line {lineno}: duplicate RAY line for arc {arc_tok!r}")
        for tok in word:
            if tok not in RAY_TOKENS:
                raise DiagramParseError(f"line {lineno}: bad ray token {tok!r}")
        rays[arc] = tuple(word)
    return GraphDiagram(v_norm, x_norm, free_circles, rays)


def serialize_diagram(g: GraphDiagram) -> str:
    """Inverse of parse_diagram on normalized diagrams."""
    lines = []
    for slots in g.vertices:
        lines.append("V " + " ".join(str(a) for a in slots) if slots else "V")
    for slots in g.crossings:
        lines.append("X " + " ".join(str(a) for a in slots))
    lines.extend(["O"] * g.free_circles)
    for arc, word in sorted(g.ray_words.items()):
        lines.append(f"RAY {arc} " + " ".join(word) if word else f"RAY {arc}")
    return "\n".join(lines) + "\n"


def normalize_labels(g: GraphDiagram) -> GraphDiagram:
    """Relabel arcs densely by first appearance in scan order."""
    mapping: dict[int, int] = {}
    for _pos, a in g._slot_scan():
        if a not in mapping:
            mapping[a] = len(mapping)
    return GraphDiagram(
        [[mapping[a] for a in slots] for slots in g.vertices],
        [[mapping[a] for a in slots] for slots in g.crossings],
        g.free_circles,
        {mapping[a]: w for a, w in g.ray_words.items()},
    )


# ---------------------------------------------------------------------------
# Elementary transformations
# ---------------------------------------------------------------------------


def mirror(g: GraphDiagram) -> GraphDiagram:
    """Swap every crossing's over/under strand (cyclic order rotated by one)."""
    return GraphDiagram(
        g.vertices,
        [(b, c, d, a) for a, b, c, d in g.crossings],
        g.free_circles,
        g.ray_words,
    )


def disjoint_union(g1: GraphDiagram, g2: GraphDiagram) -> GraphDiagram:
    labels1 = g1.arc_labels()
    shift = (max(labels1) + 1) if labels1 else 0
    rays = dict(g1.ray_words)
    rays.update({a + shift: w for a, w in g2.ray_words.items()})
    return GraphDiagram(
        list(g1.vertices) + [[a + shift for a in v] for v in g2.vertices],
        list(g1.crossings) + [[a + shift for a in x] for x in g2.crossings],
        g1.free_circles + g2.free_circles,
        rays,
    )


def resolve_crossing(g: GraphDiagram, index: int, kind: Resolution) -> GraphDiagram:
    """Replace crossing ``index`` of a plane diagram by a smoothing or a flat
    4-valent vertex.

    Smoothing A joins slots (0,1) and (2,3); smoothing B joins (0,3) and
    (1,2); VERTEX keeps the cyclic slot order as a flat vertex.  A smoothing
    gives joined arcs one label; an arc joined to itself becomes a free
    circle.  Ray words would have to be carried along and are rejected.
    """
    if g.has_rays():
        raise InvalidDiagramError("resolve_crossing is defined on plane diagrams (no ray words)")
    if not (0 <= index < len(g.crossings)):
        raise InvalidDiagramError(f"no crossing with index {index}")
    slots = g.crossings[index]
    crossings = [x for i, x in enumerate(g.crossings) if i != index]
    if kind is Resolution.VERTEX:
        return normalize_labels(GraphDiagram(g.vertices + (slots,), crossings, g.free_circles))
    pairs = ((0, 1), (2, 3)) if kind is Resolution.SMOOTH_A else ((0, 3), (1, 2))
    labels = sorted(g.arc_ends())
    dense = {a: i for i, a in enumerate(labels)}
    joins = [(dense[slots[s1]], dense[slots[s2]]) for s1, s2 in pairs]
    count, root = components(len(labels), joins)
    # a join that merges no two strands closes a free circle
    free = g.free_circles + len(joins) - (len(labels) - count)
    return normalize_labels(
        GraphDiagram(
            [[root[dense[a]] for a in v] for v in g.vertices],
            [[root[dense[a]] for a in x] for x in crossings],
            free,
        )
    )


def to_flat_state(g: GraphDiagram) -> FlatState:
    """Forget planar data of a crossingless diagram: abstract multigraph plus
    free-circle count."""
    if g.crossings:
        raise InvalidDiagramError("diagram still has crossings")
    vertex_ends, _ = g.end_ids()
    ((_, _, n, edges, circles),) = resolution_states(len(g.arc_ends()), vertex_ends, ())
    return FlatState.make(n, edges, circles + g.free_circles)
