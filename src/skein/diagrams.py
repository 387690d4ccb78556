"""Combinatorial spatial-graph and link diagrams.

A diagram is a PD-style code: flat vertices (cyclic arc order), crossings
(four arc slots counterclockwise, with the strand through slots 2 and 4
passing over the strand through slots 1 and 3), a count of free circles,
and optional ray words for diagrams drawn in a disk with marked holes.

Every arc label occurs exactly twice across all slots; an arc's direction
runs from its first occurrence (in vertex-then-crossing scan order) to its
second, which orients its ray word.

Arc-end numbering, made once when a diagram is built and read by every
walk: arc i is the i-th label in increasing order; its end at its first
occurrence in scan order has id 2i, the other 2i + 1.  So end e belongs to
arc e >> 1, and e ^ 1 is the arc's other end.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import components

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
        if self.num_vertices < 0 or self.circle_count < 0:
            raise ValueError(
                f"negative count: {self.num_vertices} vertices, {self.circle_count} circles"
            )
        for u, v in self.edges:
            if not (0 <= u <= v < self.num_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")

    @staticmethod
    def make(num_vertices: int, edges: Iterable[tuple[int, int]], circles: int = 0) -> "FlatState":
        norm = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))
        return FlatState(num_vertices, norm, circles)

    @staticmethod
    def _unchecked(
        num_vertices: int, edges: tuple[tuple[int, int], ...], circle_count: int
    ) -> "FlatState":
        """The state of fields that already pass ``__post_init__``'s checks,
        without running them again."""
        state = object.__new__(FlatState)
        fields = {"num_vertices": num_vertices, "edges": edges, "circle_count": circle_count}
        object.__setattr__(state, "__dict__", fields)
        return state


class GraphDiagram:
    """Immutable PD-style diagram of a spatial graph or link: ``arcs`` holds
    its arc labels in increasing order, ``num_arcs`` counts them and
    :meth:`end_ids` numbers their ends as the module docstring states."""

    __slots__ = ("vertices", "crossings", "free_circles", "_rays", "arcs", "num_arcs", "_end_ids")

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

        uses: dict[int, int] = {}
        for slots in (*self.vertices, *xs):
            for a in slots:
                n = uses.get(a, 0)
                if n == 2:
                    raise DiagramParseError(f"arc label {a} used more than twice")
                uses[a] = n + 1
        once = sorted(a for a, n in uses.items() if n == 1)
        if once:
            missing = ", ".join(str(a) for a in once)
            raise DiagramParseError(f"arc label(s) used only once: {missing}")
        arcs = tuple(sorted(uses))
        # the id of each label's next end: 2i at its first use, then 2i + 1
        next_id = {a: 2 * i for i, a in enumerate(arcs)}

        def ids(slots: tuple[int, ...]) -> tuple[int, ...]:
            out = []
            for a in slots:
                e = next_id[a]
                next_id[a] = e + 1
                out.append(e)
            return tuple(out)

        end_ids = (tuple(map(ids, self.vertices)), tuple(map(ids, xs)))
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "num_arcs", len(arcs))
        object.__setattr__(self, "_end_ids", end_ids)

        rays = dict(sorted((a, tuple(w)) for a, w in (ray_words or {}).items()))
        for a in rays:
            if a not in uses:
                raise DiagramParseError(f"ray word on unknown arc {a}")
        for w in rays.values():
            for tok in w:
                if tok not in RAY_TOKENS:
                    raise DiagramParseError(f"bad ray token {tok!r}")
        object.__setattr__(self, "_rays", rays)

    def __setattr__(self, *args) -> None:
        raise AttributeError("GraphDiagram is immutable")

    # -- basic structure -------------------------------------------------------

    @property
    def ray_words(self) -> Mapping[int, tuple[str, ...]]:
        """Read-only view of the ray words, by increasing arc label."""
        return MappingProxyType(self._rays)

    def ray_word(self, arc: int) -> tuple[str, ...]:
        return self._rays.get(arc, ())

    def has_rays(self) -> bool:
        return bool(self._rays)

    def arc_labels(self) -> list[int]:
        """Arc labels in order of first appearance: those of the even end
        ids in scan order."""
        arcs, (vertex_ids, crossing_ids) = self.arcs, self._end_ids
        return [arcs[e >> 1] for ids in (*vertex_ids, *crossing_ids) for e in ids if not e & 1]

    def end_ids(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Arc-end ids of every slot, as (vertex slots, crossing slots); see
        the module docstring for the numbering."""
        return self._end_ids

    def edge_classes(self) -> list[list[int]]:
        """Arcs grouped into the edges of the underlying abstract graph
        (strands merged through crossings); each class sorted, classes
        ordered by least arc label."""
        through = [(ids[s] >> 1, ids[s + 2] >> 1) for ids in self._end_ids[1] for s in (0, 1)]
        _count, root = components(self.num_arcs, through)
        groups: dict[int, list[int]] = {}
        for i, a in enumerate(self.arcs):
            groups.setdefault(root[i], []).append(a)
        return list(groups.values())

    def num_edges(self) -> int:
        """Edges of the underlying abstract graph: edge classes with an arc
        end at a vertex (the others are closed link components)."""
        at_vertex = {a for slots in self.vertices for a in slots}
        return sum(1 for cls in self.edge_classes() if not at_vertex.isdisjoint(cls))

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
            (self.vertices, self._norm_crossings(), self.free_circles, tuple(self._rays.items()))
        )

    def __repr__(self) -> str:
        return (
            f"GraphDiagram(vertices={self.vertices}, crossings={self.crossings}, "
            f"free_circles={self.free_circles}, ray_words={self._rays})"
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
    rank = [0] * g.num_arcs  # new label of each arc
    for r, a in enumerate(g.arc_labels()):
        rank[bisect_left(g.arcs, a)] = r
    vertex_ids, crossing_ids = g.end_ids()
    return GraphDiagram(
        [[rank[e >> 1] for e in ids] for ids in vertex_ids],
        [[rank[e >> 1] for e in ids] for ids in crossing_ids],
        g.free_circles,
        {rank[bisect_left(g.arcs, a)]: w for a, w in g.ray_words.items()},
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
    shift = g1.arcs[-1] + 1 - g2.arcs[0] if g1.arcs and g2.arcs else 0
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
    vertex_ids, crossing_ids = g.end_ids()
    ids = crossing_ids[index]
    if kind is Resolution.VERTEX:
        vertex_ids += (ids,)
        joins = []
    else:
        pairs = ((0, 1), (2, 3)) if kind is Resolution.SMOOTH_A else ((0, 3), (1, 2))
        joins = [(ids[s1] >> 1, ids[s2] >> 1) for s1, s2 in pairs]
    count, root = components(g.num_arcs, joins)
    # a join that merges no two strands closes a free circle
    free = g.free_circles + len(joins) - (g.num_arcs - count)
    # label the joined arcs densely by first appearance in scan order, as
    # normalize_labels would
    rank: dict[int, int] = {}
    return GraphDiagram(
        [[rank.setdefault(root[e >> 1], len(rank)) for e in v] for v in vertex_ids],
        [
            [rank.setdefault(root[e >> 1], len(rank)) for e in x]
            for i, x in enumerate(crossing_ids)
            if i != index
        ],
        free,
    )


def to_flat_state(g: GraphDiagram) -> FlatState:
    """Forget planar data of a crossingless diagram: abstract multigraph plus
    free-circle count."""
    if g.crossings:
        raise InvalidDiagramError("diagram still has crossings")
    # arc i joins the vertices that own its ends 2i and 2i + 1
    owner = [0] * (2 * g.num_arcs)
    for v, ends in enumerate(g.end_ids()[0]):
        for e in ends:
            owner[e] = v
    return FlatState.make(len(g.vertices), zip(owner[::2], owner[1::2]), g.free_circles)
