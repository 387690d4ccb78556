"""Seeded generators for the benchmark's diagram families, and their own
planarity check.

Every generator returns a :class:`Code`: flat vertices and crossings as lists
of integer arc labels in counterclockwise slot order, in the text format
``skein.parse_diagram`` reads (``X a b c d`` puts strand b-d over a-c).
Generators are pure functions of their ``random.Random`` argument, so one
seed always yields the same diagrams.

The library accepts some non-planar codes today; it is expected to reject
them once it checks planarity.  :func:`assert_planar` therefore checks
V - E + F = 2 on every connected component of every generated code, with
its own face tracing, so no workload depends on that gap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class Code:
    """A diagram under construction; labels are allocated by :meth:`new`."""

    vertices: list[list[int]] = field(default_factory=list)
    crossings: list[tuple[int, int, int, int]] = field(default_factory=list)
    free_circles: int = 0
    next_label: int = 1

    def new(self) -> int:
        label = self.next_label
        self.next_label += 1
        return label

    def text(self) -> str:
        lines = ["V " + " ".join(map(str, v)) for v in self.vertices]
        lines += ["X " + " ".join(map(str, x)) for x in self.crossings]
        lines += ["O"] * self.free_circles
        return "\n".join(lines) + "\n"


def braid_crossing(bl: int, br: int, tl: int, tr: int, sign: int) -> tuple:
    """One crossing of a vertical two-strand braid.

    The strands run bottom-left to top-right and bottom-right to top-left.
    Counterclockwise the slots are BR, TR, TL, BL.  Sign +1 puts the strand
    that starts bottom-left on top, sign -1 the other one; the two are
    mirror images (``skein.mirror`` rotates the slots by one).
    """
    if sign > 0:
        return (br, tr, tl, bl)
    return (tr, tl, bl, br)


def from_text(text: str) -> Code:
    """Read a flat-vertex/crossing diagram (no rays) into a :class:`Code`."""
    code = Code()
    labels: dict[str, int] = {}

    def intern(tok: str) -> int:
        if tok not in labels:
            labels[tok] = code.new()
        return labels[tok]

    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, rest = tokens[0].upper(), tokens[1:]
        if head == "V":
            code.vertices.append([intern(t) for t in rest])
        elif head == "X":
            code.crossings.append(tuple(intern(t) for t in rest))
        elif head == "O":
            code.free_circles += 1
        else:
            raise ValueError(f"unsupported directive {head!r}")
    return code


THETA = "V 1 2 3\nV 3 2 1\n"
K4 = "V 1 4 3\nV 2 5 1\nV 3 6 2\nV 4 5 6\n"


def add_twist(code: Code, vertex: int, slot: int, signs: list[int]) -> None:
    """Insert a 2-braid twist region on the two edges that leave ``vertex``
    at ``slot`` and the next slot counterclockwise.

    Seen from the vertex, the edge at ``slot`` is on the right.  The region
    sits in a small neighbourhood of the vertex, so the result stays planar
    and the underlying abstract graph is unchanged.
    """
    slots = code.vertices[vertex]
    nxt = (slot + 1) % len(slots)
    right, left = slots[slot], slots[nxt]
    if right == left:
        raise ValueError("twist region needs two distinct edges")
    rs = [code.new() for _ in signs] + [right]
    ls = [code.new() for _ in signs] + [left]
    slots[slot], slots[nxt] = rs[0], ls[0]
    for j, sign in enumerate(signs):
        code.crossings.append(braid_crossing(ls[j], rs[j], ls[j + 1], rs[j + 1], sign))


def twisted_graph(rng: random.Random, base: str, crossings: int, regions: int) -> Code:
    """``base`` with ``crossings`` twist crossings split over ``regions``
    twist regions at seeded vertex corners, with seeded crossing signs."""
    code = from_text(base)
    cuts = sorted(rng.sample(range(1, crossings), regions - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [crossings])]
    for size in sizes:
        vertex = rng.randrange(len(code.vertices))
        slot = rng.randrange(len(code.vertices[vertex]))
        add_twist(code, vertex, slot, [rng.choice((1, -1)) for _ in range(size)])
    return code


def grid_edges(rows: int, cols: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    out = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                out.append(((i, j), (i, j + 1)))
            if i + 1 < rows:
                out.append(((i, j), (i + 1, j)))
    return out


def _has_bridge_or_leaf(nodes: list, edges: list) -> bool:
    """Whether some vertex has degree below 2 or some edge is a bridge."""
    adj: dict = {v: [] for v in nodes}
    for k, (u, v) in enumerate(edges):
        adj[u].append((v, k))
        adj[v].append((u, k))
    if any(len(a) < 2 for a in adj.values()):
        return True
    # an edge is a bridge iff removing it disconnects its ends
    for k, (u, v) in enumerate(edges):
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for y, kk in adj[x]:
                if kk != k and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if v not in seen:
            return True
    return False


def grid(rows: int, cols: int, deleted: frozenset = frozenset()) -> Code:
    """The rows x cols grid graph drawn in the plane, without the edges whose
    indices (in :func:`grid_edges` order) are in ``deleted``."""
    kept = [e for k, e in enumerate(grid_edges(rows, cols)) if k not in deleted]
    code = Code()
    label = {e: code.new() for e in kept}
    for i in range(rows):
        for j in range(cols):
            slots = []
            # counterclockwise with x = column and y = row: east, north, west, south
            for nb in ((i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j)):
                e = ((i, j), nb) if ((i, j), nb) in label else (nb, (i, j))
                if e in label:
                    slots.append(label[e])
            code.vertices.append(slots)
    return code


def grids_with_one_deletion(rng: random.Random, rows: int, cols: int, count: int) -> list[Code]:
    """``count`` copies of the grid, each with one edge deleted.

    Only deletions that keep the graph bridgeless with minimum degree 2 are
    used (otherwise the flat value is trivially zero).  The candidates, in
    :func:`grid_edges` order, are cut into ``count`` runs of consecutive
    edges and one seeded deletion is drawn from each run, so every seed
    samples the same mix of boundary and interior deletions and the cost of
    a pool varies little between seeds.  With ``count`` equal to the number
    of candidates every candidate is used once.
    """
    nodes = [(i, j) for i in range(rows) for j in range(cols)]
    edges = grid_edges(rows, cols)
    candidates = [
        k for k in range(len(edges))
        if not _has_bridge_or_leaf(nodes, edges[:k] + edges[k + 1 :])
    ]
    if count > len(candidates):
        raise ValueError(f"only {len(candidates)} deletions keep the grid bridgeless")
    cuts = [len(candidates) * i // count for i in range(count + 1)]
    return [
        grid(rows, cols, frozenset({candidates[rng.randrange(lo, hi)]}))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def braid_closure(strands: int, word: list[tuple[int, int]]) -> Code:
    """Closure of a braid word, read bottom to top as (generator index from
    0, sign); each strand closes around the side.  Strands that no
    generator touches become free circles."""
    code = Code()
    bottom = [code.new() for _ in range(strands)]
    cur = list(bottom)
    for i, sign in word:
        tl, tr = code.new(), code.new()
        code.crossings.append(braid_crossing(cur[i], cur[i + 1], tl, tr, sign))
        cur[i], cur[i + 1] = tl, tr
    close = dict(zip(cur, bottom))
    code.crossings = [tuple(close.get(a, a) for a in x) for x in code.crossings]
    code.free_circles = sum(1 for a, b in zip(cur, bottom) if a == b)
    return code


def closed_braid(
    rng: random.Random, strands: int, length: int
) -> tuple[Code, list[tuple[int, int]]]:
    """A seeded braid word on ``strands`` strands in which every generator
    occurs, and its closure."""
    while True:
        word = [(rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(length)]
        if {i for i, _ in word} == set(range(strands - 1)):
            return braid_closure(strands, word), word


def planar_petersen(shipped: str) -> Code:
    """The shipped Petersen drawing as a planar code.

    The shipped code lists its five outer-pentagon vertices (the first five
    ``V`` lines) clockwise and every other vertex and crossing
    counterclockwise, which makes V - E + F = -2.  Reversing those five
    rotations gives a planar code with the same crossings and the same
    abstract graph; the library's values ignore vertex rotations, so they
    are unchanged.
    """
    code = from_text(shipped)
    code.vertices = [v[::-1] if i < 5 else v for i, v in enumerate(code.vertices)]
    assert_planar(code)
    return code


def assert_planar(code: Code) -> None:
    """Raise ValueError unless V - E + F = 2 on every connected component.

    Nodes are flat vertices and crossings, edges are arcs, and faces are the
    orbits of "cross the arc, then turn to the next slot counterclockwise"
    on darts (node, slot).
    """
    nodes = [list(v) for v in code.vertices] + [list(x) for x in code.crossings]
    ends: dict[int, list[tuple[int, int]]] = {}
    for n, slots in enumerate(nodes):
        for s, a in enumerate(slots):
            ends.setdefault(a, []).append((n, s))
    for a, where in ends.items():
        if len(where) != 2:
            raise ValueError(f"arc {a} has {len(where)} ends")
    parent = list(range(len(nodes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (n1, _), (n2, _) in ends.values():
        parent[find(n1)] = find(n2)
    other = {}
    for (p, q) in ends.values():
        other[p], other[q] = q, p
    seen: set = set()
    faces: dict[int, int] = {}
    for dart in other:
        if dart in seen:
            continue
        faces[find(dart[0])] = faces.get(find(dart[0]), 0) + 1
        d = dart
        while d not in seen:
            seen.add(d)
            n, s = other[d]
            d = (n, (s + 1) % len(nodes[n]))
    verts: dict[int, int] = {}
    arcs: dict[int, int] = {}
    for n in range(len(nodes)):
        verts[find(n)] = verts.get(find(n), 0) + 1
    for (n1, _), _q in ends.values():
        arcs[find(n1)] = arcs.get(find(n1), 0) + 1
    for root, v in verts.items():
        chi = v - arcs.get(root, 0) + faces.get(root, 1)
        if chi != 2:
            raise ValueError(f"component with V - E + F = {chi}: not planar")
