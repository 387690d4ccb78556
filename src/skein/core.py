"""The three hot kernels, in pure Python.

The kernels are pure functions on small integers; the package needs no
build step and has no compiled backend.

* :func:`canon_key` -- canonical byte key of a labeled multigraph, used to
  share memo entries between isomorphic crossing-resolution states.
* :func:`state_circle_counts` -- circle counts of all 2^c smoothing states of
  a vertexless diagram, the inner loop of the Kauffman bracket state sum.
* :func:`resolution_states` -- the flat multigraph of each of the 3^c
  resolution states of a diagram, the outer loop of the Yamada state sum.

Both state sums work on arc-end ids (:meth:`GraphDiagram.end_ids`).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

#: largest vertex or edge count :func:`canon_key` can encode (one byte each)
CANON_KEY_LIMIT = 255


def backend_name() -> str:
    """Name of the kernel implementation; always ``"pure"``."""
    return "pure"


def _dense_ranks(signatures: list) -> list[int]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


def _refine(colors: list[int], nbr: list[list[int]]) -> list[int]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbr[v])))
            for v in range(len(colors))
        ]
        new = _dense_ranks(sigs)
        if new == colors:
            return colors
        colors = new


def canon_key(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Canonical byte encoding of the multigraph on vertices 0..n-1.

    Isomorphic inputs map to identical keys.  The key is the lexicographic
    minimum, over all vertex orderings compatible with an iterated
    neighborhood-color refinement, of the sorted relabeled edge list.
    Supports at most CANON_KEY_LIMIT vertices and edges; larger inputs raise
    ValueError.
    """
    if n > CANON_KEY_LIMIT or len(edges) > CANON_KEY_LIMIT:
        raise ValueError(
            f"canon_key supports at most {CANON_KEY_LIMIT} vertices and "
            f"{CANON_KEY_LIMIT} edges, got {n} and {len(edges)}"
        )
    if n == 0:
        return bytes([0, len(edges)])
    loops = [0] * n
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 2
        else:
            nbr[u].append(v)
            nbr[v].append(u)
    init = [(len(nbr[v]) + loops[v], loops[v]) for v in range(n)]
    colors = _refine(_dense_ranks(init), nbr)

    loop_counts = [lc // 2 for lc in loops]
    best: list[bytes | None] = [None]

    def encode(perm_color: list[int]) -> bytes:
        pairs = sorted(
            (
                (perm_color[u], perm_color[v])
                if perm_color[u] <= perm_color[v]
                else (perm_color[v], perm_color[u])
            )
            for u, v in edges
        )
        out = bytearray([n, len(pairs)])
        for a, b in pairs:
            out.append(a)
            out.append(b)
        return bytes(out)

    def twin_reps(cell: list[int]) -> list[int]:
        # vertices swapped by an automorphism fixing everything else yield
        # identical subtrees; branch on one representative per twin group
        out: list[int] = []
        for v in cell:
            matched = False
            for u in out:
                if loops[u] != loops[v]:
                    continue
                a = sorted(x for x in nbr[u] if x != v)
                b = sorted(x for x in nbr[v] if x != u)
                if a == b:
                    matched = True
                    break
            if not matched:
                out.append(v)
        return out

    def search(colors: list[int]) -> None:
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = -1
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
            enc = encode(colors)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        cell = [v for v in range(n) if colors[v] == target]
        for v in twin_reps(cell):
            sigs = [(0 if u == v else 1, colors[u]) for u in range(n)]
            search(_refine(_dense_ranks(sigs), nbr))

    search(colors)
    assert best[0] is not None
    return best[0]


def state_circle_counts(
    n_arcs: int, crossings: Sequence[tuple[int, int, int, int]]
) -> list[int]:
    """Circle counts for every smoothing state of a vertexless diagram.

    ``crossings[i]`` holds the four arc-end ids (2*arc + occurrence) of
    crossing i in counterclockwise slot order.  State ``mask`` applies the
    B-smoothing (joining slots 0-3 and 1-2) at crossing i when bit i is set,
    and the A-smoothing (slots 0-1 and 2-3) otherwise.  Returns a list of
    length 2^len(crossings).
    """
    c = len(crossings)
    n_ends = 2 * n_arcs
    parent = list(range(n_ends))
    counts: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in range(1 << c):
        for i in range(n_ends):
            parent[i] = i
        comps = n_ends
        for a in range(n_arcs):
            ra, rb = find(2 * a), find(2 * a + 1)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        for i in range(c):
            e0, e1, e2, e3 = crossings[i]
            if (mask >> i) & 1:
                joins = ((e0, e3), (e1, e2))
            else:
                joins = ((e0, e1), (e2, e3))
            for x, y in joins:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
                    comps -= 1
        counts.append(comps)
    return counts


def components(n: int, pairs: Sequence[tuple[int, int]]) -> tuple[int, list[int]]:
    """Connected components of the graph on 0..n-1 with edges ``pairs``.

    Returns the component count and, for each element, the least element
    of its component.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
            count -= 1
    return count, [find(x) for x in range(n)]


def resolution_states(
    n_arcs: int,
    vertices: Sequence[Sequence[int]],
    crossings: Sequence[tuple[int, int, int, int]],
) -> Iterator[tuple[int, int, int, list[tuple[int, int]], int]]:
    """Flat residues of all 3^c resolution states of a diagram.

    ``vertices[v]`` and ``crossings[i]`` hold the arc-end ids of the slots
    of flat vertex v and crossing i.  Each crossing becomes a flat vertex,
    or takes the B- or the A-smoothing (as in :func:`state_circle_counts`),
    in that order, crossing 0 the most significant.  The k-th crossing
    resolved as a vertex becomes vertex ``len(vertices) + k``.  Yields
    ``(a_exponent, vertex_resolutions, num_vertices, edges, circles)`` per
    state, with a_exponent = 4 * (#A - #B) and edges as (u, v), u <= v.
    """
    n_ends = 2 * n_arcs
    arc_joins = [(2 * a, 2 * a + 1) for a in range(n_arcs)]
    vertex_slots = [(e, v) for v, ends in enumerate(vertices) for e in ends]
    n_vertices = len(vertices)
    for choice in product((0, 1, 2), repeat=len(crossings)):
        joins = list(arc_joins)
        slots = list(vertex_slots)
        a_exp = 0
        nv = n_vertices
        for (e0, e1, e2, e3), kind in zip(crossings, choice):
            if kind == 0:
                slots += ((e0, nv), (e1, nv), (e2, nv), (e3, nv))
                nv += 1
            elif kind == 1:
                joins += ((e0, e3), (e1, e2))
                a_exp -= 4
            else:
                joins += ((e0, e1), (e2, e3))
                a_exp += 4
        count, root = components(n_ends, joins)
        # every strand ending at vertex slots ends at exactly two of them
        first: dict[int, int] = {}
        edges: list[tuple[int, int]] = []
        for e, v in slots:
            u = first.pop(root[e], None)
            if u is None:
                first[root[e]] = v
            else:
                edges.append((u, v) if u <= v else (v, u))
        yield a_exp, nv - n_vertices, nv, edges, count - len(edges)
