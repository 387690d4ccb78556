"""The hot kernels, in pure Python.

The kernels are pure functions on small integers; the package needs no
build step and has no compiled backend.

* :func:`canon_key` -- canonical byte key of a labeled multigraph, used to
  share memo entries between isomorphic crossing-resolution states.
* :func:`components` -- connected components by union-find.
* :func:`state_circle_counts` -- circle counts of all 2^c smoothing states of
  a vertexless diagram, the inner loop of the Kauffman bracket state sum.
* :func:`resolution_states` -- the flat multigraph of each of the 3^c
  resolution states of a diagram, the outer loop of the Yamada state sum.

The two state sums are depth-first walks over the arc-end ids of
:meth:`GraphDiagram.end_ids`.  They keep the open strands in a mate array
(``mate[e]`` is the far end of the strand ending at arc end e, initially
e ^ 1), join strands at each smoothing and undo the join on the way back,
so a state costs O(1) work instead of a union-find over all arc ends.
"""

from __future__ import annotations

from typing import Iterator, Sequence

#: largest vertex or edge count :func:`canon_key` can encode (one byte each)
CANON_KEY_LIMIT = 255


def backend_name() -> str:
    """Name of the kernel implementation; always ``"pure"``."""
    return "pure"


def _dense_ranks(signatures: list) -> list[int]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


def _refine(colors: list[int], count: int, nbr: list[list[int]]) -> tuple[list[int], int]:
    """Refine the dense ranks ``colors`` (``count`` of them) by neighbor
    colors until stable; returns the stable ranks and their number.

    A round ranks each vertex by (own color, sorted neighbor colors).  As
    the own color comes first, a round that splits no cell reproduces the
    ranks it started from, so refining stops as soon as the number of
    colors stays the same, or reaches one per vertex.  A vertex alone in its
    cell keeps its place in that order whatever its neighbors' colors, so
    its signature is its color alone.
    """
    n = len(colors)
    while count < n:
        size = [0] * count
        for c in colors:
            size[c] += 1
        get = colors.__getitem__
        sigs = [
            (c, *sorted(map(get, nb))) if size[c] > 1 else (c,) for c, nb in zip(colors, nbr)
        ]
        distinct = set(sigs)
        if len(distinct) == count:
            break
        rank = {sig: i for i, sig in enumerate(sorted(distinct))}
        colors = list(map(rank.__getitem__, sigs))
        count = len(distinct)
    return colors, count


def canon_key(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Canonical byte encoding of the multigraph on vertices 0..n-1.

    Isomorphic inputs map to identical keys.  The key is the lexicographic
    minimum, over all vertex orderings compatible with an iterated
    neighborhood-color refinement, of the sorted relabeled edge list.
    Supports at most CANON_KEY_LIMIT vertices and edges; larger inputs raise
    ValueError.
    """
    m = len(edges)
    if n > CANON_KEY_LIMIT or m > CANON_KEY_LIMIT:
        raise ValueError(
            f"canon_key supports at most {CANON_KEY_LIMIT} vertices and "
            f"{CANON_KEY_LIMIT} edges, got {n} and {m}"
        )
    if n == 0:
        return bytes([0, m])
    loops = [0] * n
    nbr: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 2
        else:
            nbr[u].append(v)
            nbr[v].append(u)
    init = _dense_ranks([(len(nbr[v]) + loops[v], loops[v]) for v in range(n)])
    colors, count = _refine(init, max(init) + 1, nbr)

    tails = [u for u, _ in edges]
    heads = [v for _, v in edges]
    best: list[int] | None = None

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

    def search(colors: list[int], count: int) -> None:
        nonlocal best
        if count == n:
            # a leaf: each edge as the int a * 256 + b of its relabeled ends
            # a <= b, whose order is the order of the encoded byte pairs
            get = colors.__getitem__
            pairs = sorted(
                [
                    a << 8 | b if a <= b else b << 8 | a
                    for a, b in zip(map(get, tails), map(get, heads))
                ]
            )
            if best is None or pairs < best:
                best = pairs
            return
        # the first cell of more than one vertex: ranks are dense, so the
        # sorted colors run 0, 1, ... up to the first repeat
        ordered = sorted(colors)
        target = next(c for i, c in enumerate(ordered) if ordered[i + 1] == c)
        cell = [v for v in range(n) if colors[v] == target]
        shifted = [c + 1 for c in colors]
        for v in twin_reps(cell):
            # individualize v: rank 0 for v, every other rank one up
            individual = shifted.copy()
            individual[v] = 0
            search(*_refine(individual, count + 1, nbr))

    search(colors, count)
    # search refers to itself through its closure cell; unbinding it frees
    # the cycle now, not at the next garbage collection
    search = None
    assert best is not None
    key = 0
    for pair in best:
        key = key << 16 | pair
    return bytes((n, m)) + key.to_bytes(2 * m, "big")


def _check_slots(n_arcs: int, *slot_lists: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless the slots hold each arc-end id exactly once."""
    ids = sorted(e for slots in slot_lists for ends in slots for e in ends)
    if ids != list(range(2 * n_arcs)):
        raise ValueError("every arc-end id must appear in exactly one slot")


def state_circle_counts(
    n_arcs: int, crossings: Sequence[tuple[int, int, int, int]]
) -> list[int]:
    """Circle counts for every smoothing state of a vertexless diagram.

    ``crossings[i]`` holds the four arc-end ids (2*arc + occurrence) of
    crossing i in counterclockwise slot order; every id below 2 * n_arcs
    appears in exactly one slot.  State ``mask`` applies the B-smoothing
    (joining slots 0-3 and 1-2) at crossing i when bit i is set, and the
    A-smoothing (slots 0-1 and 2-3) otherwise.  Returns a list of length
    2^len(crossings).

    The walk takes crossing c-1 outermost and A before B, which visits the
    states in mask order, and holds one int per state.
    """
    _check_slots(n_arcs, crossings)
    if not crossings:
        return [0]
    mate = [e ^ 1 for e in range(2 * n_arcs)]
    counts: list[int] = []
    append = counts.append

    def visit(i: int, closed: int) -> None:
        e0, e1, e2, e3 = crossings[i]
        if i == 0:
            # only these four ends are still open, paired by two strands
            m = mate[e0]
            append(closed + 1 + (m == e1))
            append(closed + 1 + (m == e3))
            return
        for x, y, z, w in ((e0, e1, e2, e3), (e0, e3, e1, e2)):
            # joining the two ends of one strand (a == y) closes a circle
            # and leaves mate as it was
            a = mate[x]
            b = mate[y]
            mate[a] = b
            mate[b] = a
            p = mate[z]
            q = mate[w]
            mate[p] = q
            mate[q] = p
            visit(i - 1, closed + (a == y) + (p == w))
            mate[p] = z
            mate[q] = w
            mate[a] = x
            mate[b] = y

    visit(len(crossings) - 1, 0)
    # visit refers to itself through its closure cell; unbinding it frees
    # the cycle (and ``counts`` through ``append``) now, not at the next
    # garbage collection
    visit = None
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
    """Flat residues of all 3^c resolution states of a diagram, lazily.

    ``vertices[v]`` and ``crossings[i]`` hold the arc-end ids of the slots
    of flat vertex v and crossing i; every id below 2 * n_arcs appears in
    exactly one slot.  Each crossing becomes a flat vertex, or takes the B-
    or the A-smoothing (as in :func:`state_circle_counts`), in that order,
    crossing 0 the most significant.  The k-th crossing resolved as a vertex
    becomes vertex ``len(vertices) + k``.  Yields ``(a_exponent,
    vertex_resolutions, num_vertices, edges, circles)`` per state, with
    a_exponent = 4 * (#A - #B) and edges as vertex pairs.

    The walk keeps an explicit stack, so no cycle outlives it.  Vertex
    slots are the terminals of the open strands: in a leaf state each strand
    runs between two of them, an edge; circles are the joins that closed a
    strand.
    """
    _check_slots(n_arcs, vertices, crossings)
    mate = [e ^ 1 for e in range(2 * n_arcs)]
    owner = [0] * (2 * n_arcs)  # vertex of each terminal end
    terminals: list[int] = []
    for v, ends in enumerate(vertices):
        for e in ends:
            owner[e] = v
        terminals.extend(ends)
    n_vertices = nv = len(vertices)
    a_exp = closed = 0
    # per resolved crossing on the current path: its kind (0 vertex, 1 B,
    # 2 A) and the counters as they were before it
    path: list[tuple[int, int, int, int]] = []
    kind = 0
    while True:
        i = len(path)
        if i < len(crossings):
            path.append((kind, a_exp, closed, nv))
            ends = crossings[i]
            if kind == 0:
                for e in ends:
                    owner[e] = nv
                terminals.extend(ends)
                nv += 1
            else:
                e0, e1, e2, e3 = ends
                for x, y in ((e0, e3), (e1, e2)) if kind == 1 else ((e0, e1), (e2, e3)):
                    a = mate[x]
                    b = mate[y]
                    mate[a] = b
                    mate[b] = a
                    closed += a == y
                a_exp += 4 if kind == 2 else -4
            kind = 0
            continue
        yield (
            a_exp,
            nv - n_vertices,
            nv,
            [(owner[e], owner[mate[e]]) for e in terminals if e < mate[e]],
            closed,
        )
        # back up to the deepest crossing with a resolution left to take
        while path:
            kind, a_exp, closed, nv = path.pop()
            e0, e1, e2, e3 = crossings[len(path)]
            if kind == 0:
                del terminals[-4:]
            else:
                # undo the joins in reverse; joined ends still name their
                # strands' far ends
                for x, y in ((e1, e2), (e0, e3)) if kind == 1 else ((e2, e3), (e0, e1)):
                    mate[mate[x]] = x
                    mate[mate[y]] = y
            if kind < 2:
                kind += 1
                break
        else:
            return
