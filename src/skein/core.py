"""The hot kernels, in pure Python.

The kernels are pure functions on small integers; the package needs no
build step and has no compiled backend.

* :func:`canon_key` -- canonical byte key of a labeled multigraph, used to
  share memo entries between isomorphic crossing-resolution states; a
  bounded least-recently-used cache on the labeled input (at most 256
  entries) runs its search once per distinct input it keeps.
* :func:`components` -- connected components by union-find.
* :func:`state_circle_counts` -- circle counts of all 2^c smoothing states of
  a vertexless diagram, the inner loop of the Kauffman bracket state sum
  (:func:`skein.tl.bracket`) and of the plane evaluation of the 2-cabling
  (:mod:`skein.cabling`).
* :func:`resolution_states` -- the flat multigraph of each of the 3^c
  resolution states of a diagram, the outer loop of the Yamada state sum.
* :func:`frontier_sweep` -- the weighted state sum of a vertexless diagram
  of bracket and projector crossings, one crossing at a time over at most
  MAX_SWEEP_STATES pairings of the open ends, as a ``LaurentPoly``: the
  plane evaluation of the 2-cabling of a diagram with crossings
  (:func:`skein.cabling.phi_plane`).

The two walks run depth first over the arc-end ids of
:meth:`GraphDiagram.end_ids`, numbered as the :mod:`skein.diagrams` module
docstring states.  They keep the open strands in a mate array (``mate[e]``
is the far end of the strand ending at arc end e, initially e ^ 1), join
strands at each smoothing and undo the join on the way back, so a step
costs O(1) work instead of a union-find over all arc ends.  The sweep joins
the same way in a local mate table per state and step.  Each function's
docstring describes the rest of its work.
"""

from __future__ import annotations

import sys
from array import array
from bisect import insort
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, Sequence

from .rings import LaurentPoly

#: largest vertex or edge count :func:`canon_key` can encode (one byte each)
CANON_KEY_LIMIT = 255

#: most live states of :func:`frontier_sweep`, read at each call
MAX_SWEEP_STATES = 1 << 14


class SweepBudgetError(ValueError):
    """Raised by :func:`frontier_sweep` past its live-state budget: the
    input is too wide for the sweep, not malformed."""


def backend_name() -> str:
    """Name of the kernel implementation; always ``"pure"``."""
    return "pure"


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
    neighborhood-color refinement, of the sorted relabeled edge list: an
    individualization-refinement search (McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014) that prunes only twin
    vertices and compares every leaf it reaches.  Supports at most
    CANON_KEY_LIMIT vertices and edges; larger inputs raise ValueError.

    The search runs once per distinct labeled input: a least-recently-used
    cache of at most 256 entries, shared by every call, is keyed on ``n``
    and a tuple copy of ``edges`` (so each edge must be hashable, such as a
    pair of ints), and a later change to the caller's sequence cannot reach
    it.  The 3^c resolution states of one ``yamada`` call ask again and again
    for the same labeled residue: 88% of the calls on the benchmark's
    ``resolve`` pool repeat an input that the cache still holds.  An input
    past the limits is never cached, so it raises on every call.
    """
    return _canon_key(n, tuple(edges))


@lru_cache(maxsize=256)
def _canon_key(n: int, edges: tuple[tuple[int, int], ...]) -> bytes:
    """:func:`canon_key` of a hashable edge tuple, searched on a miss."""
    m = len(edges)
    if n > CANON_KEY_LIMIT or m > CANON_KEY_LIMIT:
        raise ValueError(
            f"canon_key supports at most {CANON_KEY_LIMIT} vertices and "
            f"{CANON_KEY_LIMIT} edges, got {n} and {m}"
        )
    if n == 0:
        return bytes([0, m])
    nbr: list[list[int]] = [[] for _ in range(n)]
    loops: list[int] | None = None
    for u, v in edges:
        if u == v:
            if loops is None:
                loops = [0] * n
            loops[u] += 2
        else:
            nbr[u].append(v)
            nbr[v].append(u)
    # the start colour is (degree, loop ends); without loops the degrees
    # alone rank the same
    if loops is None:
        signatures: list = list(map(len, nbr))
    else:
        signatures = [(len(nb) + k, k) for nb, k in zip(nbr, loops)]
    rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    colors, count = _refine(list(map(rank.__getitem__, signatures)), len(rank), nbr)
    # the individualization tree, depth first from the refined root, which
    # is a leaf itself when its colors are already discrete; the leaves may
    # be met in any order, as only their minimum counts
    best: list[int] | None = None
    stack = [(colors, count)]
    while stack:
        colors, count = stack.pop()
        if count == n:
            # a leaf: each edge as the int a * 256 + b of its relabeled ends
            # a <= b, whose order is the order of the encoded byte pairs
            pairs = sorted([
                a << 8 | b if (a := colors[u]) <= (b := colors[v]) else b << 8 | a
                for u, v in edges
            ])
            if best is None or pairs < best:
                best = pairs
            continue
        # the first cell of more than one vertex: ranks are dense, so the
        # sorted colors run 0, 1, ... up to the first repeat
        ordered = sorted(colors)
        target = next(c for i, c in enumerate(ordered) if ordered[i + 1] == c)
        shifted = [c + 1 for c in colors]
        # vertices swapped by an automorphism fixing everything else yield
        # identical subtrees; branch on one representative per twin group.
        # A cell's vertices share their start colour, which includes the
        # loop count, so twins need no loop check.
        reps: list[int] = []
        for v in range(n):
            if colors[v] != target:
                continue
            for u in reps:
                if sorted(x for x in nbr[u] if x != v) == sorted(x for x in nbr[v] if x != u):
                    break
            else:
                reps.append(v)
                # individualize v: rank 0 for v, every other rank one up
                individual = shifted.copy()
                individual[v] = 0
                stack.append(_refine(individual, count + 1, nbr))
    # the best leaf's pairs as big-endian 16-bit words in one buffer
    key = array("H", best)
    if sys.byteorder == "little":
        key.byteswap()
    return bytes((n, m)) + key.tobytes()


def _check_slots(n_arcs: int, *slot_lists: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless the slots hold each arc-end id exactly once."""
    ids = sorted(e for slots in slot_lists for ends in slots for e in ends)
    if ids != list(range(2 * n_arcs)):
        raise ValueError("every arc-end id must appear in exactly one slot")


def state_circle_counts(
    n_arcs: int, crossings: Sequence[tuple[int, int, int, int]]
) -> bytes:
    """Circle counts for every smoothing state of a vertexless diagram.

    ``crossings[i]`` holds the four arc-end ids (2*arc + occurrence) of
    crossing i in counterclockwise slot order; every id below 2 * n_arcs
    appears in exactly one slot.  State ``mask`` applies the B-smoothing
    (joining slots 0-3 and 1-2) at crossing i when bit i is set, and the
    A-smoothing (slots 0-1 and 2-3) otherwise.  Returns ``bytes`` of length
    2^len(crossings), one count per state; a count is at most n_arcs = 2c,
    below 256 for any c whose 2^c states fit in memory.

    The walk takes crossing c-1 outermost and A before B, which visits the
    states in mask order.  Once crossings c-1 .. i+1 are smoothed, the
    2^(i+1) counts of the states below, a contiguous block of the result,
    are the circles closed so far plus a block that depends only on how
    the open strands pair the boundary ends of crossings i .. 0: the ends
    whose arcs lead to a crossing above i.  Every other of their ends lies
    on an arc between two of them, whose strand no join above touches.  At
    each level i >= 2 a dict keyed by the mates at the boundary ends
    records where the first block with that pairing starts and the circles
    closed before it; the walk descends only for a pairing the level has not
    met, and otherwise copies the recorded block, shifted by the difference
    in closed circles.  A level whose boundary is empty (crossings i .. 0
    close up by themselves) has one key.  A block of one or two crossings
    costs less than its key, so levels 0 and 1 record nothing.  The walk
    thus visits each level at most twice per distinct pairing met one level
    up, and each dict holds one entry per distinct pairing its level meets;
    the dicts are freed on return.
    """
    _check_slots(n_arcs, crossings)
    if not crossings:
        return b"\0"
    mate = [e ^ 1 for e in range(2 * n_arcs)]
    counts = bytearray(1 << len(crossings))
    view = memoryview(counts)
    # per crossing, its A- then its B-smoothing as the pairs (x, y), (z, w)
    # of ends it joins
    smoothings = [((e0, e1, e2, e3), (e0, e3, e1, e2)) for e0, e1, e2, e3 in crossings]
    # per level i: the mates at the boundary ends of crossings[:i+1], and
    # the dict from those mates to the start of the first block with them
    # and the circles closed before it
    keys: list = []
    # the arcs with one end among crossings[:i+1], each with that end
    boundary: dict[int, int] = {}
    for ends in crossings:
        for e in ends:
            if boundary.pop(e >> 1, None) is None:
                boundary[e >> 1] = e
        keys.append((itemgetter(*boundary.values()) if boundary else _no_mates, {}.setdefault))
    l0, l1, _, l3 = crossings[0]

    def visit(i: int, closed: int, at: int) -> None:
        if i == 0:
            # only the four ends of crossing 0 are still open, paired by two
            # strands
            m = mate[l0]
            counts[at] = closed + 1 + (m == l1)
            counts[at + 1] = closed + 1 + (m == l3)
            return
        if i > 1:
            # a block recorded earlier is complete: the walk left its subtree
            boundary_mates, setdefault = keys[i]
            start, before = setdefault(boundary_mates(mate), (at, closed))
            if start != at:
                size = 2 << i
                if before == closed:
                    view[at : at + size] = view[start : start + size]
                else:
                    shift = _shift(closed - before)
                    view[at : at + size] = counts[start : start + size].translate(shift)
                return
        for x, y, z, w in smoothings[i]:
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
            visit(i - 1, closed + (a == y) + (p == w), at)
            at += 1 << i
            mate[p] = z
            mate[q] = w
            mate[a] = x
            mate[b] = y

    visit(len(crossings) - 1, 0, 0)
    # visit refers to itself through its closure cell; unbinding it frees
    # the cycle (and the keys and ``counts`` with it) now, not at the next
    # garbage collection
    visit = None
    return bytes(counts)


def _no_mates(_mate: list[int]) -> tuple[()]:
    return ()


@lru_cache(maxsize=None)
def _shift(delta: int) -> bytes:
    """The ``bytes.translate`` table that adds delta to every byte, mod 256."""
    s = delta & 255
    return bytes(range(s, 256)) + bytes(range(s))


def frontier_sweep(
    n_arcs: int, crossings: Sequence[tuple[int, int, int, int]], n_cable: int, loops: int
) -> LaurentPoly:
    """The weighted state sum of a vertexless diagram, by one frontier sweep.

    ``crossings`` are as in :func:`state_circle_counts`, with the A- and
    B-smoothings as there.  The first ``n_cable`` are bracket crossings: the
    A-smoothing weighs A, the B-smoothing A^-1.  The others are projector
    crossings: the A-smoothing (a turnback) weighs -1 and the B-smoothing
    (a straight pair) d.  Every circle of a state, and ``loops`` more,
    weighs d = -A^2 - A^-2.  Returns the sum over all states of their
    weights, exactly.

    Order.  The crossings are taken greedily, each time the one with the
    fewest ends whose arcs lead to a crossing not yet taken (the fewest new
    open ends), ties to the lowest index.  Taking a crossing lowers the
    scores of its neighbours, so the order costs O(c^2).

    State.  The open ends are the ends at crossings not yet taken whose
    arcs lead to a taken one, and the taken crossings' strands pair them.
    An open end keeps one slot while it is open, and a state is the tuple,
    over the slots, of the slot of each open end's mate.  The slot of a
    taken end is a hole, which holds its own index, until a new open end
    fills it, the lowest hole first, and trailing holes are dropped.
    Taking a crossing copies a state into a local mate table, adds the arcs
    to the new open ends and the arcs with both ends at the crossing, and
    joins the smoothing's two pairs as :func:`state_circle_counts` joins;
    joining the two ends of one strand closes a circle.  The table's slots
    are the new state.  Equal states are summed, so the live states are the
    distinct pairings of the open ends.  A step's plan (:func:`_sweep_plans`)
    fixes the table's layout, the holes to reset and the crossing's four
    entries once, and the loop body writes out both smoothings, so a state
    pays per smoothing one table copy, two joins, the resets, one tuple and
    one shift and add per d-factor.

    Coefficient.  One int per state: a polynomial in u = A^2 at u =
    2^width, each state's weight times u^most, where ``most`` bounds the
    d-factors of any state.  The A-smoothing of a bracket crossing
    multiplies by 2^width, and d = -(u^2 + 1)/u is the shift and add
    ``-(((v << 2 width) + v) >> width)``, exact because the factor u^most is
    never used up.  At the end the total is taken times A^-n_cable u^-most:
    :func:`_read_digits` reads its signed base-2^width digit i back as the
    coefficient of A^(-n_cable - 2 most + 2i).  Both bounds are carried
    along the order before the states are swept.  A smoothing closes at
    most one circle per join whose two ends were open or share an arc, so
    ``most`` adds up, per crossing, the larger such count a or b of its two
    smoothings (a straight pair counts one more).  The absolute coefficient
    sum of the total is at most 2^loops times the product over the
    crossings of 2^a + 2^b, and ``width`` is one bit more than that bound,
    so every digit reads back exactly.

    A sweep past MAX_SWEEP_STATES live states raises
    :class:`SweepBudgetError`, a ValueError, which states the count; slots
    that do not hold each arc-end id once raise a plain ValueError.  A step
    holds the states before it and at most twice as many after it, so at
    most 3 MAX_SWEEP_STATES states are alive at once, each a tuple of slots
    and a coefficient of at most (n_cable + 2 most + 1) width bits: the
    memory is bounded by 3 MAX_SWEEP_STATES times that size.  The greedy
    order can pass the budget on small inputs, such as a theta with one
    twist region of 12 crossings, which the 3^12 Yamada walk evaluates.
    """
    _check_slots(n_arcs, crossings)
    plans, bound, most = _sweep_plans(n_arcs, crossings, n_cable)
    bound <<= loops
    most += loops
    width = bound.bit_length() + 1
    width2 = 2 * width
    one = 1 << width * most
    for _ in range(loops):
        one = -(((one << width2) + one) >> width)
    states = {(): one}
    for projector, ext, reset, keep, x, y, z, w in plans:
        # the A-smoothing joins (x, y) and (z, w) and weighs u = A^2 at a
        # bracket crossing (its A^-1 is in e), -1 at a projector crossing;
        # the B-smoothing joins (x, w) and (y, z) and weighs 1, or d
        new: dict[tuple[int, ...], int] = {}
        get = new.get
        for key, v in states.items():
            mate = [*key, *ext]
            a = mate[x]
            b = mate[y]
            mate[a] = b
            mate[b] = a
            p = mate[z]
            q = mate[w]
            mate[p] = q
            mate[q] = p
            for slot in reset:
                mate[slot] = slot
            after = tuple(mate[:keep])
            c = -v if projector else v << width
            closed = (a == y) + (p == w)
            while closed:
                c = -(((c << width2) + c) >> width)
                closed -= 1
            new[after] = get(after, 0) + c
            mate = [*key, *ext]
            a = mate[x]
            b = mate[w]
            mate[a] = b
            mate[b] = a
            p = mate[y]
            q = mate[z]
            mate[p] = q
            mate[q] = p
            for slot in reset:
                mate[slot] = slot
            after = tuple(mate[:keep])
            c = v
            closed = (a == w) + (p == z) + projector
            while closed:
                c = -(((c << width2) + c) >> width)
                closed -= 1
            new[after] = get(after, 0) + c
        if len(new) > MAX_SWEEP_STATES:
            raise SweepBudgetError(
                f"the frontier sweep holds {len(new)} live states, "
                f"past its budget of {MAX_SWEEP_STATES}"
            )
        states = new
    return _read_digits(states[()], width, -n_cable - 2 * most)


def _read_digits(total: int, width: int, e: int) -> LaurentPoly:
    """The Laurent polynomial whose coefficient of A^(e + 2i) is signed
    base-2^width digit i of ``total``, a Kronecker-packed sum."""
    coeffs: dict[int, int] = {}
    digit = 1 << width
    while total:
        r = total & (digit - 1)
        if r >= digit >> 1:
            r -= digit
        if r:
            coeffs[e] = r
        total = (total - r) >> width
        e += 2
    return LaurentPoly(coeffs)


def _sweep_plans(
    n_arcs: int, crossings: Sequence[tuple[int, int, int, int]], n_cable: int
) -> tuple[list[tuple], int, int]:
    """The steps of :func:`frontier_sweep`, one per crossing in the greedy
    order, and its two bounds without the extra loops: the absolute
    coefficient sum and the most d-factors.  A step is (whether the
    crossing is a projector crossing, the local mate table past the old
    slots, the holes it makes, the number of slots after it, and the table
    entries of the crossing's four ends).

    A step finds the slot of each open end here in a dict from open end to
    slot and fills the lowest holes from an ascending list of them, so
    besides the O(c) choice of the crossing it costs a dict lookup and a
    few list operations per end, never a scan of the slots."""
    n = len(crossings)
    at = [0] * (2 * n_arcs)  # the crossing of each end
    for ci, (e0, e1, e2, e3) in enumerate(crossings):
        at[e0] = at[e1] = at[e2] = at[e3] = ci
    # per crossing, the crossing at the other end of each of its arcs
    nbrs = [(at[e0 ^ 1], at[e1 ^ 1], at[e2 ^ 1], at[e3 ^ 1]) for e0, e1, e2, e3 in crossings]
    score = [4 - cs.count(ci) for ci, cs in enumerate(nbrs)]
    taken = [False] * n
    slot_of: dict[int, int] = {}  # the slot of each open end
    size = 0  # the number of slots, holes included
    holes: list[int] = []  # the holes below size, ascending
    plans = []
    bound = 1
    most = 0
    for _ in range(n):
        ci = score.index(min(score))
        score[ci] = 5  # above any score left
        ends = crossings[ci]
        # the local mate table: the slots, then one entry per end here that
        # was not open
        node = {}  # the table entry of each end here
        consumed = []
        outward = []
        closable = []  # whether each end here can close a circle
        for e, cj in zip(ends, nbrs[ci]):
            if taken[cj]:
                node[e] = k = slot_of.pop(e)
                consumed.append(k)
                closable.append(True)
            elif cj != ci:
                outward.append(e)
                score[cj] -= 1
                closable.append(False)
            else:
                closable.append(True)
        # the new open ends fill the lowest holes, then new slots; a new
        # slot, like a hole, holds its own index until the joins set it
        old = size
        ext = []  # the table past the old slots
        if len(outward) > len(holes):
            size += len(outward) - len(holes)
            holes += range(old, size)
            ext += range(old, size)
        x = size
        for e, k in zip(outward, holes):
            slot_of[e ^ 1] = k
            node[e] = x
            ext.append(k)
            x += 1
        del holes[: len(outward)]
        if len(node) < 4:
            for e in ends:
                if e not in node:  # an arc with both ends here
                    node[e] = x
                    node[e ^ 1] = x + 1
                    ext += (x + 1, x)
                    x += 2
        for k in consumed:
            insort(holes, k)
        while holes and holes[-1] == size - 1:
            holes.pop()
            size -= 1
        c0, c1, c2, c3 = closable
        a = (c0 and c1) + (c2 and c3)
        b = (c0 and c3) + (c1 and c2) + (ci >= n_cable)
        bound *= (1 << a) + (1 << b)
        most += max(a, b)
        taken[ci] = True
        reset = [k for k in consumed if k < size]  # the holes made here
        plans.append((ci >= n_cable, ext, reset, size, *map(node.__getitem__, ends)))
    return plans, bound, most


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
) -> Iterator[tuple[int, int, int, tuple[tuple[int, int], ...], int]]:
    """Flat residues of all 3^c resolution states of a diagram, lazily.

    ``vertices[v]`` and ``crossings[i]`` hold the arc-end ids of the slots
    of flat vertex v and crossing i; every id below 2 * n_arcs appears in
    exactly one slot, which is checked when this is called, before any
    state is made.  Each crossing becomes a flat vertex, or takes the B- or
    the A-smoothing (as in :func:`state_circle_counts`), in that order,
    crossing 0 the most significant.  The k-th crossing resolved as a vertex
    becomes vertex ``len(vertices) + k``.  Yields ``(a_exponent,
    vertex_resolutions, num_vertices, edges, circles)`` per state, with
    a_exponent = 4 * (#A - #B) and edges the sorted tuple of vertex pairs
    (u, v), u <= v, as :class:`skein.diagrams.FlatState` holds them.

    Vertex slots are the terminals of the open strands: in a leaf state
    each strand runs between two of them, an edge; circles are the joins
    that closed a strand.
    """
    _check_slots(n_arcs, vertices, crossings)
    mate = [e ^ 1 for e in range(2 * n_arcs)]
    owner = [0] * (2 * n_arcs)  # vertex of each terminal end
    terminals: list[int] = []
    for v, ends in enumerate(vertices):
        for e in ends:
            owner[e] = v
        terminals.extend(ends)
    n = len(vertices)
    return _resolve(crossings, 0, mate, owner, terminals, n, n, 0, 0)


def _resolve(
    crossings: Sequence[tuple[int, int, int, int]], i: int, mate: list[int], owner: list[int],
    terminals: list[int], n_vertices: int, nv: int, a_exp: int, closed: int,
) -> Iterator[tuple[int, int, int, tuple[tuple[int, int], ...], int]]:
    """The states of :func:`resolution_states` with crossings[:i] resolved:
    ``nv`` vertices so far, A-exponent ``a_exp`` and ``closed`` circles.
    Crossing i is joined as :func:`state_circle_counts` joins, and the
    joins are undone on the way back."""
    if i == len(crossings):
        edges = sorted([
            (a, b) if (a := owner[e]) <= (b := owner[mate[e]]) else (b, a)
            for e in terminals
            if e < mate[e]
        ])
        yield a_exp, nv - n_vertices, nv, tuple(edges), closed
        return
    ends = crossings[i]
    for e in ends:
        owner[e] = nv
    terminals.extend(ends)
    yield from _resolve(crossings, i + 1, mate, owner, terminals, n_vertices, nv + 1, a_exp, closed)
    del terminals[-4:]
    e0, e1, e2, e3 = ends
    # the B-smoothing (0-3, 1-2), then the A-smoothing (0-1, 2-3)
    for x, y, z, w, da in ((e0, e3, e1, e2, -4), (e0, e1, e2, e3, 4)):
        a = mate[x]
        b = mate[y]
        mate[a] = b
        mate[b] = a
        p = mate[z]
        q = mate[w]
        mate[p] = q
        mate[q] = p
        closes = (a == y) + (p == w)
        yield from _resolve(
            crossings, i + 1, mate, owner, terminals, n_vertices, nv, a_exp + da, closed + closes
        )
        mate[p] = z
        mate[q] = w
        mate[a] = x
        mate[b] = y
