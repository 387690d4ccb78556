"""The Yamada invariant of spatial-graph diagrams in the 3-sphere.

Crossings are expanded by the three-term resolution (A^4, A^-4, -d) in one
depth-first walk over arc-end ids in :func:`yamada`, without building a
diagram per state; the crossing-free residue depends only on the abstract
multigraph and is evaluated by deletion-contraction with a memo table keyed
on canonical multigraph forms.  The walk over 3^c states reaches the same
labeled residue again and again (88% of the key requests on the benchmark's
``resolve`` pool repeat one), so :func:`skein.core.canon_key` keeps the keys
of the 256 distinct labeled inputs it saw most recently, and each is
canonicalized once while it stays there.  The flat value W(G) is an integer
Laurent polynomial in d, so the recursion computes it as a :class:`LaurentPoly`
read in the variable d, and :func:`flat_eval` converts it to the
coefficient ring through a bounded cache, once per (W, circle count) it
keeps; the memo values are these d-polynomials, opaque to callers.  The
memo lives for one call unless the caller passes one in.  An independent
subset state sum serves as the oracle:

    W(G) = sum over F subset of E of (-1/d)^{|E-F|} * d^{beta(F) + c(F)}

with beta the first Betti number and c the component count of (V, F).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Sequence

from .core import CANON_KEY_LIMIT, canon_key, components
from .diagrams import FlatState, GraphDiagram, InvalidDiagramError

# unused here, but skeinbench/tracing.py rebinds this name in this module
from .diagrams import resolve_crossing  # noqa: F401
from .rings import (
    CIRCLE_FACTOR,
    D_LAURENT,
    ZERO,
    LaurentPoly,
    LocalizedElement,
    _to_localized,
)

#: most crossings ``yamada`` expands: its 3^c resolution states, 3^16 at most,
#: 6-9 min at the 9-13 us per state that 12-crossing closed braids take
MAX_RESOLVED_CROSSINGS = 16

EdgePicker = Callable[[Sequence[tuple[int, int]]], int]

#: d - 1/d, the factor of a loop, as a Laurent polynomial in d
_LOOP = LaurentPoly({1: 1, -1: -1})


def _first_nonloop(edges: Sequence[tuple[int, int]]) -> int:
    for i, (u, v) in enumerate(edges):
        if u != v:
            return i
    raise AssertionError("no non-loop edge")


def _contract(n: int, edges: Sequence[tuple[int, int]], idx: int) -> tuple[int, list]:
    u, v = edges[idx]  # u < v
    label = [*range(v), u, *range(v, n - 1)]
    out = []
    for i, (a, b) in enumerate(edges):
        if i == idx:
            continue
        a = label[a]
        b = label[b]
        out.append((a, b) if a <= b else (b, a))
    out.sort()
    return n - 1, out


def _delete(edges: Sequence[tuple[int, int]], idx: int) -> list:
    out = list(edges)
    del out[idx]
    return out


def _components(n: int, edges: Sequence[tuple[int, int]]):
    """Split into connected components (relabeled densely) plus the count of
    isolated vertices."""
    count, root = components(n, edges)
    groups: dict[int, list[tuple[int, int]]] = {}
    for u, v in edges:
        groups.setdefault(root[u], []).append((u, v))
    comps = []
    for _, comp_edges in sorted(groups.items()):
        verts = sorted({x for e in comp_edges for x in e})
        remap = {v: i for i, v in enumerate(verts)}
        comps.append(
            (len(verts), sorted((remap[u], remap[v]) for u, v in comp_edges))
        )
    return comps, count - len(groups)  # components without edges are isolated vertices


#: outcomes of :func:`_split_or_bridge`
SPLITS, HAS_BRIDGE, BRIDGELESS = 0, 1, 2


def _split_or_bridge(n: int, edges: Sequence[tuple[int, int]]) -> int:
    """One lowlink depth-first search of a loop-free multigraph with edges.

    Returns SPLITS when the graph is disconnected or has an isolated vertex,
    HAS_BRIDGE when it is connected with a bridge (parallel edges never
    bridge), and BRIDGELESS otherwise.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * n
    low = [0] * n
    disc[0] = 0
    timer = 1
    bridge = False
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        node, in_edge, it = stack[-1]
        for nxt, eid in it:
            if eid == in_edge:
                continue
            seen = disc[nxt]
            if seen < 0:
                disc[nxt] = low[nxt] = timer
                timer += 1
                stack.append((nxt, eid, iter(adj[nxt])))
                break
            if seen < low[node]:
                low[node] = seen
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
                elif low[node] > disc[parent]:
                    bridge = True
    if timer < n:
        return SPLITS
    return HAS_BRIDGE if bridge else BRIDGELESS


def _w_eval(
    n: int,
    edges: Sequence[tuple[int, int]],
    memo: dict[bytes, LaurentPoly],
    picker: EdgePicker,
) -> LaurentPoly:
    key = canon_key(n, edges)
    cached = memo.get(key)
    if cached is not None:
        return cached
    rest = [e for e in edges if e[0] != e[1]]
    loops = len(edges) - len(rest)
    if loops:
        val = _w_eval(n, rest, memo, picker)
        for _ in range(loops):
            val = val * _LOOP
    elif not edges:
        val = LaurentPoly.monomial(1, n)
    else:
        shape = _split_or_bridge(n, edges)
        if shape == SPLITS:
            comps, isolated = _components(n, edges)
            val = LaurentPoly.monomial(1, isolated)
            for cn, ce in comps:
                val = val * _w_eval(cn, ce, memo, picker)
        elif shape == HAS_BRIDGE:
            val = LaurentPoly.zero()  # a cut edge kills the value
        else:
            idx = picker(edges)
            if edges[idx][0] == edges[idx][1]:
                raise ValueError("edge picker chose a loop")
            n2, contracted = _contract(n, edges, idx)
            deleted = _delete(edges, idx)
            val = _w_eval(n2, contracted, memo, picker)
            val = val - _w_eval(n, deleted, memo, picker).shifted(-1)
    memo[key] = val
    return val


@lru_cache(maxsize=256)
def _localized(w: LaurentPoly, circles: int) -> LocalizedElement:
    """W (d^2 - 1)^circles as a ring element: the circle factors applied to
    the d-polynomial, then one conversion."""
    for _ in range(circles):
        w = w.shifted(2) - w
    return _to_localized(w)


def flat_eval(
    state: FlatState,
    memo: dict[bytes, LaurentPoly] | None = None,
    edge_picker: EdgePicker | None = None,
) -> LocalizedElement:
    """Evaluate a crossing-free state by deletion-contraction.

    Loops are removed first (factor d - 1/d each); a non-loop edge e gives
    W(G) = W(G/e) - (1/d) W(G-e); k isolated vertices are worth d^k; each
    free circle contributes a factor d^2 - 1.  The recursion and ``memo``
    hold W as LaurentPolys in the variable d, opaque to callers.  The ring
    value of W and the circle count comes from ``_localized``, a
    least-recently-used cache of at most 256 such pairs shared by every
    call, so a value that many states reach is converted once.  States
    with more than CANON_KEY_LIMIT vertices or edges exceed the memo key
    encoding and raise InvalidDiagramError.  Without ``memo`` the call uses
    a fresh one.
    """
    if state.num_vertices > CANON_KEY_LIMIT or len(state.edges) > CANON_KEY_LIMIT:
        raise InvalidDiagramError(
            f"flat state has {state.num_vertices} vertices and {len(state.edges)} "
            f"edges; at most {CANON_KEY_LIMIT} of each are supported"
        )
    if memo is None:
        memo = {}
    picker = edge_picker or _first_nonloop
    return _localized(_w_eval(state.num_vertices, state.edges, memo, picker), state.circle_count)


def flat_eval_oracle(state: FlatState, max_edges: int = 16) -> LocalizedElement:
    """Subset state sum over spanning subgraphs; exhaustive and memo-free.

    Intended for cross-checking flat_eval on small graphs.
    """
    m = len(state.edges)
    if m > max_edges:
        raise InvalidDiagramError(
            f"oracle limited to {max_edges} edges, state has {m}"
        )
    n = state.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # accumulate integer multiplicities of d^k (the (-1)^t signs folded in)
    d_weights: dict[int, int] = {}
    for mask in range(1 << m):
        for i in range(n):
            parent[i] = i
        comps = n
        size = 0
        for i in range(m):
            if (mask >> i) & 1:
                size += 1
                u, v = state.edges[i]
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
        t = m - size
        betti_plus_c = size - n + 2 * comps
        k = betti_plus_c - t
        d_weights[k] = d_weights.get(k, 0) + (-1 if t % 2 else 1)
    total = ZERO
    for k, c in sorted(d_weights.items()):
        if c:
            total = total + LocalizedElement.d_to_the(k).scale(c)
    return CIRCLE_FACTOR**state.circle_count * total if state.circle_count else total


def yamada(g: GraphDiagram, memo: dict[bytes, LaurentPoly] | None = None) -> LocalizedElement:
    """The Yamada value of a plane/3-sphere diagram.

    Walks the 3^c resolution states depth first, crossing 0 outermost:
    each crossing becomes a flat vertex (the k-th one vertex n + k, for
    the n vertices of ``g``), then takes the B-, then the A-smoothing, by
    the joins of :func:`skein.core.state_circle_counts`.  Evaluates the
    flat residue of each state and counts its states per (A-exponent e,
    vertex resolutions v) for each value object ``flat_eval`` returns,
    keyed by identity, so no ring element is hashed per state.  Each
    distinct value then gets one integer LaurentPoly, the sum of count *
    A^e (-d)^v with (-d)^v from one table of c + 1 powers, and
    LocalizedElement.sum_of_products takes one product per distinct value
    and normalizes the total once.  The flat states share ``memo``, or a
    fresh memo when none is given.  A diagram of more than
    MAX_RESOLVED_CROSSINGS crossings raises InvalidDiagramError, which
    states its 3^c states.
    """
    if g.has_rays():
        raise InvalidDiagramError("yamada is defined on plane diagrams (no ray words)")
    c = len(g.crossings)
    if c > MAX_RESOLVED_CROSSINGS:
        raise InvalidDiagramError(
            f"yamada would expand 3^{c} = {3**c} resolution states; "
            f"the limit is {MAX_RESOLVED_CROSSINGS} crossings"
        )
    if memo is None:
        memo = {}
    vertex_ends, crossing_ends = g.end_ids()
    free = g.free_circles
    n = len(vertex_ends)
    mate = [e ^ 1 for e in range(2 * g.num_arcs)]
    owner = [0] * (2 * g.num_arcs)  # the vertex of each terminal end
    terminals: list[int] = []
    for v, ends in enumerate(vertex_ends):
        for e in ends:
            owner[e] = v
        terminals.extend(ends)
    # per flat value, keyed by the identity of the object flat_eval returns,
    # its states per (A-exponent, vertex resolutions); ``held`` keeps each
    # object alive, so no id is reused within the call
    tallies: dict[int, dict[tuple[int, int], int]] = {}
    held: list[LocalizedElement] = []

    def visit(i: int, nv: int, a_exp: int, closed: int) -> None:
        if i == c:
            # each open strand runs between two terminals, an edge: sorted
            # pairs u <= v below nv, a valid state
            edges = sorted([
                (a, b) if (a := owner[e]) <= (b := owner[mate[e]]) else (b, a)
                for e in terminals
                if e < mate[e]
            ])
            value = flat_eval(FlatState._unchecked(nv, tuple(edges), closed + free), memo)
            counts = tallies.get(id(value))
            if counts is None:
                counts = tallies[id(value)] = {}
                held.append(value)
            key = (a_exp, nv - n)
            counts[key] = counts.get(key, 0) + 1
            return
        ends = crossing_ends[i]
        for e in ends:
            owner[e] = nv
        terminals.extend(ends)
        visit(i + 1, nv + 1, a_exp, closed)
        del terminals[-4:]
        e0, e1, e2, e3 = ends
        # the B-smoothing (0-3, 1-2), then the A-smoothing (0-1, 2-3);
        # joining the two ends of one strand (a == y) closes a circle
        for x, y, z, w, da in ((e0, e3, e1, e2, -4), (e0, e1, e2, e3, 4)):
            a = mate[x]
            b = mate[y]
            mate[a] = b
            mate[b] = a
            p = mate[z]
            q = mate[w]
            mate[p] = q
            mate[q] = p
            visit(i + 1, nv, a_exp + da, closed + (a == y) + (p == w))
            mate[p] = z
            mate[q] = w
            mate[a] = x
            mate[b] = y

    visit(0, n, 0, 0)
    # visit refers to itself through its closure cell; unbinding it frees
    # the cycle now, not at the next garbage collection
    visit = None
    neg_d = [(-D_LAURENT) ** v for v in range(c + 1)]
    # sum count A^a (-d)^v as integer A-coefficients per distinct value;
    # equal values from distinct objects share one sum
    sums: dict[LocalizedElement, dict[int, int]] = {}
    for value, counts in zip(held, tallies.values()):
        acc = sums.setdefault(value, {})
        for (a_exp, v), count in counts.items():
            for e, coeff in neg_d[v].items():
                acc[a_exp + e] = acc.get(a_exp + e, 0) + count * coeff
    return LocalizedElement.sum_of_products(
        (LaurentPoly(acc), (value,)) for value, acc in sums.items()
    )
