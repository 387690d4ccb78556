"""The Yamada invariant of spatial-graph diagrams in the 3-sphere.

Crossings are expanded by the three-term resolution (A^4, A^-4, -d) on
arc-end ids (:func:`skein.core.resolution_states`), without building a
diagram per state; the crossing-free residue depends only on the abstract
multigraph and is evaluated by deletion-contraction with a memo table keyed
on canonical multigraph forms.  The memo lives for one call unless the
caller passes one in.  An independent subset state sum serves as the oracle:

    W(G) = sum over F subset of E of (-1/d)^{|E-F|} * d^{beta(F) + c(F)}

with beta the first Betti number and c the component count of (V, F).
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

from .core import CANON_KEY_LIMIT, canon_key, components, resolution_states
from .diagrams import FlatState, GraphDiagram, InvalidDiagramError

# unused here, but skeinbench/tracing.py rebinds this name in this module
from .diagrams import resolve_crossing  # noqa: F401
from .rings import (
    CIRCLE_FACTOR,
    D,
    D_INV,
    LOOP_FACTOR,
    ZERO,
    LaurentPoly,
    LocalizedElement,
)

#: soft limit on the 3^c expansion; beyond it a warning is emitted
EXPANSION_WARN_CROSSINGS = 16

_NEG_D = -D

EdgePicker = Callable[[Sequence[tuple[int, int]]], int]


def _first_nonloop(edges: Sequence[tuple[int, int]]) -> int:
    for i, (u, v) in enumerate(edges):
        if u != v:
            return i
    raise AssertionError("no non-loop edge")


def _contract(n: int, edges: tuple[tuple[int, int], ...], idx: int) -> tuple[int, tuple]:
    u, v = edges[idx]  # u < v
    out = []
    for i, (a, b) in enumerate(edges):
        if i == idx:
            continue
        a2 = u if a == v else (a if a < v else a - 1)
        b2 = u if b == v else (b if b < v else b - 1)
        out.append((a2, b2) if a2 <= b2 else (b2, a2))
    return n - 1, tuple(sorted(out))


def _delete(edges: tuple[tuple[int, int], ...], idx: int) -> tuple:
    return tuple(e for i, e in enumerate(edges) if i != idx)


def _components(n: int, edges: tuple[tuple[int, int], ...]):
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
            (len(verts), tuple(sorted((remap[u], remap[v]) for u, v in comp_edges)))
        )
    return comps, count - len(groups)  # components without edges are isolated vertices


def _has_bridge(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    """Bridge detection in a loop-free multigraph (parallel edges never bridge)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc = [-1] * n
    low = [0] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            node, in_edge, it = stack[-1]
            advanced = False
            for nxt, eid in it:
                if eid == in_edge:
                    continue
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = timer
                    timer += 1
                    stack.append((nxt, eid, iter(adj[nxt])))
                    advanced = True
                    break
                low[node] = min(low[node], disc[nxt])
            if not advanced:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > disc[pnode]:
                        return True
    return False


def _w_eval(
    n: int,
    edges: tuple[tuple[int, int], ...],
    memo: dict[bytes, LocalizedElement],
    picker: EdgePicker,
) -> LocalizedElement:
    key = canon_key(n, edges)
    cached = memo.get(key)
    if cached is not None:
        return cached
    loops = sum(1 for u, v in edges if u == v)
    if loops:
        rest = tuple(e for e in edges if e[0] != e[1])
        val = LOOP_FACTOR**loops * _w_eval(n, rest, memo, picker)
    elif not edges:
        val = D**n
    else:
        comps, isolated = _components(n, edges)
        if isolated or len(comps) > 1:
            val = D**isolated
            for cn, ce in comps:
                val = val * _w_eval(cn, ce, memo, picker)
        elif _has_bridge(n, edges):
            val = ZERO  # a cut edge kills the value
        else:
            idx = picker(edges)
            if edges[idx][0] == edges[idx][1]:
                raise ValueError("edge picker chose a loop")
            n2, contracted = _contract(n, edges, idx)
            deleted = _delete(edges, idx)
            val = _w_eval(n2, contracted, memo, picker) - D_INV * _w_eval(
                n, deleted, memo, picker
            )
    memo[key] = val
    return val


def flat_eval(
    state: FlatState,
    memo: dict[bytes, LocalizedElement] | None = None,
    edge_picker: EdgePicker | None = None,
) -> LocalizedElement:
    """Evaluate a crossing-free state by deletion-contraction.

    Loops are removed first (factor d - 1/d each); a non-loop edge e gives
    W(G) = W(G/e) - (1/d) W(G-e); k isolated vertices are worth d^k; each
    free circle contributes a factor d^2 - 1.  States with more than
    CANON_KEY_LIMIT vertices or edges exceed the memo key encoding and raise
    InvalidDiagramError.  Without ``memo`` the call uses a fresh one.
    """
    if state.num_vertices > CANON_KEY_LIMIT or len(state.edges) > CANON_KEY_LIMIT:
        raise InvalidDiagramError(
            f"flat state has {state.num_vertices} vertices and {len(state.edges)} "
            f"edges; at most {CANON_KEY_LIMIT} of each are supported"
        )
    if memo is None:
        memo = {}
    picker = edge_picker or _first_nonloop
    w = _w_eval(state.num_vertices, state.edges, memo, picker)
    return CIRCLE_FACTOR**state.circle_count * w if state.circle_count else w


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


def yamada(
    g: GraphDiagram, memo: dict[bytes, LocalizedElement] | None = None
) -> LocalizedElement:
    """The Yamada value of a plane/3-sphere diagram.

    Evaluates the flat residue of each of the 3^c resolution states, sums
    the values per (A-exponent, vertex resolutions) and multiplies each sum
    by its weight A^e (-d)^v once.  The flat states share ``memo``, or a
    fresh memo when none is given.
    """
    if g.has_rays():
        raise InvalidDiagramError("yamada is defined on plane diagrams (no ray words)")
    if len(g.crossings) > EXPANSION_WARN_CROSSINGS:
        warnings.warn(
            f"expanding 3^{len(g.crossings)} resolution states; this may take long",
            stacklevel=2,
        )
    if memo is None:
        memo = {}
    vertex_ends, crossing_ends = g.end_ids()
    sums: dict[tuple[int, int], LocalizedElement] = {}
    for a_exp, v, n, edges, circles in resolution_states(
        len(g.arc_ends()), vertex_ends, crossing_ends
    ):
        value = flat_eval(FlatState.make(n, edges, circles + g.free_circles), memo)
        key = (a_exp, v)
        sums[key] = sums[key] + value if key in sums else value
    total = ZERO
    for (a_exp, v), value in sorted(sums.items()):
        weight = LocalizedElement(LaurentPoly.monomial(1, a_exp)) * _NEG_D**v
        total = total + weight * value
    return total
