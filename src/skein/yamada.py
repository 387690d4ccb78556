"""The Yamada invariant of spatial-graph diagrams in the 3-sphere.

Crossings are expanded by the three-term resolution (A^4, A^-4, -d) on
arc-end ids (:func:`skein.core.resolution_states`), without building a
diagram per state; the crossing-free residue depends only on the abstract
multigraph and is evaluated by deletion-contraction with a memo table keyed
on canonical multigraph forms.  The flat value W(G) is an integer Laurent
polynomial in d, so the recursion works on integer coefficient lists and
:func:`flat_eval` converts its result to the coefficient ring once; the
memo values are these integer d-polynomials, opaque to callers.  The memo
lives for one call unless the caller passes one in.  An independent subset
state sum serves as the oracle:

    W(G) = sum over F subset of E of (-1/d)^{|E-F|} * d^{beta(F) + c(F)}

with beta the first Betti number and c the component count of (V, F).
"""

from __future__ import annotations

import warnings
from operator import sub
from typing import Callable, Sequence

from .core import CANON_KEY_LIMIT, canon_key, components, resolution_states
from .diagrams import FlatState, GraphDiagram, InvalidDiagramError

# unused here, but skeinbench/tracing.py rebinds this name in this module
from .diagrams import resolve_crossing  # noqa: F401
from .rings import (
    CIRCLE_FACTOR,
    D,
    ZERO,
    LaurentPoly,
    LocalizedElement,
)

#: soft limit on the 3^c expansion; beyond it a warning is emitted
EXPANSION_WARN_CROSSINGS = 16

_NEG_D = -D

EdgePicker = Callable[[Sequence[tuple[int, int]]], int]

#: an integer Laurent polynomial in d: (lowest exponent, coefficients from
#: it upwards); zero has no coefficients
DPoly = tuple[int, list[int]]

_D_ZERO: DPoly = (0, [])


def _times_d_minus_inverse(p: DPoly) -> DPoly:
    """p * (d - 1/d); multiplied by d, the same coefficients give p * (d^2 - 1)."""
    lo, c = p
    if not c:
        return p
    pad = [0, 0]
    return lo - 1, list(map(sub, pad + c, c + pad))


def _minus_d_inverse_times(a: DPoly, b: DPoly) -> DPoly:
    """a - b / d, for a = W(G/e) and b = W(G-e).

    No end coefficient cancels, so none is trimmed: for a connected
    bridgeless G, W(G) = d^(|V|-|E|) F(d^2) with F the flow polynomial,
    whose degree is |E|-|V|+1 and whose constant term is nonzero.  So W(G)
    and W(G/e) both run from d^(|V|-|E|) to d^(|E|-|V|+2), W(G-e) / d
    ends two powers lower, and the lowest coefficients sum to W(G)'s own.
    """
    la, ca = a
    lb, cb = b
    lb -= 1
    if not cb:
        return a
    lo = min(la, lb)
    ha = la + len(ca)
    hb = lb + len(cb)
    hi = max(ha, hb)
    return lo, list(
        map(sub, [0] * (la - lo) + ca + [0] * (hi - ha), [0] * (lb - lo) + cb + [0] * (hi - hb))
    )


def _times(a: DPoly, b: DPoly) -> DPoly:
    la, ca = a
    lb, cb = b
    if not ca or not cb:
        return _D_ZERO
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            out[i + j] += x * y
    return la + lb, out


def _to_localized(p: DPoly) -> LocalizedElement:
    """The ring element equal to p, by Horner's rule in d = -A^2 - A^-2.

    The rule runs on a dense coefficient list in x = A^2: after k steps,
    index i holds the coefficient of x^(i - k), and a step multiplies by
    -(x + 1/x) and adds the next coefficient at x^0.
    """
    lo, c = p
    if not c:
        return ZERO
    if lo > 0:
        c = [0] * lo + c
        lo = 0
    acc = [c[-1]]
    pad = [0, 0]
    for k, x in enumerate(reversed(c[:-1]), 1):
        acc = [-(a + b) for a, b in zip(pad + acc, acc + pad)]
        acc[k] += x
    top = len(acc) - 1  # the exponent of x at the last index
    num = LaurentPoly({2 * i - top: a for i, a in enumerate(acc) if a})
    return LocalizedElement(num, -lo)


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
    memo: dict[bytes, DPoly],
    picker: EdgePicker,
) -> DPoly:
    key = canon_key(n, edges)
    cached = memo.get(key)
    if cached is not None:
        return cached
    rest = [e for e in edges if e[0] != e[1]]
    loops = len(edges) - len(rest)
    if loops:
        val = _w_eval(n, rest, memo, picker)
        for _ in range(loops):
            val = _times_d_minus_inverse(val)
    elif not edges:
        val = (n, [1])
    else:
        shape = _split_or_bridge(n, edges)
        if shape == SPLITS:
            comps, isolated = _components(n, edges)
            val = (isolated, [1])
            for cn, ce in comps:
                val = _times(val, _w_eval(cn, ce, memo, picker))
        elif shape == HAS_BRIDGE:
            val = _D_ZERO  # a cut edge kills the value
        else:
            idx = picker(edges)
            if edges[idx][0] == edges[idx][1]:
                raise ValueError("edge picker chose a loop")
            n2, contracted = _contract(n, edges, idx)
            deleted = _delete(edges, idx)
            val = _w_eval(n2, contracted, memo, picker)
            val = _minus_d_inverse_times(val, _w_eval(n, deleted, memo, picker))
    memo[key] = val
    return val


def flat_eval(
    state: FlatState,
    memo: dict[bytes, DPoly] | None = None,
    edge_picker: EdgePicker | None = None,
) -> LocalizedElement:
    """Evaluate a crossing-free state by deletion-contraction.

    Loops are removed first (factor d - 1/d each); a non-loop edge e gives
    W(G) = W(G/e) - (1/d) W(G-e); k isolated vertices are worth d^k; each
    free circle contributes a factor d^2 - 1.  The recursion and ``memo``
    hold W as integer Laurent polynomials in d, opaque to callers; the
    result is converted to a LocalizedElement once.  States with more than
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
    lo, coeffs = _w_eval(state.num_vertices, state.edges, memo, picker)
    for _ in range(state.circle_count):
        lo, coeffs = _times_d_minus_inverse((lo, coeffs))
        lo += 1
    return _to_localized((lo, coeffs))


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
