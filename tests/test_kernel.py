"""The kernels: canonical-form invariance, keys byte for byte against the
earlier ``canon_key``, the key encoder's limits, and the two state-sum walks
against union-find references and an independent circle-count reference."""

import gc
import random
import sys
from itertools import product

import pytest

from skein import core, fixtures
from skein.core import CANON_KEY_LIMIT, backend_name
from skein.diagrams import parse_diagram
from skein.rings import D_LAURENT, LaurentPoly
from skein.tl import bracket
from skein.yamada import yamada


def random_graph(rng, n_max=9, m_max=12):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m))
    return n, edges


def test_canon_key_is_isomorphism_invariant():
    rng = random.Random(888)
    for _ in range(120):
        n, edges = random_graph(rng)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = tuple(
            tuple(sorted((perm[u], perm[v]))) for u, v in edges
        )
        assert core.canon_key(n, edges) == core.canon_key(n, permuted)
    # relabeled and reordered: several components, loops, parallel edges,
    # isolated vertices, and graphs with large automorphism groups
    for n, edges in random_multigraphs(1203) + _symmetric_graphs():
        key = core.canon_key(n, edges)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            rng.shuffle(relabeled)
            assert core.canon_key(n, relabeled) == key


def test_canon_key_separates_nonisomorphic():
    path = ((0, 1), (1, 2))
    star = ((0, 1), (0, 2))
    # path on 3 vertices is isomorphic to the star with center relabeled
    assert core.canon_key(3, path) == core.canon_key(3, star)
    triangle = ((0, 1), (1, 2), (0, 2))
    path3 = ((0, 1), (1, 2), (2, 0))  # same multiset: triangle
    assert core.canon_key(3, triangle) == core.canon_key(3, path3)
    # genuinely different graphs
    assert core.canon_key(3, ((0, 1), (0, 1))) != core.canon_key(
        3, ((0, 1), (1, 2))
    )
    assert core.canon_key(2, ((0, 0),)) != core.canon_key(2, ((0, 1),))
    assert core.canon_key(3, ()) != core.canon_key(2, ())


def test_canon_key_petersen_runs_fast():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    key = core.canon_key(10, edges)
    assert isinstance(key, bytes) and len(key) == 2 + 2 * 15


def random_multigraph(rng):
    """A seeded multigraph on at most 12 vertices: up to three components,
    with loops, parallel edges and isolated vertices."""
    n = rng.randint(1, 12)
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(0, 2))))
    edges = []
    for block in (verts[i:j] for i, j in zip([0, *cuts], [*cuts, n])):
        for _ in range(rng.randint(0, len(block) + 3)):
            u, v = sorted((rng.choice(block), rng.choice(block)))  # u == v: a loop
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((u, v))
    rng.shuffle(edges)
    return n, edges[:16]


def random_multigraphs(seed, count=500):
    rng = random.Random(seed)
    return [random_multigraph(rng) for _ in range(count)]


def _reference_dense_ranks(signatures):
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[s] for s in signatures]


def _reference_refine(colors, nbr):
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in nbr[v])))
            for v in range(len(colors))
        ]
        new = _reference_dense_ranks(sigs)
        if new == colors:
            return colors
        colors = new


def _reference_canon_key(n, edges):
    """``canon_key`` as it was before its refinement stopped early: a full
    verification round per refinement and one byte append per pair."""
    if n == 0:
        return bytes([0, len(edges)])
    loops = [0] * n
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            loops[u] += 2
        else:
            nbr[u].append(v)
            nbr[v].append(u)
    init = [(len(nbr[v]) + loops[v], loops[v]) for v in range(n)]
    colors = _reference_refine(_reference_dense_ranks(init), nbr)
    best = [None]

    def encode(perm_color):
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

    def twin_reps(cell):
        out = []
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

    def search(colors):
        counts = {}
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
            search(_reference_refine(_reference_dense_ranks(sigs), nbr))

    search(colors)
    search = None
    return best[0]


def _symmetric_graphs():
    """Graphs whose refinement leaves large cells: cycles, complete graphs,
    the Petersen graph, disjoint copies and bouquets."""
    out = []
    for k in range(2, 9):
        cycle = [(i, (i + 1) % k) for i in range(k)]
        out.append((k, cycle))
        out.append((2 * k, cycle + [(u + k, v + k) for u, v in cycle]))
        out.append((k, [(i, j) for i in range(k) for j in range(i + 1, k)]))
        out.append((1, [(0, 0)] * k))
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    out.append((10, petersen))
    return [(n, sorted(tuple(sorted(e)) for e in edges)) for n, edges in out]


def _fixture_flat_graphs():
    """Every multigraph whose key the Yamada evaluation of a fixture asks
    for: the flat residues and the graphs of their deletion-contraction.
    The Petersen diagram's 4302 keys are left out for time."""
    yamada_module = sys.modules["skein.yamada"]
    seen = []
    real = yamada_module.canon_key

    def record(n, edges):
        seen.append((n, tuple(edges)))
        return real(n, edges)

    yamada_module.canon_key = record
    try:
        for name in fixtures.list_fixtures():
            if name.endswith(".graph") and name != "petersen_diagram.graph":
                g = fixtures.load_diagram(name)
                if not g.has_rays():
                    yamada(g, memo={})
    finally:
        yamada_module.canon_key = real
    return seen


def test_canon_key_bytes_match_the_reference():
    graphs = random_multigraphs(1201) + _symmetric_graphs()
    flat = _fixture_flat_graphs()
    assert len(flat) > 150
    for n, edges in graphs + flat:
        assert core.canon_key(n, edges) == _reference_canon_key(n, edges), (n, edges)


def _reference_circles(n_arcs, crossings, mask):
    """Independent reference: alternate arc and smoothing hops until each
    cycle closes.  Every end appears in exactly one smoothing join."""
    join_partner = {}
    for i, (e0, e1, e2, e3) in enumerate(crossings):
        pairs = ((e0, e3), (e1, e2)) if (mask >> i) & 1 else ((e0, e1), (e2, e3))
        for x, y in pairs:
            join_partner[x] = y
            join_partner[y] = x
    visited = set()
    circles = 0
    for start in range(2 * n_arcs):
        if start in visited:
            continue
        circles += 1
        x = start
        while x not in visited:
            visited.add(x)
            y = x ^ 1  # traverse the arc to its other end
            visited.add(y)
            x = join_partner[y]  # hop through the smoothing
    return circles


def _union_find_circle_counts(n_arcs, crossings):
    """Reference for ``state_circle_counts``: a union-find over all arc
    ends, rebuilt for every state in mask order."""
    c = len(crossings)
    n_ends = 2 * n_arcs
    parent = list(range(n_ends))
    counts = []

    def find(x):
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


def _union_find_resolution_states(n_arcs, vertices, crossings):
    """Reference for ``resolution_states``: the components of all arc ends
    under the arc and smoothing joins of each state, computed afresh per
    state in ``product`` order; edges sorted."""
    n_ends = 2 * n_arcs
    arc_joins = [(2 * a, 2 * a + 1) for a in range(n_arcs)]
    vertex_slots = [(e, v) for v, ends in enumerate(vertices) for e in ends]
    n_vertices = len(vertices)
    states = []
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
        count, root = core.components(n_ends, joins)
        first = {}
        edges = []
        for e, v in slots:
            u = first.pop(root[e], None)
            if u is None:
                first[root[e]] = v
            else:
                edges.append((u, v) if u <= v else (v, u))
        states.append((a_exp, nv - n_vertices, nv, sorted(edges), count - len(edges)))
    return states


def _sorted_edges(states):
    return [
        (a_exp, v, n, sorted((x, y) if x <= y else (y, x) for x, y in edges), circles)
        for a_exp, v, n, edges, circles in states
    ]


def _random_diagram(rng, c, vertex_ends=0):
    """Arc-end ids of a random diagram with c crossings and flat vertices
    holding ``vertex_ends`` (even) ends: a shuffle of all ids cut into
    slots, with now and then a vertex of no slots."""
    n_ends = 4 * c + vertex_ends
    ids = list(range(n_ends))
    rng.shuffle(ids)
    crossings = [tuple(ids[4 * i : 4 * i + 4]) for i in range(c)]
    rest = ids[4 * c :]
    vertices = []
    while rest or rng.random() < 0.2:
        k = rng.randint(0 if rng.random() < 0.1 else 1, 4)
        vertices.append(tuple(rest[:k]))
        rest = rest[k:]
    return n_ends // 2, vertices, crossings


def _torus_2(k):
    """The closed 2-braid sigma_1^k, T(2, k): level j carries arcs 2j (left)
    and 2j+1 (right), and level k closes onto level 0."""
    lines = []
    for j in range(k):
        bl, br = 2 * j, 2 * j + 1
        tl, tr = 2 * (j + 1) % (2 * k), (2 * (j + 1) + 1) % (2 * k)
        lines.append(f"X {br} {tr} {tl} {bl}")
    return parse_diagram("\n".join(lines))


#: small cases: no crossings, free circles, kinks (a crossing whose slots
#: join each other), a loop at a vertex and an isolated vertex
EDGE_CASES = [
    "", "O", "O\nO", "X 1 1 2 2", "X 1 2 2 1", "X 1 1 2 2\nO", "V 1 1", "V", "V 1 2\nX 1 3 3 2",
]


def _diagrams(max_torus):
    graphs = [fixtures.load_diagram(n) for n in fixtures.list_fixtures() if n.endswith(".graph")]
    tori = [_torus_2(k) for k in range(1, max_torus + 1)]
    return [parse_diagram(t) for t in EDGE_CASES] + graphs + tori


def test_state_circle_counts_against_reference():
    rng = random.Random(99)
    cases = []
    for _ in range(60):
        n_arcs, _vertices, crossings = _random_diagram(rng, rng.randint(0, 7))
        cases.append((n_arcs, crossings))
    for g in _diagrams(10):
        if not g.vertices:
            cases.append((len(g.arc_ends()), g.end_ids()[1]))
    for n_arcs, crossings in cases:
        counts = core.state_circle_counts(n_arcs, crossings)
        assert counts == _union_find_circle_counts(n_arcs, crossings)
        assert counts == [
            _reference_circles(n_arcs, crossings, mask) for mask in range(1 << len(crossings))
        ]


def test_resolution_states_against_reference():
    rng = random.Random(7)
    cases = [_random_diagram(rng, rng.randint(0, 5), 2 * rng.randint(0, 4)) for _ in range(60)]
    for g in _diagrams(6):
        cases.append((len(g.arc_ends()), *g.end_ids()))
    for n_arcs, vertices, crossings in cases:
        states = core.resolution_states(n_arcs, vertices, crossings)
        assert _sorted_edges(states) == _union_find_resolution_states(n_arcs, vertices, crossings)


def test_torus_brackets_match_the_state_sum_by_mask():
    for k in range(1, 11):
        g = _torus_2(k)
        counts = _union_find_circle_counts(len(g.arc_ends()), g.end_ids()[1])
        expect = LaurentPoly.zero()
        for mask, circles in enumerate(counts):
            b = bin(mask).count("1")
            expect = expect + (D_LAURENT**circles).shifted(k - 2 * b)
        assert bracket(g) == expect


def test_kernels_leave_no_reference_cycles():
    # a cycle would keep the walk's state, the 2^c counts list with it,
    # alive until the next collection; canon_key's search recurses too
    g = _torus_2(8)
    theta = fixtures.load_diagram("theta")
    gc.collect()
    gc.disable()
    try:
        core.state_circle_counts(len(g.arc_ends()), g.end_ids()[1])
        for diagram in (g, theta):
            list(core.resolution_states(len(diagram.arc_ends()), *diagram.end_ids()))
        partial = core.resolution_states(len(g.arc_ends()), *g.end_ids())
        next(partial)
        del partial
        for n, edges in _symmetric_graphs():
            core.canon_key(n, edges)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_kernels_reject_ids_not_in_exactly_one_slot():
    with pytest.raises(ValueError, match="exactly one slot"):
        core.state_circle_counts(2, [(0, 1, 2, 2)])
    with pytest.raises(ValueError, match="exactly one slot"):
        core.state_circle_counts(3, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="exactly one slot"):
        next(core.resolution_states(2, [(0, 1)], [(0, 1, 2, 3)]))


def test_canon_key_rejects_counts_past_the_byte_limit():
    n = CANON_KEY_LIMIT
    assert len(core.canon_key(2, ((0, 1),) * n)) == 2 + 2 * n
    with pytest.raises(ValueError, match="at most 255"):
        core.canon_key(2, ((0, 1),) * (n + 1))
    with pytest.raises(ValueError, match="at most 255"):
        core.canon_key(n + 1, ())


def test_backend_is_reported():
    assert backend_name() == "pure"


def test_components_count_and_least_element_labels():
    count, root = core.components(6, [(4, 2), (5, 4), (1, 3)])
    assert count == 3
    assert root == [0, 1, 2, 1, 2, 2]
    assert core.components(0, []) == (0, [])
