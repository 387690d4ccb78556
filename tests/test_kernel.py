"""The kernels: canonical-form invariance, the key encoder's limits, and the
two state-sum walks against union-find references and an independent
circle-count reference."""

import gc
import random
from itertools import product

import pytest

from skein import core, fixtures
from skein.core import CANON_KEY_LIMIT, backend_name
from skein.diagrams import parse_diagram
from skein.rings import D_LAURENT, LaurentPoly
from skein.tl import bracket


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
    # alive until the next collection
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
