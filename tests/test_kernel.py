"""The kernels: canonical-form invariance, keys byte for byte against the
earlier ``canon_key``, its cache of labeled inputs, the key encoder's limits,
and the two state-sum walks against union-find references and an independent
circle-count reference."""

import gc
import random
import sys
import tracemalloc
from collections import Counter
from itertools import product

import gen
import pytest

from skein import core, fixtures, tl
from skein.core import CANON_KEY_LIMIT, backend_name
from skein.diagrams import GraphDiagram, disjoint_union, parse_diagram
from skein.rings import D_LAURENT, LaurentPoly, RationalFunction
from skein.tl import TangleElement, bracket, markov_trace
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


def _keys_asked_by_yamada(diagrams):
    """Every multigraph whose key the Yamada evaluation of ``diagrams``,
    each with a fresh memo, asks for: the flat residues and the graphs of
    their deletion-contraction."""
    yamada_module = sys.modules["skein.yamada"]
    seen = []
    real = yamada_module.canon_key

    def record(n, edges):
        seen.append((n, tuple(edges)))
        return real(n, edges)

    yamada_module.canon_key = record
    try:
        for g in diagrams:
            yamada(g, memo={})
    finally:
        yamada_module.canon_key = real
    return seen


def _fixture_flat_graphs():
    """The keys of every plane fixture but the Petersen diagram, whose 4302
    keys are sampled on its planar drawing instead."""
    names = [
        name for name in fixtures.list_fixtures()
        if name.endswith(".graph") and name != "petersen_diagram.graph"
    ]
    diagrams = [fixtures.load_diagram(name) for name in names]
    return _keys_asked_by_yamada([g for g in diagrams if not g.has_rays()])


def _resolve_flat_graphs():
    """The keys of a twisted theta and a twisted K4 shaped like the
    benchmark's ``resolve`` inputs: 6-7 crossings in 2-3 twist regions."""
    rng = random.Random(1205)
    codes = [gen.twisted_graph(rng, gen.THETA, 7, 2), gen.twisted_graph(rng, gen.K4, 6, 3)]
    return _keys_asked_by_yamada([parse_diagram(code.text()) for code in codes])


def _petersen_flat_sample(count=300):
    """A seeded sample of the keys of the planar Petersen drawing."""
    shipped = fixtures.fixture_path("petersen_diagram.graph").read_text()
    keys = _keys_asked_by_yamada([parse_diagram(gen.planar_petersen(shipped).text())])
    return random.Random(1206).sample(keys, count)


def test_canon_key_bytes_match_the_reference():
    graphs = random_multigraphs(1201) + _symmetric_graphs()
    flat = _fixture_flat_graphs()
    assert len(flat) > 150
    resolve = _resolve_flat_graphs()
    assert len(resolve) > 1000
    for n, edges in graphs + flat + resolve + _petersen_flat_sample():
        assert core.canon_key(n, edges) == _reference_canon_key(n, edges), (n, edges)


def test_canon_key_cache_answers_repeats_with_the_reference_bytes():
    graphs = random_multigraphs(1207, count=150) + _symmetric_graphs()
    assert len(set((n, tuple(edges)) for n, edges in graphs)) <= 256
    core._canon_key.cache_clear()
    for n, edges in graphs:
        core.canon_key(n, edges)
    hits = core._canon_key.cache_info().hits
    for n, edges in graphs:
        assert core.canon_key(n, edges) == _reference_canon_key(n, edges), (n, edges)
    # every second call was served by the cache
    assert core._canon_key.cache_info().hits == hits + len(graphs)


def test_canon_key_cache_never_returns_a_stale_key_for_a_mutated_list():
    edges = [(0, 1), (1, 2)]
    path = core.canon_key(3, edges)
    edges.append((0, 2))
    triangle = core.canon_key(3, edges)
    assert triangle != path
    assert triangle == _reference_canon_key(3, [(0, 1), (1, 2), (0, 2)])
    edges[2] = (2, 2)
    assert core.canon_key(3, edges) == _reference_canon_key(3, [(0, 1), (1, 2), (2, 2)])
    assert core.canon_key(3, [(0, 1), (1, 2)]) == path


def test_twisted_k4_yamada_keys_each_distinct_residue_once_while_cached():
    # of the 1191 keys the 3^6 states ask for, 697 repeat an input the
    # 256-entry cache still holds; the other 494 run the search
    g = parse_diagram(gen.twisted_graph(random.Random(6), gen.K4, 6, 3).text())
    core._canon_key.cache_clear()
    yamada(g, memo={})
    info = core._canon_key.cache_info()
    assert (info.hits + info.misses, info.misses, info.hits) == (1191, 494, 697)


def test_yamada_values_are_the_same_with_a_cold_and_a_warm_key_cache():
    rng = random.Random(1208)
    diagrams = [
        parse_diagram(gen.twisted_graph(rng, base, c, 1 + rng.randrange(3)).text())
        for base in (gen.THETA, gen.K4)
        for c in (4, 5, 6)
        for _ in range(4)
    ]
    cold = []
    for g in diagrams:
        core._canon_key.cache_clear()
        cold.append(yamada(g, memo={}))
    # warm: the cache keeps what every earlier diagram left in it
    assert [yamada(g, memo={}) for g in diagrams] == cold


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


#: T(2, k), the closed 2-braid sigma_1^k, for k = 1 .. 24
TORI = {k: parse_diagram(gen.braid_closure(2, [(0, 1)] * k).text()) for k in range(1, 25)}


#: small cases: no crossings, free circles, kinks (a crossing whose slots
#: join each other), a loop at a vertex and an isolated vertex
EDGE_CASES = [
    "", "O", "O\nO", "X 1 1 2 2", "X 1 2 2 1", "X 1 1 2 2\nO", "V 1 1", "V", "V 1 2\nX 1 3 3 2",
]


def _diagrams(max_torus):
    graphs = [fixtures.load_diagram(n) for n in fixtures.list_fixtures() if n.endswith(".graph")]
    tori = [TORI[k] for k in range(1, max_torus + 1)]
    return [parse_diagram(t) for t in EDGE_CASES] + graphs + tori


def test_state_circle_counts_against_reference():
    rng = random.Random(99)
    cases = []
    for _ in range(60):
        n_arcs, _vertices, crossings = _random_diagram(rng, rng.randint(0, 7))
        cases.append((n_arcs, crossings))
    for g in _diagrams(10):
        if not g.vertices:
            cases.append((g.num_arcs, g.end_ids()[1]))
    for n_arcs, crossings in cases:
        counts = list(core.state_circle_counts(n_arcs, crossings))
        assert counts == _union_find_circle_counts(n_arcs, crossings)
        assert counts == [
            _reference_circles(n_arcs, crossings, mask) for mask in range(1 << len(crossings))
        ]


def _reference_state_circle_counts(n_arcs, crossings):
    """``state_circle_counts`` as it was before it split the crossings: the
    depth-first walk visits every one of the 2^c leaves."""
    core._check_slots(n_arcs, crossings)
    if not crossings:
        return [0]
    mate = [e ^ 1 for e in range(2 * n_arcs)]
    counts = []
    append = counts.append

    def visit(i, closed):
        e0, e1, e2, e3 = crossings[i]
        if i == 0:
            m = mate[e0]
            append(closed + 1 + (m == e1))
            append(closed + 1 + (m == e3))
            return
        for x, y, z, w in ((e0, e1, e2, e3), (e0, e3, e1, e2)):
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
    visit = None
    return counts


def _reference_bracket(g):
    """The bracket state sum over the reference walk's counts, assembled per
    (B-smoothings, circles) pair as ``bracket`` did before it packed them."""
    c = len(g.crossings)
    counts = _reference_state_circle_counts(g.num_arcs, g.end_ids()[1])
    total = LaurentPoly.zero()
    for (b, circles), mult in Counter(zip(map(int.bit_count, range(1 << c)), counts)).items():
        total = total + (D_LAURENT**circles).scale(mult).shifted(c - 2 * b)
    return total * D_LAURENT**g.free_circles


def _seeded_braid(rng, strands, length, generators=None, shuffle=False):
    """``gen.braid_closure`` of a seeded word of ``length`` letters (i, sign)
    over ``generators`` (all by default), which unlike ``gen.closed_braid``
    may miss some; ``shuffle`` lists the crossings in a seeded order."""
    generators = range(strands - 1) if generators is None else generators
    word = [(rng.choice(generators), 1 if rng.random() < 0.5 else -1) for _ in range(length)]
    code = gen.braid_closure(strands, word)
    if shuffle:
        rng.shuffle(code.crossings)
    return parse_diagram(code.text())


def _kernel_args(g):
    return g.num_arcs, g.end_ids()[1]


def _random_link_ends(rng, c):
    n_arcs, _, crossings = _random_diagram(rng, c)
    return n_arcs, crossings


def _split_walk_corpus():
    """Random pairings, braid closures, shuffled closures and split pairs."""
    rng = random.Random(1212)
    # c = 0 .. 3: an inner block of k = 0 or 1 crossings
    pairings = [_random_link_ends(rng, c) for c in (0, 1, 2, 3) for _ in range(8)]
    pairings += [_kernel_args(parse_diagram(t)) for t in EDGE_CASES if "V" not in t]
    # braid closures, whose outer states share most boundary pairings
    braids = [_seeded_braid(rng, s, c) for c in range(12, 17) for s in (2, 3, 4)]
    # free circles: strands that no generator touches
    braids += [_seeded_braid(rng, 5, c, generators=(1, 2)) for c in (12, 13)]
    # shuffled crossing order and random pairings: few or no shared pairings
    shuffled = [_seeded_braid(rng, s, c, shuffle=True) for c in (12, 13, 14) for s in (3, 4)]
    pairings += [_random_link_ends(rng, c) for c in (12, 13, 14)]
    # split diagrams listed part by part: the first part's crossings, three
    # or more, have no boundary ends at all
    parts = [
        (_seeded_braid(rng, s, c), _seeded_braid(rng, t, 12 - c))
        for s, t, c in ((2, 3, 3), (3, 2, 4), (3, 4, 6), (4, 3, 8))
    ]
    return pairings, braids, shuffled, parts


def test_split_walk_matches_the_reference_walk():
    pairings, braids, shuffled, parts = _split_walk_corpus()
    assert sum(g.free_circles for g in braids) == 4
    split = [disjoint_union(g, h) for g, h in parts]
    # 2-strand torus links: at most four boundary ends per level
    tori = [TORI[k] for k in range(1, 19)]
    links = [_kernel_args(g) for g in braids + shuffled + split + tori]
    for n_arcs, crossings in pairings + links:
        counts = list(core.state_circle_counts(n_arcs, crossings))
        assert counts == _reference_state_circle_counts(n_arcs, crossings)
        if len(crossings) <= 13:
            # the union-find reference rebuilds all arc ends per state
            assert counts == _union_find_circle_counts(n_arcs, crossings)
    for g in braids + split:
        assert bracket(g) == _reference_bracket(g)
    for (g, h), union in zip(parts, split):
        assert bracket(union) == bracket(g) * bracket(h)


def test_bracket_packs_circle_counts_past_any_fixed_width():
    # twelve disjoint kinks: the A-state has 24 circles, two per crossing
    g = parse_diagram("\n".join(f"X {2 * i} {2 * i} {2 * i + 1} {2 * i + 1}" for i in range(12)))
    assert max(core.state_circle_counts(*_kernel_args(g))) == 24
    # one kink: A d^2 from its A-state, A^-1 d from its B-state
    kink = (D_LAURENT**2).shifted(1) + D_LAURENT.shifted(-1)
    assert bracket(g) == kink**12 == _reference_bracket(g)


def test_bracket_holds_one_byte_per_state():
    # 2^20 states: the walk's buffer and the bytes it returns take 1 MB
    # each, where a list of ints took 8 MB
    g = TORI[20]
    tracemalloc.start()
    try:
        bracket(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def _distinct_block_ratio(g):
    """Distinct blocks of 2^k counts over all blocks, k = c // 2 the
    tally's block size (see ``tl.bracket_sums``)."""
    counts = core.state_circle_counts(*_kernel_args(g))
    size = 1 << len(g.crossings) // 2
    blocks = [tuple(counts[i : i + size]) for i in range(0, len(counts), size)]
    return len(set(blocks)) / len(blocks)


def _assembly_corpus():
    rng = random.Random(1404)
    # c = 0 .. 3, where a block holds one or two counts, and odd c, where
    # the outer half is the larger
    small = [_seeded_braid(rng, s, c) for c in (0, 1, 2, 3) for s in (2, 3, 4) for _ in range(3)]
    odd = [_seeded_braid(rng, s, c) for c in (5, 7, 9, 11, 13) for s in (2, 3, 4)]
    # free circles together with crossings
    free = [_seeded_braid(rng, 6, c, generators=(1, 2, 3)) for c in (1, 2, 5, 8, 11)]
    free += [_seeded_braid(rng, 3, c, generators=(0,)) for c in (3, 4)]
    # shuffled crossing orders, and closures that list every other letter
    # first, so that each outer crossing meets the inner half at all four
    # ends: few blocks repeat
    shuffled = [_seeded_braid(rng, s, c, shuffle=True) for c in (10, 13, 14) for s in (3, 4)]
    for strands, word in ((3, [(0, 1), (1, 1)] * 6), (3, [(0, 1), (1, -1)] * 7),
                          (4, [(0, 1), (1, 1), (2, 1)] * 4), (4, [(0, -1), (1, 1), (2, -1)] * 4)):
        code = gen.braid_closure(strands, word)
        code.crossings = code.crossings[1::2] + code.crossings[0::2]
        shuffled.append(parse_diagram(code.text()))
    return small, odd, free, shuffled


def test_bracket_assembly_matches_the_reference_sum():
    small, odd, free, shuffled = _assembly_corpus()
    assert {len(g.crossings) for g in small} == {0, 1, 2, 3}
    assert all(g.free_circles and g.crossings for g in free)
    assert max(_distinct_block_ratio(g) for g in shuffled) > 0.9
    for g in small + odd + free + shuffled:
        assert bracket(g) == _reference_bracket(g)


def _tl_trace(strands, word):
    """Markov trace of a braid word in the Temperley-Lieb algebra: letter
    (i, +1) is A + A^-1 U_(i+1), its mirror (i, -1) is A^-1 + A U_(i+1),
    and the word is stacked bottom to top."""
    one = TangleElement.identity(strands)
    acc = one
    for i, sign in word:
        a = RationalFunction.from_laurent(LaurentPoly.monomial(1, sign))
        a_inv = RationalFunction.from_laurent(LaurentPoly.monomial(1, -sign))
        acc = acc * (one.scale(a) + TangleElement.generator(strands, i + 1).scale(a_inv))
    return markov_trace(acc).as_laurent()


def test_trace_convention_matches_the_state_sum_by_mask():
    # one kink (-A^(+-3) d) and the Hopf link, of either sign: the union-find
    # state sum by mask fixes which smoothing of a letter is worth A
    for n in (1, 2):
        for sign in (1, -1):
            g = parse_diagram(gen.braid_closure(2, [(0, sign)] * n).text())
            counts = _union_find_circle_counts(g.num_arcs, g.end_ids()[1])
            expect = LaurentPoly.zero()
            for mask, circles in enumerate(counts):
                expect = expect + (D_LAURENT**circles).shifted(n - 2 * mask.bit_count())
            assert _tl_trace(2, [(0, sign)] * n) == expect == bracket(g)
            if n == 1:
                assert expect == D_LAURENT.shifted(3 * sign).scale(-1)


def _trace_corpus():
    """Seeded 3-strand braid words of 1 to 16 letters and their closures."""
    rng = random.Random(1405)
    out = []
    for c in range(1, 17):
        for _ in range(2):
            word = [(rng.choice((0, 1)), 1 if rng.random() < 0.5 else -1) for _ in range(c)]
            out.append((word, parse_diagram(gen.braid_closure(3, word).text())))
    return out


def test_bracket_equals_the_temperley_lieb_trace():
    for n in range(1, 25):
        assert bracket(TORI[n]) == _tl_trace(2, [(0, 1)] * n)
    for word, g in _trace_corpus():
        assert bracket(g) == _tl_trace(3, word)


def _swept_bracket(n_arcs, crossings, free):
    """The bracket by the frontier sweep, every crossing a bracket crossing."""
    return core.frontier_sweep(n_arcs, crossings, len(crossings), free)


def test_frontier_sweep_of_bracket_crossings_is_the_bracket():
    # free circles, kinks, split pairs, shuffled crossing orders, and random
    # pairings that no plane diagram has
    small, odd, free, shuffled = _assembly_corpus()
    edge = [parse_diagram(text) for text in EDGE_CASES if "V" not in text]
    for g in [TORI[k] for k in (1, 2, 3, 16, 24)] + edge + small + odd + free + shuffled:
        assert _swept_bracket(*_kernel_args(g), g.free_circles) == bracket(g)
    rng = random.Random(1406)
    for c in range(1, 11):
        n_arcs, crossings = _random_link_ends(rng, c)
        counts = core.state_circle_counts(n_arcs, crossings)
        assert _swept_bracket(n_arcs, crossings, 0) == tl.bracket_sums(counts, n_arcs, c, 0)


def test_frontier_sweep_of_the_closed_2_braid_has_its_closed_form():
    # <T(2, k)> = A^k (d^2 - 1) + (-A^-3)^k, up to 200 crossings, far past
    # the 2^c walk's 26; the walk agrees where it is cheap
    d2_minus_1 = D_LAURENT * D_LAURENT - LaurentPoly.from_int(1)
    for k in range(1, 201):
        g = parse_diagram(gen.braid_closure(2, [(0, 1)] * k).text())
        expect = d2_minus_1.shifted(k) + LaurentPoly.monomial((-1) ** k, -3 * k)
        assert _swept_bracket(*_kernel_args(g), g.free_circles) == expect, k
        if k <= 8:
            assert bracket(g) == expect, k


def test_frontier_sweep_checks_its_slots_and_its_budget(monkeypatch):
    # a bad slot list is a plain ValueError, the budget its own subclass
    with pytest.raises(ValueError, match="exactly one slot") as info:
        core.frontier_sweep(2, [(0, 1, 2, 2)], 1, 0)
    assert not isinstance(info.value, core.SweepBudgetError)
    # T(2, 6) holds 2 pairings of the open ends at its widest; the sweep
    # reads its budget when it is called
    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 2)
    assert _swept_bracket(*_kernel_args(TORI[6]), 0) == bracket(TORI[6])
    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 1)
    with pytest.raises(core.SweepBudgetError, match="holds 2 live states, past its budget of 1"):
        core.frontier_sweep(*_kernel_args(TORI[6]), 6, 0)


def test_resolution_states_against_reference():
    rng = random.Random(7)
    cases = [_random_diagram(rng, rng.randint(0, 5), 2 * rng.randint(0, 4)) for _ in range(60)]
    for g in _diagrams(6):
        cases.append((g.num_arcs, *g.end_ids()))
    for n_arcs, vertices, crossings in cases:
        states = core.resolution_states(n_arcs, vertices, crossings)
        assert _sorted_edges(states) == _union_find_resolution_states(n_arcs, vertices, crossings)


def test_torus_brackets_match_the_state_sum_by_mask():
    for k in range(1, 11):
        g = TORI[k]
        counts = _union_find_circle_counts(g.num_arcs, g.end_ids()[1])
        expect = LaurentPoly.zero()
        for mask, circles in enumerate(counts):
            b = bin(mask).count("1")
            expect = expect + (D_LAURENT**circles).shifted(k - 2 * b)
        assert bracket(g) == expect


def test_kernels_leave_no_reference_cycles():
    # a cycle would keep the walk's state, the 2^c counts list with it,
    # alive until the next collection, and so would one in canon_key's search
    g = TORI[8]
    theta = fixtures.load_diagram("theta")
    gc.collect()
    gc.disable()
    try:
        core.state_circle_counts(g.num_arcs, g.end_ids()[1])
        bracket(g)
        for diagram in (g, theta):
            list(core.resolution_states(diagram.num_arcs, *diagram.end_ids()))
        partial = core.resolution_states(g.num_arcs, *g.end_ids())
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
    # resolution_states checks when it is called, before its first state
    with pytest.raises(ValueError, match="exactly one slot"):
        core.resolution_states(2, [(0, 1)], [(0, 1, 2, 3)])


def test_canon_key_rejects_counts_past_the_byte_limit():
    n = CANON_KEY_LIMIT
    assert len(core.canon_key(2, ((0, 1),) * n)) == 2 + 2 * n
    # the key cache stores no exception: a repeated input raises every time
    for _ in range(2):
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
