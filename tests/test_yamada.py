"""Yamada evaluation: flat states, the subset-sum oracle, diagrams, moves, and
the integer flat layer against the LocalizedElement recursion it replaced."""

import importlib
import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import gen
import pytest

from skein import core, fixtures, tl
from skein.diagrams import (
    FlatState,
    GraphDiagram,
    InvalidDiagramError,
    Resolution,
    disjoint_union,
    mirror,
    parse_diagram,
    resolve_crossing,
    to_flat_state,
)
from skein.rings import (
    CIRCLE_FACTOR,
    D,
    D_INV,
    LOOP_FACTOR,
    ONE,
    ZERO,
    LaurentPoly,
    LocalizedElement,
    _to_localized,
)
from skein.core import canon_key, components
from skein.tl import bracket
from skein.yamada import (
    BRIDGELESS,
    HAS_BRIDGE,
    SPLITS,
    _first_nonloop,
    _localized,
    _split_or_bridge,
    _w_eval,
    flat_eval,
    flat_eval_oracle,
    yamada,
)
from test_kernel import _kernel_args, _swept_bracket, random_multigraph, random_multigraphs


def d_poly(coeffs, d_power=0):
    """Build sum(c * d^k) / d^d_power from {k: c}."""
    total = ZERO
    for k, c in coeffs.items():
        total = total + LocalizedElement.d_to_the(k - d_power).scale(c)
    return total


A8 = LocalizedElement(LaurentPoly.monomial(1, 8))
A8_INV = LocalizedElement(LaurentPoly.monomial(1, -8))
RESOLUTION_WEIGHTS = {
    Resolution.SMOOTH_A: LocalizedElement(LaurentPoly.monomial(1, 4)),
    Resolution.SMOOTH_B: LocalizedElement(LaurentPoly.monomial(1, -4)),
    Resolution.VERTEX: -D,
}


# -- flat states -------------------------------------------------------------


def test_flat_circle():
    assert flat_eval(FlatState.make(0, [], 1), memo={}) == CIRCLE_FACTOR


def test_flat_bouquets_closed_form():
    for m in range(1, 7):
        state = FlatState.make(1, [(0, 0)] * m)
        expect = LOOP_FACTOR ** (m - 1) * CIRCLE_FACTOR
        assert flat_eval(state, memo={}) == expect
        assert flat_eval_oracle(state) == expect


def test_flat_theta_value():
    state = FlatState.make(2, [(0, 1)] * 3)
    expect = d_poly({3: 1, 1: -3, -1: 2})  # d^3 - 3d + 2/d
    assert flat_eval(state, memo={}) == expect
    assert flat_eval_oracle(state) == expect


def test_flat_handcuff_vanishes():
    state = FlatState.make(2, [(0, 0), (1, 1), (0, 1)])
    assert flat_eval(state, memo={}) == ZERO
    assert flat_eval_oracle(state) == ZERO


def test_flat_state_rejects_negative_counts():
    with pytest.raises(ValueError, match="negative"):
        FlatState(2, ((0, 1), (0, 1)), -1)
    with pytest.raises(ValueError, match="negative"):
        FlatState(-1, (), 0)
    with pytest.raises(ValueError, match="negative"):
        FlatState.make(1, [(0, 0)], -2)


def test_oracle_base_cases():
    assert flat_eval_oracle(FlatState.make(1, [])) == D
    assert flat_eval_oracle(FlatState.make(2, [(0, 1), (0, 1)])) == CIRCLE_FACTOR
    assert flat_eval_oracle(FlatState.make(0, [])) == ONE


def test_oracle_edge_limit():
    state = FlatState.make(2, [(0, 1)] * 17)
    with pytest.raises(InvalidDiagramError):
        flat_eval_oracle(state, max_edges=16)


def test_flat_eval_rejects_states_past_key_limit():
    with pytest.raises(InvalidDiagramError, match="at most 255"):
        flat_eval(FlatState.make(2, [(0, 1)] * 256), memo={})
    with pytest.raises(InvalidDiagramError, match="at most 255"):
        flat_eval(FlatState.make(256, []), memo={})


def test_oracle_equivalence_exhaustive_small():
    # all labeled multigraphs on 4 vertices with <= 4 edges
    memo = {}
    slots = [(u, v) for u in range(4) for v in range(u, 4)]
    count = 0
    for k in range(5):
        for combo in itertools.combinations_with_replacement(slots, k):
            state = FlatState.make(4, combo)
            assert flat_eval(state, memo) == flat_eval_oracle(state)
            count += 1
    assert count == 1 + 10 + 55 + 220 + 715


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    memo = {}
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        edges = [tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m)]
        state = FlatState.make(n, edges, rng.randint(0, 2))
        assert flat_eval(state, memo) == flat_eval_oracle(state)


def _one_point_union(s1, s2, a, b):
    """s1 and s2 with vertex a of s1 and vertex b of s2 made one, and the
    free circles of both."""
    n1 = s1.num_vertices
    label = [a if x == b else n1 + x - (x > b) for x in range(s2.num_vertices)]
    edges = [*s1.edges, *((label[u], label[v]) for u, v in s2.edges)]
    return FlatState.make(n1 + s2.num_vertices - 1, edges, s1.circle_count + s2.circle_count)


def test_one_point_union_divides_the_product_by_d():
    # W(G1 v G2) = W(G1) W(G2) / d on seeded multigraphs with loops, parallel
    # edges, isolated vertices and free circles, any vertex of each joined;
    # the 36 unions of at most 16 edges also against the subset sum
    rng = random.Random(1309)
    memo = {}
    small = 0
    for _ in range(60):
        s1, s2 = (
            FlatState.make(*random_multigraph(rng), rng.choice((0, 0, 1, 2))) for _ in range(2)
        )
        union = _one_point_union(
            s1, s2, rng.randrange(s1.num_vertices), rng.randrange(s2.num_vertices)
        )
        value = flat_eval(union, memo)
        assert value == flat_eval(s1, memo) * flat_eval(s2, memo) * D_INV
        if len(union.edges) <= 16:
            assert value == flat_eval_oracle(union)
            small += 1
    assert small == 36


def test_confluence_random_edge_orders():
    rng = random.Random(5)
    graphs = [
        FlatState.make(2, [(0, 1)] * 3),
        FlatState.make(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        FlatState.make(3, [(0, 0), (0, 1), (1, 2), (2, 2), (0, 1), (1, 2)]),
    ]
    for state in graphs:
        reference = flat_eval(state, memo={})
        for _ in range(10):
            def picker(edges):
                choices = [i for i, (u, v) in enumerate(edges) if u != v]
                return rng.choice(choices)

            assert flat_eval(state, memo={}, edge_picker=picker) == reference


# -- diagrams ------------------------------------------------------------------


def test_yamada_circle_and_unions():
    assert yamada(fixtures.load_diagram("circle")) == CIRCLE_FACTOR
    assert yamada(fixtures.load_diagram("two_circles")) == CIRCLE_FACTOR**2


def test_yamada_kinks():
    assert yamada(fixtures.load_diagram("kink_pos")) == A8 * CIRCLE_FACTOR
    assert yamada(fixtures.load_diagram("kink_neg")) == A8_INV * CIRCLE_FACTOR


def _splice_kink(rng, g, loop_first):
    """``g`` with a seeded arc split into e and f, in a seeded order, and a
    one-crossing kink spliced between them at a seeded crossing index: the
    loop k at slots 0-1 (``X k k e f``, as in kink_pos) when ``loop_first``,
    else at slots 1-2 (``X e k k f``, as in kink_neg)."""
    e = rng.choice(g.arcs)
    f, k = g.arcs[-1] + 1, g.arcs[-1] + 2
    to_f = rng.randrange(2)  # the occurrence of e that becomes f
    seen = 0

    def split(slots):
        nonlocal seen
        out = []
        for a in slots:
            if a == e:
                a = f if seen == to_f else e
                seen += 1
            out.append(a)
        return out

    vertices = [split(v) for v in g.vertices]
    crossings = [split(x) for x in g.crossings]
    kink = (k, k, e, f) if loop_first else (e, k, k, f)
    crossings.insert(rng.randint(0, len(crossings)), kink)
    return GraphDiagram(vertices, crossings, g.free_circles)


@pytest.mark.parametrize("loop_first, factor", [(True, A8), (False, A8_INV)], ids=["pos", "neg"])
def test_a_spliced_kink_multiplies_yamada_by_a_to_the_8(loop_first, factor):
    rng = random.Random(3411)
    memo: dict = {}
    for i in range(24):
        c = 1 + i % 6
        code = gen.twisted_graph(rng, gen.K4 if i % 2 else gen.THETA, c, 1 + i // 6 % min(c, 3))
        g = parse_diagram(code.text())
        value = yamada(g, memo)
        assert value != ZERO
        assert yamada(_splice_kink(rng, g, loop_first), memo) == factor * value


def test_a_spliced_kink_multiplies_the_bracket_by_minus_a_to_the_3():
    # a loop at slots 0-1 multiplies the bracket by -A^3, at slots 1-2 by
    # -A^-3: on closed 3- and 4-strand braids of 6-20 crossings through
    # bracket and the sweep, and of 40-120, past MAX_BRACKET_CROSSINGS,
    # through the sweep alone.  An input past the sweep's budget is counted
    # as refused, not drawn again: at this seed one kinked 4-strand braid of
    # 88 crossings holds 17 800 live states while its unkinked braid passes
    rng = random.Random(3503)
    factors = ((True, LaurentPoly.monomial(-1, 3)), (False, LaurentPoly.monomial(-1, -3)))
    for i in range(24):
        g = parse_diagram(gen.closed_braid(rng, 3 + i % 2, rng.randint(6, 20))[0].text())
        value = bracket(g)
        assert _swept_bracket(*_kernel_args(g), 0) == value, i
        for loop_first, factor in factors:
            kinked = _splice_kink(rng, g, loop_first)
            assert bracket(kinked) == factor * value, i
            assert _swept_bracket(*_kernel_args(kinked), 0) == factor * value, i
    swept = refused = 0
    for i in range(12):
        g = parse_diagram(gen.closed_braid(rng, 3 + i % 2, rng.randint(40, 120))[0].text())
        assert len(g.crossings) > tl.MAX_BRACKET_CROSSINGS
        loop_first, factor = factors[i % 2]
        kinked = _splice_kink(rng, g, loop_first)
        try:
            value = _swept_bracket(*_kernel_args(g), 0)
            assert _swept_bracket(*_kernel_args(kinked), 0) == factor * value, i
        except core.SweepBudgetError:
            refused += 1
            continue
        swept += 1
    assert swept >= 10 and refused == 12 - swept


def test_yamada_rejects_ray_words():
    with pytest.raises(InvalidDiagramError):
        yamada(fixtures.load_diagram("annulus_core"))


def test_yamada_bouquet_diagrams():
    for m in range(1, 7):
        g = fixtures.bouquet(m)
        assert yamada(g) == LOOP_FACTOR ** (m - 1) * CIRCLE_FACTOR


def test_move_invariance():
    circle = yamada(fixtures.load_diagram("circle"))
    assert yamada(fixtures.load_diagram("r2_unknot")) == circle
    assert yamada(fixtures.load_diagram("r2_twostrand")) == circle**2
    assert yamada(fixtures.load_diagram("r3_a")) == yamada(fixtures.load_diagram("r3_b"))


def test_mirror_property_on_corpus():
    for name in ("circle", "theta", "handcuff", "k4", "kink_pos", "kink_neg",
                 "hopf", "r2_unknot", "r3_a", "petersen_diagram"):
        g = fixtures.load_diagram(name)
        assert yamada(mirror(g)) == yamada(g).invert_variable(), name


def test_multiplicativity_on_disjoint_unions():
    pairs = [("theta", "circle"), ("kink_pos", "theta"), ("handcuff", "k4")]
    for n1, n2 in pairs:
        g1, g2 = fixtures.load_diagram(n1), fixtures.load_diagram(n2)
        assert yamada(disjoint_union(g1, g2)) == yamada(g1) * yamada(g2)
    # labels below g1's and negative ones
    bouquet = GraphDiagram([[5, 7, 5, 7]])
    loop = GraphDiagram([[-3, -3]])
    kink = GraphDiagram([], [[-2, -2, 4, 4]])
    for g1, g2 in ((bouquet, loop), (loop, bouquet), (bouquet, kink), (kink, loop)):
        assert yamada(disjoint_union(g1, g2)) == yamada(g1) * yamada(g2)


def test_crossing_budget_raises_past_its_limit(monkeypatch):
    import importlib

    ym = importlib.import_module("skein.yamada")
    monkeypatch.setattr(ym, "MAX_RESOLVED_CROSSINGS", 2)
    g = parse_diagram("X 1 1 2 2\nX 3 3 4 4\nX 5 5 6 6")
    with pytest.raises(InvalidDiagramError, match=r"3\^3 = 27 resolution states"):
        yamada(g, memo={})
    monkeypatch.setattr(ym, "MAX_RESOLVED_CROSSINGS", 3)
    assert yamada(g, memo={}) == yamada(parse_diagram("X 1 1 2 2"), memo={}) ** 3


def test_result_denominator_sanity_bound():
    # d_power of Y is bounded by #crossings + #edges of the underlying graph
    for name in ("circle", "theta", "handcuff", "k4", "kink_pos", "hopf",
                 "r3_a", "petersen_diagram"):
        g = fixtures.load_diagram(name)
        bound = len(g.crossings) + g.num_edges()
        assert yamada(g).d_power <= bound, name


def test_threaded_evaluation_is_consistent():
    # values are immutable and evaluation pure; concurrent calls must agree
    names = ["theta", "k4", "kink_pos", "hopf", "r3_a"] * 4
    expected = [yamada(fixtures.load_diagram(n), memo={}) for n in names]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda n: yamada(fixtures.load_diagram(n)), names))
    assert got == expected


def _expand(g, memo):
    """The Yamada value by rebuilding a diagram per resolution:
    resolve_crossing, then to_flat_state, then flat_eval."""
    if not g.crossings:
        return flat_eval(to_flat_state(g), memo)
    total = ZERO
    for kind, weight in RESOLUTION_WEIGHTS.items():
        total = total + weight * _expand(resolve_crossing(g, 0, kind), memo)
    return total


def _plane_corpus():
    graphs = [n for n in fixtures.list_fixtures() if n.endswith(".graph")]
    corpus = [(n, fixtures.load_diagram(n)) for n in graphs]
    rng = random.Random(4)
    for i in range(6):
        base, name = (gen.THETA, "theta") if i % 2 else (gen.K4, "k4")
        c = 1 + i % 5
        code = gen.twisted_graph(rng, base, c, 1 + c // 2)
        corpus.append((f"twisted_{name}_c{c}", parse_diagram(code.text())))
    # at the benchmark's resolve sizes: 6-7 crossings in 2-3 twist regions
    rng = random.Random(1308)
    for i in range(12):
        base, name = (gen.THETA, "theta") if i % 2 else (gen.K4, "k4")
        c, regions = 6 + i // 2 % 2, 2 + i // 4 % 2
        code = gen.twisted_graph(rng, base, c, regions)
        corpus.append((f"twisted_{name}_c{c}_r{regions}_{i}", parse_diagram(code.text())))
    return [pytest.param(g, id=n) for n, g in corpus if not g.has_rays()]


@pytest.fixture(scope="module")
def corpus_memo():
    """One memo shared by every diagram of the plane corpus."""
    return {}


@pytest.mark.parametrize("g", _plane_corpus())
def test_yamada_equals_expansion_by_rebuilt_diagrams(g, corpus_memo):
    expect = _expand(g, {})
    assert yamada(g, memo={}) == expect
    assert yamada(g, memo=corpus_memo) == expect


def test_petersen_memo_size_is_pinned():
    memo: dict = {}
    yamada(fixtures.load_diagram("petersen_diagram"), memo=memo)
    assert len(memo) == 3044


@pytest.mark.parametrize("fresh_objects", [False, True], ids=["shared", "fresh"])
def test_twisted_k4_yamada_takes_one_ring_product_per_distinct_flat_value(
    monkeypatch, fresh_objects
):
    # the resolve-shaped K4 of the tracer contract's state-count pin: its
    # 729 states reach 8 distinct flat values, one term each, where one
    # term per distinct (A-exponent, vertex resolutions, value) made 43;
    # states group by the object flat_eval returns, so with a fresh object
    # per state, equal objects must still share one term
    ym = importlib.import_module("skein.yamada")
    g = parse_diagram(gen.twisted_graph(random.Random(6), gen.K4, 6, 3).text())
    expect = _expand(g, {})
    values, terms = [], []
    flat = ym.flat_eval
    combine = LocalizedElement.sum_of_products

    def recorded_flat(*args):
        v = flat(*args)
        if fresh_objects:
            v = LocalizedElement._canonical(v.num, v.d_power, v.phi)
        values.append(v)
        return v

    def recorded_sum(given):
        terms.extend(given)
        return combine(terms)

    monkeypatch.setattr(ym, "flat_eval", recorded_flat)
    monkeypatch.setattr(LocalizedElement, "sum_of_products", staticmethod(recorded_sum))
    assert yamada(g, memo={}) == expect
    assert len(values) == 3**6
    assert len(terms) == len(set(values)) == 8
    assert [len(factors) for _, factors in terms] == [1] * 8
    assert {factors[0] for _, factors in terms} == set(values)


# -- the integer flat layer against the LocalizedElement recursion -------------


def _reference_contract(n, edges, idx):
    u, v = edges[idx]
    out = []
    for i, (a, b) in enumerate(edges):
        if i == idx:
            continue
        a2 = u if a == v else (a if a < v else a - 1)
        b2 = u if b == v else (b if b < v else b - 1)
        out.append((a2, b2) if a2 <= b2 else (b2, a2))
    return n - 1, tuple(sorted(out))


def _reference_components(n, edges):
    count, root = components(n, edges)
    groups = {}
    for u, v in edges:
        groups.setdefault(root[u], []).append((u, v))
    comps = []
    for _, comp_edges in sorted(groups.items()):
        verts = sorted({x for e in comp_edges for x in e})
        remap = {v: i for i, v in enumerate(verts)}
        comps.append((len(verts), tuple(sorted((remap[u], remap[v]) for u, v in comp_edges))))
    return comps, count - len(groups)


def _reference_has_bridge(n, edges):
    adj = [[] for _ in range(n)]
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


def _reference_w_eval(n, edges, memo, picker):
    """Deletion-contraction on LocalizedElement values, with a union-find
    split and a separate bridge search, as flat_eval computed it before its
    recursion moved to integer d-polynomials."""
    key = canon_key(n, edges)
    cached = memo.get(key)
    if cached is not None:
        return cached
    loops = sum(1 for u, v in edges if u == v)
    if loops:
        rest = tuple(e for e in edges if e[0] != e[1])
        val = LOOP_FACTOR**loops * _reference_w_eval(n, rest, memo, picker)
    elif not edges:
        val = D**n
    else:
        comps, isolated = _reference_components(n, edges)
        if isolated or len(comps) > 1:
            val = D**isolated
            for cn, ce in comps:
                val = val * _reference_w_eval(cn, ce, memo, picker)
        elif _reference_has_bridge(n, edges):
            val = ZERO
        else:
            idx = picker(edges)
            n2, contracted = _reference_contract(n, edges, idx)
            deleted = tuple(e for i, e in enumerate(edges) if i != idx)
            val = _reference_w_eval(n2, contracted, memo, picker) - D_INV * _reference_w_eval(
                n, deleted, memo, picker
            )
    memo[key] = val
    return val


def _reference_flat_eval(state, memo):
    w = _reference_w_eval(state.num_vertices, state.edges, memo, _first_nonloop)
    return CIRCLE_FACTOR**state.circle_count * w


def _corpus_states(seed):
    rng = random.Random(seed)
    return [
        FlatState.make(n, edges, rng.choice((0, 0, 1, 2)))
        for n, edges in random_multigraphs(seed)
    ]


def test_flat_eval_matches_the_localized_recursion():
    reference_memo = {}
    memo = {}
    states = _corpus_states(1301)
    assert {s.circle_count for s in states} == {0, 1, 2}
    for state in states:
        expect = _reference_flat_eval(state, reference_memo)
        # a fresh memo and one shared by the corpus
        assert flat_eval(state, {}) == expect
        assert flat_eval(state, memo) == expect
    assert len(memo) == len(reference_memo)


def test_flat_eval_matches_the_localized_recursion_under_a_random_picker():
    rng = random.Random(1302)

    def picker(edges):
        return rng.choice([i for i, (u, v) in enumerate(edges) if u != v])

    reference_memo = {}
    for state in _corpus_states(1303):
        expect = _reference_flat_eval(state, reference_memo)
        assert flat_eval(state, {}, edge_picker=picker) == expect


def _connected_pieces(graphs):
    """Each graph without its loops, and each of its components."""
    out = []
    for n, edges in graphs:
        plain = sorted((u, v) if u <= v else (v, u) for u, v in edges if u != v)
        if plain:
            out.append((n, plain))
            out.extend(_reference_components(n, plain)[0])
    return out


def test_split_or_bridge_matches_components_and_bridge_search():
    pieces = _connected_pieces(random_multigraphs(1304))
    seen = set()
    for n, edges in pieces:
        comps, isolated = _reference_components(n, edges)
        if isolated or len(comps) > 1:
            expect = SPLITS
        elif _reference_has_bridge(n, edges):
            expect = HAS_BRIDGE
        else:
            expect = BRIDGELESS
        assert _split_or_bridge(n, edges) == expect, (n, edges)
        seen.add(expect)
    assert seen == {SPLITS, HAS_BRIDGE, BRIDGELESS}


def test_flat_eval_memoizes_integer_d_polynomials_with_nonzero_ends():
    # W(G) = d^(|V|-|E|) F(d^2) with F(0) != 0, so a nonzero memo value's
    # lowest power of d is |V| - |E|, the first two bytes of its key
    memo = {}
    value = flat_eval(FlatState.make(2, [(0, 1)] * 3), memo)
    assert value == d_poly({3: 1, 1: -3, -1: 2})
    for state in _corpus_states(1305):
        flat_eval(state, memo)
    nonzero = 0
    for key, w in memo.items():
        assert isinstance(w, LaurentPoly)
        assert all(type(c) is int for _, c in w.items())
        if w:
            nonzero += 1
            assert w.min_exp() == key[0] - key[1]
    assert nonzero == 249


def test_flat_eval_converts_each_value_through_a_bounded_cache():
    # the ring value of (W, circles) with no cache: W from a fresh memo,
    # converted and multiplied out each time
    states = _corpus_states(1306)
    assert {s.circle_count for s in states} == {0, 1, 2}
    expected = [
        _to_localized(_w_eval(s.num_vertices, s.edges, {}, _first_nonloop))
        * CIRCLE_FACTOR**s.circle_count
        for s in states
    ]
    bound = _localized.cache_info().maxsize
    for flood in (False, True):
        if flood:
            # more distinct (W, circles) pairs than the cache holds, the
            # constants W = j among them, evict the corpus's values
            for j in range(1, bound + 20):
                assert _localized(LaurentPoly.from_int(j), j % 2) == (
                    CIRCLE_FACTOR ** (j % 2)
                ).scale(j)
            assert _localized.cache_info().currsize <= bound
        memo = {}
        for state, expect in zip(states, expected):
            assert flat_eval(state, {}) == expect
            assert flat_eval(state, memo) == expect


def test_yamada_with_a_memo_shared_by_a_run_equals_fresh_memos():
    # as the benchmark's resolve workload shares one memo over its run
    rng = random.Random(1307)
    diagrams = [
        parse_diagram(gen.twisted_graph(rng, base, rng.randint(4, 6), 2).text())
        for base in [gen.THETA, gen.K4] * 10
    ]
    shared = {}
    for g in diagrams:
        assert yamada(g, memo=shared) == yamada(g, memo={})
