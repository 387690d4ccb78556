"""Yamada evaluation: flat states, the subset-sum oracle, diagrams, moves, and
the integer flat layer against the LocalizedElement recursion it replaced."""

import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from skein import fixtures
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
)
from skein.core import canon_key, components
from skein.yamada import (
    BRIDGELESS,
    HAS_BRIDGE,
    SPLITS,
    _first_nonloop,
    _split_or_bridge,
    flat_eval,
    flat_eval_oracle,
    yamada,
)
from test_kernel import random_multigraphs
from twists import twisted


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


def test_crossing_warn_threshold(monkeypatch):
    import importlib

    ym = importlib.import_module("skein.yamada")
    monkeypatch.setattr(ym, "EXPANSION_WARN_CROSSINGS", 2)
    g = parse_diagram("X 1 1 2 2\nX 3 3 4 4\nX 5 5 6 6")
    with pytest.warns(UserWarning):
        yamada(g, memo={})


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
        base, name = ("V 1 2 3\nV 3 2 1\n", "theta") if i % 2 else (
            "V 1 4 3\nV 2 5 1\nV 3 6 2\nV 4 5 6\n", "k4")
        c = 1 + i % 5
        corpus.append((f"twisted_{name}_c{c}", twisted(rng, base, c)))
    return [pytest.param(g, id=n) for n, g in corpus if not g.has_rays()]


@pytest.mark.parametrize("g", _plane_corpus())
def test_yamada_equals_expansion_by_rebuilt_diagrams(g):
    assert yamada(g, memo={}) == _expand(g, {})


def test_petersen_memo_size_is_pinned():
    memo: dict = {}
    yamada(fixtures.load_diagram("petersen_diagram"), memo=memo)
    assert len(memo) == 3044


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
