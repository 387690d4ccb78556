"""Kauffman bracket and the Temperley-Lieb algebra with its projectors."""

import pytest

from skein import fixtures
from skein.core import state_circle_counts
from skein.diagrams import GraphDiagram, InvalidDiagramError, mirror, parse_diagram
from skein.rings import (
    D_LAURENT,
    RF_D,
    RF_ONE,
    LaurentPoly,
    RationalFunction,
    RingError,
)
from skein.tl import (
    PlanarPairing,
    TangleElement,
    _compose,
    all_pairings,
    bracket,
    chebyshev_delta,
    jones_wenzl,
    markov_trace,
)


def test_bracket_empty_and_circles():
    assert bracket(GraphDiagram()) == LaurentPoly.from_int(1)
    assert bracket(fixtures.load_diagram("circle")) == D_LAURENT
    assert bracket(fixtures.load_diagram("two_circles")) == D_LAURENT**2


@pytest.mark.parametrize("name", ["circle", "two_circles", "empty"])
def test_crossingless_bracket_matches_the_state_sum(name):
    g = GraphDiagram() if name == "empty" else fixtures.load_diagram(name)
    # the 2^0 walk has one state; every free circle adds a factor d
    (circles,) = state_circle_counts(len(g.arc_ends()), g.end_ids()[1])
    assert bracket(g) == D_LAURENT ** (circles + g.free_circles)


def test_bracket_hopf_link():
    # brute force over the 4 smoothings gives -d (A^4 + A^-4)
    expect = LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})
    assert (-D_LAURENT) * LaurentPoly({4: 1, -4: 1}) == expect
    assert bracket(fixtures.load_diagram("hopf")) == expect


def test_bracket_kinks_and_moves():
    circle = D_LAURENT
    assert bracket(fixtures.load_diagram("kink_pos")) == LaurentPoly.monomial(-1, 3) * circle
    assert bracket(fixtures.load_diagram("kink_neg")) == LaurentPoly.monomial(-1, -3) * circle
    assert bracket(fixtures.load_diagram("r2_unknot")) == circle
    assert bracket(fixtures.load_diagram("r2_twostrand")) == circle**2
    assert bracket(fixtures.load_diagram("r3_a")) == bracket(fixtures.load_diagram("r3_b"))


def test_bracket_mirror_inverts_variable():
    for name in ("kink_pos", "hopf", "r2_unknot", "r3_a"):
        g = fixtures.load_diagram(name)
        assert bracket(mirror(g)) == bracket(g).substitute_inverse()


def test_bracket_rejects_flat_vertices():
    with pytest.raises(InvalidDiagramError):
        bracket(fixtures.load_diagram("theta"))


# -- pairings -----------------------------------------------------------------


def test_pairing_validation():
    PlanarPairing(2, [(0, 1), (2, 3)])  # cup-cap
    PlanarPairing(2, [(0, 2), (1, 3)])  # identity
    with pytest.raises(ValueError):
        PlanarPairing(2, [(0, 3), (1, 2)])  # crossing arcs
    with pytest.raises(ValueError):
        PlanarPairing(2, [(0, 1), (1, 3)])  # not a matching


def test_catalan_counts():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430}
    for n, c in catalan.items():
        assert len(all_pairings(n)) == c
        assert len(set(all_pairings(n))) == c


# -- multiplication --------------------------------------------------------------


def test_generator_relations():
    u1 = TangleElement.generator(2, 1)
    assert u1 * u1 == u1.scale(RF_D)
    u1_3 = TangleElement.generator(3, 1)
    u2_3 = TangleElement.generator(3, 2)
    assert u1_3 * u2_3 * u1_3 == u1_3
    assert u2_3 * u1_3 * u2_3 == u2_3
    ident = TangleElement.identity(3)
    assert ident * u2_3 == u2_3
    assert u2_3 * ident == u2_3


def test_strand_count_mismatch():
    with pytest.raises(RingError):
        TangleElement.identity(2) * TangleElement.identity(3)


# -- projectors --------------------------------------------------------------------


def test_projector_small_cases():
    assert jones_wenzl(1) == TangleElement.identity(1)
    dinv = RF_ONE / RF_D
    assert jones_wenzl(2) == TangleElement.identity(2) - TangleElement.generator(2, 1).scale(dinv)
    # n = 3, explicit coefficients; verified by idempotence and annihilation
    u1, u2 = TangleElement.generator(3, 1), TangleElement.generator(3, 2)
    d2m1 = RF_D * RF_D - RF_ONE
    expect = (
        TangleElement.identity(3)
        - (u1 + u2).scale(RF_D / d2m1)
        + (u1 * u2 + u2 * u1).scale(RF_ONE / d2m1)
    )
    assert jones_wenzl(3) == expect


def test_projector_idempotence_and_annihilation():
    for n in range(2, 6):
        f = jones_wenzl(n)
        assert f * f == f
        for i in range(1, n):
            u = TangleElement.generator(n, i)
            assert (f * u).is_zero()
            assert (u * f).is_zero()


def test_markov_trace_values():
    for n in (1, 2, 3):
        assert markov_trace(TangleElement.identity(n)) == RF_D**n
    assert markov_trace(jones_wenzl(2)) == RF_D * RF_D - RF_ONE


def test_trace_follows_chebyshev_recurrence():
    deltas = [chebyshev_delta(n) for n in range(8)]
    for n in range(1, 7):
        assert deltas[n + 1] == RF_D * deltas[n] - deltas[n - 1]
        assert markov_trace(jones_wenzl(n)) == deltas[n]
    # spot value Delta_3 = d^3 - 2d
    d3 = RationalFunction.from_laurent(D_LAURENT**3 - D_LAURENT.scale(2))
    assert deltas[3] == d3


def test_bracket_exponent_sanity_bound():
    for name in ("circle", "two_circles", "kink_pos", "hopf", "r2_unknot", "r3_a"):
        g = fixtures.load_diagram(name)
        value = bracket(g)
        if value.is_zero():
            continue
        circ = g.free_circles + len(g.arc_labels())  # crude circle bound
        bound = (len(g.crossings) + 2 * circ) * 2
        assert -bound <= value.min_exp() <= value.max_exp() <= bound, name


def test_bracket_warns_nothing_but_handles_disjoint_crossings():
    g = parse_diagram("X 1 1 2 2\nX 3 3 4 4\nO")
    # two independent kinks next to a circle = (-A^3 d)^2 * d
    kink = LaurentPoly.monomial(-1, 3) * D_LAURENT
    assert bracket(g) == kink * kink * D_LAURENT


def _reference_compose(bottom: PlanarPairing, top: PlanarPairing) -> tuple[PlanarPairing, int]:
    """The incidence walk that ``_compose`` replaced: nodes 0..n-1 are the
    result bottom, n..2n-1 the result top, 2n..3n-1 the glued middle points;
    every middle node has exactly two incident strands."""
    n = bottom.n
    edges: list[tuple[int, int]] = []
    incident: dict[int, list[int]] = {}

    def add(u: int, v: int) -> None:
        eid = len(edges)
        edges.append((u, v))
        incident.setdefault(u, []).append(eid)
        incident.setdefault(v, []).append(eid)

    for a, b in bottom.pairs:
        add(a if a < n else 2 * n + (a - n), b if b < n else 2 * n + (b - n))
    for a, b in top.pairs:
        add(2 * n + a if a < n else n + (a - n), 2 * n + b if b < n else n + (b - n))

    used = [False] * len(edges)
    pairs: list[tuple[int, int]] = []
    for start in range(2 * n):
        eid = incident[start][0]
        if used[eid]:
            continue
        node = start
        while True:
            used[eid] = True
            u, v = edges[eid]
            node = v if node == u else u
            if node < 2 * n:
                pairs.append((start, node))
                break
            e1, e2 = incident[node]
            eid = e2 if e1 == eid else e1
    loops = 0
    for eid0 in range(len(edges)):
        if used[eid0]:
            continue
        loops += 1
        eid = eid0
        node = edges[eid][0]
        while not used[eid]:
            used[eid] = True
            u, v = edges[eid]
            node = v if node == u else u
            e1, e2 = incident[node]
            eid = e2 if e1 == eid else e1
    return PlanarPairing(n, pairs), loops


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_compose_matches_the_incidence_walk(n):
    pairings = all_pairings(n)
    for bottom in pairings:
        for top in pairings:
            assert _compose(bottom, top) == _reference_compose(bottom, top)


def test_products_and_sums_match_the_termwise_merge():
    u1 = TangleElement.generator(3, 1)
    assert (u1 * (TangleElement.identity(3).scale(RF_D) - u1)).is_zero()  # U1 U1 = d U1
    pairings = all_pairings(3)
    x = TangleElement(3, [(q, RationalFunction.from_int(k - 2)) for k, q in enumerate(pairings)])
    y = TangleElement(3, [(q, RationalFunction.from_int(1 - k)) for k, q in enumerate(pairings)])
    acc: dict[PlanarPairing, RationalFunction] = {}
    for p1, c1 in x.items():
        for p2, c2 in y.items():
            pairing, loops = _reference_compose(p1, p2)
            c = c1 * c2 * RationalFunction.from_laurent(D_LAURENT**loops)
            acc[pairing] = acc[pairing] + c if pairing in acc else c
    assert dict((x * y).items()) == {q: c for q, c in acc.items() if not c.is_zero()}
    assert (x + y) - y == x and (x - x).is_zero()
