"""The edge-doubling map: expansion structure, plane and punctured evaluation."""

import random

import pytest

from skein import fixtures
from skein.cabling import (
    CabledExpansion,
    CabledTerm,
    MulticurveMonomial,
    cable,
    classify_cycles,
    phi_plane,
    phi_punctured,
)
from skein.diagrams import GraphDiagram, InvalidDiagramError, disjoint_union, parse_diagram
from skein.polyxyz import PolyXYZ
from skein.rings import CIRCLE_FACTOR, D, ONE, ZERO, LaurentPoly, LocalizedElement
from skein.tl import bracket
from skein.yamada import yamada

NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)


def test_cable_of_vertexless_circle():
    expansion = cable(fixtures.load_diagram("circle"))
    assert expansion.edge_count == 1
    assert [t.coeff for t in expansion.terms] == [ONE, NEG_DINV]
    assert [t.diagram.free_circles for t in expansion.terms] == [2, 1]


def test_cable_term_count_and_coefficients():
    for name, edges in (("theta", 3), ("k4", 6), ("handcuff", 3)):
        expansion = cable(fixtures.load_diagram(name))
        assert expansion.edge_count == edges
        assert len(expansion.terms) == 2**edges
        for mask, term in enumerate(expansion.terms):
            assert term.coeff == NEG_DINV ** bin(mask).count("1")


def test_cable_theta_circle_counts():
    expansion = cable(fixtures.load_diagram("theta"))
    counts = sorted(t.diagram.free_circles for t in expansion.terms)
    assert counts == [1, 1, 1, 2, 2, 2, 2, 3]


def test_cable_rejects_isolated_vertex():
    with pytest.raises(InvalidDiagramError):
        cable(parse_diagram("V\nO"))


def test_plane_evaluation_fixed_values():
    # circle doubles to d^2 - 1/d * d = d^2 - 1
    assert phi_plane(fixtures.load_diagram("circle")) == CIRCLE_FACTOR
    theta_expect = (
        LocalizedElement.d_to_the(3)
        + LocalizedElement.d_to_the(1).scale(-3)
        + LocalizedElement.d_to_the(-1).scale(2)
    )
    assert phi_plane(fixtures.load_diagram("theta")) == theta_expect
    assert phi_plane(fixtures.load_diagram("handcuff")).is_zero()


def test_cross_oracle_on_flat_fixtures():
    for name in ("circle", "theta", "handcuff", "k4", "bouquet1", "bouquet2",
                 "bouquet3", "bouquet4", "bouquet2_nested"):
        g = fixtures.load_diagram(name)
        assert phi_plane(g) == yamada(g), name


def test_cross_oracle_on_crossed_kinks():
    for name in ("kink_pos", "kink_neg"):
        g = fixtures.load_diagram(name)
        assert phi_plane(g) == yamada(g), name


def test_plane_homomorphism():
    for n1, n2 in (("theta", "circle"), ("bouquet2", "handcuff"), ("k4", "theta")):
        g1, g2 = fixtures.load_diagram(n1), fixtures.load_diagram(n2)
        assert phi_plane(disjoint_union(g1, g2)) == phi_plane(g1) * phi_plane(g2)


def test_plane_rejects_ray_words():
    with pytest.raises(InvalidDiagramError):
        phi_plane(fixtures.load_diagram("pants_x"))


def test_punctured_rejects_crossings():
    with pytest.raises(InvalidDiagramError):
        phi_punctured(fixtures.load_diagram("kink_pos"))


def _gen(name):
    return PolyXYZ.gen(name)


def test_punctured_generator_images():
    one = PolyXYZ.constant(ONE)
    x, y, z = _gen("x"), _gen("y"), _gen("z")
    assert phi_punctured(fixtures.load_diagram("pants_x")) == x * x - one
    assert phi_punctured(fixtures.load_diagram("pants_y")) == y * y - one
    assert phi_punctured(fixtures.load_diagram("pants_z")) == z * z - one
    assert phi_punctured(fixtures.load_diagram("annulus_core")) == x * x - one


def test_punctured_t_diagram_reconstruction():
    # the symmetric theta between the holes: xyz - (x^2+y^2+z^2)/d + 2/d
    x, y, z = _gen("x"), _gen("y"), _gen("z")
    dinv = LocalizedElement(LaurentPoly.from_int(1), 1)
    expect = (
        x * y * z
        - (x * x + y * y + z * z).scale(dinv)
        + PolyXYZ.constant(dinv.scale(2))
    )
    assert phi_punctured(fixtures.load_diagram("pants_t")) == expect


def test_punctured_matches_plane_for_hole_avoiding_diagrams():
    for name in ("theta", "handcuff", "bouquet2"):
        g = fixtures.load_diagram(name)
        assert phi_punctured(g) == PolyXYZ.constant(phi_plane(g))


def test_insertion_point_is_immaterial():
    # the moved turnback changes the cabled terms, not the evaluation
    names = ("hopf", "kink_pos", "r2_unknot", "r3_a")
    for g in [fixtures.load_diagram(name) for name in names] + [parse_diagram(TWO_CROSSINGS)]:
        base = phi_plane(g)
        crossings = [t.diagram.crossings for t in cable(g).terms]
        for cls in g.edge_classes():
            for arc in cls[1:]:
                insertion = {cls[0]: arc}
                assert [t.diagram.crossings for t in cable(g, insertion).terms] != crossings
                assert phi_plane(g, insertion) == base


def test_winding_validation():
    g = parse_diagram("V 1 1\nRAY 1 1+ 1+")  # doubly wound: not embedded
    with pytest.raises(InvalidDiagramError):
        phi_punctured(g)


def test_classify_cycles():
    m = classify_cycles(((0, 0), (1, 0), (0, -1), (1, 1), (-1, -1)))
    assert m == MulticurveMonomial(x_power=1, y_power=1, z_power=2, contractible=1)


#: a theta-like graph whose edges [0, 1, 6] and [3, 4, 5] cross twice
TWO_CROSSINGS = "V 1 2 3\nV 4 5 3\nX 1 7 8 4\nX 7 2 5 8"


def test_insertion_rejects_what_it_cannot_place():
    g = parse_diagram(TWO_CROSSINGS)
    # labels are interned in order of appearance: the edge classes are
    # [0, 1, 6], [2] and [3, 4, 5]
    assert g.edge_classes() == [[0, 1, 6], [2], [3, 4, 5]]
    for insertion in ({99: 99}, {7: 7}, {1: 7}, {1: 6}, {0: 3}, {0: 2}):
        with pytest.raises(InvalidDiagramError):
            cable(g, insertion=insertion)


# -- the cabling as it was built by tuple-keyed reassembly, kept as a reference

_TOKEN_WINDING = {"1+": (1, 0), "1-": (-1, 0), "2+": (0, 1), "2-": (0, -1)}
_GRID_SIDES = ("W", "S", "E", "N")


def _reversed_ray_word(word):
    flip = {"1+": "1-", "1-": "1+", "2+": "2-", "2-": "2+"}
    return tuple(flip[t] for t in reversed(word))


def _word_sum(word):
    w1 = w2 = 0
    for t in word:
        d1, d2 = _TOKEN_WINDING[t]
        w1 += d1
        w2 += d2
    return w1, w2


def _reference_cable(g, insertion=None):
    """Segments keyed by tuples, one incidence dict per term."""

    def jn(arc, end, sub):
        return ("j", arc, end, sub)

    def an(ci, grid, side):
        return ("a", ci, grid, side)

    segments_static = []
    vertex_ids, crossing_ids = g.end_ids()
    for slots, ids in zip(g.vertices, vertex_ids):
        k = len(slots)
        slot_ends = [(a, eid & 1) for a, eid in zip(slots, ids)]
        for i in range(k):
            a1, e1 = slot_ends[i]
            a2, e2 = slot_ends[(i + 1) % k]
            segments_static.append((jn(a1, e1, 1), jn(a2, e2, 0), ()))
    grid_crossings = []
    for ci, (slots, ids) in enumerate(zip(g.crossings, crossing_ids)):
        (a0, e0), (a1, e1), (a2, e2), (a3, e3) = [(a, eid & 1) for a, eid in zip(slots, ids)]
        segments_static += [
            (jn(a0, e0, 0), an(ci, "NW", "W"), ()),
            (an(ci, "NW", "E"), an(ci, "NE", "W"), ()),
            (an(ci, "NE", "E"), jn(a2, e2, 1), ()),
            (jn(a0, e0, 1), an(ci, "SW", "W"), ()),
            (an(ci, "SW", "E"), an(ci, "SE", "W"), ()),
            (an(ci, "SE", "E"), jn(a2, e2, 0), ()),
            (jn(a1, e1, 0), an(ci, "SW", "S"), ()),
            (an(ci, "SW", "N"), an(ci, "NW", "S"), ()),
            (an(ci, "NW", "N"), jn(a3, e3, 1), ()),
            (jn(a1, e1, 1), an(ci, "SE", "S"), ()),
            (an(ci, "SE", "N"), an(ci, "NE", "S"), ()),
            (an(ci, "NE", "N"), jn(a3, e3, 0), ()),
        ]
        for grid in ("NW", "NE", "SW", "SE"):
            grid_crossings.append(tuple(an(ci, grid, side) for side in _GRID_SIDES))

    classes = g.edge_classes()
    n_classes = len(classes) + g.free_circles
    terms = []
    for mask in range(1 << n_classes):
        segs = list(segments_static)
        coeff = ONE
        extra_cycles = []
        for bit, cls in enumerate(classes):
            root = cls[0]
            turn = (mask >> bit) & 1
            if turn:
                coeff = coeff * NEG_DINV
                arc_t, split = (insertion or {}).get(root, (root, 0))
            else:
                arc_t, split = -1, 0
            for a in cls:
                w = g.ray_word(a)
                if turn and a == arc_t:
                    near = w[:split] + _reversed_ray_word(w[:split])
                    far = _reversed_ray_word(w[split:]) + w[split:]
                    segs.append((jn(a, 0, 0), jn(a, 0, 1), near))
                    segs.append((jn(a, 1, 0), jn(a, 1, 1), far))
                else:
                    segs.append((jn(a, 0, 0), jn(a, 1, 1), w))
                    segs.append((jn(a, 0, 1), jn(a, 1, 0), w))
        for fc in range(g.free_circles):
            if (mask >> (len(classes) + fc)) & 1:
                coeff = coeff * NEG_DINV
                extra_cycles.append((0, 0))
            else:
                extra_cycles.extend([(0, 0), (0, 0)])
        diagram, windings = _reference_assemble(segs, grid_crossings, extra_cycles)
        terms.append(CabledTerm(coeff, diagram, windings))
    return CabledExpansion(n_classes, tuple(terms))


def _reference_assemble(segs, grid_crossings, extra_cycles):
    incident = {}
    for sid, (u, v, _w) in enumerate(segs):
        incident.setdefault(u, []).append(sid)
        incident.setdefault(v, []).append(sid)
    for node, ids in incident.items():
        assert len(ids) == (1 if node[0] == "a" else 2), node
    used = [False] * len(segs)
    chain_at_anchor = {}
    n_chains = 0
    for start, ids in incident.items():
        if start[0] != "a" or used[ids[0]]:
            continue
        sid = ids[0]
        node = start
        while True:
            used[sid] = True
            u, v, _w = segs[sid]
            node = v if node == u else u
            if node[0] == "a":
                chain_at_anchor[start] = n_chains
                chain_at_anchor[node] = n_chains
                n_chains += 1
                break
            e1, e2 = incident[node]
            sid = e2 if e1 == sid else e1
    windings = list(extra_cycles)
    for sid0 in range(len(segs)):
        if used[sid0]:
            continue
        w1 = w2 = 0
        sid = sid0
        node = segs[sid][0]
        while not used[sid]:
            used[sid] = True
            u, v, w = segs[sid]
            s1, s2 = _word_sum(w)
            if node == u:
                w1 += s1
                w2 += s2
                node = v
            else:
                w1 -= s1
                w2 -= s2
                node = u
            e1, e2 = incident[node]
            sid = e2 if e1 == sid else e1
        windings.append((w1, w2))
    crossings = [[chain_at_anchor[anchor] for anchor in grid] for grid in grid_crossings]
    return GraphDiagram([], crossings, len(windings)), tuple(windings)


def _grid(rows, cols):
    """The rows x cols grid graph; slots east, north, west, south."""
    edges = {}
    for i in range(rows):
        for j in range(cols):
            for nb in ((i, j + 1), (i + 1, j)):
                if nb[0] < rows and nb[1] < cols:
                    edges[frozenset(((i, j), nb))] = len(edges)
    return GraphDiagram([
        [edges[e] for nb in ((i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j))
         if (e := frozenset(((i, j), nb))) in edges]
        for i in range(rows) for j in range(cols)
    ])


def _twisted(rng, text, crossings):
    """``text`` with ``crossings`` seeded half twists of two edges that leave
    one vertex at neighbouring slots."""
    g = parse_diagram(text)
    vertices = [list(v) for v in g.vertices]
    twists = []
    label = max(g.arc_labels()) + 1
    for _ in range(crossings):
        slots = rng.choice(vertices)
        k = rng.randrange(len(slots))
        k2 = (k + 1) % len(slots)
        right, left = slots[k], slots[k2]
        slots[k], slots[k2] = label, label + 1
        twist = (label, right, left, label + 1)
        twists.append(twist if rng.random() < 0.5 else twist[1:] + twist[:1])
        label += 2
    return GraphDiagram(vertices, twists)


def _reference_corpus():
    # petersen_diagram is left out: its 2^15 terms of 80 crossings each
    # hold hundreds of MB in either implementation
    names = [n for n in fixtures.list_fixtures()
             if n.endswith(".graph") and n != "petersen_diagram.graph"]
    corpus = [(n[: -len(".graph")], fixtures.load_diagram(n)) for n in names]
    rng = random.Random(6)
    for base, text in (("theta", "V 1 2 3\nV 3 2 1\n"),
                       ("k4", "V 1 4 3\nV 2 5 1\nV 3 6 2\nV 4 5 6\n")):
        for c in (1, 2, 3):
            for k in range(2):
                corpus.append((f"twisted_{base}_c{c}_{k}", _twisted(rng, text, c)))
    corpus += [("grid2x3", _grid(2, 3)), ("grid3x3", _grid(3, 3))]
    return [pytest.param(g, id=name) for name, g in corpus]


def _term_fields(expansion):
    return [
        (t.coeff, t.diagram.crossings, t.diagram.free_circles, t.cycle_windings)
        for t in expansion.terms
    ]


def _assert_same_terms(got, ref):
    assert got.edge_count == ref.edge_count
    assert len(got.terms) == len(ref.terms)
    for mask, (a, b) in enumerate(zip(_term_fields(got), _term_fields(ref))):
        assert a == b, f"mask {mask}"


@pytest.mark.parametrize("g", _reference_corpus())
def test_cable_matches_the_reference_term_by_term(g):
    reference = _reference_cable(g)
    _assert_same_terms(cable(g), reference)
    if not g.has_rays():
        expect = ZERO
        for t in reference.terms:
            expect = expect + t.coeff * LocalizedElement(bracket(t.diagram))
        assert phi_plane(g) == expect
    if not g.crossings:
        expect = PolyXYZ()
        for t in reference.terms:
            m = classify_cycles(t.cycle_windings)
            expect = expect + PolyXYZ.monomial(
                (m.x_power, m.y_power, m.z_power, 0), t.coeff * D**m.contractible
            )
        assert phi_punctured(g) == expect


@pytest.mark.parametrize("g", [fixtures.load_diagram("pants_t"), parse_diagram(TWO_CROSSINGS)])
def test_cable_matches_the_reference_at_every_insertion_point(g):
    # the reference also took a split along the arc's ray word; every split
    # gives the same terms, since a turnback strand reads w + reverse(w)
    for cls in g.edge_classes():
        for arc in cls:
            moved = cable(g, {cls[0]: arc})
            for split in range(len(g.ray_word(arc)) + 1):
                _assert_same_terms(moved, _reference_cable(g, {cls[0]: (arc, split)}))


def test_grid_plane_evaluation_equals_yamada():
    g = _grid(3, 3)
    assert phi_plane(g) == yamada(g, memo={})
