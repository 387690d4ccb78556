"""The edge-doubling map: expansion structure, plane and punctured evaluation."""

import gc
import random
import tracemalloc

import gen
import pytest

from skein import cabling, core, fixtures
from skein.cabling import (
    CabledExpansion,
    CabledTerm,
    MulticurveMonomial,
    cable,
    classify_cycles,
    phi_plane,
    phi_punctured,
)
from skein.diagrams import GraphDiagram, InvalidDiagramError, disjoint_union, mirror, parse_diagram
from skein.polyxyz import PolyXYZ
from skein.rings import (
    CIRCLE_FACTOR,
    D,
    D_INV,
    D_LAURENT,
    ONE,
    ZERO,
    LaurentPoly,
    LocalizedElement,
)
from skein.tl import bracket
from skein.yamada import yamada

NEG_DINV = LocalizedElement(LaurentPoly.from_int(-1), 1)


def _two_crossing_theta():
    """A theta whose edges [0, 4, 6] and [1, 3, 5] cross twice, in twist
    crossings of opposite signs next to its first vertex."""
    code = gen.from_text(gen.THETA)
    gen.add_twist(code, 0, 0, [1, -1])
    return parse_diagram(code.text())


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


def test_cabled_terms_compare_by_identity():
    term = cable(fixtures.load_diagram("theta")).terms[0]
    twin = CabledTerm(term.coeff, term.diagram, term.cycle_windings)
    assert twin != term
    assert len({term, twin}) == 2


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


def test_punctured_generator_images():
    one = PolyXYZ.constant(ONE)
    x, y, z = (PolyXYZ.gen(v) for v in "xyz")
    assert phi_punctured(fixtures.load_diagram("pants_x")) == x * x - one
    assert phi_punctured(fixtures.load_diagram("pants_y")) == y * y - one
    assert phi_punctured(fixtures.load_diagram("pants_z")) == z * z - one
    assert phi_punctured(fixtures.load_diagram("annulus_core")) == x * x - one


def test_punctured_t_diagram_reconstruction():
    # the symmetric theta between the holes: xyz - (x^2+y^2+z^2)/d + 2/d
    x, y, z = (PolyXYZ.gen(v) for v in "xyz")
    dinv = LocalizedElement(LaurentPoly.from_int(1), 1)
    expect = (
        x * y * z
        - (x * x + y * y + z * z).scale(dinv)
        + PolyXYZ.constant(dinv.scale(2))
    )
    assert phi_punctured(fixtures.load_diagram("pants_t")) == expect


def test_a_free_circle_multiplies_the_punctured_evaluation_by_d2_minus_1():
    # a free circle cables to two circles, or to one under its turnback
    x = PolyXYZ.gen("x")
    rayed = phi_punctured(parse_diagram(gen.THETA + "RAY 1 1+\n"))
    assert rayed == (x * x - PolyXYZ.constant(ONE)).scale(D - D_INV.scale(2))
    with_circle = phi_punctured(parse_diagram(gen.THETA + "RAY 1 1+\nO\n"))
    assert with_circle == rayed.scale(D * D - ONE)


def test_punctured_matches_plane_for_hole_avoiding_diagrams():
    for name in ("theta", "handcuff", "bouquet2"):
        g = fixtures.load_diagram(name)
        assert phi_punctured(g) == PolyXYZ.constant(phi_plane(g))


def test_insertion_point_is_immaterial():
    # the moved turnback changes the cabled terms, not the evaluation
    names = ("hopf", "kink_pos", "r2_unknot", "r3_a")
    for g in [fixtures.load_diagram(name) for name in names] + [_two_crossing_theta()]:
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


def test_insertion_rejects_what_it_cannot_place():
    g = _two_crossing_theta()
    assert g.edge_classes() == [[0, 4, 6], [1, 3, 5], [2]]
    # unknown keys, keys that are not the least arc of their class, and
    # arcs outside the key's class
    for insertion in ({99: 99}, {7: 7}, {4: 4}, {4: 6}, {0: 1}, {0: 2}):
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


def _reference_corpus():
    # petersen_diagram is left out: its 2^15 terms of 80 crossings each
    # hold hundreds of MB in either implementation
    names = [n for n in fixtures.list_fixtures()
             if n.endswith(".graph") and n != "petersen_diagram.graph"]
    corpus = [(n[: -len(".graph")], fixtures.load_diagram(n)) for n in names]
    rng = random.Random(6)
    for base, text in (("theta", gen.THETA), ("k4", gen.K4)):
        for c in (1, 2, 3):
            for k in range(2):
                code = gen.twisted_graph(rng, text, c, 1 + c // 2)
                corpus.append((f"twisted_{base}_c{c}_{k}", parse_diagram(code.text())))
    corpus += [("grid2x3", parse_diagram(gen.grid(2, 3).text())),
               ("grid3x3", parse_diagram(gen.grid(3, 3).text()))]
    # free circles next to a wound ray or next to crossings: the mask bits
    # above the edge classes of the per-term build
    kink = fixtures.load_diagram("kink_pos")
    two = _two_crossing_theta()
    corpus += [("theta_one_ray_circle", parse_diagram(gen.THETA + "RAY 1 1+\nO\n")),
               ("theta_one_ray_two_circles", parse_diagram(gen.THETA + "RAY 1 1+\nO\nO\n")),
               ("kink_pos_circle", GraphDiagram(kink.vertices, kink.crossings, 1)),
               ("two_crossing_theta_circle", GraphDiagram(two.vertices, two.crossings, 1))]
    # both paths of cable() on rayed flat diagrams: ray words that all sum to
    # 0 (the bracket kernel), and one ray that winds (the per-term build;
    # hole 1 in the inner face at outer edge 1)
    k4 = fixtures.load_diagram("k4")
    corpus += [("k4_cancelling_rays", _with_cancelling_rays(k4)),
               ("k4_one_ray", GraphDiagram(k4.vertices, ray_words={1: ["1+"]}))]
    return [pytest.param(g, id=name) for name, g in corpus]


def _with_cancelling_rays(g):
    """``g`` with the ray word ``1+ 1-``, which winds nowhere, on every arc."""
    words = {a: ["1+", "1-"] for a in g.arc_labels()}
    return GraphDiagram(g.vertices, g.crossings, g.free_circles, ray_words=words)


def _unoriented(windings):
    """The reference's windings as a multiset of unoriented circles: each
    the larger of (w1, w2) and (-w1, -w2), sorted."""
    return tuple(sorted(max((w1, w2), (-w1, -w2)) for w1, w2 in windings))


def _assert_same_terms(got, ref):
    # only the reference's windings are put in that form: cable() must emit
    # them sorted and unoriented
    assert got.edge_count == ref.edge_count
    assert len(got.terms) == len(ref.terms)
    for mask, (a, b) in enumerate(zip(got.terms, ref.terms)):
        assert (a.coeff, a.diagram.crossings, a.diagram.free_circles, a.cycle_windings) == (
            b.coeff, b.diagram.crossings, b.diagram.free_circles, _unoriented(b.cycle_windings)
        ), f"mask {mask}"


def _bracket_sum(terms):
    """phi_plane as the sum of coeff * bracket over cabled terms."""
    expect = ZERO
    for t in terms:
        expect = expect + t.coeff * LocalizedElement(bracket(t.diagram))
    return expect


@pytest.mark.parametrize("g", _reference_corpus())
def test_cable_matches_the_reference_term_by_term(g):
    reference = _reference_cable(g)
    _assert_same_terms(cable(g), reference)
    if not g.has_rays():
        assert phi_plane(g) == _bracket_sum(reference.terms)
    if not g.crossings:
        expect = PolyXYZ()
        for t in reference.terms:
            m = classify_cycles(t.cycle_windings)
            expect = expect + PolyXYZ.monomial(
                (m.x_power, m.y_power, m.z_power, 0), t.coeff * D**m.contractible
            )
        assert phi_punctured(g) == expect


def _crossed_plane_corpus():
    return [p for p in _reference_corpus() if p.values[0].crossings and not p.values[0].has_rays()]


def test_crossed_plane_corpus_holds_free_circles_next_to_crossings():
    ids = {p.id for p in _crossed_plane_corpus()}
    assert {"kink_pos_circle", "two_crossing_theta_circle"} <= ids


def _recording_kernel(monkeypatch):
    """Wrap the kernel name ``cabling`` calls; return the list of the
    state counts of its calls."""
    sizes = []
    kernel = cabling.state_circle_counts

    def recorded(n_arcs, crossings):
        counts = kernel(n_arcs, crossings)
        sizes.append(len(counts))
        return counts

    monkeypatch.setattr(cabling, "state_circle_counts", recorded)
    return sizes


def test_crossed_theta_makes_no_kernel_call(monkeypatch):
    # the frontier sweep evaluates the whole cable: no 2^(C + P) kernel call
    sizes = _recording_kernel(monkeypatch)
    g = _two_crossing_theta()
    value = phi_plane(g)
    assert sizes == []
    assert value == _bracket_sum(_reference_cable(g).terms) == yamada(g, memo={})


@pytest.mark.parametrize(
    "evaluate, g",
    [
        (phi_plane, fixtures.load_diagram("k4")),
        (phi_plane, parse_diagram(gen.grid(3, 3).text())),
        (phi_punctured, fixtures.load_diagram("theta")),
        (phi_punctured, _with_cancelling_rays(fixtures.load_diagram("k4"))),
    ],
    ids=["plane_k4", "plane_grid3x3", "punctured_theta", "punctured_k4_cancelling_rays"],
)
def test_crossingless_evaluation_makes_one_kernel_call_over_every_term(monkeypatch, evaluate, g):
    # the unwound crossingless path counts all 2^|E| terms in one call; a
    # term built by joins would make none
    sizes = _recording_kernel(monkeypatch)
    evaluate(g)
    assert sizes == [2 ** len(g.edge_classes())]


@pytest.mark.parametrize("g", _crossed_plane_corpus())
def test_projector_walk_above_a_small_kernel_budget(monkeypatch, g):
    # the sweep that replaced the kernel call and the projector walk above
    # its budget, at every insertion point and within 2^6 live states
    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 1 << 6)
    for cls in g.edge_classes():
        for arc in cls:
            reference = _reference_cable(g, {cls[0]: (arc, 0)})
            assert phi_plane(g, {cls[0]: arc}) == _bracket_sum(reference.terms)


def test_projector_walks_leave_no_reference_cycles():
    # a cycle would keep cable()'s strands and terms, or the sweep's
    # states, alive until the next collection
    rayed = _rayed_crossing_corpus()[0]
    theta = _two_crossing_theta()
    gc.collect()
    gc.disable()
    try:
        cable(rayed)
        phi_plane(theta)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _flat_plane_fixtures():
    graphs = [(n[: -len(".graph")], fixtures.load_diagram(n))
              for n in fixtures.list_fixtures() if n.endswith(".graph")]
    return [pytest.param(g, id=name) for name, g in graphs
            if not g.crossings and not g.has_rays()]


@pytest.mark.parametrize("g", _flat_plane_fixtures())
def test_cancelling_ray_words_leave_the_punctured_evaluation_unchanged(g):
    assert phi_punctured(_with_cancelling_rays(g)) == phi_punctured(g)


def _with_seeded_rays(rng, g):
    """``g`` with a seeded ray word on every arc, some of them empty."""
    tokens = list(_TOKEN_WINDING)
    words = {a: [rng.choice(tokens) for _ in range(rng.randrange(4))] for a in g.arc_labels()}
    return GraphDiagram(g.vertices, g.crossings, ray_words=words)


def _rayed_crossing_corpus():
    """Seeded ray words, some empty, on every arc of diagrams with crossings."""
    rng = random.Random(9)
    corpus = [_with_seeded_rays(rng, _two_crossing_theta()) for _ in range(3)]
    # a twisted K4 keeps a cycle of untwisted edges, so its circles can wind
    for text, cs in ((gen.THETA, (1, 2, 3)), (gen.K4, (1, 2))):
        for c in cs:
            for _ in range(2):
                code = gen.twisted_graph(rng, text, c, 1 + c // 2)
                corpus.append(_with_seeded_rays(rng, parse_diagram(code.text())))
    return corpus


@pytest.mark.parametrize(
    "g",
    [fixtures.load_diagram("pants_t"), _two_crossing_theta(), *_rayed_crossing_corpus()],
)
def test_cable_matches_the_reference_at_every_insertion_point(g):
    # the reference also took a split along the arc's ray word; every split
    # gives the same terms, since a turnback strand reads w + reverse(w)
    for cls in g.edge_classes():
        for arc in cls:
            moved = cable(g, {cls[0]: arc})
            for split in range(len(g.ray_word(arc)) + 1):
                _assert_same_terms(moved, _reference_cable(g, {cls[0]: (arc, split)}))


def test_rayed_crossing_corpus_winds_where_the_walk_joins():
    # ray words on arcs between two crossings and on arcs that never carry a
    # turnback wind the strands cable() joins before and inside each term;
    # those strands end in chains, which list no winding, while the circles,
    # closed through vertex polygons, must keep theirs
    inner = straight = wound = 0
    for g in _rayed_crossing_corpus():
        at_vertex = {a for slots in g.vertices for a in slots}
        for cls in g.edge_classes():
            inner += any(g.ray_word(a) and a not in at_vertex for a in cls)
            straight += any(g.ray_word(a) for a in cls[1:])
        wound += any(w != (0, 0) for t in cable(g).terms for w in t.cycle_windings)
    assert inner and straight and wound


def test_grid_plane_evaluation_equals_yamada():
    g = parse_diagram(gen.grid(3, 3).text())
    assert phi_plane(g) == yamada(g, memo={})


def test_crossingless_terms_share_one_diagram_per_winding_list():
    g = parse_diagram(gen.grid(3, 3).text())
    expansion = cable(g)
    assert len(expansion.terms) == 2**12
    diagrams = {id(t.diagram) for t in expansion.terms}
    assert len(diagrams) == len({t.cycle_windings for t in expansion.terms})
    for mask, term in enumerate(expansion.terms):
        assert term.diagram.free_circles == len(term.cycle_windings)
        assert not term.diagram.crossings
        assert term.coeff == NEG_DINV ** bin(mask).count("1")
    # equal winding lists, one object
    by_windings = {}
    for term in expansion.terms:
        assert by_windings.setdefault(term.cycle_windings, term.diagram) is term.diagram
    # equal coefficients and winding lists, one term object
    by_value = {}
    for term in expansion.terms:
        assert by_value.setdefault((term.coeff, term.cycle_windings), term) is term
    assert len({id(t) for t in expansion.terms}) == len(by_value) == 22
    # so the expansion holds 4096 references, not 4096 terms
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        expansion = cable(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(expansion.terms) == 2**12
    assert retained < 200_000


def test_cable_with_crossings_refuses_terms_past_its_cable_crossing_budget(monkeypatch):
    # 2^14 terms of 8 cable crossings each, refused before any term is
    # built; the sweep has no such budget
    g = _two_crossing_theta()
    wide = GraphDiagram(g.vertices, g.crossings, 11)
    message = r"2\^14 terms of 8 cable crossings, 131072 in all; the limit is 65536$"
    with pytest.raises(InvalidDiagramError, match="cable would build " + message):
        cable(wide)
    assert phi_plane(wide) == phi_plane(g) * CIRCLE_FACTOR**11
    # the theta alone: 2^3 terms of 8, at the limit and one past it
    monkeypatch.setattr(cabling, "MAX_CABLED_CROSSINGS", 64)
    assert len(cable(g).terms) == 8
    monkeypatch.setattr(cabling, "MAX_CABLED_CROSSINGS", 63)
    with pytest.raises(InvalidDiagramError, match="64 in all; the limit is 63$"):
        cable(g)


def test_crossed_terms_hold_at_most_the_stated_bytes_per_cable_crossing():
    # one input crossing per term costs the most per cable crossing; the
    # budget's stated 21 MiB allows 332 bytes each
    code = gen.from_text(gen.THETA)
    gen.add_twist(code, 0, 0, [1])
    g = parse_diagram(code.text())
    g = GraphDiagram(g.vertices, g.crossings, 7)
    tracemalloc.start()
    try:
        expansion = cable(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(expansion.terms) == 2**10
    assert peak < 332 * (4 << 10)
    assert 332 * cabling.MAX_CABLED_CROSSINGS < 21 * 2**20


def _reused_block_corpus():
    theta = fixtures.load_diagram("theta")
    circle = fixtures.load_diagram("circle")
    corpus = [
        ("grid2x4", parse_diagram(gen.grid(2, 4).text())),
        # the free circle's bit sits above the class bits
        ("grid2x3_theta_circle",
         disjoint_union(disjoint_union(parse_diagram(gen.grid(2, 3).text()), theta), circle)),
        # two free-circle bits above the class bits, both turned back on some terms
        ("theta_two_circles", disjoint_union(theta, fixtures.load_diagram("two_circles"))),
        # loops; bouquet3's one level-2 block is the whole expansion
        ("bouquet4", fixtures.load_diagram("bouquet4")),
    ]
    return [pytest.param(g, id=name) for name, g in corpus]


def _has_shifted_repeat(expansion):
    """Whether two blocks of 2^(bit+1) terms below some class level bit >= 2
    are equal up to a nonzero offset in (turnbacks, circles): blocks whose
    circle counts the bracket kernel copies with a shift."""
    tc = [(t.coeff.d_power, t.diagram.free_circles) for t in expansion.terms]
    for bit in range(2, expansion.edge_count):
        size = 2 << bit
        seen = {}
        for start in range(0, len(tc), size):
            block = tc[start : start + size]
            t0, c0 = block[0]
            shape = tuple((t - t0, c - c0) for t, c in block)
            if shape in seen and seen[shape] != (t0, c0):
                return True
            seen.setdefault(shape, (t0, c0))
    return False


@pytest.mark.parametrize("g", _reused_block_corpus())
def test_reused_blocks_match_the_reference_term_by_term(g):
    # these inputs repeat blocks of terms shifted in both turnbacks and
    # circles, whose circle counts the bracket kernel copies from the first
    # block with the same pairing
    reference = _reference_cable(g)
    assert _has_shifted_repeat(reference)
    _assert_same_terms(cable(g), reference)


def test_grid_3x4_plane_evaluation_equals_yamada():
    # 2^17 terms, nearly all circle counts copied from reused kernel blocks
    g = parse_diagram(gen.grid(3, 4).text())
    assert phi_plane(g) == yamada(g, memo={})


def _filled_holes_equal_yamada(g):
    # x = y = z = d: every circle is worth d once the holes are filled, so
    # the punctured evaluation becomes the plane one of the unrayed diagram
    d = PolyXYZ.constant(D)
    filled = phi_punctured(g).substitute({"x": d, "y": d, "z": d})
    plane = GraphDiagram(g.vertices, g.crossings, g.free_circles)
    return filled == PolyXYZ.constant(yamada(plane, memo={}))


@pytest.mark.parametrize("name", ["annulus_core", "pants_t", "pants_x", "pants_y", "pants_z"])
def test_filling_the_holes_gives_the_yamada_value(name):
    assert _filled_holes_equal_yamada(fixtures.load_diagram(name))


@pytest.mark.parametrize("name", ["k4", "theta", "grid2x3", "bouquet2", "handcuff"])
def test_filling_the_holes_of_seeded_rayed_diagrams(name):
    g = parse_diagram(gen.grid(2, 3).text()) if name == "grid2x3" else fixtures.load_diagram(name)
    rng = random.Random(name)
    checked = 0
    for _ in range(16):
        rayed = _with_seeded_rays(rng, g)
        try:
            ok = _filled_holes_equal_yamada(rayed)
        except InvalidDiagramError:
            continue  # a circle winds twice around a hole: not embedded
        assert ok, rayed
        checked += 1
    assert checked >= 2


# -- phi_plane with crossings: the frontier sweep over the cable's smoothing diagram


def _twisted_corpus():
    """Seeded twisted thetas and K4s of 1 to 4 crossings in 1 to 3 twist
    regions, 0, 1 or 2 free circles each."""
    rng = random.Random(2027)
    corpus = []
    for text in (gen.THETA, gen.K4):
        for c in (1, 2, 3, 4):
            for k in range(8):
                code = gen.twisted_graph(rng, text, c, 1 + rng.randrange(min(c, 3)))
                g = parse_diagram(code.text())
                corpus.append(GraphDiagram(g.vertices, g.crossings, k % 3))
    return corpus


def test_sweep_matches_the_reference_on_seeded_twisted_graphs():
    corpus = _twisted_corpus()
    assert len(corpus) >= 60 and sum(g.free_circles > 0 for g in corpus) >= 40
    assert max(len(g.crossings) for g in corpus) == 4
    for i, g in enumerate(corpus):
        assert phi_plane(g) == _bracket_sum(cable(g).terms), i


def test_sweep_equals_yamada_on_planar_twisted_graphs():
    rng = random.Random(2028)
    for i in range(30):
        c = 1 + i % 6
        code = gen.twisted_graph(rng, (gen.THETA, gen.K4)[i % 2], c, 1 + rng.randrange(min(c, 3)))
        gen.assert_planar(code)
        g = parse_diagram(code.text())
        assert phi_plane(g) == yamada(g, memo={}), code.text()


def test_sweep_value_does_not_depend_on_the_crossing_order():
    # the greedy order breaks ties by index: shuffling the cable crossings
    # among themselves and the projector crossings among themselves changes
    # the order the sweep takes, never the value it sums
    rng = random.Random(2301)
    for i in range(54):
        c = 3 + i % 9
        code = gen.twisted_graph(rng, (gen.THETA, gen.K4)[i % 2], c, 1 + rng.randrange(min(c, 3)))
        g = parse_diagram(code.text())
        strands = cabling._Strands(g, None)
        n_arcs, crossings, n_cable, loops = strands.smoothing_diagram(g.free_circles)
        value = core.frontier_sweep(n_arcs, crossings, n_cable, loops)
        cabled, projectors = crossings[:n_cable], crossings[n_cable:]
        rng.shuffle(cabled)
        rng.shuffle(projectors)
        assert core.frontier_sweep(n_arcs, cabled + projectors, n_cable, loops) == value, i


def test_mirror_and_disjoint_union_laws_past_the_yamada_walk():
    # 20 to 40 crossings, past the 3^c walk's 16: phi_plane(mirror g) is
    # phi_plane(g) with A -> A^-1, and a disjoint union multiplies.  An
    # input past the sweep's budget is refused with the typed error and
    # counted, not drawn again
    rng = random.Random(2302)
    swept = []
    refused = 0
    for i in range(30):
        c = rng.randint(20, 40)
        code = gen.twisted_graph(rng, (gen.THETA, gen.K4)[i % 2], c, 1 + rng.randrange(3))
        g = parse_diagram(code.text())
        try:
            value = phi_plane(g)
            assert phi_plane(mirror(g)) == value.invert_variable(), i
        except InvalidDiagramError as exc:
            assert "past its budget" in str(exc)
            refused += 1
            continue
        swept.append((g, value))
    assert len(swept) >= 20 and refused == 30 - len(swept)
    for (g, v), (h, w) in zip(swept[:8:2], swept[1:8:2]):
        assert phi_plane(disjoint_union(g, h)) == v * w


def _kinked_theta(kinks, free):
    """A theta with a chain of ``kinks`` kinks on one edge, and ``free``
    free circles."""
    lines = ["V e0 2 3", f"V 3 2 e{kinks}"]
    lines += [f"X e{i} k{i} k{i} e{i + 1}" for i in range(kinks)]
    return parse_diagram("\n".join(lines) + "\n" + "O\n" * free)


def test_kinks_and_free_circles_fill_the_digit_width(monkeypatch):
    # 3 kinks and 20 free circles: the largest digit of the packed total
    # takes more than half the width the sweep derives from its bound, so a
    # width guessed at half of it would read back wrong digits
    g = _kinked_theta(3, 20)
    widths = []
    read_digits = core._read_digits

    def recording(total, width, e):
        widths.append(width)
        return read_digits(total, width, e)

    monkeypatch.setattr(core, "_read_digits", recording)
    digits = core.frontier_sweep(*cabling._Strands(g, None).smoothing_diagram(g.free_circles))
    (width,) = widths
    assert max(abs(c) for _, c in digits.items()).bit_length() > width // 2
    # a free circle cables to d^2 - 1; Yamada's expansion is independent
    value = phi_plane(g)
    assert value == phi_plane(_kinked_theta(3, 0)) * (D * D - ONE) ** 20
    assert value == yamada(g, memo={})


def test_petersen_diagram_is_the_same_at_two_insertion_points():
    g = fixtures.load_diagram("petersen_diagram")
    cls = next(cls for cls in g.edge_classes() if len(cls) > 1)
    assert phi_plane(g, {cls[0]: cls[-1]}) == phi_plane(g)


def test_planar_petersen_plane_value_equals_yamada():
    code = gen.planar_petersen(fixtures.fixture_path("petersen_diagram.graph").read_text())
    g = parse_diagram(code.text())
    assert phi_plane(g) == yamada(g, memo={})


def test_d_normalization_makes_no_generic_division(monkeypatch):
    # the sweep's numerator is divided by d in synthetic passes, never by
    # LaurentPoly.exact_div
    corpus = _twisted_corpus()
    rng = random.Random(29)
    fractions = [
        (LaurentPoly({rng.randint(-8, 8): rng.randint(-5, 5) for _ in range(4)}) * D_LAURENT**j, k)
        for j in range(5)
        for k in range(7)
        for _ in range(4)
    ]
    expected = [phi_plane(g) for g in corpus], [LocalizedElement(*f) for f in fractions]

    def refuse(self, divisor):
        raise AssertionError("exact_div called")

    monkeypatch.setattr(LaurentPoly, "exact_div", refuse)
    assert ([phi_plane(g) for g in corpus], [LocalizedElement(*f) for f in fractions]) == expected


def test_a_malformed_smoothing_diagram_is_an_internal_error(monkeypatch):
    # only the sweep's state budget is input outside the domain; a slot list
    # that does not hold each arc-end id once is a bug in the caller
    malformed = (2, [(0, 1, 2, 2)], 1, 0)
    monkeypatch.setattr(cabling._Strands, "smoothing_diagram", lambda self, free: malformed)
    with pytest.raises(ValueError, match="exactly one slot") as info:
        phi_plane(_two_crossing_theta())
    assert not isinstance(info.value, InvalidDiagramError)


def test_sweep_past_its_budget_raises_with_the_count(monkeypatch):
    # the two-crossing theta peaks at 10 live states, after 1, 2, 4 and 8
    g = _two_crossing_theta()
    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 9)
    with pytest.raises(InvalidDiagramError, match=r"holds 10 live states, past its budget of 9"):
        phi_plane(g)
    monkeypatch.setattr(core, "MAX_SWEEP_STATES", 10)
    assert phi_plane(g) == yamada(g, memo={})
