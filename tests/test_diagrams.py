"""Diagram parsing, validation and elementary transformations."""

import random

import gen
import pytest

from skein import fixtures
from skein.core import components
from skein.diagrams import (
    DiagramParseError,
    GraphDiagram,
    InvalidDiagramError,
    Resolution,
    disjoint_union,
    mirror,
    normalize_labels,
    parse_diagram,
    resolve_crossing,
    serialize_diagram,
    to_flat_state,
)


def test_parse_free_circle():
    g = parse_diagram("O")
    assert g.free_circles == 1 and not g.vertices and not g.crossings


def test_parse_single_loop_bouquet():
    g = parse_diagram("V 1 1")
    assert g.vertices == ((0, 0),)


def test_parse_kink():
    g = parse_diagram("X 1 1 2 2")
    assert g.crossings == ((0, 0, 1, 1),)


def test_parse_comments_and_blank_lines():
    g = parse_diagram("# heading\n\nV a a  # trailing\n")
    assert g.vertices == ((0, 0),)


def test_parse_errors():
    with pytest.raises(DiagramParseError):
        parse_diagram("X 1 2 3")  # wrong arity
    with pytest.raises(DiagramParseError):
        parse_diagram("V 1 1\nV 1 1")  # label used four times
    with pytest.raises(DiagramParseError):
        parse_diagram("V 1 1\nV 2")  # label 2 used once
    with pytest.raises(DiagramParseError):
        parse_diagram("Q 1 2")  # unknown directive
    with pytest.raises(DiagramParseError):
        parse_diagram("V 1 1\nRAY 2 1+")  # ray on unknown arc
    with pytest.raises(DiagramParseError):
        parse_diagram("V 1 1\nRAY 1 3+")  # bad token
    with pytest.raises(DiagramParseError):
        parse_diagram("V 1 1\nRAY 1 1+\nRAY 1 2+")  # duplicate ray line
    with pytest.raises(DiagramParseError):
        parse_diagram("O extra")


@pytest.mark.parametrize(
    "text, message",
    [
        ("X a b c d", "arc label(s) used only once: a, b, c, d"),
        ("V 7 7\nX 9 9 9 5\nX 5 3 3 8", "arc label(s) used more than twice: 9"),
        ("V 10 2\nV 2", "arc label(s) used only once: 10"),
    ],
)
def test_parse_errors_name_the_file_labels(text, message):
    with pytest.raises(DiagramParseError) as err:
        parse_diagram(text)
    assert str(err.value) == message


def test_parse_serialize_roundtrip_on_fixture_corpus():
    for name in fixtures.list_fixtures():
        if not name.endswith(".graph"):
            continue
        g = fixtures.load_diagram(name)
        assert parse_diagram(serialize_diagram(g)) == g


def test_mirror_is_involution_and_fixes_flat_diagrams():
    theta = fixtures.load_diagram("theta")
    assert mirror(theta) == theta
    for name in ("kink_pos", "hopf", "r3_a", "petersen_diagram"):
        g = fixtures.load_diagram(name)
        assert mirror(mirror(g)) == g
        assert mirror(g) != g


def test_mirror_swaps_over_strand():
    g = parse_diagram("X 1 1 2 2")
    assert mirror(g).crossings == ((0, 1, 1, 0),)


def test_mirror_commutes_with_disjoint_union():
    g1 = fixtures.load_diagram("kink_pos")
    g2 = fixtures.load_diagram("hopf")
    assert mirror(disjoint_union(g1, g2)) == disjoint_union(mirror(g1), mirror(g2))


def test_resolve_kink_smoothings():
    kink = parse_diagram("X 1 1 2 2")
    a = resolve_crossing(kink, 0, Resolution.SMOOTH_A)
    assert not a.crossings and not a.vertices and a.free_circles == 2
    b = resolve_crossing(kink, 0, Resolution.SMOOTH_B)
    assert not b.crossings and b.free_circles == 1
    v = resolve_crossing(kink, 0, Resolution.VERTEX)
    assert v.vertices == ((0, 0, 1, 1),) and not v.crossings
    flat = to_flat_state(v)
    assert flat.num_vertices == 1 and flat.edges == ((0, 0), (0, 0))


def test_resolve_decreases_crossings_and_unknown_index_rejected():
    hopf = fixtures.load_diagram("hopf")
    for kind in Resolution:
        assert len(resolve_crossing(hopf, 0, kind).crossings) == 1
    with pytest.raises(InvalidDiagramError):
        resolve_crossing(hopf, 5, Resolution.SMOOTH_A)


def test_resolve_rejects_ray_words():
    # resolution is a plane operation: joined arcs would have to carry
    # their ray words, and free circles would lose their winding
    g = parse_diagram("X 1 2 1 2\nRAY 1 1+\nRAY 2 2+")
    for kind in Resolution:
        with pytest.raises(InvalidDiagramError):
            resolve_crossing(g, 0, kind)


def test_to_flat_state_examples():
    assert to_flat_state(parse_diagram("O")) == __import__(
        "skein.diagrams", fromlist=["FlatState"]
    ).FlatState.make(0, [], 1)
    theta = to_flat_state(fixtures.load_diagram("theta"))
    assert theta.num_vertices == 2 and theta.edges == ((0, 1), (0, 1), (0, 1))
    bouquet = to_flat_state(parse_diagram("V 1 1 2 2"))
    assert bouquet.num_vertices == 1 and bouquet.edges == ((0, 0), (0, 0))
    with pytest.raises(InvalidDiagramError):
        to_flat_state(fixtures.load_diagram("kink_pos"))


def test_petersen_edge_excess():
    pet = fixtures.load_diagram("petersen_diagram")
    assert len(pet.vertices) == 10
    assert pet.num_edges() == 15


def test_arc_count_conservation_under_resolution():
    pet = fixtures.load_diagram("petersen_diagram")
    n0 = len(pet.arc_labels())
    for kind in Resolution:
        out = resolve_crossing(pet, 2, kind)
        assert len(out.arc_labels()) <= n0


def test_vertex_line_without_labels_is_isolated_vertex():
    g = parse_diagram("V\nO")
    assert g.vertices == ((),) and g.free_circles == 1
    state = to_flat_state(g)
    assert state.num_vertices == 1 and not state.edges


# -- the arc-end numbering ------------------------------------------------------


def _reference_end_ids(g):
    """The positional derivation the stored numbering replaced: the
    (kind, index, slot) positions of each arc's two ends in scan order, then
    id 2*i at the first end and 2*i + 1 at the second, i the label's rank."""
    scan = [
        (("v", vi, si), a) for vi, slots in enumerate(g.vertices) for si, a in enumerate(slots)
    ] + [
        (("x", ci, si), a) for ci, slots in enumerate(g.crossings) for si, a in enumerate(slots)
    ]
    firsts, ends = {}, {}
    for pos, a in scan:
        if a in firsts:
            ends[a] = (firsts.pop(a), pos)
        else:
            firsts[a] = pos
    index = {a: i for i, a in enumerate(sorted(ends))}

    def ids(kind, k, slots):
        return tuple(2 * index[a] + (ends[a][0] != (kind, k, si)) for si, a in enumerate(slots))

    return (
        tuple(ids("v", vi, slots) for vi, slots in enumerate(g.vertices)),
        tuple(ids("x", ci, slots) for ci, slots in enumerate(g.crossings)),
    )


def _reference_arc_labels(g):
    """Arc labels by first appearance, vertex slots before crossing slots."""
    seen = []
    for slots in (*g.vertices, *g.crossings):
        for a in slots:
            if a not in seen:
                seen.append(a)
    return seen


def _seeded_diagram(rng, rays):
    """A twisted theta, K4 or small grid from ``gen`` with 0 to 4 crossings,
    its labels drawn unsorted from a sparse range, with at most one isolated
    vertex and one free circle; with ``rays``, seeded ray words on half its
    arcs."""
    base = rng.choice((gen.THETA, gen.K4, gen.grid(2, 2).text(), gen.grid(2, 3).text()))
    c = rng.randrange(5)
    code = gen.twisted_graph(rng, base, c, 1 + c // 2)
    arcs = rng.sample(range(3, 1000, 7), code.next_label - 1)
    vertices = [[arcs[a - 1] for a in slots] for slots in code.vertices]
    for _ in range(rng.randrange(2)):
        vertices.insert(rng.randrange(len(vertices) + 1), [])
    crossings = [[arcs[a - 1] for a in slots] for slots in code.crossings]
    words = {}
    if rays:
        for a in rng.sample(arcs, len(arcs) // 2):
            words[a] = [rng.choice(("1+", "1-", "2+", "2-")) for _ in range(rng.randrange(3))]
    return GraphDiagram(vertices, crossings, rng.randrange(2), words)


def _numbering_corpus():
    graphs = [
        fixtures.load_diagram(name[: -len(".graph")])
        for name in fixtures.list_fixtures()
        if name.endswith(".graph")
    ]
    rng = random.Random(1301)
    for _ in range(40):
        g = _seeded_diagram(rng, rays=rng.random() < 0.5)
        h = _seeded_diagram(rng, rays=rng.random() < 0.5)
        graphs += [g, mirror(g), disjoint_union(g, h), normalize_labels(g)]
        if not g.has_rays():
            graphs += [resolve_crossing(g, i, kind) for i in range(len(g.crossings))
                       for kind in Resolution]
    return graphs


def test_stored_numbering_matches_the_positional_derivation():
    graphs = _numbering_corpus()
    assert any(g.arcs and g.arcs != tuple(range(g.num_arcs)) for g in graphs)
    for g in graphs:
        assert g.end_ids() == _reference_end_ids(g)
        assert g.arcs == tuple(sorted(set(_reference_arc_labels(g))))
        assert g.num_arcs == len(g.arcs)


def test_arc_labels_keep_first_appearance_order():
    assert GraphDiagram([[9, 4]], [[4, 2, 9, 2]]).arc_labels() == [9, 4, 2]
    for g in _numbering_corpus():
        first = _reference_arc_labels(g)
        assert g.arc_labels() == first
        rank = {a: i for i, a in enumerate(first)}
        assert normalize_labels(g) == GraphDiagram(
            [[rank[a] for a in slots] for slots in g.vertices],
            [[rank[a] for a in slots] for slots in g.crossings],
            g.free_circles,
            {rank[a]: w for a, w in g.ray_words.items()},
        )


def _reference_resolve_crossing(g, index, kind):
    """``resolve_crossing`` in its two-step form: a diagram labelled by the
    joined arcs' union-find roots, relabelled by ``normalize_labels``."""
    if kind is Resolution.VERTEX:
        crossings = [x for i, x in enumerate(g.crossings) if i != index]
        return normalize_labels(
            GraphDiagram(g.vertices + (g.crossings[index],), crossings, g.free_circles)
        )
    pairs = ((0, 1), (2, 3)) if kind is Resolution.SMOOTH_A else ((0, 3), (1, 2))
    vertex_ids, crossing_ids = g.end_ids()
    ids = crossing_ids[index]
    joins = [(ids[s1] >> 1, ids[s2] >> 1) for s1, s2 in pairs]
    count, root = components(g.num_arcs, joins)
    free = g.free_circles + len(joins) - (g.num_arcs - count)
    return normalize_labels(
        GraphDiagram(
            [[root[e >> 1] for e in v] for v in vertex_ids],
            [[root[e >> 1] for e in x] for i, x in enumerate(crossing_ids) if i != index],
            free,
        )
    )


def _resolve_corpus():
    graphs = [
        g
        for g in (fixtures.load_diagram(n) for n in fixtures.list_fixtures() if n.endswith(".graph"))
        if not g.has_rays()
    ]
    rng = random.Random(1402)
    return graphs + [_seeded_diagram(rng, rays=False) for _ in range(200)]


def test_resolve_crossing_matches_the_two_step_reference():
    resolved = 0
    for g in _resolve_corpus():
        for i in range(len(g.crossings)):
            for kind in Resolution:
                out = resolve_crossing(g, i, kind)
                assert serialize_diagram(out) == serialize_diagram(
                    _reference_resolve_crossing(g, i, kind)
                )
                resolved += 1
    assert resolved > 1000


@pytest.mark.parametrize(
    "vertices, crossings, rays, message",
    [
        ([[5, 5, 8]], [], None, "arc label(s) used only once: 8"),
        ([[7, 3]], [[3, 7, 9, 2]], None, "arc label(s) used only once: 2, 9"),
        ([[1, 2, 2, 2, 1, 1]], [], None, "arc label 2 used more than twice"),
        ([[4, 4]], [[6, 4, 6, 6]], None, "arc label 4 used more than twice"),
        ([[4, 4]], [], {5: ["1+"]}, "ray word on unknown arc 5"),
        ([[4, 4]], [], {4: ["3+"]}, "bad ray token '3+'"),
    ],
)
def test_constructor_rejects_bad_labels_without_the_parser(vertices, crossings, rays, message):
    with pytest.raises(DiagramParseError) as err:
        GraphDiagram(vertices, crossings, 0, rays)
    assert str(err.value) == message


def test_ray_words_are_stored_once_and_read_only():
    g = parse_diagram("V 1 2\nV 2 1\nRAY 2 2- 1+\nRAY 1 1+")
    assert repr(g) == (
        "GraphDiagram(vertices=((0, 1), (1, 0)), crossings=(), free_circles=0, "
        "ray_words={0: ('1+',), 1: ('2-', '1+')})"
    )
    assert g.ray_word(1) == ("2-", "1+") and g.ray_word(5) == ()
    assert dict(g.ray_words) == {0: ("1+",), 1: ("2-", "1+")}
    with pytest.raises(TypeError):
        g.ray_words[0] = ()
    assert hash(g) == hash(GraphDiagram(g.vertices, g.crossings, 0, {1: "2- 1+".split(), 0: ["1+"]}))
