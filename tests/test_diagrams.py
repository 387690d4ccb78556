"""Diagram parsing, validation and elementary transformations."""

import pytest

from skein import fixtures
from skein.diagrams import (
    DiagramParseError,
    GraphDiagram,
    InvalidDiagramError,
    Resolution,
    disjoint_union,
    mirror,
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
