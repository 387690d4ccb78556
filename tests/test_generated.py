"""Generated test diagrams: every seeded corpus is planar, and on diagrams
drawn from ``gen`` the values survive relabelling, mirroring and disjoint
union."""

import random

import gen
import test_cabling
import test_diagrams
import test_kernel
import test_yamada
from hypothesis import given, settings
from hypothesis import strategies as st

from skein import fixtures
from skein.diagrams import GraphDiagram, disjoint_union, mirror, parse_diagram, serialize_diagram
from skein.rings import LaurentPoly, LocalizedElement
from skein.tl import bracket
from skein.yamada import yamada


def _assert_planar(g):
    """``gen.assert_planar`` on ``g`` without its ray words."""
    flat = GraphDiagram(g.vertices, g.crossings, g.free_circles)
    try:
        gen.assert_planar(gen.from_text(serialize_diagram(flat)))
    except ValueError as err:
        raise AssertionError(serialize_diagram(flat)) from err


def test_every_generated_test_diagram_is_planar():
    # The one exception is the shipped petersen_diagram, whose outer
    # pentagon is listed clockwise (V - E + F = -2).  The benchmark's flat
    # pool repairs its text with gen.planar_petersen, so reorienting the
    # fixture waits for a change to the benchmark.
    petersen = fixtures.load_diagram("petersen_diagram")
    params = test_cabling._reference_corpus() + test_cabling._reused_block_corpus()
    _, braids, shuffled, parts = test_kernel._split_walk_corpus()
    corpora = [
        [p.values[0] for p in params + test_yamada._plane_corpus()],
        test_cabling._rayed_crossing_corpus(),
        test_diagrams._numbering_corpus(),
        test_diagrams._resolve_corpus(),
        test_kernel._diagrams(24),
        braids + shuffled + [g for pair in parts for g in pair],
        *test_kernel._assembly_corpus(),
        [g for _, g in test_kernel._trace_corpus()],
    ]
    for corpus in corpora:
        assert corpus
        for g in corpus:
            if g != petersen:
                _assert_planar(g)


SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def twisted_graphs(draw, max_crossings=4):
    """A theta or K4 with up to ``max_crossings`` seeded twist crossings."""
    base = draw(st.sampled_from((gen.THETA, gen.K4)))
    c = draw(st.integers(0, max_crossings))
    return parse_diagram(gen.twisted_graph(random.Random(draw(SEEDS)), base, c, 1 + c // 2).text())


@st.composite
def closed_braids(draw):
    """A seeded closed braid on 2 to 4 strands with up to 10 crossings."""
    strands = draw(st.integers(2, 4))
    length = draw(st.integers(strands - 1, 10))
    return parse_diagram(gen.closed_braid(random.Random(draw(SEEDS)), strands, length)[0].text())


def _check_value_laws(data, g, partners, value, mirrored):
    """A sparse relabelling keeps ``value`` and planarity, ``mirror`` maps
    ``value`` to ``mirrored(value)``, and a disjoint union with a diagram
    drawn from ``partners`` multiplies values and stays planar."""
    n = g.num_arcs
    labels = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n, unique=True))
    relabelled = GraphDiagram(
        [[labels[a] for a in slots] for slots in g.vertices],
        [[labels[a] for a in slots] for slots in g.crossings],
        g.free_circles,
    )
    _assert_planar(relabelled)
    assert value(relabelled) == value(g)
    assert value(mirror(g)) == mirrored(value(g))
    h = data.draw(partners)
    union = disjoint_union(relabelled, h)
    _assert_planar(union)
    assert value(union) == value(g) * value(h)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_yamada_value_laws_on_twisted_graphs(data):
    g = data.draw(twisted_graphs())
    # 3^c resolution states: the union keeps to 4 crossings in all
    partners = twisted_graphs(4 - len(g.crossings))
    _check_value_laws(data, g, partners, yamada, LocalizedElement.invert_variable)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_bracket_value_laws_on_closed_braids(data):
    g = data.draw(closed_braids())
    _check_value_laws(data, g, closed_braids(), bracket, LaurentPoly.substitute_inverse)
