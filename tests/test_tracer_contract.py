"""The benchmark tracer's hold on the library.

``skeinbench/tracing.py`` rebinds library names from outside, so a rename
or a dropped import in ``skein`` breaks ``skeinbench/run.py --trace 1``.
The tracer imports only the standard library.
"""

import importlib
import random

import gen
import pytest
import tracing

from skein import fixtures
from skein.cabling import phi_plane
from skein.diagrams import parse_diagram
from skein.tl import bracket
from skein.yamada import yamada


def test_every_rebound_name_resolves():
    for module_name, attr in tracing.REBOUND:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    localized = importlib.import_module("skein.rings").LocalizedElement
    for attr in tracing.LOCALIZED_OPS:
        assert attr in localized.__dict__, attr


def _traced(fn, *args, **kwargs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        fn(*args, **kwargs)
    finally:
        tracer.uninstall()
    return tracer


def test_yamada_resolves_without_rebuilding_diagrams():
    tracer = _traced(yamada, fixtures.load_diagram("hopf"), memo={})
    assert tracer.calls["yamada.dc"] == 3**2
    assert tracer.calls["diagrams.resolve_crossing"] == 0


@pytest.mark.parametrize("c", [1, 4, 9])
def test_bracket_counts_one_kernel_call_and_2_to_the_c_states(c):
    # the closed 2-braid sigma_1^c
    tracer = _traced(bracket, parse_diagram(gen.braid_closure(2, [(0, 1)] * c).text()))
    assert tracer.calls["core.state_circle_counts"] == 1
    assert tracer.counters["core.circle_states"] == 2**c


@pytest.mark.parametrize("c", [1, 3, 5])
def test_yamada_of_a_twisted_theta_makes_3_to_the_c_flat_evaluations(c):
    # a theta whose first two edges twist c times next to the first vertex
    code = gen.from_text(gen.THETA)
    gen.add_twist(code, 0, 0, [1] * c)
    tracer = _traced(yamada, parse_diagram(code.text()), memo={})
    assert tracer.calls["yamada.dc"] == 3**c


def test_plane_cabling_of_k4_makes_one_cable_call_and_no_bracket_calls():
    # every cabled term of a flat diagram is crossingless: counted, not bracketed
    tracer = _traced(phi_plane, fixtures.load_diagram("k4"))
    assert tracer.calls["cabling.cable"] == 1
    assert tracer.counters["cabling.terms"] == 2**6
    assert tracer.calls["tl.bracket"] == 0


def test_plane_cabling_of_a_crossed_theta_builds_no_terms_and_no_brackets():
    # one frontier sweep over the whole cable, which the tracer has no layer
    # for: no cable call, no term, no bracket and no circle count, and the
    # sweep's time is booked to the caller's frame
    code = gen.from_text(gen.THETA)
    gen.add_twist(code, 0, 0, [1, -1])
    tracer = _traced(phi_plane, parse_diagram(code.text()))
    assert tracer.calls["tl.bracket"] == 0
    assert tracer.calls["cabling.cable"] == 0
    assert tracer.counters["cabling.terms"] == 0
    assert tracer.calls["core.state_circle_counts"] == 0
    assert tracer.counters["core.circle_states"] == 0


def test_petersen_yamada_keeps_its_key_and_flat_evaluation_counts():
    # the integer flat layer does the same work: one key per recursion
    # node, one flat evaluation per resolution state
    tracer = _traced(yamada, fixtures.load_diagram("petersen_diagram"), memo={})
    assert tracer.calls["core.canon_key"] == 4302
    assert tracer.calls["yamada.dc"] == 243


def test_twisted_k4_yamada_keeps_its_state_key_and_memo_counts():
    # a resolve-shaped input: its 3^6 states, the keys their flat residues
    # ask for and the memo they leave, whatever each state costs
    g = parse_diagram(gen.twisted_graph(random.Random(6), gen.K4, 6, 3).text())
    memo: dict = {}
    tracer = _traced(yamada, g, memo=memo)
    assert tracer.calls["yamada.dc"] == 3**6 == 729
    assert tracer.calls["core.canon_key"] == 1191
    assert len(memo) == 441
