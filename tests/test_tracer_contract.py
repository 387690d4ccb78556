"""The benchmark tracer's hold on the library.

``skeinbench/tracing.py`` rebinds library names from outside, so a rename
or a dropped import in ``skein`` breaks ``skeinbench/run.py --trace 1``.
The tracer imports only the standard library and loads here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from skein import fixtures
from skein.cabling import phi_plane
from skein.diagrams import parse_diagram
from skein.tl import bracket
from skein.yamada import yamada

TRACING = Path(__file__).resolve().parent.parent / "skeinbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("skeinbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebound_name_resolves():
    tracing = _load_tracing()
    for module_name, attr in tracing.REBOUND:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    localized = importlib.import_module("skein.rings").LocalizedElement
    for attr in tracing.LOCALIZED_OPS:
        assert attr in localized.__dict__, attr


def _traced(fn, *args, **kwargs):
    tracer = _load_tracing().Tracer()
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
    # the closed 2-braid sigma_1^c; level j carries arcs 2j and 2j+1
    braid = "\n".join(
        f"X {2 * j + 1} {(2 * j + 3) % (2 * c)} {(2 * j + 2) % (2 * c)} {2 * j}" for j in range(c)
    )
    tracer = _traced(bracket, parse_diagram(braid))
    assert tracer.calls["core.state_circle_counts"] == 1
    assert tracer.counters["core.circle_states"] == 2**c


@pytest.mark.parametrize("c", [1, 3, 5])
def test_yamada_of_a_twisted_theta_makes_3_to_the_c_flat_evaluations(c):
    # a theta whose edges r and l twist c times next to the first vertex
    lines = ["V r0 l0 e", "V e l r"]
    ends_r = [f"r{j}" for j in range(c)] + ["r"]
    ends_l = [f"l{j}" for j in range(c)] + ["l"]
    for j in range(c):
        lines.append(f"X {ends_r[j]} {ends_r[j + 1]} {ends_l[j + 1]} {ends_l[j]}")
    tracer = _traced(yamada, parse_diagram("\n".join(lines)), memo={})
    assert tracer.calls["yamada.dc"] == 3**c


def test_plane_cabling_of_k4_makes_one_cable_call_and_no_bracket_calls():
    # every cabled term of a flat diagram is crossingless: counted, not bracketed
    tracer = _traced(phi_plane, fixtures.load_diagram("k4"))
    assert tracer.calls["cabling.cable"] == 1
    assert tracer.counters["cabling.terms"] == 2**6
    assert tracer.calls["tl.bracket"] == 0


def test_petersen_yamada_keeps_its_key_and_flat_evaluation_counts():
    # the integer flat layer does the same work: one key per recursion
    # node, one flat evaluation per resolution state
    tracer = _traced(yamada, fixtures.load_diagram("petersen_diagram"), memo={})
    assert tracer.calls["core.canon_key"] == 4302
    assert tracer.calls["yamada.dc"] == 243
