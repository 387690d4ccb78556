"""Self-tests of the benchmark: exact layer counters, generators, checks.

    python3 -m pytest skeinbench -q

The counters pin what the current library does on small fixtures, through
the same tracer the traced run uses; a change that moves one of them has
changed the work the library does, and should say so.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

skein = run.import_skein()
from skein.fixtures import fixture_path, load_diagram  # noqa: E402


def traced(fn, *args, **kwargs):
    """Run ``fn`` inside one traced op; return the tracer and the value."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        value = tracer.op(lambda: fn(*args, **kwargs))()
    finally:
        tracer.uninstall()
    return tracer, value


@pytest.mark.parametrize(
    "name, canon_calls, memo_entries, flat_evals",
    [("theta", 7, 6, 1), ("k4", 16, 13, 1), ("petersen_diagram", 4302, 3044, 243)],
)
def test_memo_counters_on_fixtures(name, canon_calls, memo_entries, flat_evals):
    memo: dict = {}
    tracer, _ = traced(skein.yamada, load_diagram(name), memo=memo)
    assert tracer.calls["core.canon_key"] == canon_calls
    assert len(memo) == memo_entries
    assert tracer.calls["yamada.dc"] == flat_evals


@pytest.mark.parametrize("crossings", [1, 3, 5])
def test_twisted_theta_has_3_to_the_c_flat_states(crossings):
    code = gen.twisted_graph(random.Random(crossings), gen.THETA, crossings, 1)
    tracer, _ = traced(skein.yamada, skein.parse_diagram(code.text()), memo={})
    assert tracer.calls["yamada.dc"] == 3**crossings


@pytest.mark.parametrize("strands, length", [(2, 5), (3, 8), (4, 10)])
def test_closed_braid_has_2_to_the_c_circle_states(strands, length):
    code, _ = gen.closed_braid(random.Random(length), strands, length)
    tracer, _ = traced(skein.bracket, skein.parse_diagram(code.text()))
    assert tracer.counters["core.circle_states"] == 2**length


@pytest.mark.parametrize("text, edges", [(gen.THETA, 3), (gen.K4, 6)])
def test_cable_has_2_to_the_edges_terms(text, edges):
    tracer, _ = traced(skein.phi_plane, skein.parse_diagram(text))
    assert tracer.calls["cabling.cable"] == 1
    assert tracer.counters["cabling.terms"] == 2**edges


def test_grid_cable_terms():
    code = gen.grid(3, 3)
    tracer, _ = traced(skein.phi_plane, skein.parse_diagram(code.text()))
    assert tracer.counters["cabling.terms"] == 2**12


def test_self_times_cover_the_op():
    tracer, _ = traced(skein.yamada, load_diagram("theta"), memo={})
    assert tracer.op_s > 0
    assert abs(tracer.coverage_gap()) <= 1e-9
    assert all(t in tracing.LAYERS for t in tracer.self_s)


def test_uninstall_restores_the_library():
    yamada_module = sys.modules["skein.yamada"]
    before = (yamada_module.canon_key, skein.LocalizedElement.__add__)
    traced(skein.yamada, load_diagram("theta"), memo={})
    assert (yamada_module.canon_key, skein.LocalizedElement.__add__) == before


def test_timed_passes_record_one_reference_time_per_op():
    text = gen.braid_closure(2, [(0, 1), (0, 1)]).text()
    pool = [workloads.Item(text, "hopf")] * 3
    outcomes = run.Outcomes(len(pool))
    speed = run.HostSpeed()
    for _ in range(2):
        outcomes.run_pass(pool, workloads.bracket_op, skein, workloads.State(), speed)
    assert len(speed.all) == run.REF_BEFORE - 1 + 2 * (3 + run.REF_AFTER)
    assert all(len(t) == 2 and min(t) > 0 for t in outcomes.times)
    expected = skein.bracket(skein.parse_diagram(text))
    assert outcomes.attempted == 6 and outcomes.failed([expected] * 3) == (0, [])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pools_are_seeded_and_planar(name):
    workload = workloads.WORKLOADS[name]
    first = workload.pool(random.Random(f"{name}:7"), skein)
    again = workload.pool(random.Random(f"{name}:7"), skein)
    other = workload.pool(random.Random(f"{name}:8"), skein)
    assert [i.text for i in first] == [i.text for i in again]
    assert [i.text for i in first] != [i.text for i in other]
    ops = run.MIN_PASSES * len(first)
    assert run.tail_rank(ops) > ops / 2
    for item in first:
        gen.assert_planar(gen.from_text(item.text))


@pytest.mark.parametrize(
    "text", ["X 1 2 1 2\n", "V 1 2 3\nV 1 2 3\n"], ids=["virtual-kink", "toroidal-theta"]
)
def test_planarity_check_rejects_nonplanar_codes(text):
    with pytest.raises(ValueError):
        gen.assert_planar(gen.from_text(text))


def test_shipped_petersen_code_is_not_planar_but_its_repair_has_the_same_value():
    shipped = fixture_path("petersen_diagram.graph").read_text()
    with pytest.raises(ValueError, match="= -2"):
        gen.assert_planar(gen.from_text(shipped))
    repaired = skein.parse_diagram(gen.planar_petersen(shipped).text())
    assert skein.yamada(repaired, memo={}) == skein.yamada(
        skein.parse_diagram(shipped), memo={}
    )


@pytest.mark.parametrize(
    "word", [[(0, 1)], [(0, -1)], [(0, 1), (0, 1)], [(0, 1), (1, -1)], [(0, 1), (1, 1), (0, -1)]]
)
def test_braid_convention_on_small_braids(word):
    """Pins the Temperley-Lieb reference's A <-> A^-1 convention against the
    state sum on the smallest braids."""
    strands = max(i for i, _ in word) + 2
    code = gen.braid_closure(strands, word)
    item = workloads.Item(code.text(), "braid", (strands, tuple(word)))
    ctx = workloads.CheckContext(rng=random.Random(0))
    assert workloads.bracket_check(skein, item, ctx) == skein.bracket(
        skein.parse_diagram(item.text)
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_agree_with_ops(name):
    workload = workloads.WORKLOADS[name]
    pool = workload.pool(random.Random(f"{name}:3"), skein)
    small = min(pool, key=lambda item: len(item.text))
    ctx = workloads.CheckContext(rng=random.Random(0))
    state = workloads.State()
    assert workload.op(skein, small, state) == workload.check(skein, small, ctx)
