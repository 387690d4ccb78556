"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 1's p=3 half asserts the published outcome; the bit-exact fixture
polynomial computes the opposite verdict in both membership modes (the
difference is provably outside the ideal), so that single test fails by
design rather than being weakened.  The analysis lives in the reviewer notes
outside the package.
"""

import itertools
import json
import subprocess
import sys
import time

from skein import fixtures
from skein.cabling import phi_plane, phi_punctured
from skein.diagrams import FlatState, GraphDiagram, mirror
from skein.polyxyz import PolyXYZ
from skein.rings import (
    CIRCLE_FACTOR,
    D,
    D_LAURENT,
    LOOP_FACTOR,
    ONE,
    LaurentPoly,
    LocalizedElement,
)
from skein.surfaces import derive_t_squared_relation, verify_psi_phi
from skein.symmetry import Verdict, full_report
from skein.tl import TangleElement, bracket, chebyshev_delta, jones_wenzl, markov_trace
from skein.verify import SUITE_NAMES, run_suites
from skein.yamada import flat_eval, flat_eval_oracle, yamada

A8 = LocalizedElement(LaurentPoly.monomial(1, 8))
A8_INV = LocalizedElement(LaurentPoly.monomial(1, -8))


def _cli(args):
    import os
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "skein.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc, time.monotonic() - t0


def _palindrome_verdict(doc):
    return {t["test"]: t["verdict"] for t in doc["tests"]}["palindrome"]


def test_criterion_01_petersen_p5():
    for mode in ("folded", "saturated"):
        proc, seconds = _cli(
            ["symmetry", "--p", "5", "--poly", "fixture:petersen.poly",
             "--mode", mode, "--output", "machine"]
        )
        assert proc.returncode == 0
        assert _palindrome_verdict(json.loads(proc.stdout)) == "Obstructed"
        assert seconds < 1.0, f"runtime {seconds:.2f}s exceeds 1s"
    print("PASS criterion 1 (p=5): palindromy test Obstructed in both modes, < 1s")


def test_criterion_01_petersen_p3_published_outcome():
    verdicts = []
    for mode in ("folded", "saturated"):
        proc, seconds = _cli(
            ["symmetry", "--p", "3", "--poly", "fixture:petersen.poly",
             "--mode", mode, "--output", "machine"]
        )
        assert proc.returncode == 0
        assert seconds < 1.0
        verdicts.append(_palindrome_verdict(json.loads(proc.stdout)))
    assert verdicts[0] == verdicts[1], "membership modes must agree"
    assert verdicts == ["Inconclusive", "Inconclusive"], (
        "published outcome for p=3 is 'congruent' (Inconclusive), but the "
        "bit-exact fixture polynomial is provably non-congruent mod "
        "(3, A^24 - 1): residue 2A^14 + A^10 + A^22 + 2A^2; see the "
        "decisions ledger (the fixture is exactly ANTI-congruent over Z)"
    )
    print("PASS criterion 1 (p=3): palindromy test Inconclusive in both modes")


def test_criterion_02_exact_base_values():
    assert yamada(fixtures.load_diagram("circle")) == CIRCLE_FACTOR
    for m in range(1, 7):
        assert yamada(fixtures.bouquet(m)) == LOOP_FACTOR ** (m - 1) * CIRCLE_FACTOR
    assert bracket(fixtures.load_diagram("circle")) == D_LAURENT
    assert bracket(GraphDiagram()) == LaurentPoly.from_int(1)
    print("PASS criterion 2: circle, bouquets m=1..6, bracket circle/empty exact")


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    memo = {}
    slots = [(u, v) for u in range(5) for v in range(u, 5)]
    total = 0
    for k in range(6):
        for combo in itertools.combinations_with_replacement(slots, k):
            state = FlatState.make(5, combo)
            assert flat_eval(state, memo) == flat_eval_oracle(state)
            total += 1
    assert total == 15504

    import random

    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        edges = [tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m)]
        state = FlatState.make(n, edges, rng.randint(0, 2))
        assert flat_eval(state, memo) == flat_eval_oracle(state)
    seconds = time.monotonic() - t0
    assert seconds < 60, f"oracle suite took {seconds:.1f}s"
    print(
        f"PASS criterion 3: deletion-contraction == state sum on {total} "
        f"exhaustive + 200 random multigraphs in {seconds:.1f}s"
    )


def test_criterion_04_cabling_cross_oracle():
    t0 = time.monotonic()
    theta = fixtures.load_diagram("theta")
    theta_value = (
        LocalizedElement.d_to_the(3)
        + LocalizedElement.d_to_the(1).scale(-3)
        + LocalizedElement.d_to_the(-1).scale(2)
    )
    assert yamada(theta) == theta_value
    assert phi_plane(theta) == theta_value
    handcuff = fixtures.load_diagram("handcuff")
    assert yamada(handcuff).is_zero() and phi_plane(handcuff).is_zero()
    for name in ("k4", "bouquet1", "bouquet2", "bouquet3", "bouquet4"):
        g = fixtures.load_diagram(name)
        assert phi_plane(g) == yamada(g), name
    kink = fixtures.load_diagram("kink_pos")
    assert yamada(kink) == A8 * CIRCLE_FACTOR
    assert phi_plane(kink) == A8 * CIRCLE_FACTOR
    kink_m = fixtures.load_diagram("kink_neg")
    assert yamada(kink_m) == A8_INV * CIRCLE_FACTOR == phi_plane(kink_m)
    seconds = time.monotonic() - t0
    assert seconds < 30
    print(f"PASS criterion 4: cabled bracket equals Y on all fixtures in {seconds:.1f}s")


def test_criterion_05_move_invariance():
    circle_y = yamada(fixtures.load_diagram("circle"))
    assert yamada(fixtures.load_diagram("r2_unknot")) == circle_y
    assert yamada(fixtures.load_diagram("r2_twostrand")) == circle_y**2
    assert yamada(fixtures.load_diagram("r3_a")) == yamada(fixtures.load_diagram("r3_b"))
    assert yamada(fixtures.load_diagram("kink_pos")) == A8 * circle_y
    assert yamada(fixtures.load_diagram("kink_neg")) == A8_INV * circle_y

    circle_b = bracket(fixtures.load_diagram("circle"))
    assert bracket(fixtures.load_diagram("kink_pos")) == LaurentPoly.monomial(-1, 3) * circle_b
    assert bracket(fixtures.load_diagram("kink_neg")) == LaurentPoly.monomial(-1, -3) * circle_b

    corpus = ["circle", "two_circles", "theta", "handcuff", "k4", "bouquet1",
              "bouquet2", "bouquet3", "bouquet4", "kink_pos", "kink_neg",
              "hopf", "r2_unknot", "r2_twostrand", "r3_a", "r3_b",
              "petersen_diagram"]
    for name in corpus:
        g = fixtures.load_diagram(name)
        assert yamada(mirror(g)) == yamada(g).invert_variable(), name
    print(f"PASS criterion 5: R1/R2/R3 and the mirror property on {len(corpus)} fixtures")


def test_criterion_06_jones_wenzl_suite():
    for n in range(2, 6):
        f = jones_wenzl(n)
        assert f * f == f
        for i in range(1, n):
            u = TangleElement.generator(n, i)
            assert (f * u).is_zero() and (u * f).is_zero()
    for n in range(1, 7):
        assert markov_trace(jones_wenzl(n)) == chebyshev_delta(n)
    print("PASS criterion 6: projector idempotence/annihilation (n<=5), traces (n<=6)")


def test_criterion_07_t_squared_relation():
    t0 = time.monotonic()
    report = derive_t_squared_relation()
    assert report.identity_holds
    assert report.unique_leading
    assert sorted(name for name, _, _ in report.mismatches) == ["1", "x", "y"]
    assert len(report.matches) == 11
    seconds = time.monotonic() - t0
    assert seconds < 5
    print(
        "PASS criterion 7: derived relation exact; 3 mismatches "
        f"(constant, x, y) and 11 matches in {seconds:.2f}s"
    )


def test_criterion_08_generator_images():
    one = PolyXYZ.constant(ONE)
    x, y, z = (PolyXYZ.gen(v) for v in "xyz")
    assert phi_punctured(fixtures.load_diagram("pants_x")) == x * x - one
    assert phi_punctured(fixtures.load_diagram("pants_y")) == y * y - one
    assert phi_punctured(fixtures.load_diagram("pants_z")) == z * z - one
    assert phi_punctured(fixtures.load_diagram("annulus_core")) == x * x - one
    print("PASS criterion 8: ray-word diagrams reproduce the x/y/z and annulus images")


def test_criterion_09_congruence_positive_controls():
    for p in (3, 5, 7):
        report = full_report(CIRCLE_FACTOR, CIRCLE_FACTOR, p)
        assert report.outcome("free-symmetry").verdict is Verdict.INCONCLUSIVE
    for k, p in ((1, 3), (1, 5), (2, 3)):
        yg = LOOP_FACTOR ** (k * p - 1) * CIRCLE_FACTOR
        yq = LOOP_FACTOR ** (k - 1) * CIRCLE_FACTOR
        report = full_report(yg, yq, p)
        assert report.outcome("vertex-fixing").verdict is Verdict.INCONCLUSIVE
    print("PASS criterion 9: circle and bouquet positive controls all Inconclusive")


def test_criterion_10_psi_phi_inverse():
    assert verify_psi_phi()
    print("PASS criterion 10: generator tables are mutually inverse")


def test_full_verify_suite_runtime():
    t0 = time.monotonic()
    results = run_suites(list(SUITE_NAMES))
    seconds = time.monotonic() - t0
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert seconds < 180, f"verify all took {seconds:.1f}s"
    print(f"PASS: full verification suite green in {seconds:.1f}s")
