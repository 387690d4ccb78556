"""Property suites behind ``skein verify``.

Each suite returns (passed, detail lines); the driver runs the requested
suites in order, prints one line per suite and exits nonzero when any suite
fails.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import fixtures
from .cabling import cable, phi_plane, phi_punctured
from .diagrams import FlatState, GraphDiagram, disjoint_union, mirror
from .polyxyz import PolyXYZ
from .rings import D, ONE, LocalizedElement, LaurentPoly
from .surfaces import (
    PHI_T_PRINTED,
    annulus_phi_powers,
    derive_t_squared_relation,
    verify_psi_phi,
)
from .tl import (
    TangleElement,
    all_pairings,
    bracket,
    chebyshev_delta,
    jones_wenzl,
    markov_trace,
)
from .yamada import flat_eval, flat_eval_oracle, yamada

_ORACLE_SEED = 20240817
_CONFLUENCE_SEED = 7


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list[str]
    seconds: float


def _check(conditions: list[tuple[bool, str]]) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for cond, label in conditions:
        ok = ok and cond
        lines.append(f"  {'ok' if cond else 'FAIL'}: {label}")
    return ok, lines


# ---------------------------------------------------------------------------


def suite_jw() -> tuple[bool, list[str]]:
    conds: list[tuple[bool, str]] = []
    for n in range(2, 6):
        f = jones_wenzl(n)
        conds.append((f * f == f, f"projector on {n} strands is idempotent"))
        annihilates = all(
            (f * TangleElement.generator(n, i)).is_zero()
            and (TangleElement.generator(n, i) * f).is_zero()
            for i in range(1, n)
        )
        conds.append((annihilates, f"projector on {n} strands kills every cup-cap"))
    for n in range(1, 7):
        conds.append(
            (
                markov_trace(jones_wenzl(n)) == chebyshev_delta(n),
                f"trace of projector on {n} strands matches the Chebyshev value",
            )
        )
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(1, 9):
        conds.append(
            (
                len(all_pairings(n)) == catalan[n],
                f"{catalan[n]} planar pairings on {2 * n} points",
            )
        )
    return _check(conds)


# ---------------------------------------------------------------------------


def _all_small_multigraphs(max_vertices: int, max_edges: int):
    """All labeled loop-allowing multigraphs on max_vertices vertices with at
    most max_edges edges (multisets of possible edges)."""
    n = max_vertices
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    for k in range(max_edges + 1):
        for combo in itertools.combinations_with_replacement(slots, k):
            yield FlatState.make(n, combo)


def suite_oracle() -> tuple[bool, list[str]]:
    conds: list[tuple[bool, str]] = []
    memo: dict = {}
    bad = 0
    total = 0
    for state in _all_small_multigraphs(5, 5):
        total += 1
        if flat_eval(state, memo) != flat_eval_oracle(state):
            bad += 1
    conds.append(
        (bad == 0, f"deletion-contraction equals the state sum on all {total} "
                   f"labeled multigraphs with <=5 vertices and <=5 edges "
                   f"({bad} mismatches)")
    )
    rng = random.Random(_ORACLE_SEED)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(0, 10)
        edges = [tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m)]
        state = FlatState.make(n, edges, rng.randint(0, 2))
        if flat_eval(state, memo) != flat_eval_oracle(state):
            bad += 1
    conds.append((bad == 0, f"200 random multigraphs with <=10 edges ({bad} mismatches)"))
    return _check(conds)


def suite_confluence() -> tuple[bool, list[str]]:
    rng = random.Random(_CONFLUENCE_SEED)
    graphs = [
        FlatState.make(2, [(0, 1)] * 3),
        FlatState.make(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        FlatState.make(3, [(0, 0), (0, 1), (1, 2), (2, 2), (0, 1), (1, 2)]),
        FlatState.make(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)]),
    ]
    conds = []
    for gi, state in enumerate(graphs):
        reference = flat_eval(state, memo={})
        agree = True
        for _ in range(10):
            def picker(edges, _rng=rng):
                nonloops = [i for i, (u, v) in enumerate(edges) if u != v]
                return _rng.choice(nonloops)

            if flat_eval(state, memo={}, edge_picker=picker) != reference:
                agree = False
        conds.append((agree, f"graph {gi}: 10 random edge orders agree"))
    return _check(conds)


# ---------------------------------------------------------------------------


_A8 = LocalizedElement(LaurentPoly.monomial(1, 8))
_A8_INV = LocalizedElement(LaurentPoly.monomial(1, -8))


def _move_corpus() -> list[tuple[str, GraphDiagram]]:
    names = [
        "circle", "two_circles", "theta", "handcuff", "k4",
        "bouquet1", "bouquet2", "bouquet3", "bouquet4",
        "kink_pos", "kink_neg", "hopf",
        "r2_unknot", "r2_twostrand", "r3_a", "r3_b",
        "petersen_diagram",
    ]
    return [(n, fixtures.load_diagram(n)) for n in names]


def suite_moves() -> tuple[bool, list[str]]:
    conds: list[tuple[bool, str]] = []
    memo: dict = {}
    y = {name: yamada(g, memo) for name, g in _move_corpus()}
    circle = y["circle"]

    conds.append((y["r2_unknot"] == circle, "R2 poke leaves the unknot value"))
    conds.append(
        (y["r2_twostrand"] == y["two_circles"], "R2 pair leaves the 2-circle value")
    )
    conds.append((y["r3_a"] == y["r3_b"], "R3 braid pair has equal values"))
    conds.append((y["kink_pos"] == _A8 * circle, "positive kink multiplies by A^8"))
    conds.append((y["kink_neg"] == _A8_INV * circle, "negative kink multiplies by A^-8"))

    mirror_ok = True
    for name, g in _move_corpus():
        if yamada(mirror(g), memo) != y[name].invert_variable():
            mirror_ok = False
            conds.append((False, f"mirror property fails on {name}"))
    conds.append((mirror_ok, "mirror property on the whole corpus"))

    mult_ok = True
    for n1, n2 in [("theta", "circle"), ("handcuff", "theta"), ("kink_pos", "bouquet2")]:
        g1, g2 = fixtures.load_diagram(n1), fixtures.load_diagram(n2)
        if yamada(disjoint_union(g1, g2), memo) != y[n1] * y[n2]:
            mult_ok = False
    conds.append((mult_ok, "disjoint union multiplies values"))

    # bracket side
    b_circle = bracket(fixtures.load_diagram("circle"))
    neg_a3 = LaurentPoly.monomial(-1, 3)
    neg_a3_inv = LaurentPoly.monomial(-1, -3)
    conds.append(
        (bracket(fixtures.load_diagram("kink_pos")) == neg_a3 * b_circle,
         "bracket: positive kink multiplies by -A^3")
    )
    conds.append(
        (bracket(fixtures.load_diagram("kink_neg")) == neg_a3_inv * b_circle,
         "bracket: negative kink multiplies by -A^-3")
    )
    conds.append(
        (bracket(fixtures.load_diagram("r2_unknot")) == b_circle,
         "bracket: R2 invariance")
    )
    conds.append(
        (bracket(fixtures.load_diagram("r3_a")) == bracket(fixtures.load_diagram("r3_b")),
         "bracket: R3 invariance")
    )
    link_names = ["circle", "two_circles", "kink_pos", "kink_neg", "hopf",
                  "r2_unknot", "r2_twostrand", "r3_a", "r3_b"]
    mirror_b_ok = all(
        bracket(mirror(fixtures.load_diagram(n)))
        == bracket(fixtures.load_diagram(n)).substitute_inverse()
        for n in link_names
    )
    conds.append((mirror_b_ok, "bracket: mirror swaps A and A^-1 on all link fixtures"))
    return _check(conds)


# ---------------------------------------------------------------------------


def suite_phi() -> tuple[bool, list[str]]:
    conds: list[tuple[bool, str]] = []
    memo: dict = {}
    flat_cases = ["theta", "handcuff", "k4", "bouquet1", "bouquet2", "bouquet3",
                  "bouquet4", "bouquet2_nested", "circle"]
    for name in flat_cases:
        g = fixtures.load_diagram(name)
        conds.append((phi_plane(g) == yamada(g, memo), f"cabled bracket equals Y on {name}"))
    for name in ["kink_pos", "kink_neg"]:
        g = fixtures.load_diagram(name)
        conds.append(
            (phi_plane(g) == yamada(g, memo), f"cabled bracket equals Y on crossed {name}")
        )
    # the reference for the crossed state sum: cable()'s terms, one bracket each
    crossed = ["hopf", "kink_pos", "kink_neg", "r2_unknot", "r2_twostrand", "r3_a", "r3_b"]
    term_sums_ok = True
    for name in crossed:
        g = fixtures.load_diagram(name)
        expect = LocalizedElement.sum_of_products(
            (bracket(term.diagram), (term.coeff,)) for term in cable(g).terms
        )
        term_sums_ok = term_sums_ok and phi_plane(g) == expect
    conds.append(
        (term_sums_ok,
         f"cabled bracket equals the sum of its terms' brackets on {len(crossed)} crossed fixtures")
    )
    for n1, n2 in [("theta", "circle"), ("bouquet2", "handcuff")]:
        g1, g2 = fixtures.load_diagram(n1), fixtures.load_diagram(n2)
        conds.append(
            (
                phi_plane(disjoint_union(g1, g2)) == phi_plane(g1) * phi_plane(g2),
                f"multiplicativity on {n1} | {n2}",
            )
        )
    # structural: turnback coefficients
    expansion = cable(fixtures.load_diagram("theta"))
    neg_dinv = LocalizedElement(LaurentPoly.from_int(-1), 1)
    structural = len(expansion.terms) == 2**expansion.edge_count and all(
        term.coeff == neg_dinv**k
        for term, k in zip(
            expansion.terms,
            [bin(m).count("1") for m in range(2**expansion.edge_count)],
        )
    )
    conds.append((structural, "2^|E| terms with coefficients (-1/d)^turnbacks"))

    x, y, z = PolyXYZ.gen("x"), PolyXYZ.gen("y"), PolyXYZ.gen("z")
    one = PolyXYZ.constant(ONE)
    conds.append(
        (phi_punctured(fixtures.load_diagram("pants_x")) == x * x - one,
         "circle around hole 1 maps to x^2 - 1")
    )
    conds.append(
        (phi_punctured(fixtures.load_diagram("pants_y")) == y * y - one,
         "circle around hole 2 maps to y^2 - 1")
    )
    conds.append(
        (phi_punctured(fixtures.load_diagram("pants_z")) == z * z - one,
         "circle around both holes maps to z^2 - 1")
    )
    conds.append(
        (phi_punctured(fixtures.load_diagram("annulus_core")) == x * x - one,
         "annulus core curve maps to b^2 - 1")
    )
    # filling the holes (x = y = z = d) gives the Yamada value without rays
    d = PolyXYZ.constant(D)
    filled_ok = True
    for name in ["annulus_core", "pants_t", "pants_x", "pants_y", "pants_z"]:
        g = fixtures.load_diagram(name)
        filled = phi_punctured(g).substitute({"x": d, "y": d, "z": d})
        plane = GraphDiagram(g.vertices, g.crossings, g.free_circles)
        filled_ok = filled_ok and filled == PolyXYZ.constant(yamada(plane, memo))
    conds.append((filled_ok, "hole filling maps punctured onto Y on the rayed fixtures"))
    theta = fixtures.load_diagram("theta")
    conds.append(
        (
            phi_punctured(theta) == PolyXYZ.constant(phi_plane(theta)),
            "hole-avoiding diagram: punctured equals plane evaluation",
        )
    )
    # turnback position does not matter: sliding it to the other arc of each
    # Hopf component moves the projector through two cable grids
    hopf = fixtures.load_diagram("hopf")
    perturb_ok = phi_plane(hopf, insertion={0: 2, 1: 3}) == phi_plane(hopf)
    conds.append((perturb_ok, "projector insertion point is immaterial"))
    return _check(conds)


# ---------------------------------------------------------------------------


def suite_thm11() -> tuple[bool, list[str]]:
    report = derive_t_squared_relation()
    conds = [
        (report.identity_holds, "derived relation reproduces the t-image square exactly"),
        (report.unique_leading, "elimination basis has distinct leading monomials"),
        (
            sorted(n for n, _, _ in report.mismatches) == ["1", "x", "y"],
            "exactly the constant, x and y coefficients differ from the printed relation",
        ),
        (len(report.matches) == 11, f"eleven matching entries ({len(report.matches)})"),
        (verify_psi_phi(), "the generator tables are mutually inverse"),
    ]
    powers_ok = all(
        annulus_phi_powers(k).coeff((2 * k, 0, 0, 0)) == ONE for k in range(7)
    )
    conds.append((powers_ok, "annulus powers are monic of degree 2k for k <= 6"))
    t_computed = phi_punctured(fixtures.load_diagram("pants_t"))
    delta = t_computed - PHI_T_PRINTED
    conds.append(
        (
            not (t_computed == PHI_T_PRINTED) and len(delta) == 2,
            "reconstructed t-image differs from the printed table by the "
            "documented z^2 and constant terms",
        )
    )
    return _check(conds)


# ---------------------------------------------------------------------------


_SUITES: dict[str, Callable[[], tuple[bool, list[str]]]] = {
    "jw": suite_jw,
    "oracle": suite_oracle,
    "confluence": suite_confluence,
    "moves": suite_moves,
    "phi": suite_phi,
    "thm11": suite_thm11,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(names: list[str]) -> list[SuiteResult]:
    results = []
    for name in names:
        start = time.monotonic()
        passed, details = _SUITES[name]()
        results.append(SuiteResult(name, passed, details, time.monotonic() - start))
    return results
