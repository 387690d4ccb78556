"""The four workloads: seeded input pools, the op, and the check.

Each workload is a closed loop of one client: one op at a time, no threads,
as the library is used from a batch tool.  The op receives only generated
diagram text and returns a hashable value; the runner compares every op's
value with a reference that :func:`Workload.check` computes afterwards by a
second code path, outside the timed loop.

Why these four:

* ``resolve`` -- Yamada values of thetas and K4s with 6-7 twist crossings,
  one memo shared by the whole run as in a long-lived session.  3^c
  resolution states with tiny flat residues: crossing resolution and
  ``LocalizedElement`` arithmetic do the work, the warm memo absorbs the
  flat layer.
* ``flat`` -- ``skein symmetry --diagram``: parse, Yamada value with a fresh
  memo, obstruction reports at p = 3 and p = 5, on grids with seeded edge
  deletions and on the Petersen drawing.  Large residues and few crossings:
  deletion-contraction and ``canon_key`` do the work.
* ``bracket`` -- Kauffman brackets of closed 3- and 4-strand braids with
  12-14 crossings: one 2^c call into the circle counter per op, no Yamada
  code.
* ``cable`` -- ``phi_plane`` of K4, the plain 3x3 grid and thetas with 2-3
  twist crossings: the only workload that reaches the cabling layer, and
  the bracket layer as thousands of small calls.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import gen

_SIGNS = (1, -1)


@dataclass(frozen=True)
class Item:
    """One generated input: the diagram text the op receives, its family
    (for reports), and generator data a check may need."""

    text: str
    family: str
    extra: object = None


@dataclass
class State:
    """Per-run state of the ops: the memo ``resolve`` shares across the run,
    and the number of entries ``flat``'s per-op memos ended with."""

    memo: dict = field(default_factory=dict)
    fresh_entries: int = 0


@dataclass
class CheckContext:
    """Shared by all checks of one run: a memo of their own and a seeded
    generator for the checks that sample."""

    rng: random.Random
    memo: dict = field(default_factory=dict)


class CheckFailed(Exception):
    """A reference computation disagreed with itself (not with the op)."""


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable  # (rng, lib) -> list[Item]
    op: Callable  # (api, item, state) -> hashable value
    check: Callable  # (lib, item, ctx) -> the value every op on item must return
    #: run one untimed pass first, so a memo shared by the run is warm
    warm_up: bool = False


def _interleave(groups: list[list[Item]], rng: random.Random) -> list[Item]:
    """Spread the families evenly over the pass, in a seeded order."""
    keyed = []
    for group in groups:
        for k, item in enumerate(group):
            keyed.append(((k + rng.random()) / len(group), item))
    keyed.sort(key=lambda t: t[0])
    return [item for _, item in keyed]


# -- resolve ---------------------------------------------------------------------

# Pool shares place the percentiles inside families, never on a boundary
# between two, where they would jump from seed to seed.  The median input
# is a middle K4-6x: about as many inputs lie below that family as above.
# The tail is taken over every timed op of a run (3 to 6 passes) and lies
# inside the theta-7x ops, the heaviest family, so that which of their
# ops it picks moves little with the number of passes.  A pass takes
# about 3.6 s on one core.
RESOLVE_MIX = (("theta", gen.THETA, 6, 4), ("K4", gen.K4, 6, 12), ("theta", gen.THETA, 7, 6))


def resolve_pool(rng: random.Random, lib) -> list[Item]:
    groups = []
    for family, base, crossings, count in RESOLVE_MIX:
        groups.append([
            Item(gen.twisted_graph(rng, base, crossings, rng.choice((2, 3))).text(),
                 f"{family}-{crossings}x")
            for _ in range(count)
        ])
    return _interleave(groups, rng)


def resolve_op(api, item: Item, state: State):
    return api.yamada(api.parse_diagram(item.text), memo=state.memo)


def resolve_check(lib, item: Item, ctx: CheckContext):
    """Mirror identity: Y(mirror g) = Y(g) with A -> A^-1."""
    g = lib.parse_diagram(item.text)
    return lib.yamada(lib.mirror(g), memo=ctx.memo).invert_variable()


# -- flat ------------------------------------------------------------------------

# The 4x4 grids use every admissible deletion, so their costs do not depend
# on the seed and the median falls on the same two of them for every seed
# (the 12th and 13th of 16); the 4x5 and 5x5 grids use seeded deletions.
# The tail, over every timed op of 3 to 6 passes, lies inside the Petersen
# ops, whose cost is the same for every seed.  A pass takes about 3.2 s on
# one core.
FLAT_MIX = ((4, 4, 16), (4, 5, 2), (5, 5, 1))
FLAT_PETERSEN = 5
#: residues up to this many edges are also checked against the subset sum
ORACLE_EDGES = 12


def flat_pool(rng: random.Random, lib) -> list[Item]:
    from skein.fixtures import fixture_path

    petersen_text = fixture_path("petersen_diagram.graph").read_text()
    groups = [
        [Item(code.text(), f"grid{rows}x{cols}")
         for code in gen.grids_with_one_deletion(rng, rows, cols, count)]
        for rows, cols, count in FLAT_MIX
    ]
    petersen = gen.planar_petersen(petersen_text).text()
    groups.append([Item(petersen, "petersen")] * FLAT_PETERSEN)
    return _interleave(groups, rng)


def flat_op(api, item: Item, state: State):
    memo: dict = {}
    value = api.yamada(api.parse_diagram(item.text), memo=memo)
    state.fresh_entries += len(memo)
    return value, api.full_report(value, None, 3), api.full_report(value, None, 5)


def _last_nonloop(edges) -> int:
    for i in range(len(edges) - 1, -1, -1):
        if edges[i][0] != edges[i][1]:
            return i
    raise AssertionError("no non-loop edge")


def _minor(n: int, edges: list, idx: int) -> tuple[int, list]:
    """Delete edge ``idx`` if it is a loop, otherwise contract it."""
    u, v = edges[idx]
    rest = edges[:idx] + edges[idx + 1 :]
    if u == v:
        return n, rest
    out = []
    for a, b in rest:
        a, b = (u if a == v else a), (u if b == v else b)
        a, b = a - (a > v), b - (b > v)
        out.append((min(a, b), max(a, b)))
    return n - 1, out


def flat_check(lib, item: Item, ctx: CheckContext):
    """Resolve crossings last-first and pick deletion-contraction edges from
    the end, with a fresh memo; then rebuild the reports from that value.
    One seeded minor of a residue, with at most ORACLE_EDGES edges, is also
    checked against the memo-free subset state sum."""
    g = lib.parse_diagram(item.text)
    memo: dict = {}
    total = lib.ZERO
    stack = [(g, lib.ONE)]
    weights = {
        lib.Resolution.SMOOTH_A: lib.LocalizedElement(lib.LaurentPoly.monomial(1, 4)),
        lib.Resolution.SMOOTH_B: lib.LocalizedElement(lib.LaurentPoly.monomial(1, -4)),
        lib.Resolution.VERTEX: -lib.D,
    }
    residues = []
    while stack:
        diagram, scalar = stack.pop()
        if diagram.crossings:
            last = len(diagram.crossings) - 1
            for kind, w in weights.items():
                stack.append((lib.resolve_crossing(diagram, last, kind), scalar * w))
        else:
            state = lib.to_flat_state(diagram)
            residues.append(state)
            value = lib.flat_eval(state, memo, edge_picker=_last_nonloop)
            total = total + scalar * value
    residue = ctx.rng.choice(residues)
    n, edges = residue.num_vertices, list(residue.edges)
    while len(edges) > ORACLE_EDGES:
        n, edges = _minor(n, edges, ctx.rng.randrange(len(edges)))
    minor = lib.FlatState.make(n, edges, residue.circle_count)
    if lib.flat_eval(minor, {}) != lib.flat_eval_oracle(minor, ORACLE_EDGES):
        raise CheckFailed(f"flat_eval disagrees with the subset sum on {minor}")
    return total, lib.full_report(total, None, 3), lib.full_report(total, None, 5)


# -- bracket ---------------------------------------------------------------------

# The median input is the middle 13-crossing braid (as many inputs lie
# below that family as above), and the tail, over every timed op of 3 to 7
# passes, lies inside the 14-crossing ones.  The cost of a braid varies by
# about 20% with its word, so each family has several words.  A pass takes
# about 3 s on one core.
BRACKET_MIX = ((3, 12, 3), (4, 12, 2), (3, 13, 6), (4, 13, 6), (3, 14, 3), (4, 14, 2))


def bracket_pool(rng: random.Random, lib) -> list[Item]:
    groups = []
    for strands, length, count in BRACKET_MIX:
        group = []
        for _ in range(count):
            code, word = gen.closed_braid(rng, strands, length)
            group.append(Item(code.text(), f"braid{strands}s{length}x", (strands, tuple(word))))
        groups.append(group)
    return _interleave(groups, rng)


def bracket_op(api, item: Item, state: State):
    return api.bracket(api.parse_diagram(item.text))


def bracket_check(lib, item: Item, ctx: CheckContext):
    """Temperley-Lieb trace of the braid word.

    The A-smoothing of a crossing whose bottom-left strand is on top joins
    its slots into two vertical strands, so that crossing contributes
    A*1 + A^-1*U_i and its mirror A^-1*1 + A*U_i; the self-tests pin this
    against the state sum on braids of one to three crossings."""
    strands, word = item.extra
    one = lib.TangleElement.identity(strands)
    acc = one
    for i, sign in word:
        a = lib.RationalFunction.from_laurent(lib.LaurentPoly.monomial(1, sign))
        a_inv = lib.RationalFunction.from_laurent(lib.LaurentPoly.monomial(1, -sign))
        acc = acc * (one.scale(a) + lib.TangleElement.generator(strands, i + 1).scale(a_inv))
    value = lib.markov_trace(acc).as_laurent()
    if value is None:
        raise CheckFailed("trace of a braid word is not a Laurent polynomial")
    return value


# -- cable -----------------------------------------------------------------------

# The median input is the middle theta-2x (as many inputs lie below that
# family as above).  The tail, over every timed op of 3 to 6 passes, lies
# inside the plain 3x3 grids, the heaviest family: one input whose cost is
# the same for every seed.  A 3x3 grid with a crossing costs as much as
# three plain ones, and one per pass would sit above the tail and move it
# with the number of passes, so the pool has none.  A theta gets one twist
# region at a seeded corner (all corners of a theta are alike), and the
# sign patterns are spread evenly, because the cabled bracket's cost
# depends on the pattern by up to 35%.  A pass takes about 3.5 s on one
# core.
CABLE_MIX = (("K4", 6), ("theta-2x", 12), ("theta-3x", 1), ("grid3x3", 5))


def cable_pool(rng: random.Random, lib) -> list[Item]:
    groups = []
    for family, count in CABLE_MIX:
        if family.startswith("theta"):
            crossings = int(family[-2])
            patterns = list(itertools.product(_SIGNS, repeat=crossings))
            group = []
            for k in range(count):
                code = gen.from_text(gen.THETA)
                vertex = rng.randrange(2)
                gen.add_twist(code, vertex, rng.randrange(3), list(patterns[k % len(patterns)]))
                group.append(Item(code.text(), family))
        elif family == "K4":
            group = [Item(gen.K4, family)] * count
        else:
            group = [Item(gen.grid(3, 3).text(), family)] * count
        groups.append(group)
    return _interleave(groups, rng)


def cable_op(api, item: Item, state: State):
    return api.phi_plane(api.parse_diagram(item.text))


def cable_check(lib, item: Item, ctx: CheckContext):
    """The cabling map agrees with the Yamada value."""
    return lib.yamada(lib.parse_diagram(item.text), memo={})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("resolve", resolve_pool, resolve_op, resolve_check, warm_up=True),
        Workload("flat", flat_pool, flat_op, flat_check),
        Workload("bracket", bracket_pool, bracket_op, bracket_check),
        Workload("cable", cable_pool, cable_op, cable_check),
    )
}
