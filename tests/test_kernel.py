"""The two kernels: canonical-form invariance, the key encoder's limits, and
an independent circle-count reference."""

import random

import pytest

from skein import core
from skein.core import CANON_KEY_LIMIT, backend_name


def random_graph(rng, n_max=9, m_max=12):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = tuple(tuple(sorted((rng.randrange(n), rng.randrange(n)))) for _ in range(m))
    return n, edges


def test_canon_key_is_isomorphism_invariant():
    rng = random.Random(888)
    for _ in range(120):
        n, edges = random_graph(rng)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = tuple(
            tuple(sorted((perm[u], perm[v]))) for u, v in edges
        )
        assert core.canon_key(n, edges) == core.canon_key(n, permuted)


def test_canon_key_separates_nonisomorphic():
    path = ((0, 1), (1, 2))
    star = ((0, 1), (0, 2))
    # path on 3 vertices is isomorphic to the star with center relabeled
    assert core.canon_key(3, path) == core.canon_key(3, star)
    triangle = ((0, 1), (1, 2), (0, 2))
    path3 = ((0, 1), (1, 2), (2, 0))  # same multiset: triangle
    assert core.canon_key(3, triangle) == core.canon_key(3, path3)
    # genuinely different graphs
    assert core.canon_key(3, ((0, 1), (0, 1))) != core.canon_key(
        3, ((0, 1), (1, 2))
    )
    assert core.canon_key(2, ((0, 0),)) != core.canon_key(2, ((0, 1),))
    assert core.canon_key(3, ()) != core.canon_key(2, ())


def test_canon_key_petersen_runs_fast():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    key = core.canon_key(10, edges)
    assert isinstance(key, bytes) and len(key) == 2 + 2 * 15


def _reference_circles(n_arcs, crossings, mask):
    """Independent reference: alternate arc and smoothing hops until each
    cycle closes.  Every end appears in exactly one smoothing join."""
    join_partner = {}
    for i, (e0, e1, e2, e3) in enumerate(crossings):
        pairs = ((e0, e3), (e1, e2)) if (mask >> i) & 1 else ((e0, e1), (e2, e3))
        for x, y in pairs:
            join_partner[x] = y
            join_partner[y] = x
    visited = set()
    circles = 0
    for start in range(2 * n_arcs):
        if start in visited:
            continue
        circles += 1
        x = start
        while x not in visited:
            visited.add(x)
            y = x ^ 1  # traverse the arc to its other end
            visited.add(y)
            x = join_partner[y]  # hop through the smoothing
    return circles


def _random_diagram(rng, c):
    """A random vertexless diagram with c crossings: a permutation of the
    4c slot-ends of 2c arcs."""
    n_arcs = 2 * c
    ends = list(range(2 * n_arcs))
    rng.shuffle(ends)
    return n_arcs, [tuple(ends[4 * i : 4 * i + 4]) for i in range(c)]


def test_state_circle_counts_against_reference():
    rng = random.Random(99)
    for _ in range(40):
        n_arcs, crossings = _random_diagram(rng, rng.randint(1, 5))
        counts = core.state_circle_counts(n_arcs, crossings)
        for mask in range(1 << len(crossings)):
            assert counts[mask] == _reference_circles(n_arcs, crossings, mask)


def test_canon_key_rejects_counts_past_the_byte_limit():
    n = CANON_KEY_LIMIT
    assert len(core.canon_key(2, ((0, 1),) * n)) == 2 + 2 * n
    with pytest.raises(ValueError, match="at most 255"):
        core.canon_key(2, ((0, 1),) * (n + 1))
    with pytest.raises(ValueError, match="at most 255"):
        core.canon_key(n + 1, ())


def test_backend_is_reported():
    assert backend_name() == "pure"


def test_components_count_and_least_element_labels():
    count, root = core.components(6, [(4, 2), (5, 4), (1, 3)])
    assert count == 3
    assert root == [0, 1, 2, 1, 2, 2]
    assert core.components(0, []) == (0, [])
