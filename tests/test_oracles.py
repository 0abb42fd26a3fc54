"""The oracles of ``oracles.py`` against counts and closed forms that do not
come from the package."""

import numpy as np
from oracles import (
    every_table,
    masks,
    oracle_closure,
    oracle_component_directions,
    oracle_pairs,
    oracle_roots,
    oracle_threshold_k,
    oracle_union_closed,
)

# union-closed families on [n] holding the empty set, n = 1, 2, 3 (OEIS A102896)
UNION_CLOSED_WITH_EMPTY = {1: 2, 2: 7, 3: 61}


def test_union_closed_and_simply_rooted_counts():
    """By the duality, the tables whose complement has a root at every member
    number as many as the union-closed tables with the empty set."""
    for n, count in UNION_CLOSED_WITH_EMPTY.items():
        tables = every_table(n)
        assert sum(oracle_union_closed(t, n) for t in tables if t[0]) == count, n
        assert sum(bool(np.all(oracle_roots(~t, n)[~t])) for t in tables) == count, n


def test_closure_of_the_singletons_is_every_nonempty_set():
    for n in range(1, 8):
        singletons = np.isin(masks(n), 1 << np.arange(n))
        assert np.array_equal(oracle_closure(singletons, n), masks(n) != 0)


def test_component_directions_of_the_cube_and_its_halves():
    for n in range(1, 7):
        full = (1 << n) - 1
        assert (oracle_component_directions(np.ones(1 << n, dtype=bool), n) == full).all(), n
        for i in range(n):
            half = (masks(n) >> i) & 1 == 0
            labels = oracle_component_directions(half, n)
            assert (labels[half] == full ^ (1 << i)).all() and not labels[~half].any(), (n, i)


def test_threshold_k_of_the_or_families():
    """The m-disjunct OR-family has 2^n - 2^(n-m) members, mean coefficient
    -(1 - 2^(1-m)) and so threshold k = m - 1."""
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert oracle_threshold_k(n, (1 << n) - (1 << (n - m))) == m - 1, (n, m)


def test_pairs_of_the_dictators():
    """x_i enters on coordinate i at each of its 2^(n-1) pairs, and nowhere else."""
    for n in range(1, 9):
        for i in range(n):
            enter, leave = oracle_pairs((masks(n) >> i) & 1 == 1, n)
            assert enter.tolist() == [1 << (n - 1) if j == i else 0 for j in range(n)]
            assert not leave.any()
