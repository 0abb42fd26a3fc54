"""The seeded input generator, cross-checked against definition-level oracles.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_inputs.py

Union-closedness is checked by the pairwise scan over all member pairs and
simple-rootedness by ucx's per-interval root search ``_root_set_naive``,
both at small n where they are exhaustive.
"""

import numpy as np
import pytest

import inputs
from ucx import familyfile
from ucx.core import SetFamily
from ucx.families import _root_set_naive

SEEDS = range(6)


def pairwise_union_closed(table: np.ndarray) -> bool:
    members = np.flatnonzero(table).tolist()
    return all(table[a | b] for a in members for b in members)


def naive_simply_rooted(n: int, table: np.ndarray) -> bool:
    family = SetFamily.from_bool(n, table)
    return all(_root_set_naive(family, m) != 0 for m in family.members())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", SEEDS)
def test_dense_family_is_union_closed_half_cube_with_empty_set(n, seed):
    table = inputs.dense_union_closed(n, np.random.default_rng(seed))
    assert table[0]
    assert 2 * np.count_nonzero(table) >= 1 << n
    assert pairwise_union_closed(table)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("seed", SEEDS)
def test_complement_is_simply_rooted(n, seed):
    table = inputs.dense_union_closed(n, np.random.default_rng(seed))
    assert naive_simply_rooted(n, ~table)
    # the definition rejects a family that gains the empty set
    with_empty = ~table
    with_empty[0] = True
    assert not naive_simply_rooted(n, with_empty)


@pytest.mark.parametrize("seed", SEEDS)
def test_closure_table_is_the_smallest_union_closed_superfamily(seed):
    n = 5
    gens = np.random.default_rng(seed).integers(0, 1 << n, size=4)
    closed = inputs.closure_table(n, gens)
    assert pairwise_union_closed(closed)
    expected = set()
    for g in gens.tolist():
        expected |= {g | s for s in expected} | {g}
    assert set(np.flatnonzero(closed).tolist()) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_small_inputs_keep_their_domains(seed):
    made = inputs.make_inputs(seed, n_dense=5, n_closure=4)
    n, g = made["union_closed"]
    assert pairwise_union_closed(g) and g[0]
    n_f, f = made["simply_rooted"]
    assert n_f == n and np.array_equal(f, ~g)
    assert naive_simply_rooted(n, f)
    n_c, c = made["closure_input"]
    assert n_c == 4 and c.shape == (16,) and np.any(c)


def test_inputs_depend_only_on_the_seed():
    first, again, other = inputs.make_inputs(3), inputs.make_inputs(3), inputs.make_inputs(4)
    for key, (n, table) in first.items():
        assert np.array_equal(table, again[key][1])
    assert any(not np.array_equal(t, other[k][1]) for k, (_, t) in first.items())
    n, g = first["union_closed"]
    assert n == 16 and 2 * np.count_nonzero(g) >= 1 << n


@pytest.mark.parametrize("seed", SEEDS)
def test_file_text_is_canonical(seed):
    n, table = inputs.make_inputs(seed, n_dense=6, n_closure=5)["closure_input"]
    text = inputs.format_table(n, table)
    family = familyfile.parse_family(text)
    assert np.array_equal(family.to_bool(), table)
    assert familyfile.format_family(family) == text


def test_describe_gives_size_density_and_mean_coefficient():
    table = np.zeros(16, dtype=bool)
    table[[0, 3, 5, 15]] = True
    assert inputs.describe(4, table) == {
        "n": 4, "size": 4, "density": "1/4", "mean_coefficient": "1/2",
    }
