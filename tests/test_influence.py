"""Influence profiles against a literal pair-scan oracle, plus the identities."""

from fractions import Fraction

import numpy as np
import pytest

from ucx.core import (
    BooleanFunction,
    CharacterSpec,
    SetFamily,
    coordinate_pairs,
    dist,
    family_to_function,
)
from ucx.extremal import dictator
from ucx.influence import (
    InfluenceProfile,
    balanced_distance_floor,
    corollary_bound_rows,
    corollary_lower_bound,
    flip_count_rows,
    influence_identity_check,
    pair_count_rows,
    profile,
)
from ucx.spectral import level_sums, level_weights, transform


def naive_profile(f: BooleanFunction) -> InfluenceProfile:
    """Literal scan of every pair (x, x + e_i) with x_i = 0."""
    n = f.n
    enter = [0] * n
    leave = [0] * n
    for i in range(n):
        bit = 1 << i
        for x in range(1 << n):
            if x & bit:
                continue
            low, high = f(x), f(x | bit)
            if low == 1 and high == -1:
                enter[i] += 1
            elif low == -1 and high == 1:
                leave[i] += 1
    return InfluenceProfile(n, tuple(enter), tuple(leave))


def all_functions(n: int):
    for fbits in range(1 << (1 << n)):
        yield BooleanFunction(n, [(-1 if (fbits >> x) & 1 else 1) for x in range(1 << n)])


def random_function(rng, n):
    return BooleanFunction(n, (rng.integers(0, 2, size=1 << n, dtype=np.int8) << 1) - 1)


def test_profile_examples():
    chi1 = BooleanFunction(3, CharacterSpec(1).values(3))
    prof = profile(chi1)
    assert prof.enter == (4, 0, 0) and prof.exit == (0, 0, 0)
    assert prof.positive_influence() == 1
    assert prof.negative_influence() == 0
    assert prof.influence() == 1

    const = profile(BooleanFunction.constant(3, 1))
    assert const.pivotal == (0, 0, 0) and const.influence() == 0

    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    prof3 = profile(f3)
    assert prof3.enter == (1, 1) and prof3.exit == (0, 0)
    assert prof3.positive_influence() == 1 and prof3.influence() == 1


def test_profile_rejects_coordinates_outside_the_cube():
    prof = profile(dictator(3, 3).function)
    assert prof.influence(3) == 1 and prof.influence(1) == prof.influence(2) == 0
    for read in (prof.influence, prof.positive_influence, prof.negative_influence):
        for i in (0, -1, -3, 4):  # 0 and -3 would index coordinate 3 from the end
            with pytest.raises(ValueError, match=f"coordinate {i} outside \\[1, 3\\]"):
                read(i)


def test_profile_matches_naive_exhaustive():
    for n in (1, 2, 3):
        for f in all_functions(n):
            assert profile(f) == naive_profile(f)


def test_profile_matches_naive_random():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = 4 + int(rng.integers(0, 5))
        f = random_function(rng, n)
        assert profile(f) == naive_profile(f)


def test_pair_count_rows_match_direct_counts():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        tables = rng.integers(0, 2, size=(7, 1 << n)).astype(bool)
        enter, leave = pair_count_rows(tables, n)
        for i in range(n):
            view = tables.reshape(7, -1, 2, 1 << i)
            low, high = view[:, :, 0, :], view[:, :, 1, :]
            assert enter[:, i].tolist() == np.count_nonzero(~low & high, axis=(1, 2)).tolist()
            assert leave[:, i].tolist() == np.count_nonzero(low & ~high, axis=(1, 2)).tolist()
        signs = np.where(tables, np.int8(-1), np.int8(1))
        flips = flip_count_rows(tables, n)
        assert np.array_equal(flip_count_rows(signs < 0, n), flips)
        assert np.array_equal(flips, enter + leave)


def direct_flip_counts(tables: np.ndarray, n: int) -> np.ndarray:
    """The definition: per coordinate, the pairs whose entries differ."""
    flips = np.empty(tables.shape[:-1] + (n,), dtype=np.int64)
    for i in range(n):
        low, high = coordinate_pairs(tables, i)
        flips[..., i] = np.count_nonzero(low != high, axis=(-2, -1))
    return flips


def test_packed_flip_counts_match_the_definition():
    rng = np.random.default_rng(43)
    for n in range(1, 14):
        for rows in (0, 1, 2049 if n <= 9 else 3):
            tables = rng.integers(0, 2, size=(rows, 1 << n)).astype(bool)
            flips = flip_count_rows(tables, n)
            assert flips.shape == (rows, n) and flips.dtype == np.int64
            assert np.array_equal(flips, direct_flip_counts(tables, n)), (n, rows)
        deep = rng.integers(0, 2, size=(2, 3, 1 << n)).astype(bool)
        assert np.array_equal(flip_count_rows(deep, n), direct_flip_counts(deep, n)), n
        wide = rng.integers(0, 2, size=(4, 2 << n)).astype(bool)
        for table in (np.asfortranarray(tables), wide[:, 1::2]):
            assert np.array_equal(flip_count_rows(table, n), direct_flip_counts(table, n)), n
    with pytest.raises(TypeError, match="boolean"):  # a +/-1 table is no membership table
        flip_count_rows(np.where(tables, np.int8(-1), np.int8(1)), 13)


def test_corollary_bound_rows_match_corollary_lower_bound():
    rng = np.random.default_rng(37)
    for n in range(1, 8):
        spec = transform(random_function(rng, n))
        floors = corollary_bound_rows(np.array(level_sums(spec)), n)
        weights = level_weights(spec)
        assert floors.shape == (n,)
        for k in range(1, n + 1):
            direct = k - sum((k - i) * weights[i] for i in range(k))
            assert Fraction(int(floors[k - 1]), 1 << (2 * n)) == direct
            assert corollary_lower_bound(spec, k) == direct


def test_spectral_link_exhaustive():
    # s({i}) = 2 (enter_i - exit_i) for every function
    for n in (1, 2, 3, 4):
        for f in all_functions(n):
            prof = profile(f)
            spec = transform(f)
            for i in range(n):
                assert int(spec.s[1 << i]) == 2 * (prof.enter[i] - prof.exit[i])


def test_influence_identity_examples():
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    assert influence_identity_check(chi1) == (1, 1)
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert influence_identity_check(f3) == (1, 1)
    parity12 = BooleanFunction(2, CharacterSpec(3).values(2))
    assert influence_identity_check(parity12) == (2, 2)


def test_influence_identity_exhaustive_and_random():
    for n in (1, 2, 3, 4):
        for f in all_functions(n):
            lhs, rhs = influence_identity_check(f)
            assert lhs == rhs
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = 5 + int(rng.integers(0, 8))  # up to n = 12
        lhs, rhs = influence_identity_check(random_function(rng, n))
        assert lhs == rhs


def test_corollary_bound_examples():
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    spec = transform(chi1)
    assert corollary_lower_bound(spec, 2) == 1
    const = transform(BooleanFunction.constant(2, 1))
    assert corollary_lower_bound(const, 1) == 0
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert corollary_lower_bound(transform(f3), 2) == 1
    with pytest.raises(ValueError):
        corollary_lower_bound(spec, 0)
    with pytest.raises(ValueError):
        corollary_lower_bound(spec, 3)


def test_corollary_bound_exhaustive():
    for n in (1, 2, 3):
        for f in all_functions(n):
            spec = transform(f)
            total = profile(f).influence()
            for k in range(1, n + 1):
                assert total >= corollary_lower_bound(spec, k)


def test_balanced_distance_floor():
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert balanced_distance_floor(f3) == Fraction(1, 4)
    assert dist(f3, CharacterSpec(1)) == Fraction(1, 4)  # the floor is attained
    assert balanced_distance_floor(BooleanFunction.constant(2, -1)) == Fraction(1, 2)
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    assert balanced_distance_floor(chi1) == 0


def test_balanced_distance_floor_holds_against_balanced_functions():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = 1 + int(rng.integers(0, 8))
        f = random_function(rng, n)
        floor = balanced_distance_floor(f)
        for s_mask in range(1, 1 << n):
            for sign in (1, -1):
                assert dist(f, CharacterSpec(s_mask, sign)) >= floor
        half = 1 << (n - 1)
        for _ in range(5):
            chosen = rng.choice(1 << n, size=half, replace=False)
            table = np.ones(1 << n, dtype=np.int8)
            table[chosen] = -1
            g = BooleanFunction(n, table)
            assert dist(f, g) >= floor
