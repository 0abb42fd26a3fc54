"""Spectra: butterfly vs definition oracles, Parseval, level identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucx.core import BooleanFunction, CharacterSpec, SetFamily, family_to_function, popcount_table
from ucx.spectral import (
    Spectrum,
    first_level_identity,
    level_sums,
    level_weight,
    level_weights,
    mean_identity_check,
    naive_transform,
    parseval_sum,
    transform,
)


def character_matrix(n: int) -> np.ndarray:
    """Definition-level oracle: chi[S, x] = (-1)^{|S AND x|}."""
    pts = np.arange(1 << n, dtype=np.int64)
    overlap = pts[:, None] & pts[None, :]
    parity = (popcount_table(n)[overlap] & 1).astype(np.int64)
    return 1 - 2 * parity


def all_functions(n: int):
    for fbits in range(1 << (1 << n)):
        values = [(-1 if (fbits >> x) & 1 else 1) for x in range(1 << n)]
        yield BooleanFunction(n, values)


def random_function(rng: np.random.Generator, n: int) -> BooleanFunction:
    return BooleanFunction(n, (rng.integers(0, 2, size=1 << n, dtype=np.int8) << 1) - 1)


def test_transform_examples():
    assert transform(BooleanFunction.constant(2, 1)).s.tolist() == [4, 0, 0, 0]
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    assert transform(chi1).s.tolist() == [0, 4, 0, 0]
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert transform(f3).s.tolist() == [-2, 2, 2, 2]


def test_transform_matches_naive_exhaustive_small():
    for n in (1, 2, 3):
        for f in all_functions(n):
            assert transform(f) == naive_transform(f)


def test_transform_matches_definition_oracle_random():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = 1 + trial % 10
        f = random_function(rng, n)
        expected = character_matrix(n) @ f.values.astype(np.int64)
        assert np.array_equal(transform(f).s, expected)


def test_parseval_exhaustive_small():
    for n in (1, 2, 3, 4):
        four_n = 1 << (2 * n)
        for f in all_functions(n):
            assert parseval_sum(transform(f)) == four_n


def test_parseval_random_large():
    rng = np.random.default_rng(11)
    for n in (10, 12, 14):
        for _ in range(50):
            f = random_function(rng, n)
            assert parseval_sum(transform(f)) == 1 << (2 * n)


def test_spectrum_structural_invariants():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = 1 + int(rng.integers(0, 8))
        spec = transform(random_function(rng, n))
        assert int(np.max(np.abs(spec.s))) <= 1 << n
        parities = (spec.s - (1 << n)) % 2
        assert not np.any(parities)  # s(S) has the parity of 2^n


def test_level_weights():
    chi1 = BooleanFunction(3, CharacterSpec(1).values(3))
    spec = transform(chi1)
    assert level_weight(spec, 1) == 1
    assert level_weight(spec, 0) == 0 and level_weight(spec, 2) == 0
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert level_weights(transform(f3)) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        level_weight(spec, 4)
    with pytest.raises(ValueError):
        level_weight(spec, -1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_level_weights_sum_to_one(n, seed):
    f = random_function(np.random.default_rng(seed), n)
    assert sum(level_weights(transform(f))) == 1


def test_mean_identity_examples():
    lhs, rhs = mean_identity_check(BooleanFunction.constant(2, -1))
    assert lhs == rhs == -1
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    lhs, rhs = mean_identity_check(f3)
    assert lhs == rhs == Fraction(-1, 2)
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    lhs, rhs = mean_identity_check(chi1)
    assert lhs == rhs == 0


def test_mean_identity_exhaustive():
    for n in (1, 2, 3, 4):
        for f in all_functions(n):
            lhs, rhs = mean_identity_check(f)
            assert lhs == rhs


def test_first_level_identity_examples():
    assert first_level_identity(SetFamily.from_sets(1, [[1]]), 1) == (1, 1)
    fam = SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert first_level_identity(fam, 1) == (Fraction(1, 2), Fraction(1, 2))
    balanced = SetFamily.from_sets(2, [[1], [2]])  # element 1 in half the members
    coeff, freq_form = first_level_identity(balanced, 1)
    assert coeff == freq_form == 0
    with pytest.raises(ValueError):
        first_level_identity(fam, 3)


def test_first_level_identity_exhaustive_and_random():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            fam = SetFamily.from_bits(n, bits)
            for i in range(1, n + 1):
                coeff, freq_form = first_level_identity(fam, i)
                assert coeff == freq_form
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = 4 + int(rng.integers(0, 9))  # up to n = 12
        bits = int.from_bytes(rng.bytes(max(1, (1 << n) // 8)), "little") & ((1 << (1 << n)) - 1)
        fam = SetFamily.from_bits(n, bits)
        i = 1 + int(rng.integers(0, n))
        coeff, freq_form = first_level_identity(fam, i)
        assert coeff == freq_form
        assert (coeff > 0) == (2 * fam.frequencies()[i - 1] > fam.size)


def test_spectrum_coefficient_and_eq():
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    spec = transform(f3)
    assert spec.coefficient(0) == Fraction(-1, 2)
    assert spec == Spectrum(2, [-2, 2, 2, 2])
    assert spec != Spectrum(2, [4, 0, 0, 0])
    assert level_sums(spec) == (4, 8, 4)
