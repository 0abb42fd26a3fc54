"""Spectra: the GEMM transform vs a butterfly and definition oracles, Parseval,
level identities."""

import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_families,
    all_functions,
    character_matrix,
    oracle_level_sums,
    random_function,
    reference_butterfly,
)

from ucx.core import (
    BooleanFunction,
    CharacterSpec,
    DimensionError,
    SetFamily,
    family_to_function,
    level_order,
)
from ucx.influence import influence_identity_check
from ucx.spectral import (
    Spectrum,
    first_level_identity,
    first_level_rows,
    fwht_rows,
    level_sum_rows,
    level_sums,
    level_weight,
    level_weights,
    mean_identity_check,
    naive_transform,
    transform,
)


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


def test_fwht_rows_match_naive_transform_random():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        tables = rng.integers(0, 2, size=(9, 1 << n)).astype(bool)
        spectra = fwht_rows(tables)
        assert spectra.dtype == np.int64 and spectra.shape == tables.shape
        for table, spec in zip(tables, spectra):
            f = family_to_function(SetFamily(n, table))
            assert spec.tolist() == naive_transform(f).s.tolist()


def test_parseval_exhaustive_small():
    for n in (1, 2, 3, 4):
        four_n = 1 << (2 * n)
        for f in all_functions(n):
            spec = transform(f)
            assert int(spec.s @ spec.s) == four_n


def test_parseval_random_large():
    rng = np.random.default_rng(11)
    for n in (10, 12, 14):
        for _ in range(50):
            f = random_function(rng, n)
            spec = transform(f)
            assert int(spec.s @ spec.s) == 1 << (2 * n)


def test_fwht_rows_matches_naive_transform_exhaustive_small():
    for n in (1, 2, 3):
        functions = list(all_functions(n))
        spectra = fwht_rows(np.array([f.to_bool() for f in functions]))
        assert spectra.tolist() == [naive_transform(f).s.tolist() for f in functions]


@pytest.mark.parametrize("n", range(1, 14))
def test_fwht_rows_matches_the_butterfly(n):
    """Every factor split (n < 6, n not a multiple of 6) and every chunk
    tail, on boolean rows in any memory layout, leaving them unchanged."""
    rng = np.random.default_rng(100 + n)
    for rows in (0, 1, 2049 if n <= 11 else 5):
        tables = rng.integers(0, 2, size=(rows, 1 << n)).astype(bool)
        expected = 1 - 2 * tables.astype(np.int64)
        reference_butterfly(expected)
        spectra = fwht_rows(tables)
        assert spectra.dtype == np.int64 and np.array_equal(spectra, expected)
    tables = rng.integers(0, 2, size=(3, 1 << n)).astype(bool)
    expected = 1 - 2 * tables.astype(np.int64)
    reference_butterfly(expected)
    assert np.array_equal(fwht_rows(np.asfortranarray(tables)), expected)
    wide = np.zeros((3, 2 << n), dtype=bool)
    wide[:, 1::2] = tables
    assert np.array_equal(fwht_rows(wide[:, 1::2]), expected)
    assert np.array_equal(wide[:, 1::2], tables) and not wide[:, ::2].any()


def test_fwht_rows_reaches_the_float32_integer_limit(monkeypatch):
    """At n = 24 one coefficient is +/-2^24, exactly float32's integer limit."""
    monkeypatch.setenv("UCX_MAX_N", "24")
    n = 24
    full = (1 << n) - 1
    for support in (0, full):  # the constants and the full-support parity
        for sign in (1, -1):
            s = transform(BooleanFunction(n, CharacterSpec(support, sign).values(n))).s
            assert int(s[support]) == sign << n and np.count_nonzero(s) == 1
            del s


@pytest.mark.parametrize("cols", [0, 3, 12, 1 << 25])
def test_fwht_rows_refuses_rows_that_are_not_a_cube(cols):
    """Only rows of 2^n entries with n <= 24 stay within float32's integers."""
    mat = np.zeros((0, cols), dtype=np.int64)
    with pytest.raises(ValueError, match="2\\^n entries"):
        fwht_rows(mat)


def test_fwht_rows_refuses_entries_outside_the_unit_range():
    """The dtype is the whole input check: a boolean table holds no entry
    outside [-1, 1], and any other table is refused, even one of +/-1."""
    signs = 1 - 2 * np.random.default_rng(2).integers(0, 2, size=(3, 64), dtype=np.int64)
    for table in (signs, signs.astype(np.int8), signs.astype(np.float32)):
        with pytest.raises(TypeError, match="boolean table"):
            fwht_rows(table)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_butterfly_exact_at_the_extremes(n, monkeypatch):
    monkeypatch.setenv("UCX_MAX_N", "24")
    four_n = 1 << (2 * n)
    for value in (1, -1):
        spec = transform(BooleanFunction.constant(n, value))
        assert int(spec.s[0]) == value << n and not spec.s[1:].any()
        assert level_sums(spec) == (four_n,) + (0,) * n
        del spec
    f = random_function(np.random.default_rng(n), n)
    spec = transform(f)
    assert int(spec.s @ spec.s) == sum(level_sums(spec)) == four_n
    influence, weighted = influence_identity_check(f)
    assert influence == weighted


def test_transform_keeps_the_computed_spectrum():
    """The spectrum wraps the butterfly's output: no copy of the int64 table."""
    n = 16
    f = random_function(np.random.default_rng(5), n)
    transform(f)  # first-call caches and allocations stay outside the window
    tracemalloc.start()
    try:
        spec = transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(spec.s @ spec.s) == 1 << (2 * n) and not spec.s.flags.writeable
    assert peak <= 1.6 * spec.s.nbytes, peak / spec.s.nbytes


def test_level_sum_rows_by_definition():
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        spectra = rng.integers(-(1 << 20), 1 << 20, size=(6, 1 << n))
        before = spectra.copy()
        spectra.setflags(write=False)
        expected = [oracle_level_sums(row, n) for row in spectra]
        levels = level_sum_rows(spectra, n)
        assert levels.dtype == np.int64 and levels.tolist() == expected
        assert level_sum_rows(spectra[2], n).tolist() == expected[2]
        assert level_sum_rows(spectra[:0], n).shape == (0, n + 1)
        assert np.array_equal(spectra, before)


def test_level_sum_rows_walks_a_large_row_in_segments():
    """One n = 20 row: the kernel holds a block of squares at a time, not a
    copy of the row (2.0x when the whole row is gathered at once)."""
    n = 20
    spectrum = np.random.default_rng(20).integers(-(1 << 10), 1 << 10, size=1 << n)
    expected = level_sum_rows(spectrum, n)  # builds the cached level order first
    tracemalloc.start()
    try:
        levels = level_sum_rows(spectrum, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    order, bounds = level_order(n)
    squares = spectrum[order] ** 2
    assert levels.tolist() == expected.tolist() == [
        int(squares[bounds[k]:bounds[k + 1]].sum()) for k in range(n + 1)]
    assert peak <= 0.6 * spectrum.nbytes, peak / spectrum.nbytes


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
        for fam in all_families(n):
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


def test_first_level_rows_match_spectrum():
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        tables = rng.integers(0, 2, size=(20, 1 << n)).astype(bool)
        singletons = [1 << i for i in range(n)]
        assert np.array_equal(first_level_rows(tables, n), fwht_rows(tables)[:, singletons])
    assert first_level_rows(np.zeros((0, 8), dtype=bool), 3).shape == (0, 3)


def test_spectrum_coefficient_and_eq():
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    spec = transform(f3)
    assert spec.coefficient(0) == Fraction(-1, 2)
    assert spec == Spectrum(2, [-2, 2, 2, 2])
    assert spec != Spectrum(2, [4, 0, 0, 0])
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and not copy.s.flags.writeable
    assert not hasattr(spec, "to_bool")  # the int64 table is ``s`` only
    assert level_sums(spec) == (4, 8, 4)
    # coefficients are integers: no rounding of floats, no bools
    for wrong in ([1.7, 0.2], np.array([2.0, 0.0]), [True, False], [Fraction(1), 0]):
        with pytest.raises(TypeError):
            Spectrum(1, wrong)
    with pytest.raises(DimensionError):
        Spectrum(2, [1, 2, 3])
