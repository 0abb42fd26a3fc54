"""Encodings, characters, inner products, and the distance metric."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import all_families, brute_distance, oracle_frequencies

from ucx.core import (
    BooleanFunction,
    CharacterSpec,
    DimensionError,
    SetFamily,
    bits_to_bool,
    bool_to_bits,
    coordinate_pairs,
    dist,
    elements_from_mask,
    eval_character,
    family_to_function,
    frequency_rows,
    function_to_family,
    inner_product,
    iter_bits,
    mask_from_elements,
    max_dimension,
    packed_words,
    unpacked,
    word_pairs,
)
from ucx.families import roots
from ucx.spectral import transform


def test_mask_element_round_trip():
    assert mask_from_elements([1, 3], 3) == 0b101
    assert elements_from_mask(0b101) == (1, 3)
    assert mask_from_elements([], 3) == 0
    with pytest.raises(ValueError):
        mask_from_elements([4], 3)


def test_bitset_bool_round_trip():
    for bits in (0, 1, 0b1010, (1 << 16) - 1):
        assert bool_to_bits(bits_to_bool(bits, 4)) == bits
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            fam = SetFamily.from_bits(n, bits)
            assert fam.bits == bits
            assert fam.members() == tuple(iter_bits(bits))
        for oversize in (-1, 1 << (1 << n)):
            with pytest.raises(ValueError):
                SetFamily.from_bits(n, oversize)


def test_family_basics():
    fam = SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert fam.size == 3
    assert fam.members() == (1, 2, 3)
    assert 0 not in fam and 3 in fam
    assert fam.complement().members() == (0,)
    assert fam.frequencies() == (2, 2)
    assert SetFamily.full(2).size == 4
    assert SetFamily.empty(2).size == 0

    # the family keeps its own copy of the caller's table
    table = np.array([False, True, True, True])
    fam = SetFamily(2, table)
    table[0] = True
    assert fam.members() == (1, 2, 3)
    # integer tables (0/1 or +/-1) are rejected rather than read as all-members
    for wrong in (np.array([0, 1, 1, 1]), np.array([1, -1, -1, -1], dtype=np.int8), 7):
        with pytest.raises(TypeError):
            SetFamily(2, wrong)
    for shape in ((3,), (8,), (1, 4)):
        with pytest.raises(DimensionError):
            SetFamily(2, np.zeros(shape, dtype=bool))

    # == and hash agree with equality of the bitset integers
    families = [(n, bits) for n in (1, 2, 3) for bits in range(1 << (1 << n))]
    built = [SetFamily.from_bits(n, bits) for n, bits in families]
    for (n, bits), fam in zip(families, built):
        twin = SetFamily(n, fam.to_bool().copy())
        assert twin == fam and hash(twin) == hash(fam)
        assert [other == fam for other in built] == [key == (n, bits) for key in families]
        f = family_to_function(fam)
        twin_f = BooleanFunction(n, f.values.copy())
        assert twin_f == f and hash(twin_f) == hash(f)


def test_family_to_function_sign_convention():
    # empty family is constant +1; full family constant -1
    for n in range(1, 5):
        for sign, family in ((1, SetFamily.empty(n)), (-1, SetFamily.full(n))):
            constant = BooleanFunction.constant(n, sign)
            assert family_to_function(family) == constant
            assert constant == BooleanFunction(n, [sign] * (1 << n))
            assert constant.values.tolist() == [sign] * (1 << n)
    assert BooleanFunction.constant(2) == BooleanFunction.constant(2, 1)
    for sign in (0, 2):
        with pytest.raises(ValueError):
            BooleanFunction.constant(2, sign)
    # the OR-of-two-coordinates membership function in point order 00,10,01,11
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert f3.values.tolist() == [1, -1, -1, -1]


def test_function_family_round_trip_exhaustive():
    for n in (1, 2, 3):
        for fam in all_families(n):
            f = family_to_function(fam)
            assert function_to_family(f) == fam
            # a family and its membership function share one table
            table = fam.to_bool()
            assert np.shares_memory(f.to_bool(), table)
            assert np.array_equal(f.to_bool(), table)
            values = f.values
            assert values.dtype == np.int8 and not values.flags.writeable
            assert np.array_equal(values, np.where(table, np.int8(-1), np.int8(1)))
            assert [f(x) for x in range(1 << n)] == f.values.tolist()
            assert f.minus_count() == fam.size
            # same table, different objects: never equal
            assert f != fam and fam != f


def test_coordinate_pairs_match_index_arithmetic():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        tables = rng.integers(0, 100, size=(3, 1 << n))
        if n % 2:
            tables = np.asfortranarray(tables)  # views for any memory layout
        for i in range(n):
            low_points = [x for x in range(1 << n) if not x >> i & 1]
            high_points = [x | 1 << i for x in low_points]
            low, high = coordinate_pairs(tables, i)
            assert np.array_equal(low.reshape(3, -1), tables[:, low_points])
            assert np.array_equal(high.reshape(3, -1), tables[:, high_points])
            assert np.array_equal(coordinate_pairs(tables[0], i)[1].ravel(), tables[0, high_points])
            # writes through a view reach the table
            before = tables.copy()
            high += 1000
            assert np.array_equal(tables[:, high_points], before[:, high_points] + 1000)
            assert np.array_equal(tables[:, low_points], before[:, low_points])


def test_packed_words_hold_the_bitset():
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        tables = rng.integers(0, 2, size=(3, 1 << n)).astype(bool)
        words = packed_words(np.asfortranarray(tables))  # any memory layout
        assert words.shape == (3, max(1, (1 << n) >> 6)) and words.dtype == np.uint64
        for table, row in zip(tables, words):
            assert int.from_bytes(row.astype("<u8").tobytes(), "little") == bool_to_bits(table)
    with pytest.raises(TypeError, match="boolean"):
        packed_words(np.ones(8, dtype=np.int8))


def test_unpacked_reads_the_binary_digits():
    # Against the digit definition (bits >> p) & 1 of the little-endian bytes:
    # 0 rows and leading dimensions, n = 1 and 2 (bits past 2^n dropped),
    # fewer bytes than 2^n bits (missing bits read as 0), a read-only input.
    rng = np.random.default_rng(10)
    for n in range(1, 8):
        for shape in ((0,), (5,), (2, 3)):
            for width in (0, 1, (1 << n) >> 3, ((1 << n) + 7) >> 3):
                packed = rng.integers(0, 256, size=shape + (width,), dtype=np.uint8)
                packed.setflags(write=False)
                rows = packed.reshape(math.prod(shape), width)
                bits = [int.from_bytes(row.tobytes(), "little") for row in rows]
                want = [[(b >> p) & 1 == 1 for p in range(1 << n)] for b in bits]
                got = unpacked(packed, n)
                assert got.dtype == np.bool_ and got.shape == shape + (1 << n,), (n, shape, width)
                assert got.reshape(len(rows), 1 << n).tolist() == want, (n, shape, width)
    tables = rng.integers(0, 2, size=(3, 1 << 9)).astype(bool)
    assert np.array_equal(unpacked(packed_words(tables).view(np.uint8), 9), tables)


def test_frequency_rows_match_the_definition():
    rng = np.random.default_rng(8)
    for n in range(1, 14):
        for shape in ((0,), (1,), (5,), (2, 3)):
            tables = rng.integers(0, 2, size=shape + (1 << n,)).astype(bool)
            assert np.array_equal(frequency_rows(tables, n), oracle_frequencies(tables, n)), n


def unpacked_bits(words: np.ndarray) -> np.ndarray:
    """The bits of word arrays (..., blocks, width) in order, as bool (..., 64 blocks width)."""
    lead, (blocks, width) = words.shape[:-2], words.shape[-2:]
    flat = np.ascontiguousarray(words.reshape(lead + (blocks * width,)), dtype="<u8")
    return np.unpackbits(flat.view(np.uint8), axis=-1, bitorder="little").astype(bool)


def test_word_pairs_match_coordinate_pairs():
    # Bit p of (low, high), read in order, is the p-th entry of the
    # coordinate_pairs views: for i >= 6 every bit, for i < 6 the bits at the
    # points without bit i, all other bits 0.  2049 rows up to n = 9, 7 above.
    rng = np.random.default_rng(15)
    for n in range(1, 14):
        size = 1 << n
        wide = rng.integers(0, 2, size=(2049 if n <= 9 else 7, 2 * size)).astype(bool)
        layouts = [wide[:0, :size], wide[:1, :size], wide[:, :size],
                   np.asfortranarray(wide[:, :size]), wide[:, 1::2],
                   wide[:6, size:].reshape(2, 3, size)]
        for tables in layouts:
            words = packed_words(tables)
            for i in range(n):
                got = [unpacked_bits(side) for side in word_pairs(words, i)]
                if i < 6:
                    points = np.arange(got[0].shape[-1])
                    kept = ((points >> i) & 1 == 0) & (points < size)
                    assert not any(side[..., ~kept].any() for side in got), (n, i)
                    got = [side[..., kept] for side in got]
                want = [side.reshape(tables.shape[:-1] + (size >> 1,))
                        for side in coordinate_pairs(tables, i)]
                assert all(map(np.array_equal, got, want)), (n, i, tables.shape)


def test_function_to_family_dictator():
    f = BooleanFunction(1, CharacterSpec(1).values(1))
    assert function_to_family(f).members() == (1,)


def test_eval_character():
    chi_empty = CharacterSpec(0)
    assert all(eval_character(chi_empty, x) == 1 for x in range(8))
    chi_1 = CharacterSpec(1)
    assert eval_character(chi_1, 0b001) == -1
    assert eval_character(chi_1, 0b110) == 1
    assert eval_character(CharacterSpec(1, -1), 0b001) == 1


def test_character_tables_match_eval():
    # the membership row built by doubling, and the values derived from it,
    # against the definition point by point
    for n in range(1, 7):
        for support in range(1 << n):
            for sign in (1, -1):
                chi = CharacterSpec(support, sign)
                points = [chi.eval(x) for x in range(1 << n)]
                members, values = chi.to_bool(n), chi.values(n)
                assert members.dtype == np.bool_ and members.tolist() == [v == -1 for v in points]
                assert values.dtype == np.int8 and values.tolist() == points
    with pytest.raises(DimensionError):
        CharacterSpec(0b100).to_bool(2)


def test_character_orthonormality_exhaustive():
    for n in (1, 2, 3, 4):
        for s_mask in range(1 << n):
            f = BooleanFunction(n, CharacterSpec(s_mask).values(n))
            for t_mask in range(1 << n):
                expected = Fraction(1 if s_mask == t_mask else 0)
                assert inner_product(f, CharacterSpec(t_mask)) == expected


def test_inner_product_examples():
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    assert inner_product(chi1, CharacterSpec(1)) == 1
    assert inner_product(chi1, CharacterSpec(2)) == 0
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert inner_product(f3, CharacterSpec(1)) == Fraction(1, 2)


def test_inner_product_dimension_mismatch():
    f = BooleanFunction.constant(2, 1)
    g = BooleanFunction.constant(3, 1)
    with pytest.raises(DimensionError):
        inner_product(f, g)
    with pytest.raises(DimensionError):
        inner_product(f, [1, 1])
    # only integer tables: floats and exact rationals are refused up front
    for wrong in ([1.0, 1.0, -1.0, 1.0], [Fraction(1), Fraction(1), Fraction(-1), Fraction(1)]):
        with pytest.raises(TypeError):
            inner_product(f, wrong)


def test_inner_product_and_dist_refuse_tables_other_than_signs():
    # an integer table must hold +1 and -1 only: int64 products of other
    # values wrap (2^62 + 2^62), and [3, 1] would give a negative distance
    f = BooleanFunction.constant(1, 1)
    for wrong in ([3, 1], np.array([2**62, 2**62]), np.array([2**63, 1], np.uint64)):
        for measure in (inner_product, dist):
            with pytest.raises(ValueError, match="must all be"):
                measure(f, wrong)
    assert inner_product(f, np.array([1, -1], np.int64)) == 0
    assert dist(f, [-1, -1]) == 1


def test_dist_examples():
    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    chi1 = BooleanFunction(2, CharacterSpec(1).values(2))
    assert dist(f3, f3) == 0
    assert dist(chi1, BooleanFunction(2, CharacterSpec(1, -1).values(2))) == 1
    assert dist(f3, CharacterSpec(1)) == Fraction(1, 4)
    assert dist(f3, chi1) == brute_distance(f3, chi1.values)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.data())
def test_dist_is_a_metric(n, data):
    size = 1 << n
    tables = [
        np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size)), dtype=np.int8)
        for _ in range(3)
    ]
    f, g, h = (BooleanFunction(n, t) for t in tables)
    assert dist(f, f) == 0
    assert dist(f, g) == dist(g, f)
    assert dist(f, g) == brute_distance(f, g.values)
    assert dist(f, h) <= dist(f, g) + dist(g, h)


def test_dimension_cap_env(monkeypatch):
    monkeypatch.delenv("UCX_MAX_N", raising=False)
    assert max_dimension() == 20
    with pytest.raises(DimensionError):
        SetFamily.empty(21)
    monkeypatch.setenv("UCX_MAX_N", "22")
    assert max_dimension() == 22
    SetFamily.empty(21)  # now allowed
    monkeypatch.setenv("UCX_MAX_N", "40")
    with pytest.raises(DimensionError):
        max_dimension()
    monkeypatch.setenv("UCX_MAX_N", "zero")
    with pytest.raises(DimensionError):
        max_dimension()


def test_bool_masks_are_refused():
    # numpy reads a bool index as a mask over the whole table, and a float not at all
    for masks in ([True], [1, False], np.array([False, True, False, False]), [1.0]):
        with pytest.raises(TypeError):
            SetFamily.from_members(2, masks)
    fam = SetFamily.from_members(2, [1, 3])
    f = BooleanFunction.constant(2, -1)
    spec = transform(f)
    report = roots(fam)
    for mask in (True, False, np.bool_(True), 1.0, np.float64(1), "1"):
        for call in (lambda: mask in fam, lambda: f(mask), lambda: spec.coefficient(mask),
                     lambda: report.roots_of(mask)):
            with pytest.raises(TypeError):
                call()
    assert np.int64(1) in fam and f(np.int64(3)) == -1
    assert spec.coefficient(np.uint8(0)) == -1 and report.roots_of(np.int32(3)) == 0b01


def test_masks_outside_the_cube():
    # numpy reads -1 as the last point
    fam = SetFamily.from_members(2, [1, 3])
    f = BooleanFunction.constant(2, -1)
    spec = transform(f)
    for mask in (-1, 4, 1 << 200, np.int64(-1)):
        for call in (lambda: SetFamily.from_members(2, [mask]), lambda: f(mask),
                     lambda: spec.coefficient(mask)):
            with pytest.raises(ValueError, match=f"subset mask {mask} outside \\[0, 3\\]"):
                call()
        assert mask not in fam
        with pytest.raises(KeyError):
            roots(fam).roots_of(mask)


def test_boolean_function_validation():
    with pytest.raises(ValueError):
        BooleanFunction(2, [1, 1, 0, 1])
    # values are compared with +/-1 as given, before any cast
    for wrong in ([1.5, -1.2], np.array([255, 1], dtype=np.int16), np.array([257, -1])):
        with pytest.raises(ValueError):
            BooleanFunction(1, wrong)
    with pytest.raises(TypeError):
        BooleanFunction(1, [True, True])
    assert BooleanFunction(1, [1.0, -1.0]) == BooleanFunction(1, np.array([1, -1], dtype=np.int64))
    with pytest.raises(DimensionError):
        BooleanFunction(2, [1, 1, 1])
    f = BooleanFunction.constant(2, -1)
    assert f.minus_count() == 4
    with pytest.raises(ValueError):
        f.values[0] = 1  # table is read-only


def test_immutability():
    fam = SetFamily.empty(2)
    with pytest.raises(AttributeError):
        fam.bits = 3
    assert not fam.to_bool().flags.writeable
    with pytest.raises(ValueError):
        fam.to_bool()[0] = True  # table is read-only
    f = BooleanFunction.constant(1, 1)
    with pytest.raises(AttributeError, match="BooleanFunction is immutable"):
        f.n = 2
    fam = SetFamily.from_sets(3, [[1], [2, 3]])
    f = family_to_function(fam)
    for obj, table in ((fam, SetFamily.to_bool), (f, lambda g: g.values)):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and copy is not obj
        assert not table(copy).flags.writeable
