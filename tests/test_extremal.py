"""Named constructions, the quadratic rigid class, and nearest-dictator search."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    all_functions,
    ks_distance_by_definition,
    nearest_dictator_by_definition,
    oracle_nearest_signed,
)

from ucx.core import (
    BooleanFunction,
    CharacterSpec,
    DimensionError,
    SetFamily,
    family_to_function,
)
from ucx.extremal import (
    KSClassMember,
    build,
    dictator,
    dictator_from_first_level,
    example_f3,
    half_cube_missing,
    ks_correlation_rows,
    ks_distance,
    ks_enumerate,
    nearest_dictator,
    nearest_signed_rows,
    or_family,
    or_family_stats,
    parity,
)
from ucx.families import is_simply_rooted, is_union_closed
from ucx.influence import profile
from ucx.spectral import transform
from ucx.verify import SweepPlan, run_sweep


def test_or_family_examples():
    c1 = or_family(1, 3)
    assert c1.family.members() == tuple(m for m in range(8) if m & 1)
    assert c1.function == dictator(1, 3).function

    f3 = or_family(2, 2)
    assert f3.family == SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert example_f3(2).family == f3.family

    # the half cube is the family of sets avoiding i, for every i
    for n in range(1, 7):
        for i in range(1, n + 1):
            table = half_cube_missing(i, n).family.to_bool()
            assert table.tolist() == [not x >> (i - 1) & 1 for x in range(1 << n)]


def test_constructions_hold_one_table():
    # the function of a construction is its family's membership function,
    # over the same table
    for built in (or_family(2, 4), half_cube_missing(3, 4), dictator(2, 4),
                  parity((1, 4), 4), example_f3(4)):
        assert built.function == family_to_function(built.family)
        assert np.shares_memory(built.function.to_bool(), built.family.to_bool())


def test_parity_refuses_repeated_coordinates():
    # x_1 XOR x_1 is the constant 0, not the parity of coordinate 1
    for elements in ((1, 1), (2, 1, 2)):
        with pytest.raises(ValueError, match="must be distinct"):
            parity(elements, 3)
        with pytest.raises(ValueError, match="must be distinct"):
            build("parity", 3, elements=list(elements))
    assert parity((2, 1), 3) == parity((1, 2), 3)

def test_build_dispatch():
    assert build("or_family", 3, m=2).family == or_family(2, 3).family
    assert build("half_cube_missing", 3, i=2).family == half_cube_missing(2, 3).family
    assert build("dictator", 2, i=1).function.values.tolist() == [1, -1, 1, -1]
    assert build("parity", 2, elements=(1, 2)).function.values.tolist() == [1, -1, -1, 1]
    assert build("example_f3", 2).function.values.tolist() == [1, -1, -1, -1]
    with pytest.raises(ValueError):
        build("nonesuch", 2)
    # the builder's own TypeError names a missing or misspelled parameter
    with pytest.raises(TypeError, match="'m'"):
        build("or_family", 3)
    with pytest.raises(TypeError, match="'elemnts'"):
        build("parity", 3, elemnts=(1, 2))
    with pytest.raises(ValueError):
        or_family(4, 3)
    with pytest.raises(ValueError):
        half_cube_missing(0, 3)


def test_or_family_is_union_closed_and_simply_rooted():
    for n in range(1, 11):
        for m in range(1, n + 1):
            fam = or_family(m, n).family
            assert is_union_closed(fam)
            assert is_simply_rooted(fam)


def test_or_family_stats_match_brute_force():
    for n in range(1, 11):
        for m in range(1, n + 1):
            mean, positive, total = or_family_stats(m, n)
            f = or_family(m, n).function
            prof = profile(f)
            assert transform(f).coefficient(0) == mean
            assert prof.positive_influence() == positive
            assert prof.influence() == total


def test_or_family_stats_values():
    assert or_family_stats(1, 3) == (0, 1, 1)
    assert or_family_stats(2, 3) == (Fraction(-1, 2), 1, 1)
    assert or_family_stats(3, 3) == (Fraction(-3, 4), Fraction(3, 4), Fraction(3, 4))


def test_ks_members_are_plus_minus_one_valued():
    # every member's row against its definition, sign (chi_a + chi_b + chi_c -
    # chi_d) / 2 evaluated point by point
    for n in range(2, 7):
        for member in ks_enumerate(n):
            chars = [CharacterSpec(mask) for mask in member.masks()]
            expected = [member.sign * (chars[0].eval(x) + chars[1].eval(x) + chars[2].eval(x)
                                       - chars[3].eval(x)) // 2 for x in range(1 << n)]
            values = member.values(n)
            assert values.dtype == np.int8 and not values.flags.writeable
            assert values.tolist() == expected
            assert member.function(n).to_bool().tolist() == [v == -1 for v in expected]


def test_ks_quadruple_identity_at_origin():
    member = KSClassMember(1, (1, 2, 3, 4))
    assert int(member.values(4)[0]) == 1  # (1 + 1 + 1 - 1) / 2


def test_ks_enumerate_counts():
    assert sum(1 for _ in ks_enumerate(3)) == 2 * 3
    assert sum(1 for _ in ks_enumerate(4)) == 2 * 6 + 2 * 12 == 36
    # every member is a distinct function, and they are all the full level-2 functions
    for n in (4, 5):
        tables = [member.values(n).tobytes() for member in ks_enumerate(n)]
        assert len(tables) == len(set(tables))
    assert len(tables) == 2 * 10 + 2 * 60
    assert run_sweep(SweepPlan("ks-zero", 4, "exhaustive")).summary["num_qualifying"] == 36
    with pytest.raises(ValueError):
        ks_enumerate(1)


def test_ks_distance_examples():
    f2 = BooleanFunction(4, CharacterSpec(0b0011).values(4))
    member, d = ks_distance(f2)
    assert d == 0 and member.sign == 1 and member.indices == (1, 2)

    neg = BooleanFunction(4, CharacterSpec(0b0011, -1).values(4))
    member, d = ks_distance(neg)
    assert d == 0 and member.sign == -1 and member.indices == (1, 2)

    quad = KSClassMember(1, (1, 2, 3, 4)).function(4)
    member, d = ks_distance(quad)
    assert d == 0


def test_ks_distance_correlation_matches_direct():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = 4 + int(rng.integers(0, 2))
        f = BooleanFunction(n, (rng.integers(0, 2, size=1 << n, dtype=np.int8) << 1) - 1)
        spec = transform(f)
        for member in list(ks_enumerate(n))[:40]:
            direct = Fraction(
                int(np.dot(f.values.astype(np.int64), member.values(n).astype(np.int64))),
                1 << n,
            )
            assert member.correlation(spec) == direct


def test_dictator_from_first_level_reads_n_off_its_coefficients():
    # all-zero coefficients on 16 coordinates: the first dictator, + sign, at 1/2
    assert dictator_from_first_level([0] * 16) == (1, 1, Fraction(1, 2))
    assert dictator_from_first_level(np.array([4, 0], dtype=np.int16)) == (1, 1, 0)
    assert dictator_from_first_level(np.array([0, -2, 2])) == (2, -1, Fraction(3, 8))
    for coefficients in ([], [4, 0] * 20):
        with pytest.raises(DimensionError):
            dictator_from_first_level(coefficients)


def test_nearest_dictator():
    chi1 = BooleanFunction(3, CharacterSpec(1).values(3))
    assert nearest_dictator(chi1) == (1, 1, 0)

    f3 = family_to_function(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert nearest_dictator(f3) == (1, 1, Fraction(1, 4))

    const = BooleanFunction.constant(2, 1)
    assert nearest_dictator(const) == (1, 1, Fraction(1, 2))

    anti = BooleanFunction(2, CharacterSpec(2, -1).values(2))
    assert nearest_dictator(anti) == (2, -1, 0)

    for n in (1, 2, 3):
        for f in all_functions(n):
            assert nearest_dictator(f) == nearest_dictator_by_definition(f)
    rng = np.random.default_rng(61)
    for n in range(4, 9):
        for _ in range(10):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            assert nearest_dictator(f) == nearest_dictator_by_definition(f)
    # ties: a constant is at distance 1/2 from every signed dictator, and so
    # is a balanced function uncorrelated with every coordinate
    for n in (1, 4, 8):
        for sign in (1, -1):
            const = BooleanFunction.constant(n, sign)
            assert nearest_dictator(const) == (1, 1, Fraction(1, 2))
            assert nearest_dictator(const) == nearest_dictator_by_definition(const)
    balanced = BooleanFunction(3, CharacterSpec(0b111).values(3))
    assert balanced.is_balanced()
    assert nearest_dictator(balanced) == (1, 1, Fraction(1, 2))
    assert nearest_dictator(balanced) == nearest_dictator_by_definition(balanced)


def test_ks_distance_by_definition():
    for n in (2, 3):
        for f in all_functions(n):
            assert ks_distance(f) == ks_distance_by_definition(f)
    rng = np.random.default_rng(67)
    for n in (4, 5, 6):
        for _ in range(6):
            f = BooleanFunction(n, 1 - 2 * rng.integers(0, 2, size=1 << n))
            assert ks_distance(f) == ks_distance_by_definition(f)
    members = list(ks_enumerate(4))
    assert len(members) == 36
    for member in members:  # every member is its own nearest member
        assert ks_distance(member.function(4)) == (member, 0)
    with pytest.raises(ValueError):
        ks_distance(BooleanFunction.constant(1))


def test_ks_member_masks():
    assert KSClassMember(1, (2, 3)).masks() == (0b110, 0b110, 0, 0)
    assert KSClassMember(-1, (1, 2, 3, 4)).masks() == (0b0011, 0b0110, 0b1100, 0b1001)
    spec = transform(BooleanFunction(4, 1 - 2 * np.random.default_rng(3).integers(0, 2, size=16)))
    corr = ks_correlation_rows(spec.s[None], 4)[0]
    plus = [member for member in ks_enumerate(4) if member.sign == 1]
    assert [member.correlation(spec) for member in plus] == [Fraction(int(c), 32) for c in corr]
    for member in (KSClassMember(1, (1, 5)), KSClassMember(-1, (2, 5, 1, 3))):
        with pytest.raises(ValueError):  # an index above the dimension
            member.values(4)
        with pytest.raises(ValueError):
            member.correlation(spec)


def test_nearest_signed_rows_is_first_of_interleaved():
    rng = np.random.default_rng(71)
    corr = rng.integers(-3, 4, size=(300, 5))
    member, sign, best = nearest_signed_rows(corr)
    for r in range(len(corr)):
        assert (member[r], sign[r], best[r]) == oracle_nearest_signed(corr[r])
    assert [tuple(map(int, v)) for v in nearest_signed_rows(np.array([[0, 0], [-3, 3]]))] == [
        (0, 0), (1, -1), (0, 3)]
    # a chunk in which no row qualifies
    for found in nearest_signed_rows(np.zeros((0, 4), dtype=np.int64)):
        assert found.shape == (0,)
    assert ks_correlation_rows(np.zeros((0, 16), dtype=np.int64), 4).shape == (0, 18)
