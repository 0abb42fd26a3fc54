"""Every public integer argument passes one gate, ``core.check_int``: a bool,
a float or any other non-integer raises ``TypeError``, a numpy integer gives
the same result as the Python ``int`` of the same value, and an integer out
of range raises ``ValueError``."""

import numpy as np
import pytest

from ucx.core import (
    BooleanFunction,
    CharacterSpec,
    DimensionError,
    SetFamily,
    check_int,
    check_mask,
    family_to_function,
    iter_bits,
    mask_from_elements,
)
from ucx.extremal import (
    KSClassMember,
    dictator,
    example_f3,
    half_cube_missing,
    ks_enumerate,
    or_family,
    or_family_stats,
    parity,
)
from ucx.families import missing_lower_covers
from ucx.influence import corollary_lower_bound, profile
from ucx.spectral import first_level_identity, level_weight, transform
from ucx.verify import (
    SweepPlan,
    conjecture2_margin_rows,
    enumerate_families,
    largest_threshold_k,
    random_union_closed,
    run_sweep,
    scan,
)

FAMILY = SetFamily.from_sets(3, [[1], [1, 2], [1, 2, 3]])
FUNCTION = family_to_function(FAMILY)
SPECTRUM = transform(FUNCTION)
PROFILE = profile(FUNCTION)

# entry point -> (a call on one integer argument, a value it accepts, a value
# out of its range)
ENTRY_POINTS = {
    "check_int": (lambda v: check_int(v, "x", 0, 5), 3, 6),
    "check_int without high": (lambda v: check_int(v, "x", 1), 3, 0),
    "check_mask": (lambda v: check_mask(v, 3), 5, 8),
    "iter_bits": (lambda v: next(iter_bits(v)), 5, -1),
    "mask_from_elements": (lambda v: mask_from_elements([v], 3), 2, 4),
    "SetFamily.from_members": (lambda v: SetFamily.from_members(3, [v]), 5, -1),
    "SetFamily.from_sets": (lambda v: SetFamily.from_sets(3, [[v, 1]]), 2, 0),
    "SetFamily.from_bits": (lambda v: SetFamily.from_bits(2, v), 0b1010, -1),
    "BooleanFunction.__call__": (FUNCTION, 5, 8),
    "BooleanFunction.constant": (lambda v: BooleanFunction.constant(2, v), -1, 2),
    "CharacterSpec support": (lambda v: CharacterSpec(v).values(3).tolist(), 5, -1),
    "CharacterSpec sign": (lambda v: CharacterSpec(3, v).values(3).tolist(), -1, 0),
    "CharacterSpec.eval": (lambda v: CharacterSpec(5).eval(v), 3, -1),
    "Spectrum.coefficient": (SPECTRUM.coefficient, 3, 8),
    "InfluenceProfile.influence": (PROFILE.influence, 2, 4),
    "InfluenceProfile.positive_influence": (PROFILE.positive_influence, 1, 0),
    "corollary_lower_bound": (lambda v: corollary_lower_bound(SPECTRUM, v), 2, 0),
    "level_weight": (lambda v: level_weight(SPECTRUM, v), 2, 4),
    "first_level_identity": (lambda v: first_level_identity(FAMILY, v), 2, 4),
    "missing_lower_covers": (lambda v: missing_lower_covers(FAMILY, v), 3, 8),
    "or_family": (lambda v: or_family(v, 3), 2, 4),
    "or_family_stats": (lambda v: or_family_stats(v, 3), 2, 0),
    "half_cube_missing": (lambda v: half_cube_missing(v, 3), 2, 4),
    "dictator": (lambda v: dictator(v, 3), 2, 4),
    "parity": (lambda v: parity((1, v), 3), 3, 4),
    "KSClassMember sign": (lambda v: KSClassMember(v, (1, 2)), -1, 2),
    "KSClassMember index": (lambda v: KSClassMember(1, (1, v)).values(3).tolist(), 3, 0),
    "largest_threshold_k": (lambda v: largest_threshold_k(3, v), 6, 9),
    "random_union_closed generator_count": (lambda v: random_union_closed(3, v, 1), 4, -1),
    "random_union_closed seed": (lambda v: random_union_closed(3, 4, v), 7, -1),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_integer_argument_passes_the_gate(name):
    call, accepted, refused = ENTRY_POINTS[name]
    for wrong in (True, False, np.True_, 1.0, np.float64(accepted), "1"):
        with pytest.raises(TypeError, match="must be an int, got"):
            call(wrong)
    assert call(np.int64(accepted)) == call(accepted)
    with pytest.raises(ValueError):
        call(refused)


def test_check_int_messages_and_result():
    assert type(check_int(np.uint64(7), "seed", 0)) is int
    with pytest.raises(TypeError, match=r"^seed must be an int, got bool$"):
        check_int(True, "seed", 0)
    with pytest.raises(TypeError, match=r"^seed must be an int, got float64$"):
        check_int(np.float64(1), "seed", 0)
    with pytest.raises(ValueError, match=r"^level 4 outside \[0, 3\]$"):
        check_int(np.int8(4), "level", 0, 3)
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        check_int(0, "samples", 1)
    assert check_int(1 << 200, "bitset", 0) == 1 << 200


def test_signs_and_indices_are_stored_as_ints():
    member = KSClassMember(np.int64(-1), (np.int32(1), np.uint8(2)))
    assert member == KSClassMember(-1, (1, 2))
    assert type(member.sign) is int and all(type(i) is int for i in member.indices)
    spec = CharacterSpec(np.int64(5), np.int8(-1))
    assert type(spec.support) is int and type(spec.sign) is int
    assert spec.eval(1) == CharacterSpec(5, -1).eval(1) == 1


def test_constructions_store_ints():
    built = (or_family(np.int64(2), np.int64(3)), half_cube_missing(np.int32(2), np.uint8(3)),
             dictator(np.int64(2), np.int16(3)), parity((np.int64(2), np.int8(1)), np.int64(3)),
             example_f3(np.int64(3)))
    for c in built:
        params = c.param if isinstance(c.param, tuple) else () if c.param is None else (c.param,)
        assert type(c.n) is int and all(type(p) is int for p in params), c.kind
    assert built[3].param == (1, 2) and built[3] == parity((2, 1), 3) == parity((1, 2), 3)


PLAN_COUNTS = {"samples": (50, 0), "seed": (7, 1 << 64), "witness_cap": (3, -1),
               "worker_count": (2, 0)}


@pytest.mark.parametrize("field", PLAN_COUNTS)
def test_sweep_plan_counts_pass_the_gate(field):
    accepted, refused = PLAN_COUNTS[field]

    def plan(value):
        return SweepPlan("parseval", 3, "random", **{"samples": 2, field: value})

    for wrong in (True, np.True_, 1.0):
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            run_sweep(plan(wrong))
    plan(np.int64(accepted)).validate()
    with pytest.raises(ValueError, match=field):
        run_sweep(plan(refused))


def test_sweep_plan_of_numpy_integers_gives_the_same_report():
    as_ints = SweepPlan("conjecture2", 4, "random", samples=50, seed=7, witness_cap=3,
                        worker_count=2)
    as_numpy = SweepPlan("conjecture2", 4, "random", samples=np.int64(50), seed=np.uint64(7),
                         witness_cap=np.int32(3), worker_count=np.int64(2))
    assert run_sweep(as_numpy).canonical_json() == run_sweep(as_ints).canonical_json()


DIMENSION_CALLS = {
    "enumerate_families": lambda n: next(enumerate_families(n)),
    "ks_enumerate": lambda n: next(ks_enumerate(n)),
    "or_family_stats": lambda n: or_family_stats(1, n),
    "conjecture2_margin_rows": lambda n: conjecture2_margin_rows(200, 0, n),
    "example_f3": example_f3,
}


@pytest.mark.parametrize("name", DIMENSION_CALLS)
def test_enumerations_gate_their_dimension(name):
    # n is a dimension: a bool, a float, 0 and n above the cap are refused as such
    for n in (True, 2.0, 0, 40):
        with pytest.raises(DimensionError):
            DIMENSION_CALLS[name](n)


def test_dimensions_accept_numpy_integers():
    """The plan stores each gated field as an ``int``: ``1 << (1 << np.int16(4))``
    and ``1 << (2 * np.int32(16))`` wrap to 0 in numpy, which would make the
    exhaustive sweep vacuous and fail every parseval instance."""
    family = SetFamily.empty(np.int64(3))
    assert type(family.n) is int and family == SetFamily.empty(3)
    plan = SweepPlan("parseval", np.int64(3), "random", samples=np.int8(2), seed=np.uint64(7))
    plan.validate()
    assert all(type(v) is int for v in (plan.n, plan.samples, plan.seed, plan.worker_count))
    as_numpy = SweepPlan("influence-identity", np.int32(4), "random", samples=20, seed=1)
    as_int = SweepPlan("influence-identity", 4, "random", samples=20, seed=1)
    assert run_sweep(as_numpy).canonical_json() == run_sweep(as_int).canonical_json()
    as_numpy = run_sweep(SweepPlan("duality", np.int16(4), "exhaustive"))
    assert as_numpy.enumerated == 65536
    assert as_numpy.canonical_json() == run_sweep(SweepPlan("duality", 4, "exhaustive")).canonical_json()
    assert run_sweep(SweepPlan("parseval", np.int32(16), "random", samples=1)).passed
    rows = list(scan("shadow-lemma", np.int16(8), np.int8(3), np.uint8(1)))
    assert [r[2] for r in rows] == [r[2] for r in scan("shadow-lemma", 8, 3, 1)]


# entry point -> a call on a dimension; at n = 8, ``1 << np.int8(8)`` wraps to
# 0 in numpy, so each one must shift by the ``int`` its gate returns
NARROW_DIMENSION_CALLS = {
    "SetFamily.full": lambda n: SetFamily.full(n),
    "SetFamily.from_bits": lambda n: SetFamily.from_bits(n, (1 << 256) - 1),
    "SetFamily.from_members": lambda n: SetFamily.from_members(n, [0, 255]),
    "BooleanFunction.constant": lambda n: BooleanFunction.constant(n, -1),
    "CharacterSpec.values": lambda n: CharacterSpec(129, -1).values(n).tolist(),
    "or_family": lambda n: or_family(3, n).family,
    "or_family_stats": lambda n: or_family_stats(3, n),
    "half_cube_missing": lambda n: half_cube_missing(8, n).family,
    "parity": lambda n: parity((1, 8), n).function,
    "random_union_closed": lambda n: random_union_closed(n, 5, 1),
    "largest_threshold_k": lambda n: largest_threshold_k(n, 200),
    "conjecture2_margin_rows": lambda n: tuple(map(int, conjecture2_margin_rows(200, 0, n))),
    "example_f3": lambda n: 1 << example_f3(n).n,
}


@pytest.mark.parametrize("name", sorted(NARROW_DIMENSION_CALLS))
def test_narrow_numpy_dimensions_shift_as_ints(name):
    call = NARROW_DIMENSION_CALLS[name]
    assert call(np.int8(8)) == call(8)

