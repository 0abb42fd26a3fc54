"""Family predicates, roots, shadows, and the complement duality.

The lattice-sweep kernels are checked against definition-level oracles:
interval enumeration for roots and the pairwise union scan for
union-closedness.  The corrected duality (union-closed with the empty set
<=> complement simply-rooted) is verified exhaustively, including the
documented edge cases that break the uncorrected pairing.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ucx.core import SetFamily, iter_bits
from ucx.families import (
    PreconditionError,
    _roots_naive,
    is_simply_rooted,
    is_union_closed,
    lower_shadow,
    missing_lower_covers,
    roots,
    stats,
    theorem2_quantities,
    thin_boundary_check,
    upper_shadow,
)
from ucx.verify import (
    duality_check,
    positive_influence_cap_check,
    shadow_lemma_check,
    union_closure,
)


def oracle_root_set(family: SetFamily, member: int) -> int:
    """Roots by brute enumeration of every subset of the member."""
    out = 0
    elements = list(iter_bits(member))
    for i in elements:
        ok = True
        for r in range(len(elements) + 1):
            for combo in itertools.combinations(elements, r):
                sub = 0
                for e in combo:
                    sub |= 1 << e
                if (sub >> i) & 1 and sub not in family:
                    ok = False
        if ok:
            out |= 1 << i
    return out


def oracle_upper_shadow(family: SetFamily) -> SetFamily:
    masks = set()
    for m in family.members():
        for i in range(family.n):
            if not (m >> i) & 1:
                masks.add(m | (1 << i))
    return SetFamily.from_members(family.n, masks)


def oracle_lower_shadow(family: SetFamily) -> SetFamily:
    masks = set()
    for m in family.members():
        for i in iter_bits(m):
            masks.add(m ^ (1 << i))
    return SetFamily.from_members(family.n, masks)


def all_families(n):
    for bits in range(1 << (1 << n)):
        yield SetFamily.from_bits(n, bits)


HALF_CUBE_3 = SetFamily.from_members(3, [m for m in range(8) if not m & 1])  # sets avoiding 1
DICTATOR_FAMILY_3 = SetFamily.from_members(3, [m for m in range(8) if m & 1])  # sets containing 1


def test_is_union_closed_examples():
    assert is_union_closed(SetFamily.from_members(2, [0]))  # just the empty set
    assert not is_union_closed(SetFamily.from_sets(2, [[1], [2]]))
    assert is_union_closed(HALF_CUBE_3)
    assert is_union_closed(SetFamily.empty(3))
    assert is_union_closed(SetFamily.from_sets(2, [[1]]))


def oracle_union_closed(family: SetFamily) -> bool:
    """Pairwise union scan (definition)."""
    members = family.members()
    return all((a | b) in family for a in members for b in members)


def test_is_union_closed_matches_pairwise_scan():
    for n in (1, 2, 3, 4):
        for fam in all_families(n):
            assert is_union_closed(fam) == oracle_union_closed(fam)
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = 7  # random families, and closures with one member dropped
        fam = SetFamily.from_bits(n, int.from_bytes(rng.bytes(16), "little"))
        assert is_union_closed(fam) == oracle_union_closed(fam)
        closed = union_closure(SetFamily.from_members(n, rng.integers(0, 128, size=5).tolist()))
        assert is_union_closed(closed) and oracle_union_closed(closed)
        dropped = closed.members()[int(rng.integers(0, closed.size))]
        gapped = SetFamily.from_bits(n, closed.bits ^ (1 << dropped))
        assert is_union_closed(gapped) == oracle_union_closed(gapped)


def test_is_simply_rooted_examples():
    assert is_simply_rooted(SetFamily.empty(2))
    assert not is_simply_rooted(SetFamily.from_bits(2, 1))  # the family {emptyset}
    assert is_simply_rooted(DICTATOR_FAMILY_3)


def test_roots_examples():
    rep = roots(DICTATOR_FAMILY_3)
    assert all(r == 1 for r in rep.root_sets)  # every member rooted exactly at 1
    assert rep.unique_root_count == 4

    fam = SetFamily.from_sets(2, [[1], [2], [1, 2]])
    rep = roots(fam)
    assert rep.roots_of(0b11) == 0b11
    assert rep.unique_root_count == 2
    assert rep.uniquely_rooted.tolist() == [1, 2]
    for member in (0, 4, -1):
        with pytest.raises(KeyError):
            rep.roots_of(member)
    for field in (rep.members, rep.root_sets):
        assert field.dtype == np.uint32 and not field.flags.writeable

    assert roots(SetFamily.empty(3)).unique_root_count == 0


def test_roots_routes_agree_with_oracle():
    for n in (1, 2, 3):
        for fam in all_families(n):
            expected = tuple(oracle_root_set(fam, m) for m in fam.members())
            assert _roots_naive(fam) == expected
            assert roots(fam).root_sets.tolist() == list(expected)
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = 4 + int(rng.integers(0, 5))
        bits = int.from_bytes(rng.bytes((1 << n) // 8), "little")
        fam = SetFamily.from_bits(n, bits)
        assert roots(fam).root_sets.tolist() == list(_roots_naive(fam))


def test_duality_check_examples():
    assert duality_check(HALF_CUBE_3)
    assert duality_check(SetFamily.from_sets(2, [[1], [2]]))
    assert duality_check(SetFamily.full(3))
    assert duality_check(SetFamily.empty(3))


def test_duality_exhaustive():
    for n in (1, 2, 3):
        for fam in all_families(n):
            assert duality_check(fam)


def test_duality_requires_empty_set_on_the_union_closed_side():
    # {{1}} is union-closed without the empty set: its complement contains the
    # empty set and is therefore not simply-rooted.  The corrected pairing
    # (union-closed AND empty-set member) is what matches simple-rootedness.
    fam = SetFamily.from_sets(2, [[1]])
    assert is_union_closed(fam)
    assert not is_simply_rooted(fam.complement())
    assert duality_check(fam)


def test_shadows():
    assert upper_shadow(SetFamily.from_bits(2, 1)).members() == (1, 2)
    assert lower_shadow(SetFamily.from_sets(2, [[1, 2]])).members() == (1, 2)
    grown = upper_shadow(HALF_CUBE_3)
    outside = [m for m in grown.members() if m not in HALF_CUBE_3]
    assert sorted(outside) == [1, 3, 5, 7]  # exactly the sets containing 1
    assert upper_shadow(SetFamily.from_sets(2, [[1, 2]])).size == 0
    assert lower_shadow(SetFamily.from_bits(2, 1)).size == 0


def test_shadows_match_oracle():
    for n in (1, 2, 3):
        for fam in all_families(n):
            assert upper_shadow(fam) == oracle_upper_shadow(fam)
            assert lower_shadow(fam) == oracle_lower_shadow(fam)


def test_shadow_lemma_examples():
    fam = DICTATOR_FAMILY_3
    member = 0b011  # {1,2}, uniquely rooted at 1
    assert missing_lower_covers(fam, member) == 0b001
    assert shadow_lemma_check(fam)
    two_rooted = SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert missing_lower_covers(two_rooted, 0b11) == 0
    assert shadow_lemma_check(two_rooted)
    assert shadow_lemma_check(SetFamily.empty(2))
    with pytest.raises(PreconditionError):
        shadow_lemma_check(SetFamily.from_bits(2, 1))


def test_missing_lower_covers_rejects_masks_outside_the_cube():
    assert missing_lower_covers(DICTATOR_FAMILY_3, 0b111) == 0b001  # {1,2,3} - 1 is missing
    for mask in (-1, 8, 1 << 200):  # -1 would index mask 7 from the end
        with pytest.raises(ValueError, match=f"subset mask {mask} outside \\[0, 7\\]"):
            missing_lower_covers(DICTATOR_FAMILY_3, mask)


def test_shadow_lemma_exhaustive():
    for n in (1, 2, 3):
        for fam in all_families(n):
            if is_simply_rooted(fam):
                assert shadow_lemma_check(fam)


def test_theorem2_quantities_examples():
    assert theorem2_quantities(HALF_CUBE_3) == (4, 4)
    assert theorem2_quantities(SetFamily.full(3)) == (0, 0)
    assert theorem2_quantities(SetFamily.from_bits(2, 1)) == (2, 2)
    with pytest.raises(PreconditionError):
        theorem2_quantities(SetFamily.from_sets(2, [[1], [2]]))


def test_theorem2_exhaustive():
    # equality on the empty-set-containing domain; the bound unconditionally
    for n in (1, 2, 3):
        half = 1 << (n - 1)
        for fam in all_families(n):
            if not is_union_closed(fam):
                continue
            deficiency, unique_count = theorem2_quantities(fam)
            assert deficiency <= half
            assert unique_count <= half
            if 0 in fam:
                assert deficiency == unique_count
            else:
                # without the empty set, every singleton outside the family is
                # uniquely rooted in the complement but not reachable by one add
                missing_singletons = sum(1 for i in range(n) if (1 << i) not in fam)
                assert unique_count - deficiency == missing_singletons


def test_theorem2_empty_set_discrepancy_is_pinned():
    deficiency, unique_count = theorem2_quantities(SetFamily.from_sets(2, [[1]]))
    assert (deficiency, unique_count) == (1, 2)


def test_positive_influence_cap():
    assert positive_influence_cap_check(DICTATOR_FAMILY_3)
    assert positive_influence_cap_check(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert positive_influence_cap_check(SetFamily.from_sets(2, [[1]]))
    with pytest.raises(PreconditionError):
        positive_influence_cap_check(SetFamily.from_bits(2, 1))


def test_positive_influence_cap_exhaustive():
    for n in (1, 2, 3):
        for fam in all_families(n):
            if is_simply_rooted(fam):
                assert positive_influence_cap_check(fam)


def test_thin_boundary():
    assert thin_boundary_check(SetFamily.empty(2))
    assert not thin_boundary_check(SetFamily.from_sets(2, [[1, 2]]))
    for n in (1, 2, 3):
        for fam in all_families(n):
            if is_simply_rooted(fam):
                assert thin_boundary_check(fam)


def test_stats():
    st = stats(DICTATOR_FAMILY_3)
    assert st.size == 4
    assert st.frequencies == (4, 2, 2)
    assert st.abundant == (1, 2, 3)
    assert st.rare == (2, 3)
    assert st.delta == 0

    st = stats(SetFamily.from_bits(2, 1))  # the family {emptyset}
    assert st.abundant == ()
    assert st.rare == (1, 2)

    st = stats(SetFamily.full(2))
    assert st.abundant == (1, 2) and st.rare == (1, 2)
    assert st.delta == Fraction(2 - 4, 4)
