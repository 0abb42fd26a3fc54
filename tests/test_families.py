"""Family predicates, roots, shadows, and the complement duality.

The lattice-sweep kernels are checked against the definition-level oracles
of ``oracles.py``: ``_root_set_naive``'s interval scan for roots, the
pairwise union scan for union-closedness, and the element-by-element
shadows.  The corrected duality (union-closed with the empty set <=>
complement simply-rooted) is verified exhaustively, including the
documented edge cases that break the uncorrected pairing.
"""

from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    all_families,
    every_table,
    oracle_lower_shadow,
    oracle_missing_lower,
    oracle_roots,
    oracle_union_closed,
    oracle_upper_shadow,
)

from ucx.core import SetFamily
from ucx.families import (
    PreconditionError,
    closure_rows,
    is_simply_rooted,
    is_union_closed,
    lower_shadow,
    missing_lower_rows,
    root_masks,
    rooted_rows,
    roots,
    stats,
    theorem2_quantities,
    thin_boundary_check,
    union_closed_rows,
    upper_shadow,
)
from ucx.verify import (
    duality_check,
    positive_influence_cap_check,
    shadow_lemma_check,
    union_closure,
)


HALF_CUBE_3 = SetFamily.from_members(3, [m for m in range(8) if not m & 1])  # sets avoiding 1
DICTATOR_FAMILY_3 = SetFamily.from_members(3, [m for m in range(8) if m & 1])  # sets containing 1


def test_is_union_closed_examples():
    assert is_union_closed(SetFamily.from_members(2, [0]))  # just the empty set
    assert not is_union_closed(SetFamily.from_sets(2, [[1], [2]]))
    assert is_union_closed(HALF_CUBE_3)
    assert is_union_closed(SetFamily.empty(3))
    assert is_union_closed(SetFamily.from_sets(2, [[1]]))


def test_is_union_closed_matches_pairwise_scan():
    for n in (1, 2, 3, 4):
        for fam in all_families(n):
            assert is_union_closed(fam) == oracle_union_closed(fam.to_bool(), n)
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = 7  # random families, and closures with one member dropped
        fam = SetFamily.from_bits(n, int.from_bytes(rng.bytes(16), "little"))
        assert is_union_closed(fam) == oracle_union_closed(fam.to_bool(), n)
        closed = union_closure(SetFamily.from_members(n, rng.integers(0, 128, size=5).tolist()))
        assert is_union_closed(closed) and oracle_union_closed(closed.to_bool(), n)
        dropped = closed.members()[int(rng.integers(0, closed.size))]
        gapped = SetFamily.from_bits(n, closed.bits ^ (1 << dropped))
        assert is_union_closed(gapped) == oracle_union_closed(gapped.to_bool(), n)


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
            table = fam.to_bool()
            assert roots(fam).root_sets.tolist() == oracle_roots(table, n)[table].tolist()
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = 4 + int(rng.integers(0, 5))
        bits = int.from_bytes(rng.bytes((1 << n) // 8), "little")
        fam = SetFamily.from_bits(n, bits)
        table = fam.to_bool()
        assert roots(fam).root_sets.tolist() == oracle_roots(table, n)[table].tolist()


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


def test_theorem2_domain_is_read_off_the_complement():
    """The complement of t less the (rootless) empty set is simply-rooted
    exactly when t is union-closed, with the root masks of the whole
    complement.  Every table at n <= 4 as one batch, and seeded random
    tables, closures, closures with the empty set and those with one member
    dropped at n = 5..12."""
    batches = [(n, every_table(n)) for n in (1, 2, 3, 4)]
    rng = np.random.default_rng(17)
    for n in range(5, 13):
        closed = closure_rows(rng.random((4, 1 << n)) < 5 / (1 << n), n)
        with_empty = closed | (np.arange(1 << n) == 0)
        gapped = with_empty.copy()
        for row in gapped:
            members = np.flatnonzero(row)
            row[members[len(members) // 2]] = False
        random = rng.random((3, 1 << n)) < np.array([[0.05], [0.5], [0.95]])
        batches.append((n, np.concatenate([random, closed, with_empty, gapped])))
    for n, t in batches:
        rest = ~t
        rest[:, 0] = False
        found, simply_rooted = rooted_rows(rest, n)
        assert np.array_equal(simply_rooted, union_closed_rows(t, n)), n
        assert np.array_equal(found, root_masks(~t, n)), n


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
            table = fam.to_bool()
            assert np.array_equal(upper_shadow(fam).to_bool(), oracle_upper_shadow(table, n))
            assert np.array_equal(lower_shadow(fam).to_bool(), oracle_lower_shadow(table, n))
    # seeded batches of sparse to dense rows
    rng = np.random.default_rng(16)
    density = np.array([[0.02], [0.1], [0.3], [0.5], [0.7], [0.95]])
    for n in range(4, 13):
        tables = rng.random((len(density), 1 << n)) < density
        assert np.array_equal(missing_lower_rows(tables, n), oracle_missing_lower(tables, n)), n
        for table in tables:
            fam = SetFamily.from_bool(n, table)
            assert np.array_equal(upper_shadow(fam).to_bool(), oracle_upper_shadow(table, n)), n
            assert np.array_equal(lower_shadow(fam).to_bool(), oracle_lower_shadow(table, n)), n


def test_shadow_lemma_examples():
    fam = DICTATOR_FAMILY_3
    member = 0b011  # {1,2}, uniquely rooted at 1
    assert missing_lower_rows(fam.to_bool(), 3)[member] == 0b001
    assert missing_lower_rows(fam.to_bool(), 3)[0b111] == 0b001  # {1,2,3} - 1 is missing
    assert shadow_lemma_check(fam)
    two_rooted = SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert missing_lower_rows(two_rooted.to_bool(), 2)[0b11] == 0
    assert shadow_lemma_check(two_rooted)
    assert shadow_lemma_check(SetFamily.empty(2))
    with pytest.raises(PreconditionError):
        shadow_lemma_check(SetFamily.from_bits(2, 1))


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
