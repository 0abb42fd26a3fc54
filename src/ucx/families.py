"""Set-family predicates and transforms: union-closure, rootedness, shadows.

A family is *union-closed* when the union of any two members is a member.
An element i of a member A is a *root* of A when every subset of A that
contains i is also a member; a family is *simply-rooted* when every member
has a root.  The empty set can never have a root, so a family containing it
is not simply-rooted, while the empty family is vacuously simply-rooted.

Complementation inside 2^[n] exchanges the two notions, with one subtlety
the bare definitions hide: a family F is simply-rooted if and only if its
complement G is union-closed AND contains the empty set.  (For union-closed
G without the empty set, the empty set lands in F rootless; every nonempty
member of F still has a root.)  ``verify.duality_check`` is the one check of
this corrected equivalence, and Theorem 2's domain is read through it.

Every operation is a batched kernel over boolean membership tables of shape
(..., 2^n), one family per row, and the functions taking a ``SetFamily`` are
one-row calls into them.  Most rest on one O(n 2^n) subset-union (zeta)
sweep, ``cover_table``: cover[X] is the union of the members contained in X.
A nonempty X is a union of members exactly when cover[X] = X, which gives
the union closure and the union-closed test; the roots of a member A are the
elements of A missing from the cover of the complement at A.  The shadows
and Theorem 2's upper-shadow deficiency read ``missing_lower_rows`` of the
complement, which is nonzero exactly at the sets covering a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SetFamily, check_mask, coordinate_pairs, iter_bits


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


@dataclass(frozen=True, eq=False)
class RootReport:
    """Roots of every member: members and root sets are parallel read-only
    uint32 mask arrays, in ascending member order."""

    n: int
    members: np.ndarray
    root_sets: np.ndarray

    @property
    def uniquely_rooted(self) -> np.ndarray:
        return self.members[uniquely_rooted(self.root_sets)]

    @property
    def unique_root_count(self) -> int:
        return int(unique_root_counts(self.root_sets))

    def roots_of(self, member: int) -> int:
        try:
            at = int(np.searchsorted(self.members, check_mask(member, self.n)))
        except ValueError:  # an integer outside the cube is no member
            at = self.members.size
        if at == self.members.size or self.members[at] != member:
            raise KeyError(f"mask {member} is not a member")
        return int(self.root_sets[at])


@dataclass(frozen=True)
class FamilyStats:
    """Size, per-element frequencies, abundance/rarity, and the size gap delta.

    Abundant and rare are both non-strict, so an element in exactly half the
    members is reported as both.  delta = (2^{n-1} - |F|) / 2^n is signed.
    """

    n: int
    size: int
    frequencies: tuple[int, ...]
    abundant: tuple[int, ...]
    rare: tuple[int, ...]
    delta: Fraction


# ---------------------------------------------------------------------------
# batched kernels over membership tables (..., 2^n)


def _masks(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.uint32)


def cover_table(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row and mask X: the union of the row's members contained in X."""
    cover = np.where(tables, _masks(n), np.uint32(0))
    for i in range(n):
        low, high = coordinate_pairs(cover, i)
        high |= low
    return cover


def closure_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row: the union closure, the unions of all nonempty sets of members.

    It holds the empty set only when the row does.
    """
    closed = cover_table(tables, n) == _masks(n)
    closed[..., 0] = tables[..., 0]
    return closed


def union_closed_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row: whether the family equals its union closure, that is, whether
    every nonempty X with cover[X] = X is a member."""
    return np.all(closure_rows(tables, n) == tables, axis=-1)


def root_masks(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row and mask: the roots of a member (0 for non-members), the
    elements of the member outside every non-member below it."""
    return np.where(tables, _masks(n) & ~cover_table(~tables, n), np.uint32(0))


def rooted_rows(tables: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the root masks, and whether every member has a root (simply-rooted)."""
    roots = root_masks(tables, n)
    return roots, np.all(~tables | (roots != 0), axis=-1)


def uniquely_rooted(roots: np.ndarray) -> np.ndarray:
    """Per mask, given ``root_masks``: whether it is a member with exactly one root."""
    return np.bitwise_count(roots) == 1


def unique_root_counts(roots: np.ndarray) -> np.ndarray:
    """Per row, given its ``root_masks``: the number of uniquely rooted members."""
    return np.count_nonzero(uniquely_rooted(roots), axis=-1)


def missing_lower_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row and mask A: the elements i of A with A - i outside the family;
    of the complement, A's lower covers in the family (the upper shadow)."""
    out = np.zeros(tables.shape, dtype=np.uint32)
    for i in range(n):
        high = coordinate_pairs(out, i)[1]
        high |= (~coordinate_pairs(tables, i)[0]).astype(np.uint32) << i
    return out


def upper_shadow_deficiency(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row: |upper_shadow(G) - G|, the sets outside the family that cover
    a member."""
    return np.count_nonzero(~tables & (missing_lower_rows(~tables, n) != 0), axis=-1)


def component_directions(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row and vertex of the subgraph the row's vertex set induces in the
    cube: the mask of edge directions used in the vertex's connected component
    (0 outside the set).

    Label propagation: across every edge inside the set, both endpoints take
    the union of their labels and the edge's direction, until no label changes.
    """
    labels = np.zeros(tables.shape, dtype=np.uint32)
    while True:
        before = labels.copy()
        for i in range(n):
            inside_low, inside_high = coordinate_pairs(tables, i)
            low, high = coordinate_pairs(labels, i)
            joined = np.where(inside_low & inside_high, low | high | np.uint32(1 << i), np.uint32(0))
            low |= joined
            high |= joined
        if np.array_equal(before, labels):
            return labels


def thin_boundary_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row: whether every member covers at most one set outside the family."""
    return np.all(~tables | (np.bitwise_count(missing_lower_rows(tables, n)) <= 1), axis=-1)


# ---------------------------------------------------------------------------
# the definition-level root oracle: ``tests/oracles.py`` reads it for every
# root check, and ``perfbench/test_inputs.py`` for the simple-rootedness of
# its seeded inputs


def _root_set_naive(family: SetFamily, member: int) -> int:
    """Roots of one member by scanning every subset interval (definition)."""
    roots = 0
    for i in iter_bits(member):
        bit = 1 << i
        rest = member ^ bit
        sub = rest
        ok = True
        while True:
            if (sub | bit) not in family:
                ok = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        if ok:
            roots |= bit
    return roots


# ---------------------------------------------------------------------------
# single-family operations


def is_union_closed(family: SetFamily) -> bool:
    """True when every pairwise union of members is a member."""
    return bool(union_closed_rows(family.to_bool(), family.n))


def roots(family: SetFamily) -> RootReport:
    """Root sets for every member, in ascending member-mask order."""
    table = family.to_bool()
    members = np.flatnonzero(table).astype(np.uint32)
    root_sets = root_masks(table, family.n)[members]
    members.setflags(write=False)
    root_sets.setflags(write=False)
    return RootReport(family.n, members, root_sets)


def is_simply_rooted(family: SetFamily) -> bool:
    """True when every member has a root; the empty set member never does."""
    return bool(rooted_rows(family.to_bool(), family.n)[1])


def upper_shadow(family: SetFamily) -> SetFamily:
    """All sets obtained by adding one element to some member (covering one)."""
    return SetFamily._of(family.n, missing_lower_rows(~family.to_bool(), family.n) != 0)


def lower_shadow(family: SetFamily) -> SetFamily:
    """All sets obtained by removing one element from some member: the
    complements of the upper shadow of the members' complements.  X -> [n] - X
    reverses the mask order."""
    flipped = ~family.to_bool()[::-1]
    return SetFamily._of(family.n, missing_lower_rows(flipped, family.n)[::-1] != 0)


def thin_boundary_check(family: SetFamily) -> bool:
    """True when every member covers at most one set outside the family."""
    return bool(thin_boundary_rows(family.to_bool(), family.n))


def theorem2_quantities(family: SetFamily) -> tuple[int, int]:
    """Upper-shadow deficiency and the complement's unique-root count.

    Requires a union-closed input.  The deficiency |upper_shadow(G) - G| never
    exceeds 2^{n-1}; when the empty set is a member the two returned numbers
    are equal (each singleton missing from an empty-set-free G is uniquely
    rooted in the complement without being reachable by adding one element).
    One cover sweep gives the domain and the roots: G is union-closed exactly
    when its complement less the (rootless) empty set is simply-rooted.
    """
    table = family.to_bool()
    rest = ~table
    rest[0] = False
    found, closed = rooted_rows(rest, family.n)
    if not closed:
        raise PreconditionError("upper-shadow deficiency requires a union-closed family")
    return int(upper_shadow_deficiency(table, family.n)), int(unique_root_counts(found))


def stats(family: SetFamily) -> FamilyStats:
    """Exact frequency statistics with non-strict abundance and rarity."""
    freqs = family.frequencies()
    size = family.size
    abundant = tuple(i + 1 for i, c in enumerate(freqs) if 2 * c >= size)
    rare = tuple(i + 1 for i, c in enumerate(freqs) if 2 * c <= size)
    delta = Fraction((1 << (family.n - 1)) - size, 1 << family.n)
    return FamilyStats(family.n, size, freqs, abundant, rare, delta)
