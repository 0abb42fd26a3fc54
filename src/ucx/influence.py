"""Directed and total influences of +/-1 functions, with exact identities.

The cube splits into 2^{n-1} pairs (x, x + e_i) per coordinate i.  With the
membership convention (f = -1 on members), a pair where the lower point maps
to +1 and the upper to -1 is an "enter" pair: membership is gained going up.
The opposite flip is an "exit" pair.  Positive influence counts enter pairs;
this is the convention under which the first-level coefficient equals
I_i^+ - I_i^-, the simply-rooted cap I^+ <= 1 holds, and the spectral link
s({i}) = 2 (enter_i - exit_i) is an exact integer identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BooleanFunction
from .spectral import Spectrum, level_sums, transform


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate enter/exit pair counts over the 2^{n-1} direction pairs."""

    n: int
    enter: tuple[int, ...]
    exit: tuple[int, ...]

    @property
    def pivotal(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.enter, self.exit))

    def _ratio(self, count: int) -> Fraction:
        return Fraction(count, 1 << (self.n - 1))

    def positive_influence(self, i: int | None = None) -> Fraction:
        """I_i^+ for a 1-based coordinate, or the total I^+ when i is None."""
        count = sum(self.enter) if i is None else self.enter[i - 1]
        return self._ratio(count)

    def negative_influence(self, i: int | None = None) -> Fraction:
        count = sum(self.exit) if i is None else self.exit[i - 1]
        return self._ratio(count)

    def influence(self, i: int | None = None) -> Fraction:
        count = sum(self.pivotal) if i is None else self.pivotal[i - 1]
        return self._ratio(count)


def pair_count_rows(member_tables: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of membership tables (..., 2^n): enter and exit counts per
    coordinate, as two int64 arrays (..., n)."""
    lead = member_tables.shape[:-1]
    enter = np.empty(lead + (n,), dtype=np.int64)
    leave = np.empty(lead + (n,), dtype=np.int64)
    for i in range(n):
        view = member_tables.reshape(*lead, -1, 2, 1 << i)
        low = view[..., 0, :]
        high = view[..., 1, :]
        enter[..., i] = np.count_nonzero(~low & high, axis=(-2, -1))
        leave[..., i] = np.count_nonzero(low & ~high, axis=(-2, -1))
    return enter, leave


def pair_counts(member_table: np.ndarray, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Enter/exit counts per coordinate from a boolean membership table."""
    enter, leave = pair_count_rows(member_table, n)
    return tuple(enter.tolist()), tuple(leave.tolist())


def profile(f: BooleanFunction) -> InfluenceProfile:
    """Scan all direction pairs and count membership flips."""
    enter, leave = pair_counts(f.values == -1, f.n)
    return InfluenceProfile(f.n, enter, leave)


def influence_identity_check(f: BooleanFunction) -> tuple[Fraction, Fraction]:
    """Total influence two ways: pair scan versus sum of k * W^k.

    Returns (I(f), sum_k k W^k(f)); the two are always equal.
    """
    prof = profile(f)
    sums = level_sums(transform(f))
    weighted = sum(k * a for k, a in enumerate(sums))
    return prof.influence(), Fraction(weighted, 1 << (2 * f.n))


def corollary_lower_bound(spec: Spectrum, k: int) -> Fraction:
    """The influence floor k - sum_{i<k} (k-i) W^i; I(f) is never below it."""
    if not 1 <= k <= spec.n:
        raise ValueError(f"k={k} outside [1, {spec.n}]")
    sums = level_sums(spec)
    deficit = sum((k - i) * sums[i] for i in range(k))
    return k - Fraction(deficit, 1 << (2 * spec.n))


def balanced_distance_floor(f: BooleanFunction) -> Fraction:
    """|mean coefficient| / 2: a lower bound on dist(f, g) for every balanced g."""
    return abs(transform(f).coefficient(0)) / 2
