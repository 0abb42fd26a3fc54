"""Directed and total influences of +/-1 functions, with exact identities.

The cube splits into 2^{n-1} pairs (x, x + e_i) per coordinate i.  With the
membership convention (f = -1 on members), a pair where the lower point maps
to +1 and the upper to -1 is an "enter" pair: membership is gained going up.
The opposite flip is an "exit" pair.  Positive influence counts enter pairs;
this is the convention under which the first-level coefficient equals
I_i^+ - I_i^-, the simply-rooted cap I^+ <= 1 holds, and the spectral link
s({i}) = 2 (enter_i - exit_i) is an exact integer identity.

Enter and exit counts come from two passes over a membership table: the
flips per coordinate (pairs whose two points differ, enter_i + exit_i) and
the frequencies |F_i|.  Pairs with both points in F cancel, so
enter_i - exit_i = |F_i| - (|F| - |F_i|) = 2|F_i| - |F|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BooleanFunction, check_int, coordinate_pairs, frequency_rows
from .spectral import Spectrum, level_sum_rows, transform


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate enter/exit pair counts over the 2^{n-1} direction pairs."""

    n: int
    enter: tuple[int, ...]
    exit: tuple[int, ...]

    @property
    def pivotal(self) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.enter, self.exit))

    def _ratio(self, counts: tuple[int, ...], i: int | None) -> Fraction:
        if i is None:
            return Fraction(sum(counts), 1 << (self.n - 1))
        return Fraction(counts[check_int(i, "coordinate", 1, self.n) - 1], 1 << (self.n - 1))

    def positive_influence(self, i: int | None = None) -> Fraction:
        """I_i^+ for a 1-based coordinate, or the total I^+ when i is None."""
        return self._ratio(self.enter, i)

    def negative_influence(self, i: int | None = None) -> Fraction:
        return self._ratio(self.exit, i)

    def influence(self, i: int | None = None) -> Fraction:
        return self._ratio(self.pivotal, i)


def flip_count_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of tables (..., 2^n) of any dtype: for each coordinate i, the
    number of pairs (x, x + e_i) whose two entries differ, as int64 (..., n)."""
    flips = np.empty(tables.shape[:-1] + (n,), dtype=np.int64)
    for i in range(n):
        low, high = coordinate_pairs(tables, i)
        flips[..., i] = np.count_nonzero(low != high, axis=(-2, -1))
    return flips


def pair_count_rows(member_tables: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of membership tables (..., 2^n): enter and exit counts per
    coordinate, as two int64 arrays (..., n)."""
    flips = flip_count_rows(member_tables, n)
    sizes = np.count_nonzero(member_tables, axis=-1, keepdims=True)
    gain = 2 * frequency_rows(member_tables, n) - sizes  # enter_i - exit_i
    return (flips + gain) >> 1, (flips - gain) >> 1


def pair_counts(member_table: np.ndarray, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Enter/exit counts per coordinate from a boolean membership table."""
    enter, leave = pair_count_rows(member_table, n)
    return tuple(enter.tolist()), tuple(leave.tolist())


def profile(f: BooleanFunction) -> InfluenceProfile:
    """Scan all direction pairs and count membership flips."""
    enter, leave = pair_counts(f.to_bool(), f.n)
    return InfluenceProfile(f.n, enter, leave)


def influence_identity_check(f: BooleanFunction) -> tuple[Fraction, Fraction]:
    """Total influence two ways: pair scan versus sum of k * W^k.

    Returns (I(f), sum_k k W^k(f)); the two are always equal.
    """
    weighted = level_sum_rows(transform(f).s, f.n) @ np.arange(f.n + 1)
    return profile(f).influence(), Fraction(int(weighted), 1 << (2 * f.n))


def corollary_bound_rows(levels: np.ndarray, n: int) -> np.ndarray:
    """Per row of level sums (..., n+1): the floors 4^n (k - sum_{i<k} (k-i) W^i)
    for k = 1..n, as int64 (..., n).  The deficit is a double prefix sum."""
    deficit = np.cumsum(np.cumsum(levels[..., :n], axis=-1), axis=-1)
    return np.arange(1, n + 1, dtype=np.int64) * (1 << (2 * n)) - deficit


def corollary_lower_bound(spec: Spectrum, k: int) -> Fraction:
    """The influence floor k - sum_{i<k} (k-i) W^i; I(f) is never below it."""
    k = check_int(k, "k", 1, spec.n)
    floors = corollary_bound_rows(level_sum_rows(spec.s, spec.n), spec.n)
    return Fraction(int(floors[k - 1]), 1 << (2 * spec.n))


def balanced_distance_floor(f: BooleanFunction) -> Fraction:
    """|mean coefficient| / 2: a lower bound on dist(f, g) for every balanced g."""
    return abs(transform(f).coefficient(0)) / 2
