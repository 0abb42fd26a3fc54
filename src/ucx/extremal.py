"""Named constructions and rigid function classes.

The workhorse is the OR-family on m leading coordinates: the family of all
sets meeting [m], equivalently the function that is -1 wherever one of the
first m bits is set.  It is union-closed and simply-rooted, its mean
coefficient is -(1 - 2^{1-m}), and its positive influence equals its total
influence, m 2^{1-m}.  With m = k+1 disjuncts it realizes mean coefficient
-(1 - 2^{-k}) together with (positive) influence (k+1) 2^{-k}, the exact
pair at which both the conjectured positive-influence cap and the lower
edge-isoperimetric bound are tight.

The quadratic rigid class contains all signed parities of two coordinates,
plus all functions (a b + b c + c d - a d)/2 built from four distinct
single-coordinate parities a, b, c, d; that combination is +/-1-valued
pointwise.  These are exactly the +/-1 functions whose squared-coefficient
mass sits entirely on the second level.  A member is sign (chi_a + chi_b +
chi_c - chi_d)/2 for the masks (ij, jk, kl, il) of four indices, or (ij, ij,
0, 0) of a pair.  ``nearest_signed_rows`` is the one tie-break of the
nearest-member searches, which are row kernels over correlation tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import (
    BooleanFunction,
    CharacterSpec,
    SetFamily,
    check_dimension,
    check_int,
    check_sign,
    family_to_function,
    function_to_family,
    mask_from_elements,
)
from .spectral import Spectrum, first_level_rows, spectrum_rows


@dataclass(frozen=True)
class NamedConstruction:
    kind: str
    n: int
    param: object
    family: SetFamily
    function: BooleanFunction


def or_family(m: int, n: int) -> NamedConstruction:
    """Family of all subsets of [n] that meet {1, ..., m}."""
    m = check_int(m, "disjunct count", 1, check_dimension(n))
    low = (1 << m) - 1
    table = (np.arange(1 << n, dtype=np.uint32) & low) != 0
    family = SetFamily(n, table)
    return NamedConstruction("or_family", n, m, family, family_to_function(family))


def half_cube_missing(i: int, n: int) -> NamedConstruction:
    """Family of all subsets of [n] avoiding element i; union-closed, size 2^{n-1}."""
    i = check_int(i, "element", 1, check_dimension(n))
    table = (np.arange(1 << n, dtype=np.uint32) >> (i - 1)) & 1 == 0
    family = SetFamily(n, table)
    return NamedConstruction("half_cube_missing", n, i, family, family_to_function(family))


def dictator(i: int, n: int) -> NamedConstruction:
    """Single-coordinate parity; as a family, all sets containing element i."""
    built = parity((i,), n)
    return NamedConstruction("dictator", n, i, built.family, built.function)


def parity(elements: tuple[int, ...], n: int) -> NamedConstruction:
    """Parity of the given 1-based coordinates."""
    mask = mask_from_elements(elements, check_dimension(n))
    if mask.bit_count() != len(elements):  # x_i XOR x_i is constant, not a parity
        raise ValueError(f"parity coordinates {elements} must be distinct")
    func = BooleanFunction(n, CharacterSpec(mask).values(n))
    return NamedConstruction("parity", n, tuple(sorted(elements)), function_to_family(func), func)


def example_f3(n: int = 2) -> NamedConstruction:
    """The two-disjunct OR construction; on n=2 the family {{1},{2},{1,2}}."""
    if n < 2:
        raise ValueError("the two-disjunct example needs n >= 2")
    built = or_family(2, n)
    return NamedConstruction("example_f3", n, None, built.family, built.function)


_BUILDERS = {
    "or_family": lambda n, **kw: or_family(kw["m"], n),
    "half_cube_missing": lambda n, **kw: half_cube_missing(kw["i"], n),
    "dictator": lambda n, **kw: dictator(kw["i"], n),
    "parity": lambda n, **kw: parity(tuple(kw["elements"]), n),
    "example_f3": lambda n, **kw: example_f3(n),
}


def build(kind: str, n: int, **params) -> NamedConstruction:
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown construction kind {kind!r}") from None
    return builder(n, **params)


def or_family_stats(m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Closed-form (mean coefficient, I^+, I) of the m-disjunct OR-family."""
    m = check_int(m, "disjunct count", 1, n)
    mean = Fraction(2, 1 << m) - 1
    influence = Fraction(2 * m, 1 << m)
    return mean, influence, influence


@lru_cache(maxsize=None)
def _ks_cycles(n: int) -> np.ndarray:
    """The class order on [n] (see ks_enumerate): a read-only table (M, 4) of
    1-based index cycles, a pair (i, j) written (i, j, i, i), each standing
    for its + member and then its - member."""
    if n < 2:
        raise ValueError("the quadratic class needs n >= 2")
    pairs = [(i, j, i, i) for i, j in itertools.combinations(range(1, n + 1), 2)]
    quads = [q for q in itertools.permutations(range(1, n + 1), 4) if q[0] < q[3]]  # not reversals
    table = np.array(pairs + quads)
    table.setflags(write=False)
    return table


def _cycle_masks(cycles: np.ndarray) -> np.ndarray:
    """Masks (a, b, c, d) of index cycles (..., 4): the symmetric differences
    of consecutive singletons, (ij, jk, kl, li), which is (ij, ij, 0, 0) for a
    pair.  The member is sign (chi_a + chi_b + chi_c - chi_d) / 2."""
    bits = np.left_shift(1, cycles - 1)
    return bits ^ np.roll(bits, -1, axis=-1)


@dataclass(frozen=True)
class KSClassMember:
    """A member of the quadratic rigid class: a signed two-coordinate parity,
    or the signed half-sum combination of four of them on distinct indices."""

    sign: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sign", check_sign(self.sign))
        object.__setattr__(self, "indices", tuple(check_int(i, "index", 1) for i in self.indices))
        if len(self.indices) not in (2, 4) or len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be 2 or 4 distinct 1-based coordinates")

    @classmethod
    def _of_cycle(cls, sign: int, cycle: list[int]) -> "KSClassMember":
        return cls(sign, tuple(cycle[:2] if cycle[2] == cycle[0] else cycle))

    def masks(self) -> tuple[int, ...]:
        """(a, b, c, d) with the member equal to sign (chi_a + chi_b + chi_c - chi_d) / 2."""
        cycle = self.indices + (self.indices[0],) * (4 - len(self.indices))  # (i, j, i, i)
        return tuple(_cycle_masks(np.array(cycle)).tolist())

    def values(self, n: int) -> np.ndarray:
        a, b, c, d = (CharacterSpec(m).values(n).astype(np.int16) for m in self.masks())
        return (self.sign * ((a + b + c - d) // 2)).astype(np.int8)  # always +/-1

    def function(self, n: int) -> BooleanFunction:
        return BooleanFunction(n, self.values(n))

    def correlation(self, spec: Spectrum) -> Fraction:
        """Exact correlation with any function, read off its spectrum."""
        if max(self.indices) > spec.n:
            raise ValueError(f"indices {self.indices} do not fit in dimension {spec.n}")
        a, b, c, d = (int(spec.s[m]) for m in self.masks())
        return Fraction(self.sign * (a + b + c - d), 1 << (spec.n + 1))


def ks_enumerate(n: int) -> "Iterator[KSClassMember]":
    """All members of the quadratic rigid class on [n], in deterministic order:
    pair members first (by index pair, + before -), then four-index members
    (by index tuple, + before -).  Four-index members require n >= 4; of a
    tuple and its reversal, which give the same function, only the one with
    the smaller first index is listed.
    """
    cycles = _ks_cycles(check_dimension(n)).tolist()
    return (KSClassMember._of_cycle(sign, cycle) for cycle in cycles for sign in (1, -1))


def nearest_signed_rows(corr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of correlations (rows, members) with the + members of a class:
    the nearest signed member (member index, sign, correlation), the first of
    the candidates (member, +), (member, -) in member order with the largest
    correlation.  This is the one tie-break of the package."""
    member = np.abs(corr).argmax(axis=1)
    picked = np.take_along_axis(corr, member[:, None], axis=1)[:, 0]
    return member, np.where(picked < 0, -1, 1), np.abs(picked)


def ks_correlation_rows(spectra: np.ndarray, n: int) -> np.ndarray:
    """Per row of integer spectra (rows, 2^n): the correlation with the +
    member of each row of the class order, s[a] + s[b] + s[c] - s[d], scaled
    by 2^{n+1}, as int64 (rows, M)."""
    a, b, c, d = _cycle_masks(_ks_cycles(n)).T
    return spectra[:, a] + spectra[:, b] + spectra[:, c] - spectra[:, d]


def ks_distance(f: BooleanFunction) -> tuple[KSClassMember, Fraction]:
    """Nearest member of the quadratic rigid class and the exact distance; ties
    resolve to the earliest member in ks_enumerate order."""
    n = f.n
    corr = ks_correlation_rows(spectrum_rows(f.to_bool()[None]), n)
    row, sign, best = (int(v[0]) for v in nearest_signed_rows(corr))
    member = KSClassMember._of_cycle(sign, _ks_cycles(n)[row].tolist())
    return member, Fraction((1 << (n + 1)) - best, 1 << (n + 2))


def dictator_from_first_level(first_level, n: int) -> tuple[int, int, Fraction]:
    """Closest signed single-coordinate parity (coordinate, sign, distance) to
    a function with first-level coefficients s({i}); ties go to the smallest
    coordinate, then to the positive sign."""
    i, sign, best = (int(v[0]) for v in nearest_signed_rows(np.asarray(first_level)[None]))
    return i + 1, sign, Fraction((1 << n) - best, 1 << (n + 1))


def nearest_dictator(f: BooleanFunction) -> tuple[int, int, Fraction]:
    """Closest signed single-coordinate parity, from the first-level
    coefficients read off the frequencies, with no transform."""
    return dictator_from_first_level(first_level_rows(f.to_bool(), f.n), f.n)
