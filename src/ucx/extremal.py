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
mass sits entirely on the second level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import (
    BooleanFunction,
    CharacterSpec,
    SetFamily,
    check_dimension,
    family_to_function,
    function_to_family,
    mask_from_elements,
)
from .spectral import Spectrum, transform


@dataclass(frozen=True)
class NamedConstruction:
    kind: str
    n: int
    param: object
    family: SetFamily
    function: BooleanFunction


def or_family(m: int, n: int) -> NamedConstruction:
    """Family of all subsets of [n] that meet {1, ..., m}."""
    check_dimension(n)
    if not 1 <= m <= n:
        raise ValueError(f"disjunct count m={m} outside [1, {n}]")
    low = (1 << m) - 1
    table = (np.arange(1 << n, dtype=np.uint32) & low) != 0
    family = SetFamily(n, table)
    return NamedConstruction("or_family", n, m, family, family_to_function(family))


def half_cube_missing(i: int, n: int) -> NamedConstruction:
    """Family of all subsets of [n] avoiding element i; union-closed, size 2^{n-1}."""
    check_dimension(n)
    if not 1 <= i <= n:
        raise ValueError(f"element i={i} outside [1, {n}]")
    table = (np.arange(1 << n, dtype=np.uint32) >> (i - 1)) & 1 == 0
    family = SetFamily(n, table)
    return NamedConstruction("half_cube_missing", n, i, family, family_to_function(family))


def dictator(i: int, n: int) -> NamedConstruction:
    """Single-coordinate parity; as a family, all sets containing element i."""
    check_dimension(n)
    if not 1 <= i <= n:
        raise ValueError(f"element i={i} outside [1, {n}]")
    func = BooleanFunction(n, CharacterSpec(1 << (i - 1)).values(n))
    return NamedConstruction("dictator", n, i, function_to_family(func), func)


def parity(elements: tuple[int, ...], n: int) -> NamedConstruction:
    """Parity of the given 1-based coordinates."""
    check_dimension(n)
    mask = mask_from_elements(elements, n)
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
    if not 1 <= m <= n:
        raise ValueError(f"disjunct count m={m} outside [1, {n}]")
    mean = Fraction(2, 1 << m) - 1
    influence = Fraction(2 * m, 1 << m)
    return mean, influence, influence


@dataclass(frozen=True)
class KSClassMember:
    """A member of the quadratic rigid class: a signed two-coordinate parity,
    or the signed half-sum combination of four of them on distinct indices."""

    sign: int
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.indices) not in (2, 4) or len(set(self.indices)) != len(self.indices):
            raise ValueError("indices must be 2 or 4 distinct 1-based coordinates")

    def _pair_masks(self) -> tuple[int, ...]:
        if len(self.indices) == 2:
            i, j = self.indices
            return (mask_from_elements((i, j), max(self.indices)),)
        i, j, k, l = self.indices
        top = max(self.indices)
        return (
            mask_from_elements((i, j), top),
            mask_from_elements((j, k), top),
            mask_from_elements((k, l), top),
            mask_from_elements((i, l), top),
        )

    def values(self, n: int) -> np.ndarray:
        if max(self.indices) > n:
            raise ValueError(f"indices {self.indices} do not fit in dimension {n}")
        masks = self._pair_masks()
        if len(masks) == 1:
            return (self.sign * CharacterSpec(masks[0]).values(n)).astype(np.int8)
        a, b, c, d = (CharacterSpec(m).values(n).astype(np.int16) for m in masks)
        combined = (a + b + c - d) // 2  # always +/-1: (ab+bc+cd-ad)/2 with a..d in {+/-1}
        return (self.sign * combined).astype(np.int8)

    def function(self, n: int) -> BooleanFunction:
        return BooleanFunction(n, self.values(n))

    def correlation(self, spec: Spectrum) -> Fraction:
        """Exact correlation with any function, read off its spectrum."""
        masks = self._pair_masks()
        if max(self.indices) > spec.n:
            raise ValueError(f"indices {self.indices} do not fit in dimension {spec.n}")
        if len(masks) == 1:
            return Fraction(self.sign * int(spec.s[masks[0]]), 1 << spec.n)
        a, b, c, d = (int(spec.s[m]) for m in masks)
        return Fraction(self.sign * (a + b + c - d), 1 << (spec.n + 1))


def ks_enumerate(n: int) -> "Iterator[KSClassMember]":
    """All members of the quadratic rigid class on [n], in deterministic order:
    pair members first (by index pair, + before -), then four-index members
    (by index tuple, + before -).  Four-index members require n >= 4; of a
    tuple and its reversal, which give the same function, only the one with
    the smaller first index is listed.
    """
    if n < 2:
        raise ValueError("the quadratic class needs n >= 2")

    def gen():
        for i, j in itertools.combinations(range(1, n + 1), 2):
            yield KSClassMember(1, (i, j))
            yield KSClassMember(-1, (i, j))
        if n >= 4:
            for quad in itertools.permutations(range(1, n + 1), 4):
                if quad[0] > quad[3]:
                    continue  # the reversal (d, c, b, a) is the same function
                yield KSClassMember(1, quad)
                yield KSClassMember(-1, quad)

    return gen()


def ks_distance(f: BooleanFunction) -> tuple[KSClassMember, Fraction]:
    """Nearest member of the quadratic rigid class and the exact distance.

    Ties resolve to the earliest member in ks_enumerate order.
    """
    spec = transform(f)
    best_member = None
    best = None
    for member in ks_enumerate(f.n):
        d = (1 - member.correlation(spec)) / 2
        if best is None or d < best:
            best_member, best = member, d
    return best_member, best


def nearest_dictator(f: BooleanFunction) -> tuple[int, int, Fraction]:
    """Closest signed single-coordinate parity: (coordinate, sign, distance).

    Ties break to the smallest coordinate, then to the positive sign.
    """
    spec = transform(f)
    scale = 1 << f.n
    best = None
    for i in range(1, f.n + 1):
        s_i = int(spec.s[1 << (i - 1)])
        for sign in (1, -1):
            d = Fraction(scale - sign * s_i, 2 * scale)
            if best is None or d < best[2]:
                best = (i, sign, d)
    return best
