"""Exact combinatorics on the Boolean cube: shared encodings and metrics.

A cube point and a subset of [n] are the same object here: an integer mask
in [0, 2^n) whose bit (i-1) records whether element i is present.  A Boolean
function is a read-only table of +/-1 values over all 2^n points; a set
family is a read-only boolean membership table over all 2^n subset masks.
The bitset integer of a family (bit ``mask`` set for each member) is only
an input and output format of this module.  The membership function of a
family takes the value -1 exactly on its members, so that the empty family
is the constant +1 function.  All derived quantities are exact: integers,
or dyadic rationals represented as ``fractions.Fraction``.  Numpy arrays
serve as containers for speed, but only ever hold integers or booleans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

HARD_MAX_N = 24
DEFAULT_MAX_N = 20
ENV_MAX_N = "UCX_MAX_N"


class DimensionError(ValueError):
    """A dimension is out of range, over the cap, or mismatched."""


def max_dimension() -> int:
    """Current dimension cap: DEFAULT_MAX_N unless raised via UCX_MAX_N."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError:
        raise DimensionError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    if not 1 <= cap <= HARD_MAX_N:
        raise DimensionError(f"{ENV_MAX_N} must be in [1, {HARD_MAX_N}], got {cap}")
    return cap


def check_dimension(n: int) -> int:
    if not isinstance(n, int):
        raise DimensionError(f"dimension must be an integer, got {type(n).__name__}")
    cap = max_dimension()
    if not 1 <= n <= cap:
        raise DimensionError(f"dimension n={n} outside [1, {cap}] (raise via {ENV_MAX_N})")
    return n


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """Read-only uint8 table of popcounts for every mask below 2^n."""
    idx = np.arange(1 << n, dtype=np.uint32)
    out = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        out += ((idx >> i) & 1).astype(np.uint8)
    out.setflags(write=False)
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 0-based positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Mask for a set given by 1-based element labels in [1, n]."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """1-based element labels of a subset mask, ascending."""
    return tuple(i + 1 for i in iter_bits(mask))


def bits_to_bool(bits: int, n: int) -> np.ndarray:
    """Expand a 2^n-bit bitset integer into a boolean table."""
    size = 1 << n
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].astype(bool)


def bool_to_bits(table: np.ndarray) -> int:
    """Pack a boolean table back into a bitset integer."""
    packed = np.packbits(np.asarray(table, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def frequency_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of membership tables (..., 2^n): how many members contain each
    element, as an int64 array (..., n)."""
    lead = tables.shape[:-1]
    counts = np.empty(lead + (n,), dtype=np.int64)
    for i in range(n):
        upper = tables.reshape(*lead, -1, 2, 1 << i)[..., 1, :]
        counts[..., i] = np.count_nonzero(upper, axis=(-2, -1))
    return counts


class BooleanFunction:
    """A +/-1 valued function on the n-cube, stored as an immutable table."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        check_dimension(n)
        table = np.array(values, dtype=np.int8)
        if table.shape != (1 << n,):
            raise DimensionError(f"expected 2^{n} values, got shape {table.shape}")
        if not np.all(np.abs(table) == 1):
            raise ValueError("function values must all be +1 or -1")
        table.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", table)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("BooleanFunction is immutable")

    @classmethod
    def constant(cls, n: int, sign: int = 1) -> "BooleanFunction":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(n, np.full(1 << n, sign, dtype=np.int8))

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def minus_count(self) -> int:
        """Number of points where the function is -1."""
        return int(np.count_nonzero(self.values == -1))

    def is_balanced(self) -> bool:
        return 2 * self.minus_count() == 1 << self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 4:
            body = "".join("-" if v < 0 else "+" for v in self.values)
            return f"BooleanFunction(n={self.n}, {body})"
        return f"BooleanFunction(n={self.n}, 2^{self.n} values)"


class SetFamily:
    """A family of subsets of [n], stored as a read-only boolean membership
    table of shape (2^n,): entry ``mask`` is True exactly when that subset is
    a member.  The constructor copies the table; ``bits`` derives the bitset
    integer (bit ``mask`` set for each member) from it."""

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table) -> None:
        check_dimension(n)
        table = np.array(table)
        if table.dtype != np.bool_:
            raise TypeError(f"expected a bool table (from_bits takes a bitset), got {table.dtype}")
        if table.shape != (1 << n,):
            raise DimensionError(f"expected a table of 2^{n} entries, got shape {table.shape}")
        table.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("SetFamily is immutable")

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        return cls(n, np.zeros(1 << check_dimension(n), dtype=bool))

    @classmethod
    def full(cls, n: int) -> "SetFamily":
        return cls(n, np.ones(1 << check_dimension(n), dtype=bool))

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "SetFamily":
        """Build from a bitset integer whose bit ``mask`` marks a member."""
        check_dimension(n)
        if bits < 0 or bits.bit_length() > 1 << n:
            raise ValueError(f"bitset does not fit in 2^{n} bits")
        return cls(n, bits_to_bool(bits, n))

    @classmethod
    def from_members(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        table = np.zeros(1 << check_dimension(n), dtype=bool)
        for m in masks:
            if not 0 <= m < table.size:
                raise ValueError(f"subset mask {m} outside [0, 2^{n})")
            table[m] = True
        return cls(n, table)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from collections of 1-based element labels."""
        return cls.from_members(n, (mask_from_elements(s, n) for s in sets))

    @classmethod
    def from_bool(cls, n: int, table: np.ndarray) -> "SetFamily":
        return cls(n, table)

    @property
    def bits(self) -> int:
        return bool_to_bits(self._table)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self._table))

    def __contains__(self, mask: int) -> bool:
        return 0 <= mask < self._table.size and bool(self._table[mask])

    def __len__(self) -> int:
        return self.size

    def members(self) -> tuple[int, ...]:
        """Member masks in ascending numeric order."""
        return tuple(np.flatnonzero(self._table).tolist())

    def to_bool(self) -> np.ndarray:
        """The read-only membership table itself."""
        return self._table

    def complement(self) -> "SetFamily":
        return SetFamily(self.n, ~self._table)

    def frequencies(self) -> tuple[int, ...]:
        """Per-element membership counts: entry i-1 is the number of members containing i."""
        return tuple(frequency_rows(self._table, self.n).tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and np.array_equal(self._table, other._table)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))

    def __repr__(self) -> str:
        if self.size <= 8:
            body = ", ".join("{" + ",".join(map(str, elements_from_mask(m))) + "}" for m in self.members())
            return f"SetFamily(n={self.n}, [{body}])"
        return f"SetFamily(n={self.n}, {self.size} members)"


@dataclass(frozen=True)
class CharacterSpec:
    """A signed parity function: sign * (-1)^|x AND support|."""

    support: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.support < 0:
            raise ValueError("support mask must be non-negative")

    def eval(self, x: int) -> int:
        return self.sign * (1 - 2 * ((x & self.support).bit_count() & 1))

    def values(self, n: int) -> np.ndarray:
        """Value table over the whole n-cube."""
        if self.support.bit_length() > n:
            raise DimensionError(f"support mask {self.support} does not fit in dimension {n}")
        parity = (popcount_table(n)[np.arange(1 << n) & self.support] & 1).astype(np.int8)
        return (self.sign * (1 - 2 * parity)).astype(np.int8)


def eval_character(spec: CharacterSpec, x: int) -> int:
    return spec.eval(x)


def family_to_function(family: SetFamily) -> BooleanFunction:
    """Membership function of a family: -1 on members, +1 elsewhere."""
    table = np.where(family.to_bool(), np.int8(-1), np.int8(1))
    return BooleanFunction(family.n, table)


def function_to_family(f: BooleanFunction) -> SetFamily:
    """Inverse of family_to_function: the family of points where f is -1."""
    return SetFamily.from_bool(f.n, f.values == -1)


GLike = Union[BooleanFunction, CharacterSpec, Sequence, np.ndarray]


def _as_table(g: GLike, n: int) -> np.ndarray:
    if isinstance(g, BooleanFunction):
        if g.n != n:
            raise DimensionError(f"dimension mismatch: {n} vs {g.n}")
        return g.values
    if isinstance(g, CharacterSpec):
        return g.values(n)
    table = np.asarray(g)
    if table.shape != (1 << n,):
        raise DimensionError(f"expected a table of 2^{n} values, got shape {table.shape}")
    return table


def inner_product(f: BooleanFunction, g: GLike) -> Fraction:
    """Normalized correlation: the average of f(x)g(x) over the cube, exact."""
    table = _as_table(g, f.n)
    if np.issubdtype(table.dtype, np.integer):
        total = int(np.dot(f.values.astype(np.int64), table.astype(np.int64)))
        return Fraction(total, 1 << f.n)
    # object tables (e.g. Fractions) summed exactly in python
    total = sum(int(a) * b for a, b in zip(f.values, table.tolist()))
    return Fraction(total, 1) / (1 << f.n)


def dist(f: BooleanFunction, g: Union[BooleanFunction, CharacterSpec]) -> Fraction:
    """Normalized Hamming distance between +/-1 functions: (1 - <f,g>)/2."""
    return (1 - inner_product(f, g)) / 2
