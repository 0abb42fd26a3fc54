"""Exact combinatorics on the Boolean cube: shared encodings and metrics.

A cube point and a subset of [n] are the same object here: an integer mask
in [0, 2^n) whose bit (i-1) records whether element i is present.  A set
family and a Boolean function are both stored as a read-only boolean
membership table over all 2^n points (``CubeTable``): a family's members,
or the points where the function is -1.  The membership function of a
family takes the value -1 exactly on its members, so that the empty family
is the constant +1 function, and a family and its membership function share
one table.  The +/-1 value table of a function and the bitset integer of a
family (bit ``mask`` set for each member) are only input and output formats
of this module, and ``coordinate_pairs`` is the one place that splits a
table into the pairs (x, x + e_i).  All derived quantities are exact: integers,
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
    if not isinstance(n, int) or isinstance(n, bool):
        raise DimensionError(f"dimension must be an integer, got {type(n).__name__}")
    cap = max_dimension()
    if not 1 <= n <= cap:
        raise DimensionError(f"dimension n={n} outside [1, {cap}] (raise via {ENV_MAX_N})")
    return n


@lru_cache(maxsize=None)
def popcount_table(n: int) -> np.ndarray:
    """Read-only uint8 table of popcounts for every mask below 2^n."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        out[1 << i : 2 << i] = out[: 1 << i] + 1
    out.setflags(write=False)
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 0-based positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """The one gate of an integer argument: ``value`` as an ``int``.
    ``TypeError`` unless it is a Python or numpy integer (a bool is not: numpy
    reads it as a boolean index and Python as 0 or 1), and ``ValueError``
    unless ``low <= value``, and ``value <= high`` when ``high`` is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if high is None:
        if value < low:
            raise ValueError(f"{name} must be >= {low}")
    elif not low <= value <= high:
        raise ValueError(f"{name} {value} outside [{low}, {high}]")
    return value


def check_sign(sign) -> int:
    """The sign of a signed function, +1 or -1, as an ``int``."""
    if check_int(sign, "sign", -1, 1) == 0:
        raise ValueError("sign must be +1 or -1")
    return int(sign)


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Mask for a set given by 1-based element labels in [1, n]."""
    mask = 0
    for e in elements:
        mask |= 1 << (check_int(e, "element", 1, n) - 1)
    return mask


def check_mask(mask, n: int) -> int:
    """The subset mask as an ``int`` in [0, 2^n): numpy would read -1 as the
    last point and a bool as a boolean index."""
    return check_int(mask, "subset mask", 0, (1 << n) - 1)


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


def coordinate_pairs(tables: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (low, high) of a table (..., 2^n), each of shape
    (..., 2^{n-1-i}, 2^i), that pair every point x without bit i with
    x + e_{i+1}.  Only the last axis is split, so they are views for any
    memory layout, and writes through them reach the table."""
    lead, size = tables.shape[:-1], tables.shape[-1]
    view = tables.reshape(*lead, size >> (i + 1), 2, 1 << i)
    return view[..., 0, :], view[..., 1, :]


def frequency_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of membership tables (..., 2^n): how many members contain each
    element, as an int64 array (..., n)."""
    counts = np.empty(tables.shape[:-1] + (n,), dtype=np.int64)
    for i in range(n):
        counts[..., i] = np.count_nonzero(coordinate_pairs(tables, i)[1], axis=(-2, -1))
    return counts


class CubeTable:
    """An immutable table over the 2^n points of the n-cube.  Subclasses
    validate their input and pass a table of their own, which is marked
    read-only.  Two tables are equal when they have the same type, dimension
    and entries.  ``SetFamily`` and ``BooleanFunction`` expose their boolean
    table as ``to_bool``, and ``Spectrum`` its int64 table as ``s``."""

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table: np.ndarray) -> None:
        check_dimension(n)
        if table.shape != (1 << n,):
            raise DimensionError(f"expected a table of 2^{n} entries, got shape {table.shape}")
        table.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_table", table)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._of, (self.n, self._table)

    @classmethod
    def _of(cls, n: int, table: np.ndarray):
        """An instance over a table that needs no validation or copy: another
        instance's read-only table, an unpickled one, or a fresh one that
        nothing else holds."""
        made = cls.__new__(cls)
        CubeTable.__init__(made, n, table)
        return made

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.n == other.n and np.array_equal(self._table, other._table)

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))


class BooleanFunction(CubeTable):
    """A +/-1 valued function on the n-cube, stored as its membership table,
    True exactly where the function is -1.  The constructor takes the +/-1
    values, and ``values`` derives them."""

    __slots__ = ()

    def __init__(self, n: int, values) -> None:
        values = np.asarray(values)
        if values.dtype == np.bool_:
            raise TypeError("function values must be +1 or -1, got a bool table")
        minus = values == -1
        if not np.all(minus | (values == 1)):
            raise ValueError("function values must all be +1 or -1")
        super().__init__(n, minus)

    @classmethod
    def constant(cls, n: int, sign: int = 1) -> "BooleanFunction":
        return cls(n, np.full(1 << n, check_sign(sign), dtype=np.int8))

    @property
    def values(self) -> np.ndarray:
        """The read-only int8 table of +/-1 values."""
        table = np.where(self._table, np.int8(-1), np.int8(1))
        table.setflags(write=False)
        return table

    def to_bool(self) -> np.ndarray:
        """The read-only membership table, True where the function is -1."""
        return self._table

    def __call__(self, x: int) -> int:
        return -1 if self._table[check_mask(x, self.n)] else 1

    def minus_count(self) -> int:
        """Number of points where the function is -1."""
        return int(np.count_nonzero(self._table))

    def is_balanced(self) -> bool:
        return 2 * self.minus_count() == 1 << self.n

    def __repr__(self) -> str:
        if self.n <= 4:
            body = "".join("-" if minus else "+" for minus in self._table)
            return f"BooleanFunction(n={self.n}, {body})"
        return f"BooleanFunction(n={self.n}, 2^{self.n} values)"


class SetFamily(CubeTable):
    """A family of subsets of [n], stored as a read-only boolean membership
    table of shape (2^n,): entry ``mask`` is True exactly when that subset is
    a member.  The constructor copies the table; ``bits`` derives the bitset
    integer (bit ``mask`` set for each member) from it."""

    __slots__ = ()

    def __init__(self, n: int, table) -> None:
        table = np.array(table)
        if table.dtype != np.bool_:
            raise TypeError(f"expected a bool table (from_bits takes a bitset), got {table.dtype}")
        super().__init__(n, table)

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
        bits = check_int(bits, "bitset", 0)
        if bits.bit_length() > 1 << n:  # its own range test: 2^(2^n) is never printed
            raise ValueError(f"bitset does not fit in 2^{n} bits")
        return cls(n, bits_to_bool(bits, n))

    @classmethod
    def from_members(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        table = np.zeros(1 << check_dimension(n), dtype=bool)
        for m in masks:
            table[check_mask(m, n)] = True
        return cls(n, table)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        """Build from collections of 1-based element labels."""
        return cls.from_members(n, (mask_from_elements(s, n) for s in sets))

    @classmethod
    def from_bool(cls, n: int, table: np.ndarray) -> "SetFamily":
        return cls(n, table)

    def to_bool(self) -> np.ndarray:
        """The read-only membership table."""
        return self._table

    @property
    def bits(self) -> int:
        return bool_to_bits(self._table)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self._table))

    def __contains__(self, mask: int) -> bool:
        try:
            return bool(self._table[check_mask(mask, self.n)])
        except ValueError:  # an integer outside the cube is no member
            return False

    def __len__(self) -> int:
        return self.size

    def members(self) -> tuple[int, ...]:
        """Member masks in ascending numeric order."""
        return tuple(np.flatnonzero(self._table).tolist())

    def complement(self) -> "SetFamily":
        return SetFamily(self.n, ~self._table)

    def frequencies(self) -> tuple[int, ...]:
        """Per-element membership counts: entry i-1 is the number of members containing i."""
        return tuple(frequency_rows(self._table, self.n).tolist())

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
        object.__setattr__(self, "support", check_int(self.support, "support mask", 0))
        object.__setattr__(self, "sign", check_sign(self.sign))

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
    """Membership function of a family, -1 on members: the same table."""
    return BooleanFunction._of(family.n, family.to_bool())


def function_to_family(f: BooleanFunction) -> SetFamily:
    """Inverse of family_to_function: the points where f is -1, the same table."""
    return SetFamily._of(f.n, f.to_bool())


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
    if not np.issubdtype(table.dtype, np.integer):
        raise TypeError(f"expected an integer table, got {table.dtype}")
    return table


def inner_product(f: BooleanFunction, g: GLike) -> Fraction:
    """Normalized correlation: the average of f(x)g(x) over the cube, exact."""
    table = _as_table(g, f.n).astype(np.int64)
    return Fraction(int(np.dot(f.values.astype(np.int64), table)), 1 << f.n)


def dist(f: BooleanFunction, g: Union[BooleanFunction, CharacterSpec]) -> Fraction:
    """Normalized Hamming distance between +/-1 functions: (1 - <f,g>)/2."""
    return (1 - inner_product(f, g)) / 2
