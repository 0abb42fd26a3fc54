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
of this module.  ``packed_words`` and ``unpacked`` are the one bit codec
(boolean tables to little-endian packed bits and back), ``np.bitwise_count``
is the one popcount, and ``coordinate_pairs`` is the one place that splits a
table into the pairs (x, x + e_i), with ``word_pairs`` its form on tables
packed 64 points to a word.  All derived quantities are exact: integers,
or dyadic rationals represented as ``fractions.Fraction``.  Numpy arrays
serve as containers for speed and hold integers or booleans, except in
``spectral``: its transform multiplies float32 blocks of +/-1 by +/-1
matrices, and its level sums add float squares.  Every value formed there,
partial sums included, is an integer that the float holds exactly (the
module docstring gives the bounds), so no operation rounds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
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


def check_dimension(n) -> int:
    """The dimension as an ``int`` in [1, cap]: a Python or numpy integer, but
    not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DimensionError(f"dimension must be an integer, got {type(n).__name__}")
    n = int(n)
    cap = max_dimension()
    if not 1 <= n <= cap:
        raise DimensionError(f"dimension n={n} outside [1, {cap}] (raise via {ENV_MAX_N})")
    return n


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 0-based positions of the set bits of ``mask``, ascending."""
    mask = check_int(mask, "subset mask", 0)
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
    return unpacked(np.frombuffer(bits.to_bytes(((1 << n) + 7) // 8, "little"), dtype=np.uint8), n)


def bool_to_bits(table: np.ndarray) -> int:
    """Pack a boolean table back into a bitset integer."""
    return int.from_bytes(packed_words(np.asarray(table, dtype=bool)).tobytes(), "little")


def coordinate_pairs(tables: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (low, high) of a table (..., 2^n), each of shape
    (..., 2^{n-1-i}, 2^i), that pair every point x without bit i with
    x + e_{i+1}.  Only the last axis is split, so they are views for any
    memory layout, and writes through them reach the table."""
    lead, size = tables.shape[:-1], tables.shape[-1]
    view = tables.reshape(*lead, size >> (i + 1), 2, 1 << i)
    return view[..., 0, :], view[..., 1, :]


# Per coordinate i < 6: the bits of a 64-bit word whose position has bit i clear.
_LOW_BITS = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> i & 1)) for i in range(6))


def packed_words(tables: np.ndarray) -> np.ndarray:
    """Boolean tables (..., 2^n) packed into uint64 words (..., max(1, 2^n / 64)):
    bit p of word j holds point 64 j + p, and the bits past 2^n are 0.
    ``TypeError`` unless the tables are boolean."""
    if tables.dtype != np.bool_:
        raise TypeError(f"expected boolean tables, got {tables.dtype}")
    packed = np.packbits(tables, axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(packed.shape[:-1] + (pad,), np.uint8)], axis=-1)
    return np.ascontiguousarray(packed).view("<u8")


def unpacked(packed: np.ndarray, n: int) -> np.ndarray:
    """The inverse of ``packed_words``: uint8 bytes (..., k), such as its words
    viewed as bytes, read as boolean tables (..., 2^n), bit p of byte j at
    point 8 j + p.  Missing bits read as 0 and bits past 2^n are dropped."""
    if not packed.shape[-1]:  # np.unpackbits leaves the padding of an empty axis unwritten
        return np.zeros(packed.shape[:-1] + (1 << n,), dtype=bool)
    return np.unpackbits(packed, axis=-1, count=1 << n, bitorder="little").view(bool)


def word_pairs(words: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed form of ``coordinate_pairs``: arrays (low, high) of words
    (..., blocks, width) from ``packed_words``, with bit p of ``high`` holding
    x + e_{i+1} wherever bit p of ``low`` holds a point x without bit i, and
    every other bit 0.  For i < 6 both pair points share a word; for i >= 6
    they are words 2^{i-6} apart, and (low, high) are views."""
    if i < 6:
        low = _LOW_BITS[i]
        return (words & low)[..., None, :], ((words >> np.uint64(1 << i)) & low)[..., None, :]
    return coordinate_pairs(words, i - 6)


def frequency_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of boolean membership tables (..., 2^n): how many members
    contain each element, as an int64 array (..., n)."""
    words = packed_words(tables)
    counts = np.empty(tables.shape[:-1] + (n,), dtype=np.int64)
    for i in range(n):
        counts[..., i] = np.bitwise_count(word_pairs(words, i)[1]).sum(axis=(-2, -1))
    return counts


class CubeTable:
    """An immutable table over the 2^n points of the n-cube.  Subclasses
    validate their input and pass a table of their own, which is marked
    read-only.  Two tables are equal when they have the same type, dimension
    and entries.  ``SetFamily`` and ``BooleanFunction`` expose their boolean
    table as ``to_bool``, and ``Spectrum`` its int64 table as ``s``."""

    __slots__ = ("n", "_table")

    def __init__(self, n: int, table: np.ndarray) -> None:
        n = check_dimension(n)
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
        """The door for every table the package builds, which needs no check or
        copy: another instance's read-only table, an unpickled one, or a fresh
        one that nothing else holds, such as a row of a chunk the package drew."""
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
        n = check_dimension(n)
        return cls._of(n, np.full(1 << n, check_sign(sign) < 0))

    @property
    def values(self) -> np.ndarray:
        """The read-only int8 table of +/-1 values, 1 - 2 row."""
        table = 1 - 2 * self._table.view(np.int8)
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
    a member.  The constructor and ``from_bool`` copy a caller's table, tables
    ucx builds enter through ``_of``, and ``bits`` derives the bitset integer."""

    __slots__ = ()

    def __init__(self, n: int, table) -> None:
        table = np.array(table)
        if table.dtype != np.bool_:
            raise TypeError(f"expected a bool table (from_bits takes a bitset), got {table.dtype}")
        super().__init__(n, table)

    @classmethod
    def empty(cls, n: int) -> "SetFamily":
        n = check_dimension(n)
        return cls._of(n, np.zeros(1 << n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "SetFamily":
        n = check_dimension(n)
        return cls._of(n, np.ones(1 << n, dtype=bool))

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "SetFamily":
        """Build from a bitset integer whose bit ``mask`` marks a member."""
        n = check_dimension(n)
        bits = check_int(bits, "bitset", 0)
        if bits.bit_length() > 1 << n:  # its own range test: 2^(2^n) is never printed
            raise ValueError(f"bitset does not fit in 2^{n} bits")
        return cls._of(n, bits_to_bool(bits, n))

    @classmethod
    def from_members(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        n = check_dimension(n)
        table = np.zeros(1 << n, dtype=bool)
        for m in masks:
            table[check_mask(m, n)] = True
        return cls._of(n, table)

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
        return SetFamily._of(self.n, ~self._table)

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
        x = check_int(x, "subset mask", 0)  # no upper bound: a character has no n
        return self.sign * (1 - 2 * ((x & self.support).bit_count() & 1))

    def to_bool(self, n: int) -> np.ndarray:
        """Membership table over the n-cube, True where the character is -1:
        the parity of x AND support, xor sign < 0.  Built by doubling: the
        points with bit i set repeat those below 2^i, flipped if i is in the
        support."""
        n = check_dimension(n)
        if self.support.bit_length() > n:
            raise DimensionError(f"support mask {self.support} does not fit in dimension {n}")
        table = np.empty(1 << n, dtype=bool)
        table[0] = self.sign < 0
        for i in range(n):
            low, high = table[:1 << i], table[1 << i:2 << i]
            if self.support >> i & 1:
                np.logical_not(low, out=high)
            else:
                high[...] = low
        return table

    def values(self, n: int) -> np.ndarray:
        """The read-only int8 value table over the whole n-cube."""
        return BooleanFunction._of(n, self.to_bool(n)).values


def eval_character(spec: CharacterSpec, x: int) -> int:
    return spec.eval(x)


def family_to_function(family: SetFamily) -> BooleanFunction:
    """Membership function of a family, -1 on members: the same table."""
    return BooleanFunction._of(family.n, family.to_bool())


def function_to_family(f: BooleanFunction) -> SetFamily:
    """Inverse of family_to_function: the points where f is -1, the same table."""
    return SetFamily._of(f.n, f.to_bool())


GLike = Union[BooleanFunction, CharacterSpec, Sequence, np.ndarray]


def dist(f: BooleanFunction, g: GLike) -> Fraction:
    """Normalized Hamming distance between +/-1 functions: the share of points
    where their membership tables differ.  ``g`` is a ``BooleanFunction``, a
    ``CharacterSpec`` (read as its membership table ``to_bool(n)``) or a +/-1
    integer table, which the ``BooleanFunction`` constructor checks:
    ``TypeError`` for any other dtype, ``ValueError`` for other values,
    ``DimensionError`` for a wrong shape or dimension."""
    if isinstance(g, CharacterSpec):
        g = BooleanFunction._of(f.n, g.to_bool(f.n))
    elif not isinstance(g, BooleanFunction):
        g = np.asarray(g)
        if not np.issubdtype(g.dtype, np.integer):
            raise TypeError(f"expected an integer table, got {g.dtype}")
        g = BooleanFunction(f.n, g)
    if g.n != f.n:
        raise DimensionError(f"dimension mismatch: {f.n} vs {g.n}")
    return Fraction(int(np.count_nonzero(f.to_bool() != g.to_bool())), 1 << f.n)


def inner_product(f: BooleanFunction, g: GLike) -> Fraction:
    """Normalized correlation, the average of f(x)g(x) over the cube, exact:
    1 - 2 dist(f, g), with ``g`` taken as ``dist`` takes it."""
    return 1 - 2 * dist(f, g)
