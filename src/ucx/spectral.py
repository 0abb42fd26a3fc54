"""Exact Fourier analysis on the cube via the integer Walsh-Hadamard transform.

The spectrum is kept integer-scaled: ``s(S) = sum_x f(x) * chi_S(x)``, which
is 2^n times the usual normalized coefficient.  Every identity used by the
rest of the package (Parseval, level weights, the mean and first-level
closed forms) is then an exact integer statement with zero tolerance.

The one transform kernel, ``fwht_rows``, reads boolean membership rows a
block at a time into float32 and runs it through matrix products.  It is
still exact: each value it forms is an integer of magnitude at most
2^n <= 2^24, and float32 represents every integer up to 2^24, so no addition
rounds.  The level sums have one reduction, ``_by_level``: float squares
times one-hot popcount matrices in BLAS.  ``function_level_rows`` feeds it
each transform block squared (float32 at n <= 12, float64 to n = 15), with
no spectra table, and ``level_sum_rows`` the float64 squares of integer
spectra.  Every partial sum is an integer the float holds: at most 4^n,
2^24 or 2^30, on the first path, and below 2^53, as checked, on the second.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .core import (
    HARD_MAX_N,
    BooleanFunction,
    CubeTable,
    SetFamily,
    check_int,
    check_mask,
    family_to_function,
    frequency_rows,
)


def _integer_table(table: np.ndarray) -> np.ndarray:
    """``table``, if its entries are integers that int64 holds (not bools)."""
    if table.dtype == np.bool_ or not np.can_cast(table.dtype, np.int64):
        raise TypeError(f"expected integer coefficients, got {table.dtype}")
    return table


class Spectrum(CubeTable):
    """Integer-scaled Fourier data of a +/-1 function, indexed by subset mask."""

    __slots__ = ()

    def __init__(self, n: int, s) -> None:
        super().__init__(n, _integer_table(np.asarray(s)).astype(np.int64))

    @property
    def s(self) -> np.ndarray:
        """The read-only int64 coefficient table."""
        return self._table

    def coefficient(self, mask: int) -> Fraction:
        """Normalized coefficient s(S)/2^n."""
        return Fraction(int(self.s[check_mask(mask, self.n)]), 1 << self.n)

    def __repr__(self) -> str:
        return f"Spectrum(n={self.n}, s={self.s.tolist() if self.n <= 3 else '...'})"


# H_{2^n} = H_{2^{f_k}} x ... x H_{2^{f_1}}, each f <= _FACTOR_BITS: a factor
# H_{2^f} costs 2^f multiply-adds per entry, so n = 12 runs as H_16 x H_16 x
# H_16 (48), not H_64 x H_64 (128).  Each BLAS product multiplies by one
# H_{2^f} with at most _GEMM_VOLUME = 2^18 multiply-adds: OpenBLAS runs a
# product that small on the calling thread alone, and forked pool workers do
# not oversubscribe the cores.  (It adds a thread only from 2^19 on, so the level
# sums' one-hot products (at most 13 * 2^15 a block, 25 * 2^13 a row) run there too.)
# Rows pass through the kernels in blocks of at most _BLOCK_ENTRIES = 2^15
# entries (128 kB of float32, 256 kB of int64), which stay in L2.
_FACTOR_BITS = 5
_GEMM_VOLUME = 1 << 18
_BLOCK_BITS = 15
_BLOCK_ENTRIES = 1 << _BLOCK_BITS


@lru_cache(maxsize=None)
def _hadamard32(bits: int) -> np.ndarray:
    """Read-only float32 Sylvester matrix H[a, b] = (-1)^{|a AND b|} of order 2^bits."""
    masks = np.arange(1 << bits)
    h = 1 - 2 * (np.bitwise_count(masks[:, None] & masks) & 1).astype(np.float32)
    h.setflags(write=False)
    return h


def _factor_bits(n: int) -> list[int]:
    """n split into ceil(n / _FACTOR_BITS) near-equal parts."""
    k = -(-n // _FACTOR_BITS)
    return [n // k + (j < n % k) for j in range(k)]


def _blocks(shape: tuple[int, int, int]):
    """Index slices [r:r + a, q:q + b] that tile a (rows, segments, width)
    array in order, each block holding at most max(width, _BLOCK_ENTRIES)
    entries: whole rows when they fit, else runs of one row's segments."""
    rows, segments, width = shape
    per = max(1, _BLOCK_ENTRIES // width)
    row_step, segment_step = max(1, per // segments), min(segments, per)
    for r in range(0, rows, row_step):
        for q in range(0, segments, segment_step):
            yield np.s_[r:r + row_step, q:q + segment_step]


def _apply(h: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """y[j] = h @ x[j] for float32 stacks x, y of shape (g, len(h), width), by
    stacked products of at most _GEMM_VOLUME multiply-adds: numpy's matmul
    makes one BLAS call per stacked matrix."""
    g, size, width = x.shape
    cap = _GEMM_VOLUME // (size * size)
    if width == 1:  # the vectors are rows: x @ h (h is symmetric), k rows a product
        k = min(g & -g, cap)
        np.matmul(x.reshape(-1, k, size), h, out=y.reshape(-1, k, size))
    else:  # column slices of width w, each with row stride ``width``
        w = min(width, cap)
        shape = (g, size, width // w, w)
        np.matmul(h, x.reshape(shape).swapaxes(1, 2), out=y.reshape(shape).swapaxes(1, 2))


def _cube_bits(tables: np.ndarray) -> int:
    """n for a boolean (rows, 2^n) table, n <= 24."""
    _, cols = tables.shape
    if cols & (cols - 1) or not 1 <= cols <= 1 << HARD_MAX_N:
        raise ValueError(f"fwht_rows needs rows of 2^n entries, n <= {HARD_MAX_N}; got {cols}")
    if tables.dtype != np.bool_:
        raise TypeError(f"fwht_rows needs a boolean table, got {tables.dtype}")
    return cols.bit_length() - 1


def _factors(n: int) -> tuple[list[np.ndarray], list[int], int]:
    """The factors H_{2^f} of H_{2^n}, the bit each starts at (factor j acts
    on bits [starts[j], starts[j + 1])), and how many act within a block."""
    bits = _factor_bits(n)
    starts = [0, *accumulate(bits)]
    return [_hadamard32(f) for f in bits], starts, bisect_right(starts, _BLOCK_BITS) - 1


def _float32_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float32 blocks for a table of ``size`` entries."""
    return tuple(np.empty(min(size, _BLOCK_ENTRIES), dtype=np.float32) for _ in range(2))


def _low_products(tables: np.ndarray, factors, a: np.ndarray, b: np.ndarray):
    """Per block of row segments of a boolean (rows, 2^n) table: its index
    [r:r + p, c:c + q] into the table and its float32 entries 1 - 2 member
    multiplied by every one of ``_factors(n)`` that acts within a block, a
    view of the ``_float32_buffers`` a or b that the next block overwrites."""
    hadamards, starts, split = factors
    low = starts[split]
    shape = (len(tables), tables.shape[1] >> low, 1 << low)
    members = tables.reshape(shape)
    for rows, segments in _blocks(shape):
        block = members[rows, segments]
        x, y = a[:block.size], b[:block.size]
        np.multiply(block, np.float32(-2), out=x.reshape(block.shape))
        x += 1
        for h, s in zip(hadamards[:split], starts):
            _apply(h, x.reshape(-1, len(h), 1 << s), y.reshape(-1, len(h), 1 << s))
            x, y = y, x
        yield np.s_[rows, segments.start << low:segments.stop << low], x.reshape(len(block), -1)


def fwht_rows(tables: np.ndarray) -> np.ndarray:
    """Integer spectra of the membership functions of the rows of a boolean
    (rows, 2^n) table, n <= 24, as a new int64 array.  Each block of row
    segments is read into float32 as 1 - 2 member, multiplied by every factor
    H_{2^f} on its low bits and written out once; a factor on bits above
    ``_BLOCK_BITS`` (n > 15) runs on float32 copies of the output's column
    chunks.  Exact: every partial sum is a signed sum of at most 2^n <= 2^24
    entries of +/-1, and float32 holds every integer up to 2^24."""
    n = _cube_bits(tables)
    spec = np.empty(tables.shape, dtype=np.int64)
    if spec.size == 0:
        return spec
    factors = _factors(n)  # the matrices are built, if new, before the buffers
    a, b = _float32_buffers(spec.size)
    for at, x in _low_products(tables, factors, a, b):
        spec[at] = x
    hadamards, starts, split = factors
    for h, s in zip(hadamards[split:], starts[split:]):
        size = len(h)
        w = min(1 << s, _BLOCK_ENTRIES // size)
        view = spec.reshape(len(spec), (1 << n) // (size << s), size, (1 << s) // w, w)
        x, y = a[:size * w].reshape(1, size, w), b[:size * w].reshape(1, size, w)
        for r, q, c in np.ndindex(len(spec), view.shape[1], view.shape[3]):
            chunk = view[r, q, :, c]
            x[0] = chunk
            _apply(h, x, y)
            chunk[...] = y[0]
    return spec


@lru_cache(maxsize=None)
def _level_onehot(bits: int, low: int, dtype) -> np.ndarray:
    """Read-only one-hot matrix C[h (low + 1) + i, |h| + i] = 1 of ``dtype``,
    h < 2^bits, i <= low: it lifts sums over the levels i of the low bits, one
    run of low + 1 per high mask h, to all bits.  With low = 0, C[h, |h|] = 1."""
    levels = (np.bitwise_count(np.arange(1 << bits))[:, None] + np.arange(low + 1)).ravel()
    c = (levels[:, None] == np.arange(bits + low + 1)).astype(dtype)
    c.setflags(write=False)
    return c


def _by_level(squares: np.ndarray, bits: int, low: int) -> np.ndarray:
    """The level sums (rows, bits + 1) of a float (rows, 2^bits) block of squares:
    one-hot products in its dtype over the low ``low`` bits, then the rest."""
    sums = squares.reshape(-1, 1 << low) @ _level_onehot(low, 0, squares.dtype.type)
    if low < bits:
        sums = sums.reshape(len(squares), -1) @ _level_onehot(bits - low, low, squares.dtype.type)
    return sums


def function_level_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of a boolean (rows, 2^n) table: ``level_sum_rows(fwht_rows(tables),
    n)`` without the spectra table.  While a row fits in a block (2^n <=
    ``_BLOCK_ENTRIES``), each block's spectra are squared in float32 (n <= 12,
    low = n) or float64 (low = ceil(n/2)) and summed by ``_by_level``.  Exact
    in any summation order: every partial sum is an integer in [0, 4^n], and
    4^n <= 2^24 (float32) or 2^30 (float64)."""
    if _cube_bits(tables) != n:
        raise ValueError(f"expected rows of 2^{n} entries, got {tables.shape[1]}")
    if 1 << n > _BLOCK_ENTRIES:
        return level_sum_rows(fwht_rows(tables), n)
    exact, low = (np.float32, n) if n <= 12 else (np.float64, -(-n // 2))
    out = np.empty((len(tables), n + 1), dtype=np.int64)
    squares = np.empty(min(tables.size, _BLOCK_ENTRIES), dtype=exact)
    for (rows, _), x in _low_products(tables, _factors(n), *_float32_buffers(tables.size)):
        # dtype=exact: numpy would square a float32 x in float32, rounding at n >= 14
        out[rows] = _by_level(np.square(x, out=squares[:x.size].reshape(x.shape), dtype=exact),
                              n, low)
    return out


def first_level_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of membership tables (..., 2^n): the first-level coefficients
    s({i}) = 2 (2|F_i| - |F|) read off the frequencies, with no transform, as
    int64 (..., n)."""
    sizes = np.count_nonzero(tables, axis=-1, keepdims=True)
    return 2 * (2 * frequency_rows(tables, n) - sizes)


def transform(f: BooleanFunction) -> Spectrum:
    """Full spectrum: ``fwht_rows`` on the function's membership row."""
    return Spectrum._of(f.n, fwht_rows(f.to_bool()[None])[0])


def naive_transform(f: BooleanFunction) -> Spectrum:
    """Definition-level O(4^n) double loop; the oracle for ``transform``."""
    n = f.n
    if n > 12:
        raise ValueError("naive transform is an oracle for small n only")
    values = f.values.tolist()
    out = []
    for s_mask in range(1 << n):
        acc = 0
        for x, v in enumerate(values):
            acc += v if (x & s_mask).bit_count() % 2 == 0 else -v
        out.append(acc)
    return Spectrum(n, out)


def level_sum_rows(spectra: np.ndarray, n: int) -> np.ndarray:
    """Per row of integer spectra (..., 2^n): the sums of s(S)^2 over each level
    |S| = k, as int64 (..., n+1), from float64 squares of segments of 2^b masks,
    b = min(n, 15), taken in blocks of at most 2^15 entries and summed by
    ``_by_level``; one more one-hot product lifts each segment's sums by the
    popcount of its high bits.  ``ValueError`` unless the rows hold 2^n entries,
    ``TypeError`` unless int64 holds them, ``ValueError`` if a level sum reaches
    2^53: the terms are nonnegative and rounding is monotone, so a sum read
    below 2^53 is exact, and a true one of 2^53 or more never reads below it.
    (+/-1 functions' sums total 4^n <= 2^48.)"""
    if spectra.shape[-1] != 1 << n:
        raise ValueError(f"expected rows of 2^{n} entries, got {spectra.shape[-1]}")
    b = min(n, _BLOCK_BITS)
    segments = _integer_table(spectra).reshape(-1, (1 << n) >> b, 1 << b)
    partial = np.empty(segments.shape[:2] + (b + 1,))
    squares = np.empty(min(segments.size, _BLOCK_ENTRIES))
    for at in _blocks(segments.shape):
        block = segments[at]
        # dtype: without it numpy squares in int64, which wraps, and then casts
        block = np.square(block, out=squares[:block.size].reshape(block.shape), dtype=np.float64)
        partial[at] = _by_level(block.reshape(-1, 1 << b), b, -(-b // 2)).reshape(partial[at].shape)
    out = partial.reshape(len(partial), (b + 1) << (n - b)) @ _level_onehot(n - b, b, np.float64)
    if out.max(initial=0) >= 1 << 53:
        raise ValueError("a level sum reaches 2^53, beyond float64's exact integers")
    return out.astype(np.int64).reshape(spectra.shape[:-1] + (n + 1,))


def level_sums(spec: Spectrum) -> tuple[int, ...]:
    """Sum of s(S)^2 over each level |S| = k; entry k is 4^n * W^k."""
    return tuple(level_sum_rows(spec.s, spec.n).tolist())


def level_weight(spec: Spectrum, k: int) -> Fraction:
    """Total squared coefficient mass on level k, exact."""
    return Fraction(level_sums(spec)[check_int(k, "level", 0, spec.n)], 1 << (2 * spec.n))


def level_weights(spec: Spectrum) -> tuple[Fraction, ...]:
    four_n = 1 << (2 * spec.n)
    return tuple(Fraction(v, four_n) for v in level_sums(spec))


def mean_identity_check(f: BooleanFunction) -> tuple[Fraction, Fraction]:
    """Mean coefficient two ways: from the spectrum, and from |f^{-1}(-1)|.

    Returns (s(empty)/2^n, 1 - 2^{1-n} |f^{-1}(-1)|); the two are always equal.
    """
    lhs = transform(f).coefficient(0)
    rhs = 1 - Fraction(2 * f.minus_count(), 1 << f.n)
    return lhs, rhs


def first_level_identity(family: SetFamily, i: int) -> tuple[Fraction, Fraction]:
    """First-level coefficient of the membership function two ways.

    Returns (coefficient of the singleton {i} from the spectrum,
    2^{1-n} (2|F_i| - |F|)); always equal, and positive exactly when element
    i appears in more than half the members.
    """
    i = check_int(i, "element", 1, family.n)
    spec = transform(family_to_function(family))
    frequency_form = first_level_rows(family.to_bool(), family.n)[i - 1]
    return spec.coefficient(1 << (i - 1)), Fraction(int(frequency_form), 1 << family.n)
