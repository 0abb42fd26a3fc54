"""Exact Fourier analysis on the cube via the integer Walsh-Hadamard transform.

The spectrum is kept integer-scaled: ``s(S) = sum_x f(x) * chi_S(x)``, which
is 2^n times the usual normalized coefficient.  Every identity used by the
rest of the package (Parseval, level weights, the mean and first-level
closed forms) is then an exact integer statement with zero tolerance.

The transform runs as float32 matrix products (``fwht_rows``), and is still
exact: each value it forms is an integer of magnitude at most 2^n <= 2^24,
and float32 represents every integer up to 2^24, so no addition rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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
    level_order,
    popcount_table,
)


class Spectrum(CubeTable):
    """Integer-scaled Fourier data of a +/-1 function, indexed by subset mask."""

    __slots__ = ()

    def __init__(self, n: int, s) -> None:
        table = np.asarray(s)
        if table.dtype == np.bool_ or not np.can_cast(table.dtype, np.int64):
            raise TypeError(f"expected integer coefficients, got {table.dtype}")
        super().__init__(n, table.astype(np.int64))

    @property
    def s(self) -> np.ndarray:
        """The read-only int64 coefficient table."""
        return self._table

    def coefficient(self, mask: int) -> Fraction:
        """Normalized coefficient s(S)/2^n."""
        return Fraction(int(self.s[check_mask(mask, self.n)]), 1 << self.n)

    def __repr__(self) -> str:
        return f"Spectrum(n={self.n}, s={self.s.tolist() if self.n <= 3 else '...'})"


# H_{2^n} = H_{2^{f_k}} x ... x H_{2^{f_1}}, each f <= _FACTOR_BITS.  Each
# product multiplies 2^{-f} _GEMM_VOLUME entries by H_{2^f}, so it does at most
# 2^18 = 64^3 multiply-adds: OpenBLAS runs a GEMM that small on the calling
# thread alone, and forked pool workers do not oversubscribe the cores.
_FACTOR_BITS = 6
_GEMM_VOLUME = 1 << 18


@lru_cache(maxsize=None)
def _hadamard32(bits: int) -> np.ndarray:
    """Read-only float32 Sylvester matrix H[a, b] = (-1)^{|a AND b|} of order 2^bits."""
    masks = np.arange(1 << bits)
    h = 1 - 2 * (popcount_table(bits)[masks[:, None] & masks] & 1).astype(np.float32)
    h.setflags(write=False)
    return h


def _factor_bits(n: int) -> list[int]:
    """n split into ceil(n / _FACTOR_BITS) near-equal parts."""
    k = -(-n // _FACTOR_BITS)
    return [n // k + (j < n % k) for j in range(k)]


def fwht_rows(mat: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of each row of an int64 matrix whose
    entries lie in [-1, 1] and whose row length is 2^n with n <= 24;
    ``ValueError`` before any write otherwise.

    Each Kronecker factor H_{2^f}, acting on bits [s, s + f) of the column
    index, is applied by multiplying float32 copies of at most
    ``_GEMM_VOLUME >> f`` entries by ``_hadamard32(f)``.  This is exact: every
    output and every partial sum, in whatever order BLAS adds, is a signed
    subset sum of one row, so its magnitude is at most 2^n <= 2^24, and
    float32 holds every integer up to 2^24."""
    rows, cols = mat.shape
    if cols & (cols - 1) or not 1 <= cols <= 1 << HARD_MAX_N:
        raise ValueError(f"fwht_rows needs rows of 2^n entries, n <= {HARD_MAX_N}; got {cols}")
    if mat.size == 0:
        return
    if mat.max() > 1 or mat.min() < -1:
        raise ValueError("fwht_rows needs entries in [-1, 1]")
    s = 0
    for f in _factor_bits(cols.bit_length() - 1):
        h = _hadamard32(f)
        budget = _GEMM_VOLUME >> f
        # split only the last axis, so this is a view for any memory layout
        view = mat.reshape(rows, cols >> (f + s), 1 << f, 1 << s)
        row_step = max(1, budget // cols)
        block_step = max(1, budget >> (f + s))
        col_step = min(1 << s, budget >> f)
        for r in range(0, rows, row_step):
            for b in range(0, view.shape[1], block_step):
                for c in range(0, 1 << s, col_step):
                    chunk = view[r:r + row_step, b:b + block_step, :, c:c + col_step]
                    x = chunk.astype(np.float32).reshape(-1, 1 << f, chunk.shape[-1])
                    y = x[..., 0] @ h if s == 0 else np.matmul(h, x)
                    chunk[...] = y.reshape(chunk.shape)
        s += f


def spectrum_rows(tables: np.ndarray) -> np.ndarray:
    """Integer spectra of the membership functions of the rows of a boolean
    (rows, 2^n) table, as an int64 (rows, 2^n) array."""
    spec = tables.astype(np.int64)
    spec *= -2  # 1 - 2 * member, in place: no second int64 table
    spec += 1
    fwht_rows(spec)
    return spec


def first_level_rows(tables: np.ndarray, n: int) -> np.ndarray:
    """Per row of membership tables (..., 2^n): the first-level coefficients
    s({i}) = 2 (2|F_i| - |F|) read off the frequencies, with no transform, as
    int64 (..., n)."""
    sizes = np.count_nonzero(tables, axis=-1, keepdims=True)
    return 2 * (2 * frequency_rows(tables, n) - sizes)


def transform(f: BooleanFunction) -> Spectrum:
    """Full spectrum by ``fwht_rows``: O(n 2^n) work in ceil(n/6) passes."""
    return Spectrum._of(f.n, spectrum_rows(f.to_bool()[None])[0])


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


def parseval_sum(spec: Spectrum) -> int:
    """Sum of squared integer coefficients; equals 4^n for +/-1 functions."""
    return int(np.dot(spec.s, spec.s))


def level_sum_rows(spectra: np.ndarray, n: int) -> np.ndarray:
    """Per row of integer spectra (..., 2^n): the sums of s(S)^2 over each level
    |S| = k, as int64 (..., n+1), read with one gather of a slice of the cached
    level order and one dot product per level: no table of squares is built
    and the input is only read."""
    order, bounds = level_order(n)
    out = np.empty(spectra.shape[:-1] + (n + 1,), dtype=np.int64)
    for k in range(n + 1):
        level = np.take(spectra, order[bounds[k]:bounds[k + 1]], axis=-1)
        out[..., k] = np.einsum("...j,...j->...", level, level)
    return out


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
