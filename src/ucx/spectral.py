"""Exact Fourier analysis on the cube via the integer Walsh-Hadamard transform.

The spectrum is kept integer-scaled: ``s(S) = sum_x f(x) * chi_S(x)``, which
is 2^n times the usual normalized coefficient.  Every identity used by the
rest of the package (Parseval, level weights, the mean and first-level
closed forms) is then an exact integer statement with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import (
    BooleanFunction,
    CubeTable,
    SetFamily,
    check_int,
    check_mask,
    coordinate_pairs,
    family_to_function,
    frequency_rows,
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


def fwht_rows(mat: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of each row of an int64 matrix, by the
    copy-free butterfly (a, b) -> (a + b, a - b).  On +/-1 rows every
    intermediate is at most 2^n in absolute value, so int64 stays exact."""
    _, cols = mat.shape
    for i in range(cols.bit_length() - 1):
        low, high = coordinate_pairs(mat, i)
        low += high
        high *= -2
        high += low


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
    """Full spectrum in O(n 2^n) integer butterfly passes."""
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
    |S| = k, as int64 (..., n+1), read with one gather and one dot product per
    level: no table of squares is built and the input is only read."""
    pc = popcount_table(n)
    out = np.empty(spectra.shape[:-1] + (n + 1,), dtype=np.int64)
    for k in range(n + 1):
        level = np.take(spectra, np.flatnonzero(pc == k), axis=-1)
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
