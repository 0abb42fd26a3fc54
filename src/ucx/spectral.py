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
    SetFamily,
    check_dimension,
    family_to_function,
    popcount_table,
)


class Spectrum:
    """Integer-scaled Fourier data of a +/-1 function, indexed by subset mask."""

    __slots__ = ("n", "s")

    def __init__(self, n: int, s) -> None:
        check_dimension(n)
        table = np.array(s, dtype=np.int64)
        if table.shape != (1 << n,):
            raise ValueError(f"expected 2^{n} coefficients, got shape {table.shape}")
        table.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", table)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    def coefficient(self, mask: int) -> Fraction:
        """Normalized coefficient s(S)/2^n."""
        return Fraction(int(self.s[mask]), 1 << self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Spectrum) and self.n == other.n and np.array_equal(self.s, other.s)

    def __hash__(self) -> int:
        return hash((self.n, self.s.tobytes()))

    def __repr__(self) -> str:
        return f"Spectrum(n={self.n}, s={self.s.tolist() if self.n <= 3 else '...'})"


def fwht_rows(mat: np.ndarray) -> None:
    """In-place Walsh-Hadamard transform of each row of an int64 matrix."""
    rows, cols = mat.shape
    h = 1
    while h < cols:
        view = mat.reshape(rows, -1, 2, h)
        low = view[:, :, 0, :].copy()
        view[:, :, 0, :] += view[:, :, 1, :]
        view[:, :, 1, :] = low - view[:, :, 1, :]
        h *= 2


def transform(f: BooleanFunction) -> Spectrum:
    """Full spectrum in O(n 2^n) integer butterfly passes."""
    table = f.values.astype(np.int64).reshape(1, -1)
    fwht_rows(table)
    return Spectrum(f.n, table[0])


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
    s = spec.s.astype(np.int64)
    return int(np.dot(s, s))


def level_sum_rows(squares: np.ndarray, n: int) -> np.ndarray:
    """Per row of squared integer coefficients (..., 2^n): the sums over each
    level |S| = k, as an int64 array (..., n+1)."""
    pc = popcount_table(n)
    out = np.zeros(squares.shape[:-1] + (n + 1,), dtype=np.int64)
    for k in range(n + 1):
        out[..., k] = squares[..., np.nonzero(pc == k)[0]].sum(axis=-1)
    return out


def level_sums(spec: Spectrum) -> tuple[int, ...]:
    """Sum of s(S)^2 over each level |S| = k; entry k is 4^n * W^k."""
    return tuple(level_sum_rows(spec.s.astype(np.int64) ** 2, spec.n).tolist())


def level_weight(spec: Spectrum, k: int) -> Fraction:
    """Total squared coefficient mass on level k, exact."""
    if not 0 <= k <= spec.n:
        raise ValueError(f"level {k} outside [0, {spec.n}]")
    return Fraction(level_sums(spec)[k], 1 << (2 * spec.n))


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
    if not 1 <= i <= family.n:
        raise ValueError(f"element {i} outside [1, {family.n}]")
    spec = transform(family_to_function(family))
    coefficient = spec.coefficient(1 << (i - 1))
    freq = family.frequencies()[i - 1]
    frequency_form = Fraction(2 * (2 * freq - family.size), 1 << family.n)
    return coefficient, frequency_form
