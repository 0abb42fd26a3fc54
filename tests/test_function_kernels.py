"""One oracle table for the batched function kernels.

Each row of ``KERNELS`` pairs a row kernel of ``ucx`` that reads functions,
spectra or their summaries with an oracle written here: ``naive_transform``
for every spectral quantity, and otherwise the definition read point by
point.  The inputs are the tables of ``test_family_kernels.batch`` read as
membership functions (-1 on members): every table at n <= 3 as one batch,
and seeded rows at n = 4..10.  Each batch is handed over as 0, 1 and all
rows, with leading dimensions (2, 3), in C, Fortran and strided layouts,
and read-only; a kernel must leave its input unchanged.  Every row also runs
with the spectral block size cut to 2^7 entries, so block edges, row
segments and the factors on high bits show at these small n.
"""

import ast
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from test_family_kernels import KERNELS as FAMILY_KERNELS
from test_family_kernels import batch, layouts

from ucx import spectral
from ucx.core import BooleanFunction, frequency_rows
from ucx.extremal import ks_correlation_rows, ks_enumerate, nearest_signed_rows
from ucx.influence import corollary_bound_rows, flip_count_rows, pair_count_rows
from ucx.spectral import (
    first_level_rows,
    function_level_rows,
    fwht_rows,
    level_sum_rows,
    naive_transform,
)
from ucx.verify import conjecture2_margin_rows

SRC = Path(__file__).resolve().parent.parent / "src" / "ucx"
DIMENSIONS = range(1, 11)


@lru_cache(maxsize=None)
def signs(n: int) -> np.ndarray:
    """The +/-1 values of the membership functions of ``batch(n)``."""
    return np.where(batch(n), -1, 1)


@lru_cache(maxsize=None)
def spectra(n: int) -> np.ndarray:
    """``naive_transform`` of every row of ``signs(n)``."""
    return np.array([naive_transform(BooleanFunction(n, row)).s for row in signs(n)])


# ---------------------------------------------------------------------------
# per-row oracles


def oracle_level_sums(spectrum, n):
    """Sum of s(S)^2 over the masks S with k elements, for k = 0..n."""
    return [sum(int(v) ** 2 for mask, v in enumerate(spectrum) if mask.bit_count() == k)
            for k in range(n + 1)]


def oracle_frequencies(table, n):
    """How many members contain element i + 1."""
    return [sum(bool(table[x]) for x in range(1 << n) if x >> i & 1) for i in range(n)]


def oracle_pairs(table, n):
    """Per coordinate: enter pairs (x outside, x + e_i a member) and exit pairs."""
    lows = [[x for x in range(1 << n) if not x >> i & 1] for i in range(n)]
    enter = [sum(bool(~table[x] & table[x | 1 << i]) for x in low) for i, low in enumerate(lows)]
    leave = [sum(bool(table[x] & ~table[x | 1 << i]) for x in low) for i, low in enumerate(lows)]
    return enter, leave


def oracle_corollary_bounds(levels, n):
    """4^n (k - sum_{i<k} (k - i) W^i) for k = 1..n, with W^i = levels[i] / 4^n."""
    four_n = 1 << (2 * n)
    return [int(four_n * (k - sum(Fraction((k - i) * int(levels[i]), four_n) for i in range(k))))
            for k in range(1, n + 1)]


@lru_cache(maxsize=None)
def ks_members(n: int) -> np.ndarray:
    """The +/-1 values of the + members of the quadratic class, in class order."""
    return np.array([m.values(n) for m in ks_enumerate(n) if m.sign == 1], dtype=np.int64)


def oracle_nearest_signed(corr):
    """The first of (member, +), (member, -) in member order whose signed
    correlation is largest."""
    candidates = [(sign * int(c), j, sign) for j, c in enumerate(corr) for sign in (1, -1)]
    best = max(value for value, _, _ in candidates)
    _, member, sign = next(c for c in candidates if c[0] == best)
    return member, sign, best


def oracle_margin(size, enter, n):
    """The largest k in [0, n - 1] with mean coefficient 1 - 2|F|/2^n at most
    -(1 - 2^-k), or -1; and (k + 1) 2^-k - I^+ scaled by 2^(n-1), with a cap
    of 0 at k = -1."""
    mean = 1 - Fraction(2 * int(size), 1 << n)
    k = max([j for j in range(n) if mean <= -(1 - Fraction(1, 1 << j))], default=-1)
    cap = 0 if k < 0 else Fraction(k + 1, 1 << k) * (1 << (n - 1))
    return k, int(cap) - int(enter)


# ---------------------------------------------------------------------------
# the inputs and the table


@lru_cache(maxsize=None)
def levels(n: int) -> np.ndarray:
    return rowwise(oracle_level_sums, spectra)(n)


@lru_cache(maxsize=None)
def correlations(n: int) -> np.ndarray:
    """Integer correlations with ties, n + 1 candidates per row."""
    return np.random.default_rng([n, 29]).integers(-3, 4, size=(len(batch(n)), n + 1))


@lru_cache(maxsize=None)
def size_enter(n: int) -> np.ndarray:
    """(size, enter-pair count) per row: the batch's own, then every size at
    random enter counts."""
    own = np.stack([np.count_nonzero(batch(n), axis=1),
                    pair_count_rows(batch(n), n)[0].sum(axis=1)], axis=1)
    sizes = np.arange((1 << n) + 1)
    drawn = np.random.default_rng([n, 31]).integers(0, n << (n - 1), size=len(sizes), endpoint=True)
    return np.concatenate([own, np.stack([sizes, drawn], axis=1)])


def rowwise(oracle, inputs):
    """The batch oracle that runs a per-row oracle on every row of ``inputs(n)``."""
    def run(n):
        found = [oracle(row, n) for row in inputs(n)]
        if isinstance(found[0], tuple):
            return tuple(np.array(column) for column in zip(*found))
        return np.array(found)
    return run


class Kernel(NamedTuple):
    call: Callable  # (input batch, n) -> the kernel's output(s)
    inputs: Callable  # n -> the input batch
    oracle: Callable  # n -> the outputs on inputs(n)
    leading: bool = True  # takes (..., width) inputs, not only (rows, width)
    low: int = 1  # the smallest n it accepts


def _margins(pairs, n):
    return conjecture2_margin_rows(pairs[..., 0], pairs[..., 1], n)


KERNELS = {
    "fwht_rows": Kernel(lambda t, n: fwht_rows(t), batch, spectra, leading=False),
    "level_sum_rows": Kernel(level_sum_rows, spectra, levels),
    "function_level_rows": Kernel(function_level_rows, batch, levels, leading=False),
    "first_level_rows": Kernel(first_level_rows, batch,
                               lambda n: spectra(n)[:, 1 << np.arange(n)]),
    "frequency_rows": Kernel(frequency_rows, batch, rowwise(oracle_frequencies, batch)),
    "flip_count_rows": Kernel(flip_count_rows, batch,
                              lambda n: sum(rowwise(oracle_pairs, batch)(n))),
    "pair_count_rows": Kernel(pair_count_rows, batch, rowwise(oracle_pairs, batch)),
    "corollary_bound_rows": Kernel(corollary_bound_rows, levels,
                                   rowwise(oracle_corollary_bounds, levels)),
    "ks_correlation_rows": Kernel(ks_correlation_rows, spectra,
                                  lambda n: 2 * signs(n) @ ks_members(n).T, leading=False, low=2),
    "nearest_signed_rows": Kernel(lambda corr, n: nearest_signed_rows(corr), correlations,
                                  rowwise(lambda corr, n: oracle_nearest_signed(corr), correlations),
                                  leading=False),
    "conjecture2_margin_rows": Kernel(_margins, size_enter,
                                      rowwise(lambda pair, n: oracle_margin(*pair, n), size_enter)),
}


@lru_cache(maxsize=None)
def expected(name: str, n: int) -> tuple:
    want = KERNELS[name].oracle(n)
    return want if isinstance(want, tuple) else (want,)


@pytest.mark.parametrize("block_bits", [None, 7], ids=["default blocks", "2^7-entry blocks"])
@pytest.mark.parametrize("name", KERNELS)
def test_function_kernel_matches_its_oracle(name, block_bits, monkeypatch):
    if block_bits is not None:  # read by spectral's block kernels
        monkeypatch.setattr(spectral, "_BLOCK_BITS", block_bits, raising=False)
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 1 << block_bits, raising=False)
    kernel = KERNELS[name]
    for n in DIMENSIONS[kernel.low - 1:]:
        want = expected(name, n)
        for label, given, index in layouts(kernel.inputs(n)):
            if not kernel.leading and given.ndim > 2:
                continue
            before = given.copy()
            got = kernel.call(given, n)
            got = got if isinstance(got, tuple) else (got,)
            assert len(got) == len(want), name
            for out, column in zip(got, want):
                assert out.dtype == np.int64 and np.array_equal(out, column[index]), (name, n, label)
            assert np.array_equal(given, before), (name, n, label)


def test_every_row_kernel_of_the_package_has_an_oracle():
    """Every top-level ``def *_rows`` of ``src/ucx`` has a row in this table
    or in the family kernels' table."""
    kernels = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernels |= {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.endswith("_rows")}
    assert kernels and kernels <= set(KERNELS) | set(FAMILY_KERNELS)
