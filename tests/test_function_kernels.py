"""One oracle table for the batched function kernels.

Each row of ``KERNELS`` pairs a row kernel of ``ucx`` that reads functions,
spectra or their summaries with an oracle: ``naive_transform`` for every
spectral quantity, and otherwise the definition read point by point, from
``oracles.py``.  The inputs are the tables of ``oracles.batch`` read as
membership functions (-1 on members): every table at n <= 3 as one batch,
and seeded rows at n = 4..10.  Each batch is handed over as 0, 1 and all
rows, with leading dimensions (2, 3), in C, Fortran and strided layouts,
and read-only; a kernel must leave its input unchanged.  Every row also runs
with the spectral block size cut to 2^7 entries, so block edges, row
segments and the factors on high bits show at these small n.
"""

import ast
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from oracles import (
    batch,
    layouts,
    oracle_corollary_bounds,
    oracle_frequencies,
    oracle_level_sums,
    oracle_margin,
    oracle_nearest_signed,
    oracle_pairs,
    rowwise,
)
from test_family_kernels import KERNELS as FAMILY_KERNELS

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


# ---------------------------------------------------------------------------
# the inputs and the table


@lru_cache(maxsize=None)
def signs(n: int) -> np.ndarray:
    """The +/-1 values of the membership functions of ``batch(n)``."""
    return np.where(batch(n), -1, 1)


@lru_cache(maxsize=None)
def spectra(n: int) -> np.ndarray:
    """``naive_transform`` of every row of ``signs(n)``."""
    return np.array([naive_transform(BooleanFunction(n, row)).s for row in signs(n)])


@lru_cache(maxsize=None)
def ks_members(n: int) -> np.ndarray:
    """The +/-1 values of the + members of the quadratic class, in class order."""
    return np.array([m.values(n) for m in ks_enumerate(n) if m.sign == 1], dtype=np.int64)


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
    "frequency_rows": Kernel(frequency_rows, batch, lambda n: oracle_frequencies(batch(n), n)),
    "flip_count_rows": Kernel(flip_count_rows, batch, lambda n: sum(oracle_pairs(batch(n), n))),
    "pair_count_rows": Kernel(pair_count_rows, batch, lambda n: oracle_pairs(batch(n), n)),
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


@pytest.mark.parametrize("block_bits", [None, 7], ids=["default blocks", "2^7-entry blocks"])
def test_function_level_rows_at_the_float_bounds(block_bits, monkeypatch):
    """Past the table's n <= 10, on closed forms: a constant row has all of
    4^n on level 0, and the row of the character chi_S or of -chi_S all of
    it on level |S|.  A level sum reaches 2^24, the float32 ceiling, at
    n = 12; n = 13 is the first float64 size, n = 15 the last that fits a
    block and n = 16 runs through ``level_sum_rows``.  A row with one member,
    or all but one, has s(empty) = +/-(2^n - 2), whose square is no float32
    at n >= 14, and s(S) = +/-2 elsewhere: level sums (2^n - 2)^2 and
    4 C(n, k).  Seeded random rows are checked against the int64 squares of
    ``fwht_rows`` summed per popcount class.  With 2^7-entry blocks every
    size here runs through ``level_sum_rows``."""
    if block_bits is not None:
        monkeypatch.setattr(spectral, "_BLOCK_BITS", block_bits, raising=False)
        monkeypatch.setattr(spectral, "_BLOCK_ENTRIES", 1 << block_bits, raising=False)
    for n in (11, 12, 13, 14, 15, 16):
        popcounts, levels = np.bitwise_count(np.arange(1 << n)), np.arange(n + 1)
        odd = np.bitwise_count(np.arange(1 << n) & ((1 << levels[:, None]) - 1)) & 1 == 1
        characters = np.concatenate([odd, ~odd])  # chi_S, S = {1..k}, then -chi_S; k = 0: constants
        single = np.arange(1 << n) == 5
        random = np.random.default_rng([n, 37]).random((3, 1 << n)) < 0.5
        squares = fwht_rows(random) ** 2
        one_member = [(2 ** n - 2) ** 2] + [4 * comb(n, k) for k in range(1, n + 1)]
        want = np.concatenate([np.tile(np.eye(n + 1, dtype=np.int64) << (2 * n), (2, 1)),
                               [one_member, one_member],
                               np.stack([squares[:, popcounts == k].sum(axis=1) for k in levels], 1)])
        got = function_level_rows(np.concatenate([characters, [single, ~single], random]), n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n


def test_every_row_kernel_of_the_package_has_an_oracle():
    """Every top-level ``def *_rows`` of ``src/ucx`` has a row in this table
    or in the family kernels' table."""
    kernels = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        kernels |= {node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.endswith("_rows")}
    assert kernels and kernels <= set(KERNELS) | set(FAMILY_KERNELS)
