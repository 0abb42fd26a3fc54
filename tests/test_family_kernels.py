"""One oracle table for the batched family kernels.

Each row of ``KERNELS`` pairs a kernel of ``ucx.families`` with its oracle
from ``oracles.py``: the pairwise union scan, the closure built one member
at a time, ``_root_set_naive``'s interval scan, an element-by-element
shadow, or a breadth-first search.  Every row runs on every table at n <= 3
as one batch and on seeded rows at n = 4..13 (``oracles.batch``): sparse,
half and dense random families, union closures with and without the empty
set, a closure with one member dropped, and complements of closures that
hold the empty set, which are simply-rooted.  Each batch is handed over as
0, 1 and all rows, with leading dimensions (2, 3), in C, Fortran and
strided layouts, and read-only; the kernel must leave its input unchanged.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from oracles import (
    batch,
    layouts,
    oracle_closure,
    oracle_component_directions,
    oracle_cover,
    oracle_deficiency,
    oracle_missing_lower,
    oracle_roots,
    oracle_thin_boundary,
    oracle_union_closed,
    rowwise,
)

from ucx.families import (
    closure_rows,
    component_directions,
    cover_table,
    missing_lower_rows,
    root_masks,
    rooted_rows,
    thin_boundary_rows,
    union_closed_rows,
    unique_root_counts,
    uniquely_rooted,
    upper_shadow_deficiency,
)

FAMILIES = Path(__file__).resolve().parent.parent / "src" / "ucx" / "families.py"


@lru_cache(maxsize=None)
def batch_roots(n: int) -> np.ndarray:
    return rowwise(oracle_roots)(n)


def batch_one_root(n: int) -> np.ndarray:
    return np.array([[r.bit_count() == 1 for r in row] for row in batch_roots(n).tolist()])


# ---------------------------------------------------------------------------
# the table: kernel name -> (call on an input batch and n, oracle on n)


class Kernel(NamedTuple):
    call: Callable
    oracle: Callable  # n -> the outputs on batch(n)
    on_roots: bool = False  # the input is the oracle's root masks, not the tables


KERNELS = {
    "cover_table": Kernel(cover_table, rowwise(oracle_cover)),
    "closure_rows": Kernel(closure_rows, rowwise(oracle_closure)),
    "union_closed_rows": Kernel(union_closed_rows, rowwise(oracle_union_closed)),
    "root_masks": Kernel(root_masks, batch_roots),
    "rooted_rows": Kernel(rooted_rows, lambda n: (
        batch_roots(n), np.all(~batch(n) | (batch_roots(n) != 0), axis=1))),
    "uniquely_rooted": Kernel(lambda roots, n: uniquely_rooted(roots), batch_one_root,
                              on_roots=True),
    "unique_root_counts": Kernel(lambda roots, n: unique_root_counts(roots),
                                 lambda n: batch_one_root(n).sum(axis=1), on_roots=True),
    "missing_lower_rows": Kernel(missing_lower_rows, lambda n: oracle_missing_lower(batch(n), n)),
    "upper_shadow_deficiency": Kernel(upper_shadow_deficiency, rowwise(oracle_deficiency)),
    "component_directions": Kernel(component_directions, rowwise(oracle_component_directions)),
    "thin_boundary_rows": Kernel(thin_boundary_rows, rowwise(oracle_thin_boundary)),
}


@pytest.mark.parametrize("name", KERNELS)
def test_family_kernel_matches_its_oracle(name):
    kernel = KERNELS[name]
    for n in range(1, 14):
        want = kernel.oracle(n)
        want = want if isinstance(want, tuple) else (want,)
        base = batch_roots(n).astype(np.uint32) if kernel.on_roots else batch(n)
        for label, given, index in layouts(base):
            before = given.copy()
            got = kernel.call(given, n)
            got = got if isinstance(got, tuple) else (got,)
            assert len(got) == len(want), name
            for out, column in zip(got, want):
                assert np.array_equal(out, column[index]), (name, n, label)
            assert np.array_equal(given, before), (name, n, label)


def test_every_row_kernel_has_an_oracle():
    tree = ast.parse(FAMILIES.read_text(encoding="utf-8"))
    kernels = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.endswith("_rows")}
    assert kernels and kernels <= set(KERNELS)
