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

Above n = 13, where the oracles are too slow, ``_closed_forms`` gives each
kernel's output on six union-closed families by formula: the empty and the
full family, ``half_cube_missing``, an ``or_family``, a ``dictator`` and
the up-set of the sets of size at least n/2.  They run as one table at
n = 14, 16 and 20, under ``UCX_MAX_N=24``, and the half cube alone at
n = 24, for its roots and deficiency.
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

from ucx.core import SetFamily
from ucx.extremal import dictator, half_cube_missing, or_family
from ucx.families import (
    closure_rows,
    component_directions,
    cover_table,
    lower_shadow,
    missing_lower_rows,
    root_masks,
    rooted_rows,
    thin_boundary_rows,
    union_closed_rows,
    unique_root_counts,
    uniquely_rooted,
    upper_shadow,
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


# ---------------------------------------------------------------------------
# closed forms above the oracles' range: n = 14, 16, 20 and 24


def _cube(n):
    """The masks of the n-cube, their popcounts and the full mask."""
    masks = np.arange(1 << n, dtype=np.uint32)
    return masks, np.bitwise_count(masks), (1 << n) - 1


def _half_cube_roots(n):
    """The sets avoiding i = n // 2: a subcube holding the empty set, whose
    every member is all roots, and which every set holding i covers.  Its
    table and the closed forms of its roots and deficiency, which are all
    that n = 24 reads."""
    masks = np.arange(1 << n, dtype=np.uint32)
    avoiding = masks & (1 << (n // 2 - 1)) == 0
    return half_cube_missing(n // 2, n).family.to_bool(), dict(
        roots=np.where(avoiding, masks, 0), unique=n - 1, simply_rooted=False,
        deficiency=1 << (n - 1))


def _half_cube_missing(n):
    """``_half_cube_roots`` with the half cube's other closed forms."""
    masks, pop, full = _cube(n)
    bit = 1 << (n // 2 - 1)
    avoiding = masks & bit == 0
    table, forms = _half_cube_roots(n)
    return table, dict(
        forms, closure=avoiding, missing=np.where(avoiding, 0, masks ^ bit), upper=pop >= 1,
        lower=avoiding & (pop <= n - 2), directions=np.where(avoiding, full ^ bit, 0))


def _meeting(table, mask, n):
    """The sets meeting ``mask``, an up-set: a member's roots are its
    elements in ``mask``, so it is uniquely rooted when it meets the mask
    once; members are joined in every direction but a one-element mask's."""
    masks, pop, full = _cube(n)
    members, hits = masks & mask != 0, np.bitwise_count(masks & mask)
    size = mask.bit_count()
    return table, dict(
        roots=masks & mask, unique=size << (n - size), simply_rooted=True, closure=members,
        missing=np.where(members, np.where(hits == 1, masks & mask, 0), masks), deficiency=0,
        upper=members & (pop >= 2), lower=masks != full,
        directions=np.where(members, full ^ mask if size == 1 else full, 0))


def _closed_forms(n):
    """name -> (membership table, closed forms) of six union-closed
    families: their roots and unique-root counts, whether they are
    simply-rooted, their closures, ``missing_lower_rows``, upper-shadow
    deficiencies, upper and lower shadows, and component directions."""
    masks, pop, full = _cube(n)
    none, every = np.zeros(1 << n, dtype=bool), np.ones(1 << n, dtype=bool)
    k = n // 2  # the up-set of the sets of size at least k
    return {
        "empty": (none, dict(
            roots=0, unique=0, simply_rooted=True, closure=none, missing=masks, deficiency=0,
            upper=none, lower=none, directions=0)),
        "full": (every, dict(
            roots=masks, unique=n, simply_rooted=False, closure=every, missing=0, deficiency=0,
            upper=pop >= 1, lower=pop <= n - 1, directions=full)),
        "half_cube_missing": _half_cube_missing(n),
        "or_family": _meeting(or_family(3, n).family.to_bool(), 0b111, n),
        "dictator": _meeting(dictator(n // 2, n).family.to_bool(), 1 << (n // 2 - 1), n),
        "up-set": (pop >= k, dict(
            roots=0, unique=0, simply_rooted=False, closure=pop >= k,
            missing=np.where(pop <= k, masks, 0), deficiency=0, upper=pop >= k + 1,
            lower=(pop >= k - 1) & (pop <= n - 1), directions=np.where(pop >= k, full, 0))),
    }


@pytest.mark.parametrize("n", [14, 16, 20, 24])
def test_family_kernels_match_closed_forms_above_the_oracles(n, monkeypatch):
    """The kernels on every family of ``_closed_forms``, as the rows of one
    table per n.  At n = 24 one row, the half cube, through the two sweeps
    every kernel rests on: ``cover_table`` (its roots) and
    ``missing_lower_rows`` (its deficiency); the other kernels would add
    about 3 s there, and ``component_directions`` 2.8 s more."""
    monkeypatch.setenv("UCX_MAX_N", "24")
    cases = {"half_cube_missing": _half_cube_roots(n)} if n == 24 else _closed_forms(n)
    tables = np.array([table for table, _ in cases.values()])
    roots, simply_rooted = rooted_rows(tables, n)
    got = {"roots": roots, "unique": unique_root_counts(roots), "simply_rooted": simply_rooted,
           "deficiency": upper_shadow_deficiency(tables, n)}
    if n < 24:
        assert union_closed_rows(tables, n).all()
        got.update(closure=closure_rows(tables, n), missing=missing_lower_rows(tables, n),
                   directions=component_directions(tables, n))
    for r, (name, (table, forms)) in enumerate(cases.items()):
        row = {key: value[r] for key, value in got.items()}
        if n < 24:
            family = SetFamily._of(n, table)
            row.update(upper=upper_shadow(family).to_bool(), lower=lower_shadow(family).to_bool())
        for key, value in row.items():
            assert np.array_equal(value, np.broadcast_to(forms[key], value.shape)), (key, name, n)
