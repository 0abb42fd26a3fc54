"""One oracle table for the batched family kernels.

Each row of ``KERNELS`` pairs a kernel of ``ucx.families`` with an oracle
written here from the definition: the pairwise union scan, the closure built
one member at a time, ``_root_set_naive``'s interval scan, an
element-by-element shadow, or a breadth-first search.  Every row runs on
every table at n <= 3 as one batch and on seeded rows at n = 4..13: sparse,
half and dense random families, union closures with and without the empty
set, a closure with one member dropped, and complements of closures that
hold the empty set, which are simply-rooted.  Each batch is handed over as
0, 1 and all rows, with leading dimensions (2, 3, 2^n), in C, Fortran and
strided layouts, and read-only; the kernel must leave its input unchanged.
"""

import ast
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from ucx.families import (
    _root_set_naive,
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


def _masks(n: int) -> np.ndarray:
    return np.arange(1 << n)


def _members(table: np.ndarray) -> np.ndarray:
    return np.flatnonzero(table)


# ---------------------------------------------------------------------------
# per-row oracles: one membership table (2^n,) in, the kernel's row out


def oracle_cover(table, n):
    """cover[X]: the union of the members B with B a subset of X."""
    cover = np.zeros(1 << n, dtype=np.int64)
    for b in _members(table):
        cover[(_masks(n) & b) == b] |= b
    return cover


def oracle_closure(table, n):
    """The unions of nonempty sets of members, adjoining one member at a time:
    after member m, the family holds m and every earlier union joined with m."""
    closed = np.zeros(1 << n, dtype=bool)
    for m in _members(table):
        closed[_members(closed) | m] = True
        closed[m] = True
    return closed


def oracle_union_closed(table, n):
    """Pairwise union scan: a | b is a member for all members a and b."""
    members = _members(table)
    return all(table[a | members].all() for a in members)


def oracle_roots(table, n):
    """Per mask, the root set of a member by ``_root_set_naive``'s interval
    scan (here over a set of member masks), 0 elsewhere."""
    members = _members(table).tolist()
    family = set(members)
    roots = np.zeros(1 << n, dtype=np.int64)
    roots[members] = [_root_set_naive(family, m) for m in members]
    return roots


def oracle_missing_lower(table, n):
    """Per mask A: the elements i of A with A - i outside the family."""
    out = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        masks = _masks(n)
        out |= np.where((masks >> i) & 1 & ~table[masks ^ (1 << i)], 1 << i, 0)
    return out


def oracle_deficiency(table, n):
    """The sets outside the family obtained by adding one element to a member."""
    shadow = np.zeros(1 << n, dtype=bool)
    members = _members(table)
    for i in range(n):
        shadow[members[(members >> i) & 1 == 0] | (1 << i)] = True
    return int(np.count_nonzero(shadow & ~table))


def oracle_thin_boundary(table, n):
    """Every member has at most one element whose removal leaves the family."""
    members = _members(table)
    missing = sum(((members >> i) & 1) & ~table[members ^ (1 << i)] for i in range(n))
    return bool(np.all(missing <= 1))


def oracle_component_directions(table, n):
    """Breadth-first search of each component of the induced subgraph of the
    cube: every vertex gets the directions of the edges in its component."""
    vertices = set(_members(table).tolist())
    labels = np.zeros(1 << n, dtype=np.int64)
    seen = set()
    for start in sorted(vertices):
        if start in seen:
            continue
        component, frontier, directions = [start], [start], 0
        seen.add(start)
        while frontier:
            x = frontier.pop()
            for i in range(n):
                y = x ^ (1 << i)
                if y in vertices:
                    directions |= 1 << i
                    if y not in seen:
                        seen.add(y)
                        component.append(y)
                        frontier.append(y)
        labels[component] = directions
    return labels


def rowwise(oracle):
    """The batch oracle that runs a per-row oracle on every row of ``batch(n)``."""
    return lambda n: np.array([oracle(table, n) for table in batch(n)])


@lru_cache(maxsize=None)
def batch_roots(n: int) -> np.ndarray:
    return rowwise(oracle_roots)(n)


def batch_one_root(n: int) -> np.ndarray:
    return np.array([[r.bit_count() == 1 for r in row] for row in batch_roots(n).tolist()])


def _generators(n, rng, count, density):
    """A table of ``count`` random sets, each holding every element with
    probability ``density``."""
    table = np.zeros(1 << n, dtype=bool)
    bits = rng.random((count, n)) < density
    table[(bits << np.arange(n)).sum(axis=1)] = True
    return table


@lru_cache(maxsize=None)
def batch(n: int) -> np.ndarray:
    """Every table at n <= 3; seeded rows of every kind above."""
    if n <= 3:
        return (np.arange(1 << (1 << n))[:, None] >> _masks(n)) & 1 == 1
    rng = np.random.default_rng([n, 17])
    rows = [rng.random(1 << n) < density for density in (0.05, 0.5, 0.95)]
    small = oracle_closure(_generators(n, rng, 6, 0.4), n)  # at most 63 members
    dense = oracle_closure(_generators(n, rng, 3 * n, 0.15), n)
    for closed in (small, dense):
        with_empty = closed.copy()
        with_empty[0] = True
        dropped = closed.copy()
        dropped[_members(closed)[len(_members(closed)) // 2]] = False
        rows += [closed, with_empty, ~with_empty, dropped]
    return np.array(rows)


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
    "missing_lower_rows": Kernel(missing_lower_rows, rowwise(oracle_missing_lower)),
    "upper_shadow_deficiency": Kernel(upper_shadow_deficiency, rowwise(oracle_deficiency)),
    "component_directions": Kernel(component_directions, rowwise(oracle_component_directions)),
    "thin_boundary_rows": Kernel(thin_boundary_rows, rowwise(oracle_thin_boundary)),
}


def layouts(base: np.ndarray):
    """(label, input, index of its rows in ``base``) for 0, 1 and all rows,
    leading dimensions (2, 3), Fortran order, a strided view and a read-only copy."""
    size = base.shape[-1]
    every = np.arange(len(base))
    six = (np.arange(6) % len(base)).reshape(2, 3)
    wide = np.zeros((len(base), 2 * size), dtype=base.dtype)
    wide[:, 1::2] = base
    read_only = base.copy()
    read_only.setflags(write=False)
    yield "no rows", base[:0], every[:0]
    yield "one row", base[:1], every[:1]
    yield "all rows", base.copy(), every
    yield "leading (2, 3)", base[six], six
    yield "Fortran", np.asfortranarray(base), every
    yield "strided", wide[:, 1::2], every
    yield "read-only", read_only, every


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
