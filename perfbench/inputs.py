"""Seeded inputs for the analyze workload, built without calling ucx.

Every input is a boolean membership table over the 2^n subset masks of [n].
The dense union-closed family G joins three union-closed pieces: the up-set
of sets with at least ceil(n/2) elements, the union closure of 2n uniform
generator sets, and {empty set}.  The union of an up-set with any family is
in the up-set, so G is union-closed, and the up-set alone gives
|G| >= 2^{n-1}.  G contains the empty set, so its complement is simply-rooted
by the complement duality.

The closure input keeps each member of a dense union-closed family (built as
above on its own seed) with probability 1/2.  Its closure is dense again,
and closing it takes one pass over the closed family per member that is not
yet covered, so the cost follows the size of the family.

Files are written in the plain-text family format with sets ordered by
(cardinality, mask), the canonical order of ucx's own formatter.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _popcounts(n: int) -> np.ndarray:
    masks = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        counts += (masks >> i) & 1
    return counts


def closure_table(n: int, generators) -> np.ndarray:
    """Membership table of the union closure of the generator masks."""
    table = np.zeros(1 << n, dtype=bool)
    members = np.zeros(0, dtype=np.int64)
    for g in generators:
        g = int(g)
        if table[g]:
            continue
        table[members | g] = True
        table[g] = True
        members = np.flatnonzero(table)
    return table


def dense_union_closed(n: int, rng: np.random.Generator) -> np.ndarray:
    """Up-set of sets with >= ceil(n/2) elements, joined with the closure of
    2n random generators and with the empty set."""
    table = _popcounts(n) >= (n + 1) // 2
    table |= closure_table(n, rng.integers(0, 1 << n, size=2 * n))
    table[0] = True
    return table


def make_inputs(seed: int, n_dense: int = 16, n_closure: int = 14) -> dict[str, tuple[int, np.ndarray]]:
    """The three analyze-workload inputs for one seed, as (n, table) pairs."""
    rng = np.random.default_rng([seed, n_dense, n_closure])
    dense = dense_union_closed(n_dense, rng)
    closure_base = dense_union_closed(n_closure, rng)
    keep = rng.integers(0, 2, size=closure_base.size).astype(bool)
    return {
        "union_closed": (n_dense, dense),
        "simply_rooted": (n_dense, ~dense),
        "closure_input": (n_closure, closure_base & keep),
    }


def describe(n: int, table: np.ndarray) -> dict:
    """|F|, |F|/2^n and the mean coefficient 1 - 2|F|/2^n, as exact strings."""
    size = int(np.count_nonzero(table))
    density = Fraction(size, 1 << n)
    mean = 1 - 2 * density
    return {
        "n": n,
        "size": size,
        "density": f"{density.numerator}/{density.denominator}",
        "mean_coefficient": f"{mean.numerator}/{mean.denominator}",
    }


def format_table(n: int, table: np.ndarray) -> str:
    """Family-file text for a membership table."""
    masks = np.flatnonzero(table)
    order = np.lexsort((masks, _popcounts(n)[masks]))
    labels = [str(i + 1) for i in range(n)]
    lines = [f"n={n}"]
    for mask in masks[order].tolist():
        if mask == 0:
            lines.append("-")
        else:
            lines.append(" ".join(labels[i] for i in range(n) if mask >> i & 1))
    return "\n".join(lines) + "\n"
