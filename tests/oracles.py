"""Definition-level oracles, and the inputs the test modules share.

Each oracle reads one quantity off its definition, point by point or member
by member, and is written here once: the test modules compare the kernels
with these and define none of their own.  The package keeps two oracles,
``naive_transform`` and ``_root_set_naive`` (read by ``oracle_roots``).
Family oracles take a membership table of 2^n booleans; ``oracle_missing_lower``,
``oracle_frequencies`` and ``oracle_pairs`` take any leading dimensions too.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ucx.core import BooleanFunction, CharacterSpec, SetFamily, coordinate_pairs, dist
from ucx.extremal import ks_enumerate
from ucx.families import _root_set_naive

# ---------------------------------------------------------------------------
# shared inputs


def masks(n: int) -> np.ndarray:
    return np.arange(1 << n)


def members(table: np.ndarray) -> np.ndarray:
    return np.flatnonzero(table)


def every_table(n: int) -> np.ndarray:
    """Every membership table at n, one row per bitset b in order: row b
    holds mask x when bit x of b is set."""
    return (np.arange(1 << (1 << n))[:, None] >> masks(n)) & 1 == 1


def all_families(n: int):
    for bits in range(1 << (1 << n)):
        yield SetFamily.from_bits(n, bits)


def all_functions(n: int):
    """The membership function of every table at n, in bitset order."""
    for row in every_table(n):
        yield BooleanFunction(n, np.where(row, -1, 1))


def random_function(rng: np.random.Generator, n: int) -> BooleanFunction:
    return BooleanFunction(n, (rng.integers(0, 2, size=1 << n, dtype=np.int8) << 1) - 1)


def _generators(n, rng, count, density):
    """A table of ``count`` random sets, each holding every element with
    probability ``density``."""
    table = np.zeros(1 << n, dtype=bool)
    bits = rng.random((count, n)) < density
    table[(bits << np.arange(n)).sum(axis=1)] = True
    return table


@lru_cache(maxsize=None)
def batch(n: int) -> np.ndarray:
    """Every table at n <= 3.  Above, seeded rows: sparse, half and dense
    random families, and two union closures, each with and without the
    empty set, its complement with the empty set and a copy with one member
    dropped."""
    if n <= 3:
        return every_table(n)
    rng = np.random.default_rng([n, 17])
    rows = [rng.random(1 << n) < density for density in (0.05, 0.5, 0.95)]
    small = oracle_closure(_generators(n, rng, 6, 0.4), n)  # at most 63 members
    dense = oracle_closure(_generators(n, rng, 3 * n, 0.15), n)
    for closed in (small, dense):
        with_empty = closed.copy()
        with_empty[0] = True
        dropped = closed.copy()
        dropped[members(closed)[len(members(closed)) // 2]] = False
        rows += [closed, with_empty, ~with_empty, dropped]
    return np.array(rows)


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


def rowwise(oracle, inputs=batch):
    """The batch oracle that runs a per-row oracle on every row of ``inputs(n)``;
    an oracle of several outputs gives one array per output."""
    def run(n):
        found = [oracle(row, n) for row in inputs(n)]
        if isinstance(found[0], tuple):
            return tuple(np.array(column) for column in zip(*found))
        return np.array(found)
    return run


# ---------------------------------------------------------------------------
# families: one membership table (2^n,) in


def oracle_cover(table, n):
    """cover[X]: the union of the members B with B a subset of X."""
    cover = np.zeros(1 << n, dtype=np.int64)
    for b in members(table):
        cover[(masks(n) & b) == b] |= b
    return cover


def oracle_closure(table, n):
    """The unions of nonempty sets of members, adjoining one member at a time:
    after member m, the family holds m and every earlier union joined with m."""
    closed = np.zeros(1 << n, dtype=bool)
    for m in members(table):
        closed[members(closed) | m] = True
        closed[m] = True
    return closed


def oracle_union_closed(table, n):
    """Pairwise union scan: a | b is a member for all members a and b."""
    found = members(table)
    return all(table[a | found].all() for a in found)


def oracle_roots(table, n):
    """Per mask, the root set of a member by ``_root_set_naive``'s interval
    scan (here over a set of member masks), 0 elsewhere."""
    found = members(table).tolist()
    family = set(found)
    roots = np.zeros(1 << n, dtype=np.int64)
    roots[found] = [_root_set_naive(family, m) for m in found]
    return roots


def oracle_missing_lower(tables, n):
    """Per row and mask A: the elements i of A with A - i outside the family,
    read at the index A XOR e_i."""
    out = np.zeros(tables.shape, dtype=np.int64)
    for i in range(n):
        out |= np.where((masks(n) >> i) & 1 & ~tables[..., masks(n) ^ (1 << i)], 1 << i, 0)
    return out


def oracle_upper_shadow(table, n):
    """The sets obtained by adding one element to a member."""
    shadow = np.zeros(1 << n, dtype=bool)
    found = members(table)
    for i in range(n):
        shadow[found[(found >> i) & 1 == 0] | (1 << i)] = True
    return shadow


def oracle_lower_shadow(table, n):
    """The sets obtained by removing one element from a member."""
    shadow = np.zeros(1 << n, dtype=bool)
    found = members(table)
    for i in range(n):
        shadow[found[(found >> i) & 1 == 1] ^ (1 << i)] = True
    return shadow


def oracle_deficiency(table, n):
    """The sets of the upper shadow outside the family."""
    return int(np.count_nonzero(oracle_upper_shadow(table, n) & ~table))


def oracle_thin_boundary(table, n):
    """Every member has at most one element whose removal leaves the family."""
    return bool(np.all(np.bitwise_count(oracle_missing_lower(table, n)[table]) <= 1))


def oracle_component_directions(table, n):
    """Breadth-first search of each component of the induced subgraph of the
    cube: every vertex gets the directions of the edges in its component."""
    vertices = set(members(table).tolist())
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


def oracle_frequencies(tables, n):
    """Per row: how many members contain element i + 1, for i = 0..n-1."""
    return np.stack([np.count_nonzero(tables[..., masks(n)[(masks(n) >> i) & 1 == 1]], axis=-1)
                     for i in range(n)], axis=-1)


def oracle_pairs(tables, n):
    """Per row and coordinate i, over the points x without i: the enter pairs
    (x outside, x + e_i a member) and the exit pairs.  A pair flips when it
    is either."""
    enter, leave = [], []
    for i in range(n):
        low = masks(n)[(masks(n) >> i) & 1 == 0]
        below, above = tables[..., low], tables[..., low | (1 << i)]
        enter.append(np.count_nonzero(~below & above, axis=-1))
        leave.append(np.count_nonzero(below & ~above, axis=-1))
    return np.stack(enter, axis=-1), np.stack(leave, axis=-1)


# ---------------------------------------------------------------------------
# spectra, bounds and distances


def character_matrix(n: int) -> np.ndarray:
    """chi[S, x] = (-1)^{|S AND x|}."""
    pts = np.arange(1 << n, dtype=np.int64)
    overlap = pts[:, None] & pts[None, :]
    parity = (np.bitwise_count(overlap) & 1).astype(np.int64)
    return 1 - 2 * parity


def reference_butterfly(mat: np.ndarray) -> None:
    """The in-place butterfly (a, b) -> (a + b, a - b), one bit at a time."""
    for i in range(mat.shape[-1].bit_length() - 1):
        low, high = coordinate_pairs(mat, i)
        low += high
        high *= -2
        high += low


def oracle_level_sums(spectrum, n):
    """Sum of s(S)^2 over the masks S with k elements, for k = 0..n."""
    return [sum(int(v) ** 2 for mask, v in enumerate(spectrum) if mask.bit_count() == k)
            for k in range(n + 1)]


def oracle_corollary_bounds(levels, n):
    """4^n (k - sum_{i<k} (k - i) W^i) for k = 1..n, with W^i = levels[i] / 4^n."""
    four_n = 1 << (2 * n)
    return [int(four_n * (k - sum(Fraction((k - i) * int(levels[i]), four_n) for i in range(k))))
            for k in range(1, n + 1)]


def oracle_nearest_signed(corr):
    """The first of (member, +), (member, -) in member order whose signed
    correlation is largest."""
    candidates = [(sign * int(c), j, sign) for j, c in enumerate(corr) for sign in (1, -1)]
    best = max(value for value, _, _ in candidates)
    _, member, sign = next(c for c in candidates if c[0] == best)
    return member, sign, best


def oracle_threshold_k(n, size):
    """The largest k in [0, n - 1] with mean coefficient 1 - 2|F|/2^n at most
    -(1 - 2^-k), or -1 when even k = 0 fails."""
    mean = 1 - Fraction(2 * int(size), 1 << n)
    return max([k for k in range(n) if mean <= -(1 - Fraction(1, 1 << k))], default=-1)


def oracle_margin(size, enter, n):
    """The threshold k, and (k + 1) 2^-k - I^+ scaled by 2^(n-1), with a cap
    of 0 at k = -1."""
    k = oracle_threshold_k(n, size)
    cap = 0 if k < 0 else Fraction(k + 1, 1 << k) * (1 << (n - 1))
    return k, int(cap) - int(enter)


def brute_distance(f: BooleanFunction, g_values) -> Fraction:
    disagreements = sum(1 for a, b in zip(f.values.tolist(), list(g_values)) if a != b)
    return Fraction(disagreements, 1 << f.n)


def nearest_dictator_by_definition(f: BooleanFunction):
    """The first minimum of dist(f, sign * chi_{i}) over i = 1..n, + before -."""
    candidates = [(i, sign) for i in range(1, f.n + 1) for sign in (1, -1)]
    found = [(i, sign, dist(f, CharacterSpec(1 << (i - 1), sign))) for i, sign in candidates]
    return min(found, key=lambda c: c[2])  # min keeps the first of equal keys


def ks_distance_by_definition(f: BooleanFunction):
    """The first minimum of dist(f, member) over ks_enumerate(n)."""
    found = [(member, dist(f, member.function(f.n))) for member in ks_enumerate(f.n)]
    return min(found, key=lambda c: c[1])  # min keeps the first of equal keys
