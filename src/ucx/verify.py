"""Property sweeps: one batched engine with deterministic reports.

A sweep reads its instances as rows of a (rows, 2^n) table, one chunk at a
time, and hands each chunk to the property's vectorized evaluator.  Chunks
are sized for the cache: at most 2^20 table entries and 2048 rows each.
Witnesses are taken in index order and summaries merge associatively, so a
report does not depend on the chunking.  Per row the evaluator returns
whether the property applies, whether it holds and the integer quantities
behind the violation details, the summaries and the columns of
``ucx scan``.  Every row is a boolean membership row: a family
property reads the family, a function property the membership function of
the row, which is -1 exactly on its members.  The two modes differ only in
where the rows come from:

* exhaustive mode (n <= 4 only) takes the binary digits of the instance
  index ``bits`` in [0, 2^{2^n}), the family whose bitset is ``bits``;
* random mode draws each instance into its row from its own RNG stream
  seeded by (seed, index), then maps the chunk onto the property's domain,
  so the realized instances, violations, and summaries are identical no
  matter how the index range is partitioned across workers.  Canonical
  report serialization omits wall-clock time and the worker count for that
  reason.

Function properties draw uniformly random functions.  Most family
properties draw the union closure of uniformly drawn generator sets:
``frankl`` reads the closure itself, ``theorem2`` the closure with the empty
set adjoined (the exact domain on which its deficiency equals the
complement's unique-root count), and the properties quantified over
simply-rooted families read the complement of that, which is simply-rooted
by the complement duality.  ``theorem2`` reads its domain through that
duality too, off the complement's roots, which ``duality`` (on uniformly
random families) checks; ``kotlov`` reads random vertex sets larger than
half the cube.  ``scan`` is the per-row output mode of the same engine.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import familyfile
from .core import SetFamily, check_dimension, check_int, frequency_rows, unpacked
from .extremal import ks_correlation_rows, nearest_signed_rows, or_family_ladder
from .families import (
    PreconditionError,
    closure_rows,
    component_directions,
    missing_lower_rows,
    rooted_rows,
    thin_boundary_rows,
    union_closed_rows,
    unique_root_counts,
    uniquely_rooted,
    upper_shadow_deficiency,
)
from .influence import corollary_bound_rows, flip_count_rows, pair_count_rows
from .spectral import first_level_rows, function_level_rows, fwht_rows

EXHAUSTIVE_MAX_N = 4
# Table entries per chunk of a sweep: 2^20 booleans (1 MB) stay near the
# cache.  At n <= 15 a function chunk's spectra are reduced to level sums a
# block at a time and never held as a table.
_CHUNK_ENTRIES = 1 << 20


# ---------------------------------------------------------------------------
# family generation primitives


def union_closure(generators: SetFamily) -> SetFamily:
    """Smallest union-closed superfamily; contains the empty set only if a
    generator is the empty set."""
    return SetFamily._of(generators.n, closure_rows(generators.to_bool(), generators.n))


def enumerate_families(n: int, which: str = "all") -> Iterator[SetFamily]:
    """Every family on [n] exactly once, optionally filtered; n <= 4 only."""
    n = check_dimension(n)
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}")
    if which not in ("all", "union_closed", "simply_rooted"):
        raise ValueError(f"unknown filter {which!r}")
    for start, stop in _chunks(n, 0, 1 << (1 << n)):
        rows = _index_bits(start, stop, n)
        if which == "union_closed":
            rows = rows[union_closed_rows(rows, n)]
        elif which == "simply_rooted":
            rows = rows[rooted_rows(rows, n)[1]]
        for row in rows:
            yield SetFamily._of(n, row)


def random_union_closed(n: int, generator_count: int, seed: int) -> SetFamily:
    """Union closure of ``generator_count`` uniform subsets; deterministic."""
    n = check_dimension(n)
    generator_count = check_int(generator_count, "generator_count", 0)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    table = np.zeros(1 << n, dtype=bool)
    table[rng.integers(0, 1 << n, size=generator_count, dtype=np.int64)] = True
    return SetFamily._of(n, closure_rows(table, n))


# ---------------------------------------------------------------------------
# single-instance checks exposed as API


def _threshold_k(n: int, sizes):
    """Per family size: the largest k in [0, n-1] with mean coefficient
    <= -(1 - 2^{-k}), or -1 when even k = 0 fails.  The thresholds fall as k
    grows, so the thresholds met are k = 0..K and K + 1 is their number."""
    s0 = (1 << n) - 2 * np.asarray(sizes, dtype=np.int64)  # s(empty) = 2^n - 2|F|
    return np.count_nonzero(s0[..., None] <= or_family_ladder(n)[0], axis=-1) - 1


def conjecture2_margin_rows(sizes, enter, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per family size and total enter-pair count: the threshold k (-1 for
    none) and the margin (k+1) 2^{-k} - I^+ of the positive-influence cap,
    scaled by 2^{n-1}; the cap is 0 at k = -1."""
    n = check_dimension(n)
    k = _threshold_k(n, sizes)
    return k, np.where(k < 0, 0, or_family_ladder(n)[1][k]) - enter


def _one_row(prop: str, family: SetFamily, refusal: str | None = None) -> _Rows:
    """The sweep evaluator of ``prop`` on one instance; with a ``refusal``,
    ``PreconditionError`` where the sweep would skip the row."""
    found = _PROPERTIES[prop].evaluate(family.to_bool()[None], family.n)
    if refusal is not None and not found.applicable[0]:
        raise PreconditionError(refusal)
    return found


def duality_check(family: SetFamily) -> bool:
    """Verify the complement duality on one family; true for every family.

    The exact equivalence is: family union-closed AND containing the empty
    set <=> complement simply-rooted.  The left side is read off the family's
    subset-union cover and the right side off the complement's root masks.
    """
    return bool(_one_row("duality", family).ok[0])


def shadow_lemma_check(family: SetFamily) -> bool:
    """For a simply-rooted family: each member's lower shadow misses the family
    in exactly one set (the unique root removed) when the member has a single
    root, and in no set otherwise.  Always true on the stated domain.
    """
    return bool(_one_row("shadow-lemma", family,
                         "shadow dichotomy requires a simply-rooted family").ok[0])


def positive_influence_cap_check(family: SetFamily) -> bool:
    """For a simply-rooted family: I^+ = unique_root_count / 2^{n-1} and
    I^+ <= min(1, |F| / 2^{n-1}).
    """
    return bool(_one_row("positive-cap", family,
                         "positive-influence cap requires a simply-rooted family").ok[0])


def conjecture2_margin(family: SetFamily) -> tuple[int | None, Fraction | None]:
    """Slack of the positive-influence cap (k+1) 2^{-k} at the largest
    applicable threshold k.  A negative margin would be a counterexample.
    """
    found = _one_row("conjecture2", family, "margin requires a nonempty simply-rooted family")
    k, margin = (int(found.quantities[key][0]) for key in ("k", "margin_scaled"))
    return (None, None) if k < 0 else (k, Fraction(margin, 1 << (family.n - 1)))


def kotlov_check(vertices: SetFamily) -> bool:
    """For a vertex set larger than half the cube: some connected component
    of the induced subgraph uses edges in all n directions."""
    return bool(_one_row("kotlov", vertices, "vertex set must exceed half the cube").ok[0])


# ---------------------------------------------------------------------------
# sweep plan and report


@dataclass(frozen=True)
class SweepPlan:
    property: str
    n: int
    mode: str
    samples: int | None = None
    seed: int = 0
    worker_count: int = 1
    witness_cap: int = 10

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """The one check of a sweep's or scan's arguments, run when the plan
        is built, so before any row is drawn; ``samples`` is read in random
        mode only, and stored as None in exhaustive mode, so it cannot change
        an exhaustive report.  Each integer field is stored as the ``int`` its
        gate returns, so a numpy scalar never reaches a shift (where numpy
        would wrap ``1 << n`` to 0).  Checking a built plan again changes
        nothing."""
        if self.property not in PROPERTY_NAMES:
            raise ValueError(f"unknown property {self.property!r}")
        gated = {"n": check_dimension(self.n), "samples": None}
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive" and gated["n"] > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive sweeps capped at n = {EXHAUSTIVE_MAX_N}")
        if self.mode == "random":
            if self.samples is None:
                raise ValueError("random mode needs samples >= 1")
            gated["samples"] = check_int(self.samples, "samples", 1, 1 << 64)
        gated["seed"] = check_int(self.seed, "seed", 0, (1 << 64) - 1)
        gated["worker_count"] = check_int(self.worker_count, "worker_count", 1)
        gated["witness_cap"] = check_int(self.witness_cap, "witness_cap", 0)
        if self.property == "ks-zero" and gated["n"] < 2:
            raise ValueError("ks-zero needs n >= 2")
        for name, value in gated.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class VerificationReport:
    property: str
    n: int
    mode: str
    samples: int | None
    seed: int
    worker_count: int
    enumerated: int
    checked: int
    violation_count: int
    violations: tuple[dict, ...]
    summary: dict
    passed: bool
    elapsed_ms: float

    def canonical_dict(self) -> dict:
        """Report content that must be identical across worker counts: every
        field but the worker count and the wall-clock time."""
        return jsonable({f.name: getattr(self, f.name) for f in fields(self)
                         if f.name not in ("worker_count", "elapsed_ms")})

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"


def jsonable(value):
    """A copy of a report value fit for JSON: every ``Fraction`` becomes its
    reduced ``"p/q"`` string, tuples become lists and numpy scalars Python
    ones.  The only place a rational is turned into text."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


# ---------------------------------------------------------------------------
# violation payloads


def _witness(kind: str, index: int, n: int, row: np.ndarray, detail: dict) -> dict:
    if kind == "family":
        body = familyfile.format_family(SetFamily._of(n, row))
    else:
        body = "".join("-" if member else "+" for member in row)
    return {"index": index, "kind": kind, "n": n, kind: body, "detail": jsonable(detail)}


# ---------------------------------------------------------------------------
# row sources


def _chunks(n: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Index ranges of at most max(1, min(2048, _CHUNK_ENTRIES / 2^n)) rows each."""
    step = max(1, min(2048, _CHUNK_ENTRIES >> n))
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def _index_bits(start: int, stop: int, n: int) -> np.ndarray:
    """Exhaustive rows: the 2^n binary digits of each index, as bool."""
    return unpacked(np.arange(start, stop, dtype="<u8")[:, None].view(np.uint8), n)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64
# multiplier (numpy/random/src/pcg64/pcg64.h).  Like the draw layouts below,
# they are part of numpy's published stream for a seed: a numpy release that
# changed them would change every default_rng((seed, index)) stream too.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_WORD = (1 << 32) - 1


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash step on a column of uint32 words: xor with the
    running constant, multiply by the next one, fold in the high half.  The
    constants depend only on how many words were hashed before, so one call
    hashes a word of every row."""

    def hashed(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _WORD
        words = words * np.uint32(const)
        return words ^ (words >> np.uint32(16))

    return hashed


def _pcg64_states(seed: int, start: int, stop: int) -> list[dict]:
    """The PCG64 state {"state", "inc"} of ``default_rng((seed, index))`` for
    each index in [start, stop), computed for all of them at once.

    numpy seeds it with ``SeedSequence((seed, index))``: its entropy is the
    uint32 words of seed and of index, lowest first, which hash and mix into
    a pool of four words (missing words hash as 0 words); eight hashes of the
    pool give the uint64 words (s_hi, s_lo, i_hi, i_lo), and PCG64 sets
    inc = 2 i + 1 and state = (s + inc) M + inc mod 2^128.  The seed has at
    most two words, and each index as two: ``SweepPlan.validate`` caps the
    samples at 2^64, so every index is below 2^64."""
    count = stop - start
    seed_words = [seed & _WORD] + ([seed >> 32] if seed >> 32 else [])
    index = np.arange(start, stop, dtype="<u8").view("<u4").reshape(count, 2)
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words] + [index[:, 0], index[:, 1]]
    entropy += [np.zeros(count, dtype=np.uint32)] * (4 - len(entropy))
    hashed = _hasher(_INIT_A, _MULT_A)
    pool = [hashed(words) for words in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    hashed = _hasher(_INIT_B, _MULT_B)
    words = np.stack([hashed(pool[i % 4]) for i in range(8)], axis=1).astype("<u4").view("<u8")
    states, mask = [], (1 << 128) - 1
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        inc = (i_hi << 65 | i_lo << 1 | 1) & mask
        states.append({"state": ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & mask, "inc": inc})
    return states


def _draw_signs(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random function: a member wherever the drawn bit is 0.

    The bits are those of ``rng.integers(0, 2, size=2^n, dtype=np.int8)``,
    read straight off the raw stream.  numpy draws each int8 from one byte of
    the stream, taken in little-endian order, and Lemire's bounded draw maps a
    byte b to (2 b) >> 8 = b >> 7, never rejecting for a range of 2.  So a
    point is a member where b >> 7 == 0, that is b < 128."""
    raw = rng.bit_generator.random_raw(((1 << n) + 7) >> 3).astype("<u8", copy=False)
    np.less(raw.view(np.uint8)[: 1 << n], 128, out=row)


def _draw_uniform(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random family: the drawn bits, lowest point first."""
    raw = rng.bytes(1 << (n - 3)) if n >= 3 else bytes([rng.integers(0, 1 << (1 << n))])
    row[:] = unpacked(np.frombuffer(raw, dtype=np.uint8), n)


def _draw_generators(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """Between 1 and 2n uniformly drawn generator sets."""
    count = 1 + int(rng.integers(0, 2 * n))
    row[rng.integers(0, 1 << n, size=count, dtype=np.int64)] = True


def _draw_vertices(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random vertex set larger than half the cube."""
    half = 1 << (n - 1)
    size = half + 1 + int(rng.integers(0, (1 << n) - half))
    row[rng.choice(1 << n, size=size, replace=False)] = True


def _closure_with_empty_set(rows: np.ndarray, n: int) -> np.ndarray:
    closed = closure_rows(rows, n)
    closed[:, 0] = True
    return closed


def _simply_rooted_complement(rows: np.ndarray, n: int) -> np.ndarray:
    return ~_closure_with_empty_set(rows, n)


# ---------------------------------------------------------------------------
# vectorized evaluators: one chunk of rows in, one _Rows out


@dataclass(frozen=True)
class _Rows:
    """Per row of a chunk: whether the property applies and whether it holds;
    the detail of a failing row, the chunk's summary update, and the integer
    quantities that ``scan`` writes out."""

    applicable: np.ndarray
    ok: np.ndarray
    detail: Callable[[int], dict]
    summary: dict = field(default_factory=dict)
    quantities: dict = field(default_factory=dict)

    @property
    def failed(self) -> np.ndarray:
        """The violations: rows the property applies to but does not hold on."""
        return self.applicable & ~self.ok


def _every(rows: np.ndarray) -> np.ndarray:
    return np.ones(len(rows), dtype=bool)


def _reason(text: str) -> Callable[[int], dict]:
    return lambda r: {"reason": text}


def _count(key: str, mask: np.ndarray) -> dict:
    count = int(np.count_nonzero(mask))
    return {key: count} if count else {}


def _extreme(key: str, values: np.ndarray, mask: np.ndarray) -> dict:
    if not mask.any():
        return {}
    picked = values[mask]
    return {key: int(picked.max() if key.startswith("max_") else picked.min())}


def _first_failure(fail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (rows, cases) failure table: whether no case fails, and
    the first failing case."""
    return ~fail.any(axis=1), fail.argmax(axis=1)


def _parseval(t: np.ndarray, n: int) -> _Rows:
    four_n = 1 << (2 * n)
    sums = function_level_rows(t, n).sum(axis=1)
    return _Rows(_every(t), sums == four_n,
                 lambda r: {"coefficient_square_sum": int(sums[r]), "expected": four_n})


def _influence_identity(t: np.ndarray, n: int) -> _Rows:
    pivotal = flip_count_rows(t, n).sum(axis=1)
    weighted = function_level_rows(t, n) @ np.arange(n + 1)
    return _Rows(_every(t), weighted == pivotal << (n + 1),
                 lambda r: {"pivotal_pairs": int(pivotal[r]),
                            "weighted_square_sum": int(weighted[r])})


def _corollary_lb(t: np.ndarray, n: int) -> _Rows:
    bounds = corollary_bound_rows(function_level_rows(t, n), n)
    lhs = flip_count_rows(t, n).sum(axis=1) << (n + 1)  # I(f) * 2 * 4^n / 2^n
    ok, first = _first_failure(lhs[:, None] < bounds)
    return _Rows(_every(t), ok,
                 lambda r: {"k": int(first[r]) + 1, "influence_scaled": int(lhs[r]),
                            "bound_scaled": int(bounds[r, first[r]])})


def _edge_iso(t: np.ndarray, n: int) -> _Rows:
    thresholds, caps = or_family_ladder(n)
    s0 = (1 << n) - 2 * np.count_nonzero(t, axis=1)  # s(empty) = 2^n - 2|F|
    pivotal = flip_count_rows(t, n).sum(axis=1)  # I = pivotal / 2^{n-1}
    ok, first = _first_failure((s0[:, None] >= thresholds) & (s0[:, None] <= 0)
                               & (pivotal[:, None] < caps))
    return _Rows(_every(t), ok,
                 lambda r: {"k": int(first[r]), "pivotal_pairs": int(pivotal[r]),
                            "mean_scaled": int(s0[r])})


def _fkn_zero(t: np.ndarray, n: int) -> _Rows:
    first = first_level_rows(t, n)
    qualifying = (first * first).sum(axis=1) == 1 << (2 * n)
    ok = ~qualifying | (nearest_signed_rows(first)[2] == 1 << n)
    return _Rows(_every(t), ok, _reason("full level-1 weight but not a signed dictator"),
                 _count("num_qualifying", qualifying))


def _ks_zero(t: np.ndarray, n: int) -> _Rows:
    qualifying = function_level_rows(t, n)[:, 2] == 1 << (2 * n)
    ok = ~qualifying
    best = nearest_signed_rows(ks_correlation_rows(fwht_rows(t[qualifying]), n))[2]
    ok[qualifying] = best == 1 << (n + 1)  # correlation 1 with a member
    return _Rows(_every(t), ok, _reason("full level-2 weight but outside the quadratic class"),
                 _count("num_qualifying", qualifying))


def _duality(t: np.ndarray, n: int) -> _Rows:
    lhs = union_closed_rows(t, n) & t[:, 0]  # union-closed and holding the empty set
    return _Rows(_every(t), lhs == rooted_rows(~t, n)[1], _reason("duality mismatch"))


def _frankl(t: np.ndarray, n: int) -> _Rows:
    sizes = np.count_nonzero(t, axis=1)
    applicable = (sizes > 0) & ~((sizes == 1) & t[:, 0]) & union_closed_rows(t, n)
    freqs = frequency_rows(t, n)
    excess = (2 * freqs - sizes[:, None]).max(axis=1)
    return _Rows(applicable, excess >= 0, lambda r: {"frequencies": freqs[r].tolist()},
                 _extreme("min_abundance_excess", excess, applicable))


def _theorem2(t: np.ndarray, n: int) -> _Rows:
    found, applicable = rooted_rows(~t, n)  # union-closed with the empty set, by the duality
    deficiency, unique = upper_shadow_deficiency(t, n), unique_root_counts(found)
    ok = (deficiency == unique) & (deficiency <= 1 << (n - 1))
    return _Rows(applicable, ok,
                 lambda r: {"deficiency": int(deficiency[r]), "unique_root_count": int(unique[r])},
                 _extreme("max_deficiency", deficiency, applicable),
                 {"size": np.count_nonzero(t, axis=1), "deficiency": deficiency})


def _shadow_lemma(t: np.ndarray, n: int) -> _Rows:
    found, applicable = rooted_rows(t, n)
    missing = missing_lower_rows(t, n)
    ok = np.all(~t | np.where(uniquely_rooted(found), missing == found, missing == 0), axis=1)
    return _Rows(applicable, ok, _reason("shadow dichotomy failed"))


def _thin_boundary(t: np.ndarray, n: int) -> _Rows:
    applicable = rooted_rows(t, n)[1]
    return _Rows(applicable, thin_boundary_rows(t, n), _reason("member covers two missing sets"))


def _positive_cap(t: np.ndarray, n: int) -> _Rows:
    found, applicable = rooted_rows(t, n)
    enter = pair_count_rows(t, n)[0].sum(axis=1)
    unique = unique_root_counts(found)
    ok = (enter == unique) & (enter <= np.minimum(1 << (n - 1), np.count_nonzero(t, axis=1)))
    return _Rows(applicable, ok,
                 lambda r: {"enter_pairs": int(enter[r]), "unique_root_count": int(unique[r])})


def _partial_claim(t: np.ndarray, n: int) -> _Rows:
    applicable = rooted_rows(t, n)[1] & (4 * np.count_nonzero(t, axis=1) > 3 << n)
    enter = pair_count_rows(t, n)[0].sum(axis=1)
    return _Rows(applicable, enter < 1 << (n - 1), lambda r: {"enter_pairs": int(enter[r])},
                 _count("num_applicable", applicable))


def _conjecture2(t: np.ndarray, n: int) -> _Rows:
    half = 1 << (n - 1)
    sizes = np.count_nonzero(t, axis=1)
    enter = pair_count_rows(t, n)[0].sum(axis=1)
    k, margin = conjecture2_margin_rows(sizes, enter, n)
    applicable = rooted_rows(t, n)[1] & (sizes > 0)
    capped = applicable & (k >= 0)
    summary = _count("num_applicable", capped)
    if summary:
        summary["min_margin"] = Fraction(int(margin[capped].min()), half)
    return _Rows(applicable, (k < 0) | (margin >= 0),
                 lambda r: {"k": int(k[r]), "margin": Fraction(int(margin[r]), half)},
                 summary, {"size": sizes, "enter_pairs": enter, "k": k, "margin_scaled": margin})


def _kotlov(t: np.ndarray, n: int) -> _Rows:
    applicable = np.count_nonzero(t, axis=1) > 1 << (n - 1)
    spans = np.zeros(len(t), dtype=bool)
    if applicable.any():  # a refused kotlov_check labels nothing
        spans[applicable] = np.any(component_directions(t[applicable], n) == (1 << n) - 1, axis=1)
    return _Rows(applicable, spans, _reason("no component spans all directions"))


@dataclass(frozen=True)
class _Property:
    """A property's evaluator, and how random mode draws one instance and
    maps a chunk of draws onto the domain."""

    evaluate: Callable[[np.ndarray, int], _Rows]
    draw: Callable[[np.random.Generator, int, np.ndarray], None]
    domain: Callable[[np.ndarray, int], np.ndarray] | None = None  # None: the draws themselves

    @property
    def kind(self) -> str:
        """What a witness is: the properties that draw functions read functions."""
        return "function" if self.draw is _draw_signs else "family"

    def chunks(self, plan: SweepPlan, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first index, boolean rows) per chunk of the index range [lo, hi).

        Random mode draws every row with one ``Generator``, whose PCG64 state
        is set per row to that of ``default_rng((seed, index))``.  A PCG64
        stream is fixed by its state, and clearing ``has_uint32`` drops the
        spare 32-bit half that an earlier row's ``integers`` call may have
        kept, so each row's draws are bit-identical to those of a fresh
        ``default_rng((seed, index))``, without building one per row.
        Exhaustive mode does not load ``numpy.random``."""
        n = plan.n
        if plan.mode == "exhaustive":
            for start, stop in _chunks(n, lo, hi):
                yield start, _index_bits(start, stop, n)
            return
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        for start, stop in _chunks(n, lo, hi):
            rows = np.zeros((stop - start, 1 << n), dtype=bool)
            for r, state in enumerate(_pcg64_states(plan.seed, start, stop)):
                bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
                self.draw(rng, n, rows[r])
            yield start, rows if self.domain is None else self.domain(rows, n)


_PROPERTIES = {
    "duality": _Property(_duality, _draw_uniform),
    "shadow-lemma": _Property(_shadow_lemma, _draw_generators, _simply_rooted_complement),
    "parseval": _Property(_parseval, _draw_signs),
    "influence-identity": _Property(_influence_identity, _draw_signs),
    "corollary-lb": _Property(_corollary_lb, _draw_signs),
    "theorem2": _Property(_theorem2, _draw_generators, _closure_with_empty_set),
    "frankl": _Property(_frankl, _draw_generators, closure_rows),
    "conjecture2": _Property(_conjecture2, _draw_generators, _simply_rooted_complement),
    "partial-claim": _Property(_partial_claim, _draw_generators, _simply_rooted_complement),
    "edge-iso": _Property(_edge_iso, _draw_signs),
    "kotlov": _Property(_kotlov, _draw_vertices),
    "fkn-zero": _Property(_fkn_zero, _draw_signs),
    "ks-zero": _Property(_ks_zero, _draw_signs),
    "positive-cap": _Property(_positive_cap, _draw_generators, _simply_rooted_complement),
    "thin-boundary": _Property(_thin_boundary, _draw_generators, _simply_rooted_complement),
}
PROPERTY_NAMES = tuple(_PROPERTIES)


# ---------------------------------------------------------------------------
# the runner


def _merge_summary(acc: dict, upd: dict) -> None:
    for key, value in upd.items():
        if key.startswith("max_"):
            acc[key] = value if key not in acc else max(acc[key], value)
        elif key.startswith("min_"):
            acc[key] = value if key not in acc else min(acc[key], value)
        else:
            acc[key] = acc.get(key, 0) + value


def _evaluated(plan: SweepPlan, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, _Rows]]:
    """(first index, boolean rows, evaluation) per chunk of the index range [lo, hi)."""
    prop = _PROPERTIES[plan.property]
    for start, rows in prop.chunks(plan, lo, hi):
        yield start, rows, prop.evaluate(rows, plan.n)


def _sweep_block(plan: SweepPlan, lo: int, hi: int) -> tuple[int, int, list[dict], dict]:
    """The applicable count, the violation count, the first witnesses and the
    summary of the index range [lo, hi)."""
    kind = _PROPERTIES[plan.property].kind
    witnesses: list[dict] = []
    violation_count = checked = 0
    summary: dict = {}
    for start, rows, found in _evaluated(plan, lo, hi):
        checked += int(np.count_nonzero(found.applicable))
        _merge_summary(summary, found.summary)
        failing = np.flatnonzero(found.failed)
        violation_count += len(failing)
        for r in failing[: plan.witness_cap - len(witnesses)].tolist():
            witnesses.append(_witness(kind, start + r, plan.n, rows[r], found.detail(r)))
    return checked, violation_count, witnesses, summary


def scan(prop: str, n: int, samples: int, seed: int) -> Iterator[tuple[int, np.ndarray, dict, bool]]:
    """Per-row output mode of a random sweep of a family property: for each
    instance in index order, its index, membership row, integer quantities and
    whether it is a violation.  The arguments are validated before the first
    row is drawn."""
    plan = SweepPlan(prop, n, "random", samples=samples, seed=seed)

    def instances():
        for start, rows, found in _evaluated(plan, 0, plan.samples):
            failed = found.failed.tolist()
            for r, row in enumerate(rows):
                yield (start + r, row, {key: int(v[r]) for key, v in found.quantities.items()},
                       failed[r])

    return instances()


def _split(total: int, parts: int) -> list[tuple[int, int]]:
    """The nonempty ones of ``parts`` near-equal consecutive ranges of [0, total)."""
    bounds = [total * p // parts for p in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def run_sweep(plan: SweepPlan) -> VerificationReport:
    """Execute a sweep; the canonical report depends only on (plan, seed)."""
    started = time.perf_counter()
    total = (1 << (1 << plan.n)) if plan.mode == "exhaustive" else int(plan.samples)
    blocks = _split(total, plan.worker_count)

    if plan.worker_count <= 1 or len(blocks) <= 1:
        partials = [_sweep_block(plan, lo, hi) for lo, hi in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

        with ProcessPoolExecutor(max_workers=plan.worker_count) as pool:
            futures = [pool.submit(_sweep_block, plan, lo, hi) for lo, hi in blocks]
            partials = [f.result() for f in futures]

    checked = violation_count = 0
    violations: list[dict] = []
    summary: dict = {}
    for block_checked, block_violations, witnesses, block_summary in partials:
        checked += block_checked
        violation_count += block_violations
        violations.extend(witnesses)
        _merge_summary(summary, block_summary)
    violations = violations[: plan.witness_cap]
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    return VerificationReport(
        property=plan.property,
        n=plan.n,
        mode=plan.mode,
        samples=plan.samples,
        seed=plan.seed,
        worker_count=plan.worker_count,
        enumerated=total,
        checked=checked,
        violation_count=violation_count,
        violations=tuple(violations),
        summary=jsonable(summary),
        passed=violation_count == 0,
        elapsed_ms=elapsed_ms,
    )
