"""Property sweeps: one batched engine with deterministic reports.

A sweep reads its instances as rows of a (rows, 2^n) table, one chunk at a
time, and hands each chunk to the property's vectorized evaluator.  Per row
the evaluator returns whether the property applies, whether it holds and the
integer quantities behind the violation details, the summaries and the
columns of ``ucx scan``.  Every row is a boolean membership row: a family
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
by the complement duality.  ``duality`` reads uniformly random families and
``kotlov`` random vertex sets larger than half the cube.  ``scan`` is the
per-row output mode of the same engine.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import familyfile
from .core import SetFamily, check_dimension, check_int, frequency_rows
from .extremal import ks_correlation_rows, nearest_signed_rows
from .families import (
    PreconditionError,
    closure_rows,
    component_directions,
    missing_lower_rows,
    rooted_rows,
    theorem2_rows,
    thin_boundary_rows,
    union_closed_rows,
    unique_root_counts,
    uniquely_rooted,
)
from .influence import corollary_bound_rows, flip_count_rows, pair_count_rows
from .spectral import first_level_rows, level_sum_rows, spectrum_rows

EXHAUSTIVE_MAX_N = 4


# ---------------------------------------------------------------------------
# family generation primitives


def union_closure(generators: SetFamily) -> SetFamily:
    """Smallest union-closed superfamily; contains the empty set only if a
    generator is the empty set."""
    return SetFamily.from_bool(generators.n, closure_rows(generators.to_bool(), generators.n))


def enumerate_families(n: int, which: str = "all") -> Iterator[SetFamily]:
    """Every family on [n] exactly once, optionally filtered; n <= 4 only."""
    if check_dimension(n) > EXHAUSTIVE_MAX_N:
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
            yield SetFamily(n, row)


def random_union_closed(n: int, generator_count: int, seed: int) -> SetFamily:
    """Union closure of ``generator_count`` uniform subsets; deterministic."""
    check_dimension(n)
    generator_count = check_int(generator_count, "generator_count", 0)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    table = np.zeros(1 << n, dtype=bool)
    table[rng.integers(0, 1 << n, size=generator_count, dtype=np.int64)] = True
    return SetFamily.from_bool(n, closure_rows(table, n))


# ---------------------------------------------------------------------------
# single-instance checks exposed as API


def _cap_ladder(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The OR-family ladder for k = 0..n-1: the mean-coefficient thresholds
    -(1 - 2^{-k}) scaled by 2^n, which are 2^{n-k} - 2^n, and the influence
    caps (k+1) 2^{-k} scaled by 2^{n-1}, which are (k+1) 2^{n-1-k}."""
    k = np.arange(n, dtype=np.int64)
    return (1 << (n - k)) - (1 << n), (k + 1) << (n - 1 - k)


def _threshold_k(n: int, sizes):
    """Per family size: the largest k in [0, n-1] with mean coefficient
    <= -(1 - 2^{-k}), or -1 when even k = 0 fails.  The thresholds fall as k
    grows, so the thresholds met are k = 0..K and K + 1 is their number."""
    s0 = (1 << n) - 2 * np.asarray(sizes, dtype=np.int64)  # s(empty) = 2^n - 2|F|
    return np.count_nonzero(s0[..., None] <= _cap_ladder(n)[0], axis=-1) - 1


def largest_threshold_k(n: int, size: int) -> int | None:
    """Largest k in [0, n-1] with mean coefficient <= -(1 - 2^{-k}),
    in terms of the family size; None when even k = 0 fails."""
    k = int(_threshold_k(n, check_int(size, "size", 0, 1 << check_dimension(n))))
    return None if k < 0 else k


def conjecture2_margin_rows(sizes, enter, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per family size and total enter-pair count: the threshold k (-1 for
    none) and the margin (k+1) 2^{-k} - I^+ of the positive-influence cap,
    scaled by 2^{n-1}; the cap is 0 at k = -1."""
    k = _threshold_k(n, sizes)
    return k, np.where(k < 0, 0, _cap_ladder(n)[1][k]) - enter


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

    def validate(self) -> None:
        """The one check of a sweep's or scan's arguments, before any row is
        drawn; ``samples`` is read in random mode only."""
        if self.property not in PROPERTY_NAMES:
            raise ValueError(f"unknown property {self.property!r}")
        check_dimension(self.n)
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive" and self.n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive sweeps capped at n = {EXHAUSTIVE_MAX_N}")
        if self.mode == "random":
            if self.samples is None:
                raise ValueError("random mode needs samples >= 1")
            check_int(self.samples, "samples", 1)
        check_int(self.seed, "seed", 0, (1 << 64) - 1)
        check_int(self.worker_count, "worker_count", 1)
        check_int(self.witness_cap, "witness_cap", 0)
        if self.property == "ks-zero" and self.n < 2:
            raise ValueError("ks-zero needs n >= 2")


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
        body = familyfile.format_family(SetFamily.from_bool(n, row))
    else:
        body = "".join("-" if member else "+" for member in row)
    return {"index": index, "kind": kind, "n": n, kind: body, "detail": jsonable(detail)}


# ---------------------------------------------------------------------------
# row sources


def _chunks(n: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Index ranges of at most min(2048, 2^24 / 2^n) rows each."""
    step = min(2048, (1 << 24) >> n)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def _index_bits(start: int, stop: int, n: int) -> np.ndarray:
    """Exhaustive rows: the 2^n binary digits of each index, as bool."""
    idx = np.arange(start, stop, dtype=np.uint64)
    cols = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> cols[None, :]) & 1).astype(bool)


def _draw_signs(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random function: a member wherever the drawn bit is 0."""
    row[:] = rng.integers(0, 2, size=1 << n, dtype=np.int8) == 0


def _draw_uniform(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random family: the drawn bits, lowest point first."""
    if n >= 3:
        raw = np.frombuffer(rng.bytes(1 << (n - 3)), dtype=np.uint8)
    else:
        raw = np.array([rng.integers(0, 1 << (1 << n))], dtype=np.uint8)
    row[:] = np.unpackbits(raw, bitorder="little")[: 1 << n]


def _draw_generators(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """Between 1 and 2n uniformly drawn generator sets."""
    count = 1 + int(rng.integers(0, 2 * n))
    row[rng.integers(0, 1 << n, size=count, dtype=np.int64)] = True


def _draw_vertices(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random vertex set larger than half the cube."""
    half = 1 << (n - 1)
    size = half + 1 + int(rng.integers(0, (1 << n) - half))
    row[rng.choice(1 << n, size=size, replace=False)] = True


def _as_drawn(rows: np.ndarray, n: int) -> np.ndarray:
    return rows


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
    spec = spectrum_rows(t)
    sums = np.einsum("ij,ij->i", spec, spec)
    return _Rows(_every(t), sums == four_n,
                 lambda r: {"coefficient_square_sum": int(sums[r]), "expected": four_n})


def _influence_identity(t: np.ndarray, n: int) -> _Rows:
    spec = spectrum_rows(t)
    pivotal = flip_count_rows(t, n).sum(axis=1)
    weighted = level_sum_rows(spec, n) @ np.arange(n + 1)
    return _Rows(_every(t), weighted == pivotal << (n + 1),
                 lambda r: {"pivotal_pairs": int(pivotal[r]),
                            "weighted_square_sum": int(weighted[r])})


def _corollary_lb(t: np.ndarray, n: int) -> _Rows:
    spec = spectrum_rows(t)
    bounds = corollary_bound_rows(level_sum_rows(spec, n), n)
    lhs = flip_count_rows(t, n).sum(axis=1) << (n + 1)  # I(f) * 2 * 4^n / 2^n
    ok, first = _first_failure(lhs[:, None] < bounds)
    return _Rows(_every(t), ok,
                 lambda r: {"k": int(first[r]) + 1, "influence_scaled": int(lhs[r]),
                            "bound_scaled": int(bounds[r, first[r]])})


def _edge_iso(t: np.ndarray, n: int) -> _Rows:
    thresholds, caps = _cap_ladder(n)
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
    spec = spectrum_rows(t)
    qualifying = level_sum_rows(spec, n)[:, 2] == 1 << (2 * n)
    ok = ~qualifying
    best = nearest_signed_rows(ks_correlation_rows(spec[qualifying], n))[2]
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
    applicable = t[:, 0] & union_closed_rows(t, n)
    deficiency, unique = theorem2_rows(t, n)
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
    domain: Callable[[np.ndarray, int], np.ndarray] = _as_drawn

    @property
    def kind(self) -> str:
        """What a witness is: the properties that draw functions read functions."""
        return "function" if self.draw is _draw_signs else "family"

    def chunks(self, plan: SweepPlan, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
        """(first index, boolean rows) per chunk of the index range [lo, hi)."""
        n = plan.n
        for start, stop in _chunks(n, lo, hi):
            if plan.mode == "exhaustive":
                yield start, _index_bits(start, stop, n)
            else:
                rows = np.zeros((stop - start, 1 << n), dtype=bool)
                for r, index in enumerate(range(start, stop)):
                    self.draw(np.random.default_rng((plan.seed, index)), n, rows[r])
                yield start, self.domain(rows, n)


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


def _sweep_block(plan: SweepPlan, lo: int, hi: int) -> tuple[int, int, list[dict], dict]:
    """The applicable count, the violation count, the first witnesses and the
    summary of the index range [lo, hi)."""
    prop = _PROPERTIES[plan.property]
    witnesses: list[dict] = []
    violation_count = checked = 0
    summary: dict = {}
    for start, rows in prop.chunks(plan, lo, hi):
        found = prop.evaluate(rows, plan.n)
        checked += int(np.count_nonzero(found.applicable))
        _merge_summary(summary, found.summary)
        failing = np.flatnonzero(found.failed)
        violation_count += len(failing)
        for r in failing[: plan.witness_cap - len(witnesses)].tolist():
            witnesses.append(_witness(prop.kind, start + r, plan.n, rows[r], found.detail(r)))
    return checked, violation_count, witnesses, summary


def scan(prop: str, n: int, samples: int, seed: int) -> Iterator[tuple[int, np.ndarray, dict, bool]]:
    """Per-row output mode of a random sweep of a family property: for each
    instance in index order, its index, membership row, integer quantities and
    whether it is a violation.  The arguments are validated before the first
    row is drawn."""
    plan = SweepPlan(prop, n, "random", samples=samples, seed=seed)
    plan.validate()
    spec = _PROPERTIES[prop]

    def instances():
        for start, rows in spec.chunks(plan, 0, samples):
            found = spec.evaluate(rows, n)
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
    plan.validate()
    started = time.perf_counter()
    total = (1 << (1 << plan.n)) if plan.mode == "exhaustive" else int(plan.samples)
    blocks = _split(total, plan.worker_count)

    if plan.worker_count <= 1 or len(blocks) <= 1:
        partials = [_sweep_block(plan, lo, hi) for lo, hi in blocks]
    else:
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
