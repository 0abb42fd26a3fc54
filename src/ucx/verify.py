"""Property sweeps: one batched engine with deterministic reports.

A sweep reads its instances as rows of a (rows, 2^n) table, one chunk at a
time, and hands each chunk to the property's vectorized evaluator.  Per row
the evaluator returns whether the property applies, whether it holds and the
integer quantities behind the violation details, the summaries and the
columns of ``ucx scan``.  Function properties read +/-1 value rows, family
properties boolean membership rows.  The two modes differ only in where the
rows come from:

* exhaustive mode (n <= 4 only) takes the binary digits of the instance
  index ``bits`` in [0, 2^{2^n}), read both as a family bitset and as the
  function that is -1 exactly on that family's members;
* random mode draws each instance from its own RNG stream seeded by
  (seed, index), so the realized instances, violations, and summaries are
  identical no matter how the index range is partitioned across workers.
  Canonical report serialization omits wall-clock time and the worker count
  for that reason.

Random family draws are mapped onto the property's domain.  Most draw the
union closure of uniformly drawn generator sets: ``frankl`` reads the
closure itself, ``theorem2`` the closure with the empty set adjoined (the
exact domain on which its deficiency equals the complement's unique-root
count), and the properties quantified over simply-rooted families read the
complement of that, which is simply-rooted by the complement duality.
``duality`` reads uniformly random families and ``kotlov`` random vertex
sets larger than half the cube.  ``scan`` is the per-row output mode of the
same engine.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from . import familyfile
from .core import (
    BooleanFunction,
    SetFamily,
    bits_to_bool,
    check_dimension,
    frequency_rows,
    popcount_table,
)
from .extremal import ks_distance, nearest_dictator
from .families import (
    PreconditionError,
    closure_rows,
    component_directions,
    duality_rows,
    is_simply_rooted,
    is_union_closed,
    positive_cap_rows,
    root_masks,
    shadow_dichotomy_rows,
    simply_rooted_rows,
    theorem2_rows,
    thin_boundary_rows,
    union_closed_rows,
)
from .influence import pair_count_rows
from .spectral import fwht_rows, level_sum_rows

EXHAUSTIVE_MAX_N = 4


# ---------------------------------------------------------------------------
# family generation primitives


def union_closure(generators: SetFamily) -> SetFamily:
    """Smallest union-closed superfamily; contains the empty set only if a
    generator is the empty set."""
    return SetFamily.from_bool(generators.n, closure_rows(generators.to_bool(), generators.n))


def enumerate_families(n: int, which: str = "all") -> Iterator[SetFamily]:
    """Every family on [n] exactly once, optionally filtered; n <= 4 only."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration capped at n = {EXHAUSTIVE_MAX_N}")
    if which not in ("all", "union_closed", "simply_rooted"):
        raise ValueError(f"unknown filter {which!r}")
    for bits in range(1 << (1 << n)):
        fam = SetFamily.from_bits(n, bits)
        if which == "union_closed" and not is_union_closed(fam):
            continue
        if which == "simply_rooted" and not is_simply_rooted(fam):
            continue
        yield fam


def random_union_closed(n: int, generator_count: int, seed: int) -> SetFamily:
    """Union closure of ``generator_count`` uniform subsets; deterministic."""
    check_dimension(n)
    if generator_count < 0:
        raise ValueError("generator_count must be non-negative")
    rng = np.random.default_rng(seed)
    table = np.zeros(1 << n, dtype=bool)
    table[rng.integers(0, 1 << n, size=generator_count, dtype=np.int64)] = True
    return SetFamily.from_bool(n, closure_rows(table, n))


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


# ---------------------------------------------------------------------------
# single-instance checks exposed as API


def _threshold_k(n: int, sizes):
    """Per family size: the largest k in [0, n-1] with mean coefficient
    <= -(1 - 2^{-k}), or -1 when even k = 0 fails."""
    doubled = 2 * np.asarray(sizes, dtype=np.int64)
    k = np.full(doubled.shape, -1, dtype=np.int64)
    for j in range(n):
        k = np.where(doubled >= (1 << (n + 1)) - (1 << (n - j)), j, k)
    return k


def largest_threshold_k(n: int, size: int) -> int | None:
    """Largest k in [0, n-1] with mean coefficient <= -(1 - 2^{-k}),
    in terms of the family size; None when even k = 0 fails."""
    k = int(_threshold_k(n, size))
    return None if k < 0 else k


def _margin_rows(tables: np.ndarray, n: int):
    """Per row: size, enter pairs, threshold k (-1 for none) and the margin
    (k+1) 2^{-k} - I^+ of the positive-influence cap, scaled by 2^{n-1}."""
    sizes = np.count_nonzero(tables, axis=-1)
    enter = pair_count_rows(tables, n)[0].sum(axis=-1)
    k = _threshold_k(n, sizes)
    margin = ((k + 1) << (n - 1 - k)) - enter
    return sizes, enter, k, margin


def conjecture2_margin(family: SetFamily) -> tuple[int | None, Fraction | None]:
    """Slack of the positive-influence cap (k+1) 2^{-k} at the largest
    applicable threshold k.  A negative margin would be a counterexample.
    """
    if family.size == 0:
        raise PreconditionError("margin requires a nonempty family")
    if not is_simply_rooted(family):
        raise PreconditionError("margin requires a simply-rooted family")
    _, _, k, margin = _margin_rows(family.to_bool(), family.n)
    if k < 0:
        return None, None
    return int(k), Fraction(int(margin), 1 << (family.n - 1))


def _spans_all_directions(tables: np.ndarray, n: int) -> np.ndarray:
    return np.any(component_directions(tables, n) == (1 << n) - 1, axis=-1)


def kotlov_check(vertices: SetFamily) -> bool:
    """For a vertex set larger than half the cube: some connected component
    of the induced subgraph uses edges in all n directions."""
    if vertices.size <= 1 << (vertices.n - 1):
        raise PreconditionError("vertex set must exceed half the cube")
    return bool(_spans_all_directions(vertices.to_bool(), vertices.n))


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
        if self.property not in PROPERTY_NAMES:
            raise ValueError(f"unknown property {self.property!r}")
        check_dimension(self.n)
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "exhaustive":
            if self.n > EXHAUSTIVE_MAX_N:
                raise ValueError(f"exhaustive sweeps capped at n = {EXHAUSTIVE_MAX_N}")
        else:
            if self.samples is None or self.samples < 1:
                raise ValueError("random mode needs samples >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if self.witness_cap < 0:
            raise ValueError("witness_cap must be >= 0")
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
        """Report content that must be identical across worker counts."""
        return _jsonable(
            {
                "property": self.property,
                "n": self.n,
                "mode": self.mode,
                "samples": self.samples,
                "seed": self.seed,
                "enumerated": self.enumerated,
                "checked": self.checked,
                "violation_count": self.violation_count,
                "passed": self.passed,
                "violations": list(self.violations),
                "summary": self.summary,
            }
        )

    def canonical_json(self) -> str:
        import json

        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


# ---------------------------------------------------------------------------
# violation payloads


def _witness(index: int, n: int, row: np.ndarray, detail: dict) -> dict:
    if row.dtype == bool:
        kind, body = "family", familyfile.format_family(SetFamily.from_bool(n, row))
    else:
        kind, body = "function", "".join("-" if v < 0 else "+" for v in row)
    return {"index": index, "kind": kind, "n": n, kind: body, "detail": _jsonable(detail)}


# ---------------------------------------------------------------------------
# row sources


def _chunks(n: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Index ranges of at most min(2048, 2^24 / 2^n) rows each."""
    step = min(2048, (1 << 24) >> n)
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


def _index_bits(start: int, stop: int, n: int) -> np.ndarray:
    """Exhaustive rows: the 2^n binary digits of each index, as int8 0/1."""
    idx = np.arange(start, stop, dtype=np.uint64)
    cols = np.arange(1 << n, dtype=np.uint32)
    return ((idx[:, None] >> cols[None, :]) & 1).astype(np.int8)


def _function_chunks(plan: SweepPlan, lo: int, hi: int):
    size = 1 << plan.n
    for start, stop in _chunks(plan.n, lo, hi):
        if plan.mode == "exhaustive":
            yield start, (1 - 2 * _index_bits(start, stop, plan.n)).astype(np.int8)
        else:
            rows = np.empty((stop - start, size), dtype=np.int8)
            for r, index in enumerate(range(start, stop)):
                rng = _instance_rng(plan.seed, index)
                rows[r] = (rng.integers(0, 2, size=size, dtype=np.int8) << 1) - 1
            yield start, rows


def _family_chunks(plan: SweepPlan, lo: int, hi: int, draw, domain):
    n = plan.n
    for start, stop in _chunks(n, lo, hi):
        if plan.mode == "exhaustive":
            yield start, _index_bits(start, stop, n).view(bool)
        else:
            rows = np.zeros((stop - start, 1 << n), dtype=bool)
            for r, index in enumerate(range(start, stop)):
                draw(_instance_rng(plan.seed, index), n, rows[r])
            yield start, domain(rows, n)


def _draw_uniform(rng: np.random.Generator, n: int, row: np.ndarray) -> None:
    """A uniformly random family."""
    if n >= 3:
        bits = int.from_bytes(rng.bytes(1 << (n - 3)), "little")
    else:
        bits = int(rng.integers(0, 1 << (1 << n)))
    row[:] = bits_to_bool(bits, n)


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


def _spectrum(mat: np.ndarray) -> np.ndarray:
    spec = mat.astype(np.int64)
    fwht_rows(spec)
    return spec


def _pivotal_totals(mat: np.ndarray, n: int) -> np.ndarray:
    rows = mat.shape[0]
    total = np.zeros(rows, dtype=np.int64)
    for i in range(n):
        view = mat.reshape(rows, -1, 2, 1 << i)
        total += np.count_nonzero(view[:, :, 0, :] != view[:, :, 1, :], axis=(1, 2))
    return total


def _parseval(mat: np.ndarray, n: int) -> _Rows:
    four_n = 1 << (2 * n)
    spec = _spectrum(mat)
    sums = (spec * spec).sum(axis=1)
    return _Rows(_every(mat), sums == four_n,
                 lambda r: {"coefficient_square_sum": int(sums[r]), "expected": four_n})


def _influence_identity(mat: np.ndarray, n: int) -> _Rows:
    spec = _spectrum(mat)
    pivotal = _pivotal_totals(mat, n)
    weighted = (spec * spec) @ popcount_table(n).astype(np.int64)
    return _Rows(_every(mat), weighted == pivotal << (n + 1),
                 lambda r: {"pivotal_pairs": int(pivotal[r]),
                            "weighted_square_sum": int(weighted[r])})


def _corollary_lb(mat: np.ndarray, n: int) -> _Rows:
    four_n = 1 << (2 * n)
    spec = _spectrum(mat)
    levels = level_sum_rows(spec * spec, n)
    lhs = _pivotal_totals(mat, n) << (n + 1)  # I(f) * 2 * 4^n / 2^n
    bounds = np.stack(
        [k * four_n - sum((k - i) * levels[:, i] for i in range(k)) for k in range(1, n + 1)],
        axis=1,
    )
    ok, first = _first_failure(lhs[:, None] < bounds)
    return _Rows(_every(mat), ok,
                 lambda r: {"k": int(first[r]) + 1, "influence_scaled": int(lhs[r]),
                            "bound_scaled": int(bounds[r, first[r]])})


def _edge_iso(mat: np.ndarray, n: int) -> _Rows:
    half = 1 << (n - 1)
    s0 = _spectrum(mat)[:, 0].copy()
    pivotal = _pivotal_totals(mat, n)
    fail = np.stack(
        [(s0 >= (1 << (n - k)) - (1 << n)) & (s0 <= 0) & ((pivotal << k) < (k + 1) * half)
         for k in range(n)],
        axis=1,
    )
    ok, first = _first_failure(fail)
    return _Rows(_every(mat), ok,
                 lambda r: {"k": int(first[r]), "pivotal_pairs": int(pivotal[r]),
                            "mean_scaled": int(s0[r])})


def _full_level_weight(spec: np.ndarray, n: int, level: int) -> np.ndarray:
    squares = spec * spec
    return squares[:, popcount_table(n) == level].sum(axis=1) == 1 << (2 * n)


def _fkn_zero(mat: np.ndarray, n: int) -> _Rows:
    qualifying = _full_level_weight(_spectrum(mat), n, 1)
    ok = ~qualifying
    for r in np.flatnonzero(qualifying):
        ok[r] = nearest_dictator(BooleanFunction(n, mat[r]))[2] == 0
    return _Rows(_every(mat), ok, _reason("full level-1 weight but not a signed dictator"),
                 _count("num_qualifying", qualifying))


def _ks_zero(mat: np.ndarray, n: int) -> _Rows:
    qualifying = _full_level_weight(_spectrum(mat), n, 2)
    ok = ~qualifying
    for r in np.flatnonzero(qualifying):
        ok[r] = ks_distance(BooleanFunction(n, mat[r]))[1] == 0
    return _Rows(_every(mat), ok, _reason("full level-2 weight but outside the quadratic class"),
                 _count("num_qualifying", qualifying))


def _duality(t: np.ndarray, n: int) -> _Rows:
    return _Rows(_every(t), duality_rows(t, n), _reason("duality mismatch"))


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


def _simply_rooted(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows' root masks, and which rows are simply-rooted."""
    found = root_masks(t, n)
    return found, simply_rooted_rows(t, found)


def _shadow_lemma(t: np.ndarray, n: int) -> _Rows:
    found, applicable = _simply_rooted(t, n)
    return _Rows(applicable, shadow_dichotomy_rows(t, found, n), _reason("shadow dichotomy failed"))


def _thin_boundary(t: np.ndarray, n: int) -> _Rows:
    applicable = _simply_rooted(t, n)[1]
    return _Rows(applicable, thin_boundary_rows(t, n), _reason("member covers two missing sets"))


def _positive_cap(t: np.ndarray, n: int) -> _Rows:
    found, applicable = _simply_rooted(t, n)
    enter, unique, ok = positive_cap_rows(t, found, n)
    return _Rows(applicable, ok,
                 lambda r: {"enter_pairs": int(enter[r]), "unique_root_count": int(unique[r])})


def _partial_claim(t: np.ndarray, n: int) -> _Rows:
    applicable = _simply_rooted(t, n)[1] & (4 * np.count_nonzero(t, axis=1) > 3 << n)
    enter = pair_count_rows(t, n)[0].sum(axis=1)
    return _Rows(applicable, enter < 1 << (n - 1), lambda r: {"enter_pairs": int(enter[r])},
                 _count("num_applicable", applicable))


def _conjecture2(t: np.ndarray, n: int) -> _Rows:
    half = 1 << (n - 1)
    sizes, enter, k, margin = _margin_rows(t, n)
    applicable = _simply_rooted(t, n)[1] & (sizes > 0)
    capped = applicable & (k >= 0)
    summary = _count("num_applicable", capped)
    if summary:
        summary["min_margin"] = Fraction(int(margin[capped].min()), half)
    return _Rows(applicable, (k < 0) | (margin >= 0),
                 lambda r: {"k": int(k[r]), "margin": Fraction(int(margin[r]), half)},
                 summary, {"size": sizes, "enter_pairs": enter, "k": k, "margin_scaled": margin})


def _kotlov(t: np.ndarray, n: int) -> _Rows:
    applicable = np.count_nonzero(t, axis=1) > 1 << (n - 1)
    return _Rows(applicable, _spans_all_directions(t, n),
                 _reason("no component spans all directions"))


@dataclass(frozen=True)
class _Property:
    """A property's evaluator and, for a family property, how random mode
    draws one instance and maps a chunk of draws onto the domain."""

    evaluate: Callable[[np.ndarray, int], _Rows]
    draw: Callable | None = None
    domain: Callable[[np.ndarray, int], np.ndarray] = _as_drawn

    def chunks(self, plan: SweepPlan, lo: int, hi: int):
        if self.draw is None:
            return _function_chunks(plan, lo, hi)
        return _family_chunks(plan, lo, hi, self.draw, self.domain)


_PROPERTIES = {
    "duality": _Property(_duality, _draw_uniform),
    "shadow-lemma": _Property(_shadow_lemma, _draw_generators, _simply_rooted_complement),
    "parseval": _Property(_parseval),
    "influence-identity": _Property(_influence_identity),
    "corollary-lb": _Property(_corollary_lb),
    "theorem2": _Property(_theorem2, _draw_generators, _closure_with_empty_set),
    "frankl": _Property(_frankl, _draw_generators, closure_rows),
    "conjecture2": _Property(_conjecture2, _draw_generators, _simply_rooted_complement),
    "partial-claim": _Property(_partial_claim, _draw_generators, _simply_rooted_complement),
    "edge-iso": _Property(_edge_iso),
    "kotlov": _Property(_kotlov, _draw_vertices),
    "fkn-zero": _Property(_fkn_zero),
    "ks-zero": _Property(_ks_zero),
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


def _sweep_block(plan: SweepPlan, lo: int, hi: int) -> dict:
    prop = _PROPERTIES[plan.property]
    violations: list[dict] = []
    violation_count = 0
    summary: dict = {}
    checked = 0
    for start, rows in prop.chunks(plan, lo, hi):
        found = prop.evaluate(rows, plan.n)
        checked += int(np.count_nonzero(found.applicable))
        _merge_summary(summary, found.summary)
        for r in np.flatnonzero(found.applicable & ~found.ok).tolist():
            violation_count += 1
            if len(violations) < plan.witness_cap:
                violations.append(_witness(start + r, plan.n, rows[r], found.detail(r)))
    return {
        "enumerated": hi - lo,
        "checked": checked,
        "violation_count": violation_count,
        "violations": violations,
        "summary": summary,
    }


def scan(prop: str, n: int, samples: int, seed: int) -> Iterator[tuple[int, np.ndarray, dict]]:
    """Per-row output mode of a random sweep of a family property: for each
    instance in index order, its index, membership row and integer quantities.
    The arguments are validated before the first row is drawn."""
    plan = SweepPlan(prop, n, "random", samples=samples, seed=seed)
    plan.validate()
    spec = _PROPERTIES[prop]

    def instances():
        for start, rows in spec.chunks(plan, 0, samples):
            quantities = spec.evaluate(rows, n).quantities
            for r, row in enumerate(rows):
                yield start + r, row, {key: int(v[r]) for key, v in quantities.items()}

    return instances()


def _split(total: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, parts)
    base, rem = divmod(total, parts)
    ranges = []
    start = 0
    for p in range(parts):
        stop = start + base + (1 if p < rem else 0)
        ranges.append((start, stop))
        start = stop
    return [r for r in ranges if r[0] < r[1]]


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

    enumerated = sum(p["enumerated"] for p in partials)
    checked = sum(p["checked"] for p in partials)
    violation_count = sum(p["violation_count"] for p in partials)
    violations: list[dict] = []
    summary: dict = {}
    for p in partials:
        violations.extend(p["violations"])
        _merge_summary(summary, p["summary"])
    violations = violations[: plan.witness_cap]
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    return VerificationReport(
        property=plan.property,
        n=plan.n,
        mode=plan.mode,
        samples=plan.samples,
        seed=plan.seed,
        worker_count=plan.worker_count,
        enumerated=enumerated,
        checked=checked,
        violation_count=violation_count,
        violations=tuple(violations),
        summary=_jsonable(summary),
        passed=violation_count == 0,
        elapsed_ms=elapsed_ms,
    )
