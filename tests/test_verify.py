"""Closure, enumeration, sweep harness, margins, and cube connectivity."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucx import families, familyfile, spectral, verify
from ucx.core import DimensionError, SetFamily, bits_to_bool, check_dimension
from ucx.families import (
    PreconditionError,
    component_directions,
    is_simply_rooted,
    is_union_closed,
)
from ucx.verify import (
    SweepPlan,
    conjecture2_margin,
    duality_check,
    enumerate_families,
    kotlov_check,
    largest_threshold_k,
    positive_influence_cap_check,
    random_union_closed,
    run_sweep,
    shadow_lemma_check,
    union_closure,
)
from ucx.extremal import or_family


def oracle_closure(family: SetFamily) -> SetFamily:
    """Fixpoint by repeated full passes."""
    masks = set(family.members())
    while True:
        extra = {a | b for a in masks for b in masks} - masks
        if not extra:
            return SetFamily.from_members(family.n, masks)
        masks |= extra


def test_union_closure_examples():
    gens = SetFamily.from_sets(2, [[1], [2]])
    assert union_closure(gens) == SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert union_closure(SetFamily.empty(3)) == SetFamily.empty(3)
    closed = SetFamily.from_sets(2, [[1], [1, 2]])
    assert union_closure(closed) == closed


def test_union_closure_empty_set_only_if_generated():
    gens = SetFamily.from_members(2, [0, 1])
    assert 0 in union_closure(gens)
    gens = SetFamily.from_members(2, [1, 2])
    assert 0 not in union_closure(gens)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(0, 31), max_size=8))
def test_union_closure_properties(n, raw_masks):
    masks = [m & ((1 << n) - 1) for m in raw_masks]
    gens = SetFamily.from_members(n, masks)
    closed = union_closure(gens)
    assert gens.bits & closed.bits == gens.bits  # monotone
    assert union_closure(closed) == closed  # idempotent
    assert is_union_closed(closed)
    assert closed == oracle_closure(gens)
    # minimal: every non-generator member is forced as a union of generators below it
    for m in closed.members():
        if m not in gens:
            acc = 0
            for g in gens.members():
                if g | m == m:
                    acc |= g
            assert acc == m


def test_enumerate_families_counts():
    assert sum(1 for _ in enumerate_families(1, "all")) == 4
    assert sum(1 for _ in enumerate_families(2, "all")) == 16
    assert sum(1 for _ in enumerate_families(2, "union_closed")) == 14
    assert sum(1 for _ in enumerate_families(2, "simply_rooted")) == 7
    assert sum(1 for _ in enumerate_families(3, "union_closed")) == 122
    assert sum(1 for _ in enumerate_families(3, "simply_rooted")) == 61
    # n = 4: the simply-rooted count equals exhaustive shadow-lemma's checked
    simply_rooted = sum(1 for _ in enumerate_families(4, "simply_rooted"))
    assert simply_rooted == 2480
    assert simply_rooted == run_sweep(SweepPlan("shadow-lemma", 4, "exhaustive")).checked
    assert sum(1 for _ in enumerate_families(4, "union_closed")) == 2 * 2480
    with pytest.raises(ValueError):
        next(enumerate_families(5, "all"))
    with pytest.raises(ValueError):
        next(enumerate_families(2, "open"))


def test_simply_rooted_count_is_half_the_union_closed_count():
    # complementation is a bijection between simply-rooted families and
    # union-closed families containing the empty set, which are exactly half
    # of all union-closed families (adjoining/removing the empty set pairs them)
    for n in (1, 2, 3):
        uc = sum(1 for _ in enumerate_families(n, "union_closed"))
        sr = sum(1 for _ in enumerate_families(n, "simply_rooted"))
        assert 2 * sr == uc


def test_enumerated_filters_agree_with_predicates():
    for n in (1, 2, 3):
        everything = list(enumerate_families(n, "all"))
        assert [f.bits for f in everything] == list(range(1 << (1 << n)))
        for which, predicate in (("simply_rooted", is_simply_rooted), ("union_closed", is_union_closed)):
            listed = [f.bits for f in enumerate_families(n, which)]
            assert listed == [f.bits for f in everything if predicate(f)]


def test_random_union_closed():
    fam = random_union_closed(3, 0, 1)
    assert fam == SetFamily.empty(3)
    for seed in (1, 2, 3):
        fam = random_union_closed(4, 5, seed)
        assert is_union_closed(fam)
        assert fam == random_union_closed(4, 5, seed)
    assert random_union_closed(4, 5, 1) != random_union_closed(4, 5, 2)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_union_closed(4, 5, -1)
    with pytest.raises(ValueError, match="generator_count must be >= 0"):
        random_union_closed(4, -1, 1)


def oracle_threshold_k(n: int, size: int) -> int | None:
    """The largest k in [0, n-1] with mean coefficient <= -(1 - 2^{-k})."""
    mean = Fraction((1 << n) - 2 * size, 1 << n)
    met = [k for k in range(n) if mean <= -(1 - Fraction(1, 1 << k))]
    return max(met, default=None)


def test_largest_threshold_k():
    # n=3: |F| = 6 gives mean -1/2: k = 1; |F| = 7 gives -3/4: k = 2
    assert largest_threshold_k(3, 4) == 0
    assert largest_threshold_k(3, 6) == 1
    assert largest_threshold_k(3, 7) == 2
    assert largest_threshold_k(3, 3) is None
    for n in range(1, 11):
        for size in range((1 << n) + 1):
            assert largest_threshold_k(n, size) == oracle_threshold_k(n, size), (n, size)


def test_largest_threshold_k_checks_its_arguments():
    for size in (-1, 9, 100):  # no family of [3] has more than 8 members
        with pytest.raises(ValueError, match=f"size {size} outside \\[0, 8\\]"):
            largest_threshold_k(3, size)
    for size in (True, 1.0):
        with pytest.raises(TypeError, match="size must be an int"):
            largest_threshold_k(3, size)
    for n in (0, 30, True):
        with pytest.raises(DimensionError):
            largest_threshold_k(n, 1)


def test_conjecture2_margin_rows_match_fractions():
    for n in range(1, 11):
        sizes = np.repeat(np.arange((1 << n) + 1), 3)
        enter = np.tile([0, 1 << (n - 1), n << (n - 1)], (1 << n) + 1)
        k, margin = verify.conjecture2_margin_rows(sizes, enter, n)
        for size, e, got_k, got in zip(sizes.tolist(), enter.tolist(), k.tolist(), margin.tolist()):
            want_k = oracle_threshold_k(n, size)
            assert got_k == (-1 if want_k is None else want_k), (n, size)
            cap = 0 if want_k is None else Fraction(want_k + 1, 1 << want_k)
            assert Fraction(got, 1 << (n - 1)) == cap - Fraction(e, 1 << (n - 1)), (n, size, e)


def test_edge_iso_ladder_on_every_small_row(monkeypatch):
    """No sweep reaches a failing edge-iso row, so the flip counts are
    replaced by values that walk through every influence below n: each row
    is checked against the inequality for each k on its own."""

    def walking_flips(t, n):
        flips = np.zeros((len(t), n), dtype=np.int64)
        flips[:, 0] = np.arange(len(t)) % ((n << (n - 1)) + 1)
        return flips

    monkeypatch.setattr(verify, "flip_count_rows", walking_flips)
    failures = 0
    for n in range(1, 5):
        rows = verify._index_bits(0, 1 << (1 << n), n)
        found = verify._edge_iso(rows, n)
        pivotal = walking_flips(rows, n)[:, 0].tolist()
        for r, size in enumerate(np.count_nonzero(rows, axis=1).tolist()):
            mean = Fraction((1 << n) - 2 * size, 1 << n)
            influence = Fraction(pivotal[r], 1 << (n - 1))
            failing = [k for k in range(n)
                       if -(1 - Fraction(1, 1 << k)) <= mean <= 0
                       and influence < Fraction(k + 1, 1 << k)]
            assert bool(found.ok[r]) == (not failing), (n, r)
            if failing:
                failures += 1
                assert found.detail(r)["k"] == failing[0], (n, r)
    assert failures > 0


def test_conjecture2_margin_examples():
    for k in (0, 1, 2):
        fam = or_family(k + 1, 4).family
        got_k, margin = conjecture2_margin(fam)
        assert got_k == k and margin == 0
    with pytest.raises(PreconditionError):
        conjecture2_margin(SetFamily.empty(3))
    with pytest.raises(PreconditionError):
        conjecture2_margin(SetFamily.from_bits(2, 1))
    # small simply-rooted family: mean coefficient positive, no applicable k
    assert conjecture2_margin(SetFamily.from_sets(3, [[1]])) == (None, None)


def test_kotlov_check():
    assert kotlov_check(SetFamily.full(3))
    for members in itertools.combinations(range(4), 3):
        assert kotlov_check(SetFamily.from_members(2, members))
    with pytest.raises(PreconditionError):
        kotlov_check(SetFamily.from_members(2, [0, 1]))


def test_kotlov_check_refuses_before_labelling(monkeypatch):
    def fail(tables, n):
        raise AssertionError("components labelled on a vertex set the check refuses")

    for module in (families, verify):
        monkeypatch.setattr(module, "component_directions", fail)
    rng = np.random.default_rng(11)
    for n in (3, 10):
        half = SetFamily.from_members(n, rng.choice(1 << n, size=1 << (n - 1), replace=False).tolist())
        with pytest.raises(PreconditionError):
            kotlov_check(half)


def bfs_component_directions(n: int, vertices: set[int]) -> dict[int, int]:
    """Per vertex: the directions of the edges in its connected component."""
    labels: dict[int, int] = {}
    for start in vertices:
        if start in labels:
            continue
        component, frontier, directions = {start}, [start], 0
        while frontier:
            x = frontier.pop()
            for i in range(n):
                y = x ^ (1 << i)
                if y in vertices:
                    directions |= 1 << i
                    if y not in component:
                        component.add(y)
                        frontier.append(y)
        labels.update(dict.fromkeys(component, directions))
    return labels


def test_component_directions_match_bfs():
    # every vertex set, including those of at most half the cube, where no
    # component need span all directions
    for n in (1, 2, 3):
        full = (1 << n) - 1
        tables = (np.arange(1 << (1 << n))[:, None] >> np.arange(1 << n)) & 1 == 1
        for bits, row in enumerate(component_directions(tables, n).tolist()):
            vertices = {m for m in range(1 << n) if (bits >> m) & 1}
            labels = bfs_component_directions(n, vertices)
            assert row == [labels.get(m, 0) for m in range(1 << n)]
            if len(vertices) > 1 << (n - 1):
                family = SetFamily.from_members(n, vertices)
                assert kotlov_check(family) == (full in labels.values())


def test_plan_validation():
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("nonesuch", 2, "exhaustive"))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 5, "exhaustive"))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 3, "random"))  # samples missing
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 3, "random", samples=0))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("ks-zero", 1, "exhaustive"))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 3, "walk"))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 3, "random", samples=10, seed=-1))
    with pytest.raises(ValueError):
        run_sweep(SweepPlan("frankl", 3, "random", samples=10, seed=1 << 64))


@pytest.mark.parametrize("value", [2.5, True, 1.5])
@pytest.mark.parametrize("name", ["samples", "seed", "worker_count", "witness_cap"])
def test_plan_rejects_counts_that_are_not_ints(name, value, monkeypatch):
    def no_rows(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(verify._Property, "chunks", no_rows)
    plan = SweepPlan("parseval", 3, "random", **{"samples": 2, name: value})
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        run_sweep(plan)
    if name in ("samples", "seed"):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            verify.scan("conjecture2", 3, plan.samples, plan.seed)


def test_dimension_rejects_bools():
    for flag in (True, False):
        with pytest.raises(DimensionError, match="got bool"):
            check_dimension(flag)
        with pytest.raises(DimensionError):
            run_sweep(SweepPlan("parseval", flag, "random", samples=2))


def test_samples_are_ignored_in_exhaustive_mode():
    for samples in (None, 0):
        assert run_sweep(SweepPlan("parseval", 2, "exhaustive", samples=samples)).checked == 16


def test_sweep_examples():
    rep = run_sweep(SweepPlan("duality", 3, "exhaustive"))
    assert rep.passed and rep.checked == 256 and rep.violation_count == 0

    rep = run_sweep(SweepPlan("theorem2", 3, "exhaustive"))
    assert rep.passed and rep.summary["max_deficiency"] == 4

    rep = run_sweep(SweepPlan("frankl", 3, "exhaustive"))
    assert rep.passed and rep.checked == 120  # 122 union-closed minus the two excluded

    rep = run_sweep(SweepPlan("parseval", 2, "exhaustive"))
    assert rep.passed and rep.checked == 16

    rep = run_sweep(SweepPlan("kotlov", 3, "exhaustive"))
    assert rep.passed and rep.checked == 93  # subsets of the 8 points larger than 4

    rep = run_sweep(SweepPlan("fkn-zero", 3, "exhaustive"))
    assert rep.passed and rep.summary["num_qualifying"] == 6

    rep = run_sweep(SweepPlan("conjecture2", 3, "exhaustive"))
    assert rep.passed and rep.summary["min_margin"] == "0/1"


def test_sweep_random_modes_pass():
    for prop in ("duality", "shadow-lemma", "thin-boundary", "positive-cap",
                 "conjecture2", "partial-claim", "theorem2", "frankl", "kotlov"):
        rep = run_sweep(SweepPlan(prop, 6, "random", samples=60, seed=9))
        assert rep.passed, prop
    for prop in ("parseval", "influence-identity", "corollary-lb", "edge-iso",
                 "fkn-zero", "ks-zero"):
        rep = run_sweep(SweepPlan(prop, 6, "random", samples=60, seed=9))
        assert rep.passed, prop


def test_sweep_determinism_across_workers():
    for prop, n, samples in (("conjecture2", 7, 400), ("parseval", 8, 200), ("kotlov", 4, 200)):
        reports = [
            run_sweep(SweepPlan(prop, n, "random", samples=samples, seed=123, worker_count=w))
            for w in (1, 4)
        ]
        blobs = {r.canonical_json() for r in reports}
        assert len(blobs) == 1, prop


def test_witness_serialization(monkeypatch):
    def fail_every_row(rows, n):
        return verify._Rows(np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool),
                            lambda r: {"reason": "forced"})

    for prop, kind in (("parseval", "function"), ("duality", "family")):
        forced = dataclasses.replace(verify._PROPERTIES[prop], evaluate=fail_every_row)
        monkeypatch.setitem(verify._PROPERTIES, prop, forced)
        rep = run_sweep(SweepPlan(prop, 2, "exhaustive", witness_cap=16))
        assert rep.violation_count == 16 and len(rep.violations) == 16
        for index, witness in enumerate(rep.violations):
            assert witness["index"] == index and witness["kind"] == kind
            assert witness["n"] == 2 and witness["detail"] == {"reason": "forced"}
            family = SetFamily.from_bits(2, index)
            if kind == "function":
                assert witness["function"] == "".join("-" if x in family else "+" for x in range(4))
            else:
                assert witness["family"] == familyfile.format_family(family)


def test_single_family_checks_read_their_sweep_evaluators(monkeypatch):
    fam = SetFamily.from_members(2, [1, 2, 3])  # simply-rooted, over half the cube
    checks = {"duality": duality_check, "shadow-lemma": shadow_lemma_check,
              "positive-cap": positive_influence_cap_check, "kotlov": kotlov_check}
    assert [check(fam) for check in checks.values()] == [True] * 4
    assert conjecture2_margin(fam) == (1, 0)
    for applicable in (True, False):
        def forced(rows, n):
            return verify._Rows(np.full(len(rows), applicable), np.zeros(len(rows), dtype=bool),
                                lambda r: {"reason": "forced"},
                                quantities={"k": np.full(len(rows), 0),
                                            "margin_scaled": np.full(len(rows), -3)})

        for prop in (*checks, "conjecture2"):
            monkeypatch.setitem(verify._PROPERTIES, prop,
                                dataclasses.replace(verify._PROPERTIES[prop], evaluate=forced))
        if applicable:
            assert [check(fam) for check in checks.values()] == [False] * 4
            assert conjecture2_margin(fam) == (0, Fraction(-3, 2))
            continue
        assert duality_check(fam) is False  # defined on every family: never refused
        for check in (shadow_lemma_check, positive_influence_cap_check, kotlov_check,
                      conjecture2_margin):
            with pytest.raises(PreconditionError):
                check(fam)


def test_witness_kind_follows_the_draw():
    functions = {name for name, prop in verify._PROPERTIES.items() if prop.kind == "function"}
    assert functions == {"parseval", "influence-identity", "corollary-lb", "edge-iso",
                         "fkn-zero", "ks-zero"}
    assert {prop.kind for name, prop in verify._PROPERTIES.items()
            if name not in functions} == {"family"}


def test_uniform_draw_unpacks_the_drawn_bits():
    for n in range(1, 8):
        row = np.zeros(1 << n, dtype=bool)
        verify._draw_uniform(np.random.default_rng((5, n)), n, row)
        rng = np.random.default_rng((5, n))
        if n >= 3:
            bits = int.from_bytes(rng.bytes(1 << (n - 3)), "little")
        else:
            bits = int(rng.integers(0, 1 << (1 << n)))
        assert row.tolist() == bits_to_bool(bits, n).tolist(), n


def test_report_canonical_shape():
    rep = run_sweep(SweepPlan("duality", 2, "exhaustive", worker_count=2))
    doc = rep.canonical_dict()
    assert doc["checked"] == 16 and doc["passed"] is True
    assert "elapsed" not in rep.canonical_json()
    assert "worker" not in rep.canonical_json()
    assert rep.elapsed_ms >= 0


def test_rigid_class_sweeps_transform_once_per_chunk(monkeypatch):
    calls = []
    original = spectral.fwht_rows

    def counting(mat):
        calls.append(len(mat))
        return original(mat)

    monkeypatch.setattr(spectral, "fwht_rows", counting)
    # fkn-zero reads the first level off the frequencies
    report = run_sweep(SweepPlan("fkn-zero", 3, "exhaustive"))
    assert report.passed and report.summary["num_qualifying"] == 6  # the signed dictators
    assert calls == []
    assert run_sweep(SweepPlan("fkn-zero", 6, "random", samples=500, seed=2)).passed
    assert calls == []
    # ks-zero transforms each chunk once
    assert run_sweep(SweepPlan("ks-zero", 3, "exhaustive")).passed
    assert calls == [256]
    calls.clear()
    assert run_sweep(SweepPlan("ks-zero", 5, "random", samples=2100, seed=2)).passed
    assert calls == [2048, 52]


def test_function_sweeps_build_no_second_table():
    """A random function sweep holds its int64 spectra once: no table of
    squares and no butterfly copy on top."""
    n, samples = 12, 256
    table_bytes = samples * (1 << n) * 8
    for prop in ("parseval", "influence-identity", "corollary-lb", "ks-zero"):
        tracemalloc.start()
        try:
            report = run_sweep(SweepPlan(prop, n, "random", samples=samples, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 1.75 * table_bytes, (prop, peak / table_bytes)
