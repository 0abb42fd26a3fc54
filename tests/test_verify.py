"""Closure, enumeration, sweep harness, margins, and cube connectivity."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import every_table, oracle_closure, oracle_component_directions, oracle_threshold_k

from ucx import families, familyfile, spectral, verify
from ucx.core import DimensionError, SetFamily, check_dimension
from ucx.families import (
    PreconditionError,
    component_directions,
    is_simply_rooted,
    is_union_closed,
    theorem2_quantities,
)
from ucx.verify import (
    SweepPlan,
    conjecture2_margin,
    duality_check,
    enumerate_families,
    kotlov_check,
    positive_influence_cap_check,
    random_union_closed,
    run_sweep,
    shadow_lemma_check,
    union_closure,
)
from ucx.extremal import half_cube_missing, or_family


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
    assert np.array_equal(closed.to_bool(), oracle_closure(gens.to_bool(), n))
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


def test_threshold_k_examples():
    # n=3: |F| = 6 gives mean -1/2: k = 1; |F| = 7 gives -3/4: k = 2
    k, _ = verify.conjecture2_margin_rows(np.array([4, 6, 7, 3]), 0, 3)
    assert k.tolist() == [0, 1, 2, -1]


def test_conjecture2_margin_rows_match_fractions():
    for n in range(1, 11):
        sizes = np.repeat(np.arange((1 << n) + 1), 3)
        enter = np.tile([0, 1 << (n - 1), n << (n - 1)], (1 << n) + 1)
        k, margin = verify.conjecture2_margin_rows(sizes, enter, n)
        for size, e, got_k, got in zip(sizes.tolist(), enter.tolist(), k.tolist(), margin.tolist()):
            want_k = oracle_threshold_k(n, size)
            assert got_k == want_k, (n, size)
            cap = 0 if want_k < 0 else Fraction(want_k + 1, 1 << want_k)
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


def test_component_directions_match_bfs():
    # every vertex set at n <= 3, including those of at most half the cube,
    # where no component need span all directions; seeded sets of four
    # densities at n = 4..10
    cases = [(n, every_table(n)) for n in (1, 2, 3)]
    rng = np.random.default_rng(10)
    density = np.array([[0.2], [0.45], [0.55], [0.8]])
    cases += [(n, rng.random((len(density), 1 << n)) < density) for n in range(4, 11)]
    for n, tables in cases:
        full = (1 << n) - 1
        for table, row in zip(tables, component_directions(tables, n).tolist()):
            labels = oracle_component_directions(table, n)
            assert row == labels.tolist()
            if np.count_nonzero(table) > 1 << (n - 1):
                family = SetFamily.from_bool(n, table)
                assert kotlov_check(family) == (full in labels)


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
    counts = {"samples": 2, "seed": 0, name: value}
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        run_sweep(SweepPlan("parseval", 3, "random", **counts))
    if name in ("samples", "seed"):
        with pytest.raises(TypeError, match=f"{name} must be an int"):
            verify.scan("conjecture2", 3, counts["samples"], counts["seed"])


def test_run_sweep_leaves_its_plan_as_built():
    # the plan is checked when built: a sweep does not rewrite its fields,
    # so its hash and its place in a set hold
    plan = SweepPlan("parseval", 3, "exhaustive", samples=5)
    fields_before, hash_before, plans = dataclasses.astuple(plan), hash(plan), {plan}
    run_sweep(plan)
    assert dataclasses.astuple(plan) == fields_before and plan.samples is None
    assert hash(plan) == hash_before and plan in plans


def test_dimension_rejects_bools():
    for flag in (True, False):
        with pytest.raises(DimensionError, match="got bool"):
            check_dimension(flag)
        with pytest.raises(DimensionError):
            run_sweep(SweepPlan("parseval", flag, "random", samples=2))


def test_samples_are_capped_at_two_to_the_64():
    # every index of a random sweep is below 2^64, which the chunk seeding
    # takes as two words; validate() only, no sweep is run
    plan = SweepPlan("parseval", 3, "random", samples=1 << 64)
    plan.validate()
    assert plan.samples == 1 << 64
    with pytest.raises(ValueError, match="samples"):
        SweepPlan("parseval", 3, "random", samples=(1 << 64) + 1).validate()


def test_samples_are_ignored_in_exhaustive_mode():
    for samples in (None, 0):
        assert run_sweep(SweepPlan("parseval", 2, "exhaustive", samples=samples)).checked == 16


def test_exhaustive_reports_hold_no_samples():
    reports = [run_sweep(SweepPlan("duality", 2, "exhaustive", samples=samples))
               for samples in (None, 0, 7, "x")]
    assert len({report.canonical_json() for report in reports}) == 1
    assert all(report.samples is None for report in reports)


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


def test_pool_forked_after_blas_gives_the_same_report():
    """Pool workers are forked after the parent has run a BLAS product (and
    OpenBLAS has started its threads); they neither hang nor change a byte."""
    spectral.fwht_rows(np.zeros((4, 1 << 12), dtype=bool))
    plan = SweepPlan("parseval", 12, "random", samples=300, seed=5)
    forked = run_sweep(dataclasses.replace(plan, worker_count=2))
    assert forked.passed and forked.canonical_json() == run_sweep(plan).canonical_json()


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


def test_package_families_enter_through_of(monkeypatch):
    """The runtime twin of ``test_family_tables_enter_through_of``: with the
    copying constructor refusing every call, each path that returns a family
    still returns the one it did, over a read-only table."""
    def fail_every_row(rows, n):
        return verify._Rows(np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool),
                            lambda r: {"reason": "forced"})

    monkeypatch.setitem(verify._PROPERTIES, "duality",
                        dataclasses.replace(verify._PROPERTIES["duality"], evaluate=fail_every_row))
    format_family, witnessed = familyfile.format_family, []
    monkeypatch.setattr(familyfile, "format_family",
                        lambda family: witnessed.append(family) or format_family(family))

    def witness_families():
        witnessed.clear()
        run_sweep(SweepPlan("duality", 2, "exhaustive", witness_cap=5))
        return list(witnessed)

    base = SetFamily.from_sets(3, [[1], [2, 3]])
    paths = {
        "empty": lambda: SetFamily.empty(3),
        "full": lambda: SetFamily.full(3),
        "from_bits": lambda: SetFamily.from_bits(3, 0b10010110),
        "from_sets": lambda: SetFamily.from_sets(3, [[1], [2, 3], []]),
        "complement": base.complement,
        "union_closure": lambda: union_closure(base),
        "random_union_closed": lambda: random_union_closed(4, 5, 1),
        "upper_shadow": lambda: families.upper_shadow(base),
        "lower_shadow": lambda: families.lower_shadow(base),
        "parse_family": lambda: familyfile.parse_family("n=3\n-\n1\n1 3\n"),
        "enumerate_families": lambda: list(enumerate_families(3, "union_closed")),
        "witness": witness_families,
    }
    reference = {name: path() for name, path in paths.items()}

    def refuse(self, n, table):
        raise AssertionError("a table the package built went through the copying constructor")

    monkeypatch.setattr(SetFamily, "__init__", refuse)
    with pytest.raises(AssertionError, match="copying constructor"):
        SetFamily.from_bool(3, base.to_bool())
    for name, path in paths.items():
        built = path()
        assert built == reference[name], name
        for family in built if isinstance(built, list) else [built]:
            assert type(family) is SetFamily and not family.to_bool().flags.writeable, name
    assert len(reference["enumerate_families"]) == 122 and len(reference["witness"]) == 5


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
        assert row.tolist() == [(bits >> p) & 1 == 1 for p in range(1 << n)], n


def test_function_draw_reads_the_raw_stream():
    """The byte >> 7 reading of the raw stream is numpy's bounded int8 draw:
    if a numpy release changes that draw, this test and the sweep digests
    fail together."""
    for n in range(1, 15):
        for k in range(40):
            key = (1000 * n + k, 7 * k + n)
            row = np.zeros(1 << n, dtype=bool)
            verify._draw_signs(np.random.default_rng(key), n, row)
            drawn = np.random.default_rng(key).integers(0, 2, size=1 << n, dtype=np.int8)
            assert np.array_equal(row, drawn == 0), (n, key)


def test_chunk_seeding_is_numpys_seeding():
    """The states computed for a whole chunk are those numpy's SeedSequence
    and PCG64 give each (seed, index): seeds of one and two words, a chunk
    across the index word boundary 2^32 (indices of one and two words), one
    ending at 2^64 (the last indices a sweep reaches), and scattered indices."""
    scattered = np.random.default_rng(8).integers(0, 1 << 64, size=40, dtype=np.uint64).tolist()
    ranges = [(0, 2048), ((1 << 32) - 5, (1 << 32) + 5), ((1 << 64) - 4, 1 << 64)]
    ranges += [(i, i + 1) for i in scattered]
    for seed in (0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1):
        for start, stop in ranges:
            states = verify._pcg64_states(seed, start, stop)
            assert len(states) == stop - start
            for index, state in zip(range(start, stop), states):
                assert state == np.random.PCG64((seed, index)).state["state"], (seed, index)


@pytest.mark.parametrize("prop", ["parseval", "duality", "theorem2", "kotlov"])
def test_chunk_rows_are_fresh_generator_draws(prop):
    """Rows drawn through the one reused Generator equal the draws of a fresh
    ``default_rng((seed, index))`` per row, for each draw (the raw stream,
    ``bytes``, ``integers`` and ``choice``), also across 2^32."""
    draw = verify._PROPERTIES[prop].draw
    as_drawn = dataclasses.replace(verify._PROPERTIES[prop], domain=None)
    for n, seed, start in [(1, 0, 0), (2, 5, 0), (4, (1 << 64) - 1, 0), (7, 1 << 32, 0),
                           (5, 3, (1 << 32) - 40)]:
        plan = SweepPlan(prop, n, "random", samples=start + 80, seed=seed)
        for first, rows in as_drawn.chunks(plan, start, start + 80):
            for r, row in enumerate(rows):
                fresh = np.zeros(1 << n, dtype=bool)
                draw(np.random.default_rng((seed, first + r)), n, fresh)
                assert np.array_equal(row, fresh), (prop, n, seed, first + r)


def test_exhaustive_sweeps_leave_numpy_random_unloaded():
    """Only random mode builds a Generator: loading numpy.random grew the
    resident size of a process running one exhaustive sweep by about 5 MB."""
    code = ("import sys\nfrom ucx.verify import SweepPlan, run_sweep\n"
            "assert run_sweep(SweepPlan('duality', 3, 'exhaustive')).passed\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(verify.__file__).resolve().parents[1])
    found = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True, timeout=120)
    assert found.stdout.split() == ["False"]


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    """Rows whose member count is a multiple of 3 are made to fail, about
    every third row, so the witnesses and the witness cap fall across chunk
    boundaries: a chunk holds 1, 16 or every row of the sweep."""

    def failing_thirds(prop):
        evaluate = verify._PROPERTIES[prop].evaluate

        def forced(rows, n):
            found = evaluate(rows, n)
            return dataclasses.replace(found, ok=found.ok & (np.count_nonzero(rows, axis=1) % 3 > 0))

        return dataclasses.replace(verify._PROPERTIES[prop], evaluate=forced)

    for prop in ("parseval", "conjecture2"):
        monkeypatch.setitem(verify._PROPERTIES, prop, failing_thirds(prop))
        plan = SweepPlan(prop, 8, "random", samples=300, seed=11, witness_cap=25)
        reports = set()
        for entries in (1 << 6, 1 << 12, 1 << 24):
            monkeypatch.setattr(verify, "_CHUNK_ENTRIES", entries)
            reports.add(run_sweep(plan).canonical_json())
        assert len(reports) == 1, prop
        report = json.loads(reports.pop())
        assert report["violation_count"] > 25 and len(report["violations"]) == 25
        assert report["violations"][-1]["index"] >= 32  # past the second 16-row chunk
    assert "min_margin" in report["summary"]


def test_function_sweep_chunks_stay_cache_sized():
    """At n = 14 a chunk is 64 rows, 1 MB of booleans.  Its spectra, 8 MB as
    int64, are reduced a block at a time and never held: the peak stays under
    half of them."""
    tracemalloc.start()
    try:
        report = run_sweep(SweepPlan("parseval", 14, "random", samples=256, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 << 20, peak / (1 << 20)


def test_report_canonical_shape():
    rep = run_sweep(SweepPlan("duality", 2, "exhaustive", worker_count=2))
    doc = rep.canonical_dict()
    assert doc["checked"] == 16 and doc["passed"] is True
    assert "elapsed" not in rep.canonical_json()
    assert "worker" not in rep.canonical_json()
    assert rep.elapsed_ms >= 0


def test_rigid_class_sweeps_transform_once_per_chunk(monkeypatch):
    calls = []
    original = verify.fwht_rows

    def counting(tables):
        calls.append(len(tables))
        return original(tables)

    monkeypatch.setattr(verify, "fwht_rows", counting)
    # fkn-zero reads the first level off the frequencies
    report = run_sweep(SweepPlan("fkn-zero", 3, "exhaustive"))
    assert report.passed and report.summary["num_qualifying"] == 6  # the signed dictators
    assert calls == []
    assert run_sweep(SweepPlan("fkn-zero", 6, "random", samples=500, seed=2)).passed
    assert calls == []
    # ks-zero transforms the qualifying rows of each chunk, once per chunk
    report = run_sweep(SweepPlan("ks-zero", 3, "exhaustive"))
    assert report.passed and report.summary["num_qualifying"] == 6  # the signed degree-2 characters
    assert calls == [6]
    calls.clear()
    assert run_sweep(SweepPlan("ks-zero", 5, "random", samples=2100, seed=2)).passed
    assert calls == [0, 0]  # chunks of 2048 and 52 rows, none qualifying
    calls.clear()
    report = run_sweep(SweepPlan("ks-zero", 2, "random", samples=3000, seed=2))
    assert report.passed and len(calls) == 2 and sum(calls) == report.summary["num_qualifying"]


def test_theorem2_runs_one_cover_sweep(monkeypatch):
    # the domain (union-closed with the empty set) is read off the roots of
    # the complement, on the sweep that gives them
    calls = []
    for name in ("cover_table", "missing_lower_rows"):
        original = getattr(families, name)

        def counting(tables, n, name=name, original=original):
            calls.append((name, len(tables)))
            return original(tables, n)

        monkeypatch.setattr(families, name, counting)
    assert run_sweep(SweepPlan("theorem2", 4, "exhaustive")).passed
    assert [rows for name, rows in calls if name == "cover_table"] == [2048] * 32
    calls.clear()
    # the closure that draws the domain, then the evaluator
    assert run_sweep(SweepPlan("theorem2", 10, "random", samples=1000, seed=3)).passed
    assert [rows for name, rows in calls if name == "cover_table"] == [1000, 1000]
    calls.clear()
    assert theorem2_quantities(half_cube_missing(1, 6).family) == (32, 32)
    assert calls == [("cover_table", 64), ("missing_lower_rows", 64)]
    calls.clear()
    with pytest.raises(PreconditionError):  # refused before the deficiency
        theorem2_quantities(SetFamily.from_sets(2, [[1], [2]]))
    assert calls == [("cover_table", 4)]


def test_function_sweeps_build_no_second_table():
    """A random function sweep holds no spectra table: a chunk of 256 rows at
    n = 12, whose int64 spectra would take 8 MB, peaks under half of that."""
    n, samples = 12, 256
    for prop in ("parseval", "influence-identity", "corollary-lb", "ks-zero"):
        tracemalloc.start()
        try:
            report = run_sweep(SweepPlan(prop, n, "random", samples=samples, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4 << 20, (prop, peak / (1 << 20))
