"""Closure, enumeration, sweep harness, margins, and cube connectivity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucx.core import SetFamily
from ucx.families import (
    PreconditionError,
    component_directions,
    is_simply_rooted,
    is_union_closed,
)
from ucx.verify import (
    SweepPlan,
    conjecture2_margin,
    enumerate_families,
    kotlov_check,
    largest_threshold_k,
    random_union_closed,
    run_sweep,
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
    listed = {f.bits for f in enumerate_families(2, "simply_rooted")}
    expected = {f.bits for f in enumerate_families(2, "all") if is_simply_rooted(f)}
    assert listed == expected


def test_random_union_closed():
    fam = random_union_closed(3, 0, 1)
    assert fam == SetFamily.empty(3)
    for seed in (1, 2, 3):
        fam = random_union_closed(4, 5, seed)
        assert is_union_closed(fam)
        assert fam == random_union_closed(4, 5, seed)
    assert random_union_closed(4, 5, 1) != random_union_closed(4, 5, 2)


def test_largest_threshold_k():
    # n=3: |F| = 6 gives mean -1/2: k = 1; |F| = 7 gives -3/4: k = 2
    assert largest_threshold_k(3, 4) == 0
    assert largest_threshold_k(3, 6) == 1
    assert largest_threshold_k(3, 7) == 2
    assert largest_threshold_k(3, 3) is None


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


def test_report_canonical_shape():
    rep = run_sweep(SweepPlan("duality", 2, "exhaustive", worker_count=2))
    doc = rep.canonical_dict()
    assert doc["checked"] == 16 and doc["passed"] is True
    assert "elapsed" not in rep.canonical_json()
    assert "worker" not in rep.canonical_json()
    assert rep.elapsed_ms >= 0
