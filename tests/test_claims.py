"""Every claim can fail: one planted violation per sweep property.

Each row of ``PLANTED`` names the kernels that ``ucx.verify`` imported, a
perturbation of each one's output and the detail keys of the witness it
must produce.  With the names patched where ``verify`` reads them, the
evaluator sees the perturbed quantities, and three things must say
"violated": an exhaustive sweep (n = 3; n = 4 for ``ks-zero``, where the
quadratic class also has four-index members), the single-family check where
one exists, on the first flagged row, and ``ucx verify``.  Sums over
coordinates are moved on coordinate 0, so the total moves by the stated
amount.  A claim made of an identity and a bound has a case that breaks
only the identity and one that breaks only the bound.  With the slack
clipped at 0, each planted check must fail: the check tests the verdict,
not only the kernels.

``EDGES`` holds the package's tight constructions: each reads slack exactly
0 at n = 4..6, and the same row with its kernels moved one unit past the
bound reads slack -1 and is reported.  ``partial-claim`` has no tight
construction in the package, so it has no edge.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from ucx import cli, verify
from ucx.core import SetFamily
from ucx.extremal import dictator, half_cube_missing, ks_enumerate, or_family
from ucx.verify import (
    PROPERTY_NAMES,
    SweepPlan,
    conjecture2_margin,
    duality_check,
    kotlov_check,
    positive_influence_cap_check,
    run_sweep,
    shadow_lemma_check,
)


def _moved(values, amount):
    """A copy of per-coordinate values with coordinate 0 moved by ``amount``."""
    values = values.copy()
    values[..., 0] += amount
    return values


class Planted(NamedTuple):
    moves: dict  # kernel, as ``verify`` imported it -> (its output, n) -> perturbed output
    detail: frozenset
    flagged: int  # rows the perturbed exhaustive sweep reports

    @property
    def name(self) -> str:
        return "+".join(self.moves)


def _planted(*keys, flagged, **moves):
    return Planted(moves, frozenset(keys), flagged)


def _enter_up(pc, n):
    return _moved(pc[0], 1), pc[1]


def _to_half_cube_and_one(values, n):
    return np.full_like(values, (1 << (n - 1)) + 1)


def _one_more(values, n):
    return values + 1


PLANTED = {
    "partial-claim": (_planted("enter_pairs", flagged=1, pair_count_rows=lambda pc, n: (
        _moved(pc[0], 1 << (n - 1)), pc[1])),),
    "conjecture2": (_planted("k", "margin", flagged=22, pair_count_rows=_enter_up),),
    "positive-cap": (
        _planted("enter_pairs", "unique_root_count", flagged=61, pair_count_rows=_enter_up),
        # the identity holds, and only the cap min(2^{n-1}, |F|) breaks
        _planted("enter_pairs", "unique_root_count", flagged=44,
                 pair_count_rows=_enter_up, unique_root_counts=_one_more),
    ),
    "edge-iso": (_planted("k", "pivotal_pairs", "mean_scaled", flagged=26,
                          flip_count_rows=lambda flips, n: _moved(flips, -1)),),
    "fkn-zero": (_planted("reason", flagged=6,
                          nearest_signed_rows=lambda best, n: (*best[:2], best[2] - 1)),),
    "ks-zero": (_planted("reason", flagged=36,
                         nearest_signed_rows=lambda best, n: (*best[:2], best[2] - 1)),),
    "kotlov": (_planted("reason", flagged=93,
                        component_directions=lambda labels, n: labels & ~np.uint32(1)),),
    "thin-boundary": (_planted("reason", flagged=61, thin_boundary_rows=lambda thin, n: ~thin),),
    "shadow-lemma": (_planted("reason", flagged=60,
                              missing_lower_rows=lambda missing, n: missing ^ np.uint32(1)),),
    "frankl": (_planted("frequencies", flagged=53, frequency_rows=lambda freqs, n: freqs - 1),),
    "theorem2": (
        _planted("deficiency", "unique_root_count", flagged=61,
                 upper_shadow_deficiency=_to_half_cube_and_one),
        # the bound holds, and only the identity breaks
        _planted("deficiency", "unique_root_count", flagged=61,
                 unique_root_counts=lambda unique, n: unique - 1),
        # the identity holds, and only the bound 2^{n-1} breaks
        _planted("deficiency", "unique_root_count", flagged=61,
                 upper_shadow_deficiency=_to_half_cube_and_one,
                 unique_root_counts=_to_half_cube_and_one),
    ),
    "duality": (_planted("reason", flagged=256, rooted_rows=lambda found, n: (found[0], ~found[1])),),
    "parseval": (_planted("coefficient_square_sum", "expected", flagged=256,
                          function_level_rows=lambda levels, n: _moved(levels, 1)),),
    "influence-identity": (_planted("pivotal_pairs", "weighted_square_sum", flagged=256,
                                    flip_count_rows=lambda flips, n: _moved(flips, 1)),),
    "corollary-lb": (_planted("k", "influence_scaled", "bound_scaled", flagged=256,
                              corollary_bound_rows=lambda bounds, n: bounds + (1 << (2 * n))),),
}
CASES = [pytest.param(prop, case, id=f"{prop}-{case.name}")
         for prop, cases in PLANTED.items() for case in cases]

# the single-family checks: each holds exactly where its evaluator passes the row
CHECKS = {
    "duality": duality_check,
    "shadow-lemma": shadow_lemma_check,
    "positive-cap": positive_influence_cap_check,
    "kotlov": kotlov_check,
    "conjecture2": lambda family: conjecture2_margin(family)[1] >= 0,
}


def _plant(monkeypatch, case: Planted, n: int) -> None:
    for name, perturb in case.moves.items():
        kernel = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, kernel=kernel, perturb=perturb: perturb(kernel(*args), n))


def _assert_planted_fails(monkeypatch, prop: str, case: Planted) -> None:
    n = 4 if prop == "ks-zero" else 3
    _plant(monkeypatch, case, n)
    report = run_sweep(SweepPlan(prop, n, "exhaustive", witness_cap=1))
    assert report.violation_count == case.flagged and not report.passed, prop
    witness = report.violations[0]
    assert set(witness["detail"]) == case.detail, prop
    if prop in CHECKS:
        assert CHECKS[prop](SetFamily.from_bits(n, witness["index"])) is False, prop
    assert cli.main(["verify", prop, "--n", str(n), "--exhaustive"]) == 1, prop


def test_every_property_has_a_planted_violation():
    assert set(PLANTED) == set(PROPERTY_NAMES)


@pytest.mark.parametrize("prop, case", CASES)
def test_planted_violation_is_reported(prop, case, monkeypatch):
    _assert_planted_fails(monkeypatch, prop, case)


@pytest.mark.parametrize("prop", PROPERTY_NAMES)
def test_planted_case_fails_when_the_verdict_is_forced(prop, monkeypatch):
    entry = verify._PROPERTIES[prop]

    def clipped(rows, n):
        found = entry.evaluate(rows, n)
        return dataclasses.replace(found, slack=np.maximum(found.slack, 0))

    monkeypatch.setitem(verify._PROPERTIES, prop, dataclasses.replace(entry, evaluate=clipped))
    for case in PLANTED[prop]:
        with monkeypatch.context() as patched, pytest.raises(AssertionError):
            _assert_planted_fails(patched, prop, case)


def _half_cube(n):
    return [half_cube_missing(1, n).family.to_bool()]


def _half_cube_and_a_point(n):
    row = half_cube_missing(1, n).family.to_bool().copy()
    row[1] = True  # {1} joins the empty set across direction 1
    return [row]


def _or_families(n):
    return [or_family(m, n).family.to_bool() for m in (1, 2, 3)]


def _or_families_at_the_cap(n):
    """The OR-families with I^+ = 1, m = 1, 2: at m = 3, I^+ = 3/4."""
    return _or_families(n)[:2]


def _dictators(n):
    row = dictator(1, n).family.to_bool()
    return [row, ~row]


def _ks_ends(n):
    members = list(ks_enumerate(n))
    return [member.function(n).to_bool() for member in (members[0], members[-1])]


def _full_set_flipped(missing, n):
    """Bit 0 of the full set's missing lower covers flipped: one member breaks."""
    return missing ^ (np.arange(1 << n) == (1 << n) - 1).astype(np.uint32)


def _move(**moves):
    """A one-unit move of kernels, planted like a row of ``PLANTED``."""
    return Planted(moves, frozenset(), 0)


# (property, tight rows at n, the kernels moved one unit past the bound, slack after the move)
EDGES = [
    ("theorem2", _half_cube, _move(upper_shadow_deficiency=_one_more), -1),
    ("theorem2", _half_cube, PLANTED["theorem2"][1], -1),  # the identity alone
    ("theorem2", _half_cube,  # the bound alone
     _move(upper_shadow_deficiency=_one_more, unique_root_counts=_one_more), -1),
    # one unit of a frequency is two units of the excess 2|F_i| - |F|
    ("frankl", _half_cube, PLANTED["frankl"][0], -2),
    ("positive-cap", _or_families, _move(pair_count_rows=_enter_up), -1),
    ("positive-cap", _or_families_at_the_cap, PLANTED["positive-cap"][1], -1),  # the bound alone
    ("conjecture2", _or_families, PLANTED["conjecture2"][0], -1),
    ("edge-iso", _or_families, PLANTED["edge-iso"][0], -1),
    ("corollary-lb", _or_families, _move(corollary_bound_rows=_one_more), -1),
    ("shadow-lemma", _or_families, _move(missing_lower_rows=_full_set_flipped), -1),
    ("thin-boundary", _or_families, PLANTED["thin-boundary"][0], -1),
    ("fkn-zero", _dictators, PLANTED["fkn-zero"][0], -1),
    ("ks-zero", _ks_ends, PLANTED["ks-zero"][0], -1),
    ("kotlov", _half_cube_and_a_point, PLANTED["kotlov"][0], -1),
    # the identities are tight on every row
    ("duality", _half_cube, PLANTED["duality"][0], -1),
    ("parseval", _dictators, PLANTED["parseval"][0], -1),
    ("influence-identity", _dictators,  # level 1 up by one moves the weighted sum by one
     _move(function_level_rows=lambda levels, n: levels + (np.arange(n + 1) == 1)), -1),
]


@pytest.mark.parametrize("n", (4, 5, 6))
@pytest.mark.parametrize("prop, tight, move, moved", EDGES,
                         ids=[f"{prop}-{move.name}" for prop, _, move, _ in EDGES])
def test_tight_rows_read_slack_zero_and_fail_one_unit_past(prop, tight, move, moved, n, monkeypatch):
    rows = np.stack(tight(n))
    evaluate = verify._PROPERTIES[prop].evaluate
    found = evaluate(rows, n)
    assert found.applicable.all() and found.slack.tolist() == [0] * len(rows)
    assert not found.failed.any()
    _plant(monkeypatch, move, n)
    found = evaluate(rows, n)
    assert found.slack.tolist() == [moved] * len(rows) and found.failed.all()
