"""Acceptance suite: every criterion at its stated size and tolerance.

Each test prints one PASS line once its assertions (all exact, zero
tolerance) have held.  Run with ``pytest -v tests/test_acceptance.py`` or
``pytest -s`` to see the lines.
"""

import time

import numpy as np

from ucx.core import CharacterSpec
from ucx.extremal import half_cube_missing, ks_enumerate, or_family
from ucx.families import theorem2_quantities
from ucx.spectral import fwht_rows
from ucx.verify import SweepPlan, conjecture2_margin, run_sweep


def _sweep(prop, n, mode="exhaustive", samples=None, seed=0, workers=1):
    return run_sweep(
        SweepPlan(prop, n, mode, samples=samples, seed=seed, worker_count=workers)
    )


def test_criterion_01_parseval():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4):
        rep = _sweep("parseval", n)
        assert rep.passed and rep.checked == 1 << (1 << n)
        checked += rep.checked
    rep = _sweep("parseval", 12, "random", samples=10_000, seed=101)
    assert rep.passed and rep.checked == 10_000
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"\n[criterion 1] PASS exact Parseval on {checked} exhaustive + 10^4 random "
          f"n=12 functions, zero violations, {elapsed:.1f}s")


def test_criterion_02_influence_identity():
    checked = 0
    for n in (1, 2, 3, 4):
        rep = _sweep("influence-identity", n)
        assert rep.passed and rep.checked == 1 << (1 << n)
        checked += rep.checked
    rep = _sweep("influence-identity", 12, "random", samples=10_000, seed=102)
    assert rep.passed
    print(f"\n[criterion 2] PASS influence identity I = sum k W^k on {checked} exhaustive "
          f"+ 10^4 random n=12 functions, exact")


def test_criterion_03_corollary_bound():
    for n in (1, 2, 3, 4):
        rep = _sweep("corollary-lb", n)
        assert rep.passed and rep.checked == 1 << (1 << n)
    print("\n[criterion 3] PASS influence lower bound holds for every f and every "
          "k in [1, n], exhaustive n <= 4")


def test_criterion_04_duality_and_shadow():
    started = time.monotonic()
    for n in (1, 2, 3, 4):
        rep = _sweep("duality", n)
        assert rep.passed and rep.checked == 1 << (1 << n)
        rep = _sweep("shadow-lemma", n)
        assert rep.passed
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"\n[criterion 4] PASS duality + shadow dichotomy exhaustive n <= 4 "
          f"(65536 families at n=4), zero violations, {elapsed:.1f}s")


def test_criterion_05_upper_shadow_theorem():
    for n in (1, 2, 3, 4):
        rep = _sweep("theorem2", n)
        assert rep.passed
    rep4 = _sweep("theorem2", 4)
    assert rep4.summary["max_deficiency"] == 8  # equality with 2^{n-1} attained
    rep = _sweep("theorem2", 10, "random", samples=10_000, seed=105)
    assert rep.passed and rep.checked == 10_000

    for n in (3, 4):
        half = 1 << (n - 1)
        assert theorem2_quantities(half_cube_missing(1, n).family) == (half, half)
    print("\n[criterion 5] PASS upper-shadow deficiency = complement unique-root count "
          "<= 2^{n-1}, exhaustive n <= 4 + 10^4 random closures n=10; half-cube tight")


def test_criterion_06_positive_influence_cap():
    for n in (1, 2, 3, 4):
        rep = _sweep("positive-cap", n)
        assert rep.passed
    print("\n[criterion 6] PASS I+ = unique-root-count / 2^{n-1} <= min(1, |F|/2^{n-1}) "
          "for every simply-rooted family, exhaustive n <= 4")


def test_criterion_07_abundant_element():
    for n in (1, 2, 3, 4):
        rep = _sweep("frankl", n)
        assert rep.passed
        assert rep.summary["min_abundance_excess"] >= 0
    print("\n[criterion 7] PASS every union-closed family (other than the empty family "
          "and {emptyset}) has an abundant element, exhaustive n <= 4")


def test_criterion_08_positive_influence_conjecture_scan():
    for n in (1, 2, 3, 4):
        rep = _sweep("conjecture2", n)
        assert rep.passed
        if "min_margin" in rep.summary:
            num, den = rep.summary["min_margin"].split("/")
            assert int(num) >= 0
    total = 0
    for n in range(5, 13):
        rep = _sweep("conjecture2", n, "random", samples=12_500, seed=108)
        assert rep.passed
        total += rep.checked
    assert total >= 99_000  # a few instances collapse to the empty family
    for k in (0, 1, 2):
        got_k, margin = conjecture2_margin(or_family(k + 1, 4).family)
        assert got_k == k and margin == 0
    print(f"\n[criterion 8] PASS cap margin >= 0 exhaustively (n <= 4) and on {total} "
          f"random simply-rooted instances (5 <= n <= 12); margin 0 at k = 0, 1, 2")


def test_criterion_09_partial_claim():
    for n in (1, 2, 3, 4):
        rep = _sweep("partial-claim", n)
        assert rep.passed
    print("\n[criterion 9] PASS simply-rooted with mean coefficient < -1/2 forces "
          "I+ < 1, exhaustive n <= 4")


def test_criterion_10_edge_iso_and_connectivity():
    started = time.monotonic()
    for n in (1, 2, 3, 4):
        rep = _sweep("edge-iso", n)
        assert rep.passed and rep.checked == 1 << (1 << n)
        rep = _sweep("kotlov", n)
        assert rep.passed
    rep4 = _sweep("kotlov", 4)
    assert rep4.checked == 26333  # number of vertex subsets with |V| > 8 at n=4
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"\n[criterion 10] PASS edge-isoperimetric bound + all-directions component, "
          f"exhaustive n <= 4, {elapsed:.1f}s")


def test_criterion_11_zero_delta_rigidity():
    n = 4
    size = 1 << n
    four_n = 1 << (2 * n)
    idx = np.arange(1 << size, dtype=np.uint64)
    cols = np.arange(size, dtype=np.uint32)
    pc = np.bitwise_count(np.arange(size))
    level1_cols = np.nonzero(pc == 1)[0]
    level2_cols = np.nonzero(pc == 2)[0]

    full_level1 = set()
    full_level2 = set()
    for start in range(0, 1 << size, 4096):
        chunk = idx[start : start + 4096]
        bits = ((chunk[:, None] >> cols[None, :]) & 1).astype(np.int8)
        mat = (1 - 2 * bits).astype(np.int8)
        spec = fwht_rows(bits.astype(bool))
        squares = spec * spec
        for r in np.nonzero(squares[:, level1_cols].sum(axis=1) == four_n)[0]:
            full_level1.add(mat[int(r)].tobytes())
        for r in np.nonzero(squares[:, level2_cols].sum(axis=1) == four_n)[0]:
            full_level2.add(mat[int(r)].tobytes())

    dictators = set()
    for i in range(1, n + 1):
        vals = CharacterSpec(1 << (i - 1)).values(n)
        dictators.add(vals.tobytes())
        dictators.add((-vals).astype(np.int8).tobytes())
    assert full_level1 == dictators and len(dictators) == 8

    realized = {member.values(n).tobytes() for member in ks_enumerate(n)}
    assert full_level2 <= realized
    assert realized <= full_level2  # every class member has full level-2 weight
    print(f"\n[criterion 11] PASS at n=4: full level-1 weight == the 8 signed dictators; "
          f"the {len(full_level2)} full level-2 weight functions are exactly the rigid class")


def test_criterion_12_determinism_across_workers():
    cases = [
        ("conjecture2", 9, 2000),
        ("theorem2", 8, 1000),
        ("parseval", 10, 1000),
    ]
    for prop, n, samples in cases:
        blobs = {
            run_sweep(
                SweepPlan(prop, n, "random", samples=samples, seed=1212, worker_count=w)
            ).canonical_json()
            for w in (1, 4)
        }
        assert len(blobs) == 1, prop
    print("\n[criterion 12] PASS reports are byte-identical for workers in {1, 4} "
          "at fixed seed")
