"""File format, analysis reports, and command-line contracts."""

import csv
import dataclasses
import hashlib
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    all_families,
    all_functions,
    every_table,
    nearest_dictator_by_definition,
    oracle_deficiency,
    oracle_family_text,
    oracle_frequencies,
    oracle_level_sums,
    oracle_pairs,
    oracle_roots,
    oracle_threshold_k,
    oracle_union_closed,
)

from ucx import cli, families, familyfile, spectral, verify
from ucx.core import SetFamily, family_to_function, frequency_rows
from ucx.extremal import nearest_dictator
from ucx.spectral import naive_transform
from ucx.verify import union_closure


F3_TEXT = "n=2\n1\n2\n1 2\n"


def test_parse_and_format_round_trip():
    fam = familyfile.parse_family(F3_TEXT)
    assert fam == SetFamily.from_sets(2, [[1], [2], [1, 2]])
    assert familyfile.format_family(fam) == F3_TEXT


def test_parse_ignores_comments_and_blanks():
    text = "# header comment\n\nn=3\n-\n1 3\n\n# done\n"
    fam = familyfile.parse_family(text)
    assert fam.members() == (0, 5)


def test_format_orders_by_cardinality_then_mask():
    fam = SetFamily.from_members(3, [0b111, 0b001, 0b110, 0])
    assert familyfile.format_family(fam) == "n=3\n-\n1\n2 3\n1 2 3\n"
    rng = np.random.default_rng(48)
    for n in range(1, 17):
        for table in (rng.random(1 << n) < 0.5, np.zeros(1 << n, bool), np.ones(1 << n, bool)):
            text = familyfile.format_family(SetFamily.from_bool(n, table))
            assert text == oracle_family_text(table, n), n


def test_parse_errors_carry_position():
    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("n=2\n3\n")
    assert err.value.line == 2

    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("n=2\n1 x\n")
    assert err.value.line == 2 and err.value.column == 3

    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("n=2\n2 1\n")
    assert err.value.column == 3  # not ascending

    with pytest.raises(familyfile.FamilyFileError):
        familyfile.parse_family("n=2\n1\n1\n")  # duplicate set

    with pytest.raises(familyfile.FamilyFileError):
        familyfile.parse_family("1 2\n")  # missing header

    with pytest.raises(familyfile.FamilyFileError):
        familyfile.parse_family("n=99\n")  # over the cap

    # past Python's 4,300-digit int() limit, still positioned at the header
    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("# big\nn=" + "9" * 5000 + "\n")
    assert err.value.line == 2 and err.value.column == 1

    # labels and the header take ASCII digits only
    for word in ("1_0", "+2", "\u0663"):
        with pytest.raises(familyfile.FamilyFileError) as err:
            familyfile.parse_family(f"n=12\n1 {word}\n")
        assert err.value.line == 2 and err.value.column == 3

    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("# dimension\nn=\u0663\n1\n")
    assert err.value.line == 2 and err.value.column == 1


def test_lines_end_only_at_line_breaks():
    # vertical tab, form feed, the separators \x1c-\x1e, NEL and U+2028/9
    # are whitespace inside a line, as open() reads it
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        assert familyfile.parse_family(f"n=2\n1{sep}2\n").members() == (3,)
    for end in ("\n", "\r\n", "\r"):
        assert familyfile.parse_family(end.join(["n=2", "-", "1 2", ""])).members() == (0, 3)
    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("n=2\n1\x85x\n")
    assert err.value.line == 2 and err.value.column == 3


def test_analysis_report_fields():
    report = cli.analysis_report(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert report["mean_coefficient"] == "-1/2"
    assert report["unique_root_count"] == 2
    assert report["conjecture2"] == {"k": 1, "bound": "1/1", "margin": "0/1"}
    assert report["is_union_closed"] is True
    assert report["upper_shadow_deficiency"] == 0
    assert report["nearest_dictator"] == {"i": 1, "sign": 1, "dist": "1/4"}
    assert report["level_weights"] == ["1/4", "1/2", "1/4"]
    assert report["influence"] == {
        "total": "1/1",
        "positive": "1/1",
        "negative": "0/1",
        "per_coordinate": ["1/2", "1/2"],
    }


def test_analysis_report_key_order():
    report = cli.analysis_report(SetFamily.from_sets(2, [[1], [2], [1, 2]]))
    assert list(report)[:4] == ["n", "size", "is_union_closed", "is_simply_rooted"]
    assert list(report)[-1] == "conjecture2"


def test_analysis_report_half_cube():
    fam = SetFamily.from_members(3, [m for m in range(8) if not m & 1])
    report = cli.analysis_report(fam)
    assert report["is_union_closed"] is True
    assert report["upper_shadow_deficiency"] == 4
    assert "conjecture2" not in report  # not simply-rooted (contains the empty set)


def test_analysis_report_matches_the_oracles():
    """Every field of the report on every family at n <= 3, read off the oracles."""
    def text(value: Fraction) -> str:
        return f"{value.numerator}/{value.denominator}"

    for n in (1, 2, 3):
        pairs = 1 << (n - 1)
        for table, f in zip(every_table(n), all_functions(n)):
            size, counts = int(np.count_nonzero(table)), oracle_frequencies(table, n).tolist()
            roots = oracle_roots(table, n)[table].tolist()
            spectrum = naive_transform(f).s
            enter, leave = (c.tolist() for c in oracle_pairs(table, n))
            nearest = nearest_dictator_by_definition(f)
            want = {
                "n": n, "size": size, "is_union_closed": oracle_union_closed(table, n),
                "is_simply_rooted": all(roots), "frequencies": counts,
                "abundant": [i + 1 for i, c in enumerate(counts) if 2 * c >= size],
                "rare": [i + 1 for i, c in enumerate(counts) if 2 * c <= size],
                "delta": text(Fraction(pairs - size, 1 << n)),
                "mean_coefficient": text(Fraction(int(spectrum[0]), 1 << n)),
                "level_weights": [text(Fraction(level, 1 << (2 * n)))
                                  for level in oracle_level_sums(spectrum, n)],
                "influence": {"total": text(Fraction(sum(enter) + sum(leave), pairs)),
                              "positive": text(Fraction(sum(enter), pairs)),
                              "negative": text(Fraction(sum(leave), pairs)),
                              "per_coordinate": [text(Fraction(a + b, pairs))
                                                 for a, b in zip(enter, leave)]},
                "unique_root_count": sum(r.bit_count() == 1 for r in roots),
                "nearest_dictator": {"i": nearest[0], "sign": nearest[1], "dist": text(nearest[2])},
            }
            if want["is_union_closed"]:
                want["upper_shadow_deficiency"] = oracle_deficiency(table, n)
            k = oracle_threshold_k(n, size)
            if all(roots) and size > 0 and k < 0:
                want["conjecture2"] = {"k": None, "bound": None, "margin": None}
            elif all(roots) and size > 0:
                cap = Fraction(k + 1, 1 << k)
                want["conjecture2"] = {"k": k, "bound": text(cap),
                                       "margin": text(cap - Fraction(sum(enter), pairs))}
            assert cli.analysis_report(SetFamily.from_bool(n, table)) == want, (n, table)


def _report_families():
    """Every family at n <= 3; per n = 5..9 two seeded random families (one
    uniform, one of a few generators with the empty set), their closures and
    the complements of the closures; and the empty and full families."""
    for n in (1, 2, 3):
        yield from all_families(n)
    rng = np.random.default_rng(2024)
    for n in range(5, 10):
        uniform = SetFamily(n, rng.integers(0, 2, size=1 << n).astype(bool))
        sparse = SetFamily.from_members(n, [0, *rng.integers(0, 1 << n, size=n).tolist()])
        for fam in (uniform, sparse):
            closed = union_closure(fam)
            yield from (fam, closed, closed.complement())
    yield from (SetFamily.empty(4), SetFamily.full(4))


# sha256 of the JSON reports of _report_families(), recorded from a known-good
# build; to print it for the current build, run ``python tests/test_cli.py``
ANALYSIS_DIGEST = "b4c25f90115928fc83ad6acc355faa625cfa52a52efc12b4393bcec02e5a98c3"


def _analysis_digest() -> str:
    digest = hashlib.sha256()
    for fam in _report_families():
        digest.update(json.dumps(cli.analysis_report(fam), indent=2).encode())
    return digest.hexdigest()


def test_analysis_report_golden_digest():
    assert _analysis_digest() == ANALYSIS_DIGEST


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_analysis_report_runs_each_pass_once(monkeypatch):
    # a nonempty simply-rooted family: the complement of a union-closed
    # family that holds the empty set
    fam = union_closure(SetFamily.from_members(6, [0, 3, 12, 48, 5])).complement()
    fwht = _counting(monkeypatch, spectral, "fwht_rows")
    cover = _counting(monkeypatch, families, "cover_table")
    report = cli.analysis_report(fam)
    assert report["is_simply_rooted"] and "conjecture2" in report
    assert len(fwht) == 1  # the spectrum
    assert len(cover) == 2  # union-closedness of the family, roots of its complement


def test_analysis_report_counts_frequencies_twice(monkeypatch):
    fam = union_closure(SetFamily.from_members(6, [0, 3, 12, 48, 5])).complement()
    assert nearest_dictator(family_to_function(fam)) == (1, -1, Fraction(13, 32))
    bindings = [module for name, module in sys.modules.items()
                if name.partition(".")[0] == "ucx"
                and getattr(module, "frequency_rows", None) is frequency_rows]
    assert len(bindings) >= 3  # core and the modules that import it
    counts = [_counting(monkeypatch, module, "frequency_rows") for module in bindings]
    report = cli.analysis_report(fam)
    assert report["nearest_dictator"] == {"i": 1, "sign": -1, "dist": "13/32"}
    assert sum(map(len, counts)) == 2  # stats and profile; the dictator reads the profile


def test_cmd_analyze(tmp_path, capsys):
    path = tmp_path / "f3.family"
    path.write_text(F3_TEXT)
    out_json = tmp_path / "report.json"
    assert cli.main(["analyze", str(path), "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text())
    assert report["mean_coefficient"] == "-1/2"
    assert "mean_coefficient: -1/2" in capsys.readouterr().out


def test_cmd_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.family"
    path.write_text("n=2\n3\n")
    assert cli.main(["analyze", str(path)]) == 2
    assert "outside" in capsys.readouterr().err


def test_cmd_verify_exit_codes(capsys):
    assert cli.main(["verify", "duality", "--n", "3", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "checked=256 violations=0" in out

    assert cli.main(["verify", "frankl", "--n", "5", "--exhaustive"]) == 2
    assert cli.main(["verify", "nonesuch", "--n", "3", "--exhaustive"]) == 2
    assert cli.main(["verify", "frankl", "--n", "3"]) == 2  # mode required


@pytest.mark.parametrize("argv, printed", [
    (["conjecture2", "--n", "3"], "min_margin=0/1 num_applicable=35"),
    (["theorem2", "--n", "3"], "max_deficiency=4"),
    (["ks-zero", "--n", "4"], "num_qualifying=36"),
    (["parseval", "--n", "3"], ""),
])
def test_cmd_verify_prints_the_summary(argv, printed, capsys):
    """The report's summary follows elapsed_ms as key=value in sorted key
    order, each value as in the canonical JSON (a Fraction as p/q)."""
    assert cli.main(["verify", *argv, "--exhaustive"]) == 0
    printed_fields = capsys.readouterr().out.split()
    summary = verify.run_sweep(verify.SweepPlan(argv[0], int(argv[2]), "exhaustive")).summary
    assert printed_fields[2].startswith("elapsed_ms=")
    assert printed_fields[3:] == printed.split() == [f"{k}={v}" for k, v in sorted(summary.items())]


def test_cmd_verify_writes_witnesses(tmp_path, monkeypatch, capsys):
    from ucx.verify import VerificationReport

    fake = VerificationReport(
        property="duality",
        n=2,
        mode="exhaustive",
        samples=None,
        seed=0,
        worker_count=1,
        enumerated=16,
        checked=16,
        violation_count=1,
        violations=(
            {
                "index": 3,
                "kind": "family",
                "n": 2,
                "family": "n=2\n1\n",
                "detail": {"reason": "synthetic"},
            },
        ),
        summary={},
        passed=False,
        elapsed_ms=0.0,
    )
    monkeypatch.setattr(cli, "run_sweep", lambda plan: fake)
    wdir = tmp_path / "witnesses"
    code = cli.main(
        ["verify", "duality", "--n", "2", "--exhaustive", "--witness-dir", str(wdir)]
    )
    assert code == 1
    assert (wdir / "witness_duality_3.family").read_text() == "n=2\n1\n"
    payload = json.loads((wdir / "witness_duality_3.json").read_text())
    assert payload["detail"]["reason"] == "synthetic"
    assert "violations=1" in capsys.readouterr().out


def test_cmd_gen_and_closure(tmp_path, capsys):
    out = tmp_path / "gen.family"
    assert cli.main(["gen", "--n", "3", "--generators", "0", "--seed", "5", "-o", str(out)]) == 0
    assert out.read_text() == "n=3\n"

    assert cli.main(["gen", "--n", "3", "--generators", "4", "--seed", "5", "-o", str(out)]) == 0
    first = out.read_text()
    assert cli.main(["gen", "--n", "3", "--generators", "4", "--seed", "5", "-o", str(out)]) == 0
    assert out.read_text() == first  # deterministic

    gens = tmp_path / "gens.family"
    gens.write_text("n=2\n1\n2\n")
    closed = tmp_path / "closed.family"
    assert cli.main(["closure", str(gens), "-o", str(closed)]) == 0
    assert closed.read_text() == F3_TEXT


def test_cmd_scan(tmp_path):
    out = tmp_path / "scan.csv"
    args = ["scan", "theorem2-deficiency", "--n", "3", "--samples", "50", "--seed", "7",
            "--csv", str(out)]
    assert cli.main(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "instance_index,size,mean_coefficient,quantity,bound,margin"
    assert len(lines) == 51
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[3]) <= 4  # deficiency never above 2^{n-1}
        assert int(fields[5]) >= 0

    first = out.read_text()
    assert cli.main(args) == 0
    assert out.read_text() == first  # deterministic in the seed

    out2 = tmp_path / "c2.csv"
    assert cli.main(["scan", "conjecture2", "--n", "4", "--samples", "100", "--seed", "7",
                     "--csv", str(out2)]) == 0
    rows = out2.read_text().strip().splitlines()[1:]
    assert len(rows) == 100
    for row in rows:
        margin = row.split(",")[5]
        if margin:
            p, q = margin.split("/")
            assert int(p) >= 0 and int(q) > 0


def test_file_errors_exit_2(tmp_path, capsys):
    family = tmp_path / "f3.family"
    family.write_text(F3_TEXT)
    unwritable = str(tmp_path / "missing-dir" / "out")
    for argv in (
        ["scan", "conjecture2", "--n", "3", "--samples", "5", "--csv", unwritable],
        ["gen", "--n", "3", "--generators", "2", "-o", unwritable],
        ["analyze", str(family), "--json", unwritable],
        ["closure", str(family), "-o", unwritable],
        ["closure", str(tmp_path / "missing.family")],
    ):
        assert cli.main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err, argv


@pytest.mark.parametrize("target, prop", [("theorem2-deficiency", "theorem2"),
                                          ("conjecture2", "conjecture2")])
def test_cmd_scan_reports_the_first_violation(target, prop, tmp_path, monkeypatch, capsys):
    original = verify._PROPERTIES[prop]

    def fail_every_row(rows, n):
        return dataclasses.replace(original.evaluate(rows, n), ok=np.zeros(len(rows), dtype=bool))

    monkeypatch.setitem(verify._PROPERTIES, prop,
                        dataclasses.replace(original, evaluate=fail_every_row))
    out = tmp_path / "scan.csv"
    # seed 26 draws an empty complement first, to which conjecture2 does not apply
    argv = ["scan", target, "--n", "3", "--samples", "12", "--seed", "26", "--csv", str(out)]
    assert cli.main(argv) == 1
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12  # written in full despite the violation
    first = next(row for row in rows if row["size"] != "0")
    assert first["instance_index"] == ("0" if prop == "theorem2" else "1")

    err = capsys.readouterr().err
    assert err.startswith("violation: ") and err.count("\n") == 1
    payload = json.loads(err.removeprefix("violation: "))
    assert {key: str(value) for key, value in payload["row"].items()} == \
        {key: value for key, value in first.items() if value}
    members = {index: row for index, row, _, _ in verify.scan(prop, 3, 12, 26)}
    expected = SetFamily.from_bool(3, members[int(first["instance_index"])])
    assert payload["family"] == familyfile.format_family(expected)


def test_bad_dimension_cap_is_not_blamed_on_the_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "f3.family"
    path.write_text(F3_TEXT)
    monkeypatch.setenv("UCX_MAX_N", "abc")
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: UCX_MAX_N must be an integer, got 'abc'\n"


def test_cmd_scan_rejects_zero_samples():
    assert cli.main(["scan", "conjecture2", "--n", "3", "--samples", "0", "--seed", "1"]) == 2


_BASE_ARGV = {
    "verify": ["verify", "duality", "--n", "3", "--random"],
    "gen": ["gen", "--n", "3", "--generators", "2"],
    "scan": ["scan", "conjecture2", "--n", "3", "--samples", "5"],
}


@pytest.mark.parametrize("command, flag, value, named", [
    ("verify", "--n", "0", "n=0"),
    ("verify", "--samples", "0", "samples"),
    ("verify", "--workers", "0", "worker_count"),
    ("verify", "--witness-cap", "-1", "witness_cap"),
    ("verify", "--seed", "-1", "seed"),
    ("gen", "--n", "0", "n=0"),
    ("gen", "--seed", "-1", "seed"),
    ("gen", "--generators", "-1", "generator_count"),
    ("scan", "--n", "0", "n=0"),
    ("scan", "--samples", "0", "samples"),
    ("scan", "--seed", "-1", "seed"),
])
def test_bad_values_exit_2_with_the_library_error(command, flag, value, named, capsys):
    """The library checks every value; its message is the one error line."""
    assert cli.main(_BASE_ARGV[command] + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert named in captured.err


def test_samples_are_ignored_with_exhaustive(capsys):
    assert cli.main(["verify", "duality", "--n", "2", "--exhaustive", "--samples", "0"]) == 0
    assert "checked=16 violations=0" in capsys.readouterr().out


if __name__ == "__main__":
    print(_analysis_digest())
