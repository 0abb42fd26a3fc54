"""File format, analysis reports, and command-line contracts."""

import json

import pytest

from ucx import cli, familyfile
from ucx.core import SetFamily


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

    # labels and the header take ASCII digits only
    for word in ("1_0", "+2", "\u0663"):
        with pytest.raises(familyfile.FamilyFileError) as err:
            familyfile.parse_family(f"n=12\n1 {word}\n")
        assert err.value.line == 2 and err.value.column == 3

    with pytest.raises(familyfile.FamilyFileError) as err:
        familyfile.parse_family("# dimension\nn=\u0663\n1\n")
    assert err.value.line == 2 and err.value.column == 1


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


def test_cmd_scan_rejects_zero_samples():
    assert cli.main(["scan", "conjecture2", "--n", "3", "--samples", "0", "--seed", "1"]) == 2
