"""Command-line front end.

Subcommands: ``analyze`` (full report for a family file), ``verify``
(property sweeps with exit code 0 = pass, 1 = violation, 2 = usage error),
``gen`` and ``closure`` (family generation), and ``scan`` (CSV margin /
deficiency scans over random instances).  Every subcommand exits 2 on a
usage error, an unreadable input or an unwritable output; the parser reads
integers, and the library checks their values.  All rationals in
machine-readable output are reduced ``p/q`` strings; no floating point
appears anywhere.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import familyfile
from .core import SetFamily, family_to_function
from .extremal import dictator_from_first_level, or_family_stats
from .families import (
    is_union_closed,
    rooted_rows,
    stats,
    unique_root_counts,
    upper_shadow_deficiency,
)
from .influence import profile
from .spectral import level_weights, transform
from .verify import (
    PROPERTY_NAMES,
    SweepPlan,
    conjecture2_margin_rows,
    jsonable,
    random_union_closed,
    run_sweep,
    scan,
    union_closure,
)

USAGE_ERROR = 2


def _cap_fields(n: int, k: int, margin_scaled: int) -> dict:
    """The cap (k+1) 2^{-k}, the (k+1)-disjunct OR-family's influence, and its margin."""
    return {"bound": or_family_stats(k + 1, n)[2], "margin": Fraction(margin_scaled, 1 << (n - 1))}


def analysis_report(family: SetFamily) -> dict:
    """The full exact report for one family, with a fixed key order and every
    rational as a ``p/q`` string.  Each pass runs once; the root masks give
    simple-rootedness and the unique-root count."""
    n = family.n
    table = family.to_bool()
    func = family_to_function(family)
    spec = transform(func)
    prof = profile(func)
    st = stats(family)
    union_closed = is_union_closed(family)
    found, simply_rooted = rooted_rows(table, n)
    first_level = [2 * (a - b) for a, b in zip(prof.enter, prof.exit)]  # s({i}), no transform
    dict_i, dict_sign, dict_dist = dictator_from_first_level(first_level)

    report = {
        "n": n,
        "size": st.size,
        "is_union_closed": union_closed,
        "is_simply_rooted": bool(simply_rooted),
        "frequencies": st.frequencies,
        "abundant": st.abundant,
        "rare": st.rare,
        "delta": st.delta,
        "mean_coefficient": spec.coefficient(0),
        "level_weights": level_weights(spec),
        "influence": {
            "total": prof.influence(),
            "positive": prof.positive_influence(),
            "negative": prof.negative_influence(),
            "per_coordinate": [prof.influence(i) for i in range(1, n + 1)],
        },
        "unique_root_count": unique_root_counts(found),
    }
    if union_closed:
        report["upper_shadow_deficiency"] = upper_shadow_deficiency(table, n)
    report["nearest_dictator"] = {"i": dict_i, "sign": dict_sign, "dist": dict_dist}
    if simply_rooted and st.size > 0:
        k, margin = (int(v) for v in conjecture2_margin_rows(st.size, sum(prof.enter), n))
        report["conjecture2"] = ({"k": k, **_cap_fields(n, k, margin)} if k >= 0
                                 else {"k": None, "bound": None, "margin": None})
    return jsonable(report)


def _print_report(report: dict) -> None:
    def emit(key, value, indent=0):
        pad = " " * indent
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 2)
        elif isinstance(value, list):
            print(f"{pad}{key}: {' '.join(str(v) for v in value)}")
        else:
            print(f"{pad}{key}: {value}")

    for key, value in report.items():
        emit(key, value)


def cmd_analyze(args) -> int:
    report = analysis_report(familyfile.load(args.path))
    _print_report(report)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_verify(args) -> int:
    plan = SweepPlan(
        property=args.property,
        n=args.n,
        mode="exhaustive" if args.exhaustive else "random",
        samples=args.samples,  # validate stores None in exhaustive mode
        seed=args.seed,
        worker_count=args.workers,
        witness_cap=args.witness_cap,
    )
    report = run_sweep(plan)
    summary = "".join(f" {key}={value}" for key, value in sorted(report.summary.items()))
    print(
        f"checked={report.checked} violations={report.violation_count} "
        f"elapsed_ms={report.elapsed_ms:.0f}{summary}"
    )
    if report.violations and args.witness_dir:
        directory = Path(args.witness_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for witness in report.violations:
            stem = f"witness_{report.property}_{witness['index']}"
            (directory / f"{stem}.json").write_text(
                json.dumps(witness, sort_keys=True, indent=2) + "\n", encoding="utf-8"
            )
            if witness.get("kind") == "family":
                (directory / f"{stem}.family").write_text(witness["family"], encoding="utf-8")
    return 0 if report.passed else 1


def _write_family(family: SetFamily, output) -> int:
    if output:
        familyfile.save(family, output)
    else:
        sys.stdout.write(familyfile.format_family(family))
    return 0


def cmd_gen(args) -> int:
    return _write_family(random_union_closed(args.n, args.generators, args.seed), args.output)


def cmd_closure(args) -> int:
    return _write_family(union_closure(familyfile.load(args.path)), args.output)


_SCAN_PROPERTY = {"conjecture2": "conjecture2", "theorem2-deficiency": "theorem2"}


def _scan_csv_row(target: str, n: int, index: int, q: dict) -> dict:
    """One CSV row of ``ucx scan`` from an instance's quantities."""
    size_cube = 1 << n
    half = size_cube >> 1
    row = {
        "instance_index": index,
        "size": q["size"],
        "mean_coefficient": Fraction(size_cube - 2 * q["size"], size_cube),
    }  # DictWriter writes the missing columns empty
    if target == "theorem2-deficiency":
        row.update(quantity=q["deficiency"], bound=half, margin=half - q["deficiency"])
    elif q["size"] > 0:
        row["quantity"] = Fraction(q["enter_pairs"], half)
        if q["k"] >= 0:
            row.update(_cap_fields(n, q["k"], q["margin_scaled"]))
    return jsonable(row)


def cmd_scan(args) -> int:
    instances = scan(_SCAN_PROPERTY[args.target], args.n, args.samples, args.seed)
    out = open(args.csv, "w", newline="", encoding="utf-8") if args.csv else sys.stdout
    writer = csv.DictWriter(
        out,
        fieldnames=["instance_index", "size", "mean_coefficient", "quantity", "bound", "margin"],
    )
    writer.writeheader()
    failed = None
    try:
        for index, members, quantities, violation in instances:
            row = _scan_csv_row(args.target, args.n, index, quantities)
            writer.writerow(row)
            if violation and failed is None:
                failed = (row, members)
    finally:
        if args.csv:
            out.close()
    if failed:
        row, members = failed
        payload = {"row": row, "family": familyfile.format_family(SetFamily._of(args.n, members))}
        print(f"violation: {json.dumps(payload, sort_keys=True)}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucx",
        description="Exact toolkit for union-closed families and Boolean-cube analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full exact report for a family file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--json", metavar="OUT", help="also write the report as JSON")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a property sweep")
    p_verify.add_argument("property", choices=PROPERTY_NAMES)
    p_verify.add_argument("--n", type=int, required=True)
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--witness-dir", metavar="D")
    p_verify.add_argument("--witness-cap", type=int, default=10)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random union-closed family")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--generators", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", metavar="PATH")
    p_gen.set_defaults(func=cmd_gen)

    p_closure = sub.add_parser("closure", help="union closure of a family file")
    p_closure.add_argument("path")
    p_closure.add_argument("-o", "--output", metavar="PATH")
    p_closure.set_defaults(func=cmd_closure)

    p_scan = sub.add_parser("scan", help="CSV scan over random instances")
    p_scan.add_argument("target", choices=["conjecture2", "theorem2-deficiency"])
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--samples", type=int, required=True)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--csv", metavar="OUT")
    p_scan.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; normalize to our contract
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DimensionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
