"""ucx benchmark: seeded workloads against the library and CLI, with golden checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a closed loop with one caller: it runs the workload's ops
(sweep plans and CLI calls, see workloads.py) one after another, in passes,
and starts another pass only while that pass is expected to end within
``--seconds``.  Every op output is checked against the sha256 recorded in
golden.json for the seed's slot; a mismatch, exception, nonzero exit or
``passed=False`` counts as a failed op.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a 1-versus-2-worker pool probe, then untraced and traced passes in
turn, and prints the per-layer metrics (see layertrace.py and NOTES.md).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give run
metadata, per-op times and the workload-specific metrics.  The
full result, with per-function trace aggregates in a traced run, is also
written to ``.perfbench-out/`` in the repository root.

The program is imported from ``src/`` of the checkout the script sits in;
without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB"}
EXTRA_LAYER_METRICS = {"verify.pool_speedup_2w": "ratio", "trace.overhead_s": "s"}
# Layer metrics printed before the result but left out of it: they move
# only on sweep-exhaustive-n4, which BENCHMARK.json does not list, and read 0
# on the workloads it does list.  verify.applicable_ratio is printed the same
# way, because each workload's plans fix it.
PRINTED_ONLY_LAYER_METRICS = (
    "families.duality_check_s",
    "families.shadow_lemma_check_s",
    "families.theorem2_quantities_s",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program():
    """Import ucx from this checkout's src/, or None when it is not there."""
    if not (SRC / "ucx" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ucx
    import ucx.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(ucx.__file__).resolve().parent != SRC / "ucx":
        return None
    return ucx


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[name] = size
    return sizes


def machine_meta(ops) -> dict:
    import numpy
    from ucx import verify

    chunk = getattr(verify, "_CHUNK", None)
    fwht = {}
    for op in ops:
        if op.kind == "sweep" and op.args[0] in workloads.FUNCTION_PROPS and chunk:
            _, n, _, samples, _ = op.args
            fwht[op.name] = min(chunk, samples) * (1 << n) * 8
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "commit": git_commit(),
        "fwht_chunk_bytes": fwht,
    }


def setup(workload, slot: int, work: Path, repeats: int) -> tuple[float, dict]:
    """Median over repeats of a fresh-interpreter ``import ucx`` plus input
    generation and writing of the workload's input files."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    described = {}
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ucx"], cwd=ROOT, env=env, check=True)
        described = workload.prepare(slot, work)
        times.append(time.perf_counter() - started)
    return statistics.median(times), described


def timed_passes(ops, work: Path, seconds: float, tracers=(None,)) -> list[list[list]]:
    """Rounds of passes over the ops, one pass per tracer in each round (None
    runs untraced), so all tracers see the same host conditions; another
    round starts only while it should end in time.  One list of passes per
    tracer."""
    rounds = [[] for _ in tracers]
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for passes, tracer in zip(rounds, tracers):
            passes.append(workloads.run_pass(ops, work, tracer))
        now = time.perf_counter()
        if now + (now - round_started) > started + seconds:
            return rounds


def op_medians(passes, ops) -> dict[str, float]:
    """Each op's median time over the passes."""
    return {op.name: statistics.median(p[i].seconds for p in passes) for i, op in enumerate(ops)}


def run(args) -> int:
    ucx = load_program()
    if ucx is None:
        print(f"error: no ucx package under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    slot = args.seed % golden["slots"]
    wl = workloads.build(args.workload, slot)
    golden_ops = golden["workloads"][args.workload][slot]
    ops = wl.ops
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    attempted = 0

    def judge(name, outcome, expected, reference=None):
        nonlocal attempted
        attempted += 1
        reason = workloads.check(outcome, expected)
        if reason is None and reference is not None and outcome.output != reference.output:
            reason = "output differs from the untraced 1-worker run"
        if reason is not None:
            failures.append(f"{name}: {reason}")

    try:
        setup_s, described = setup(wl, slot, work, 1 if args.trace else SETUP_REPEATS)
        meta = machine_meta(ops)
        meta.update(workload=args.workload, seed=args.seed, slot=slot, inputs=described)
        if not args.trace:
            (passes,) = timed_passes(ops, work, args.seconds)
            for outcomes in passes:
                for op, outcome in zip(ops, outcomes):
                    judge(op.name, outcome, golden_ops.get(op.name))
            medians = op_medians(passes, ops)
            counted = [op for op in ops if op.kind == "sweep"] or ops
            instances = sum(o.instances for o, op in zip(passes[0], ops) if op in counted)
            counted_s = sum(medians[op.name] for op in counted)
            metrics = {
                "setup_s": setup_s,
                "wall_s": sum(medians.values()),
                "instances_per_s": instances / counted_s if counted_s else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            extra = {}
            for i, op in enumerate(ops):
                if op.kind == "scan":
                    extra["scan_rows_per_s"] = (passes[0][i].instances / medians[op.name], "1/s")
            if args.workload == "analyze-n16":
                extra["analyze_uc_s"] = (medians["analyze-union-closed"], "s")
                extra["analyze_sr_s"] = (medians["analyze-simply-rooted"], "s")
                extra["closure_s"] = (medians["closure-n14"], "s")
            detail = {"passes": len(passes), "op_median_s": medians, "trace": None}
        else:
            probe = workloads.pool_probe(slot)
            workers = min(2, len(os.sched_getaffinity(0)))
            probe_golden = golden["workloads"]["sweep-family-random"][slot]
            probe_runs = {w: workloads.run_pass([probe], work, worker_count=w)[0] for w in (1, workers)}
            for w, outcome in probe_runs.items():
                judge(f"pool probe {probe.name} at {w} workers", outcome,
                      probe_golden.get(probe.name), probe_runs[1])
            parallel_s = probe_runs[workers].seconds
            speedup = probe_runs[1].seconds / parallel_s if parallel_s else 0.0

            tracer = Tracer()
            untraced, passes = timed_passes(ops, work, args.seconds, (None, tracer))
            reference = untraced[0]
            for outcomes in untraced + passes:
                for op, outcome, ref in zip(ops, outcomes, reference):
                    judge(op.name, outcome, golden_ops.get(op.name), ref)
            untraced_wall = sum(op_medians(untraced, ops).values())
            traced_wall = sum(op_medians(passes, ops).values())
            sweep_results = [o for o, op in zip(reference, ops) if op.kind == "sweep"]
            enumerated = sum(o.instances for o in sweep_results)
            metrics = tracer.layer_metrics(len(passes))
            metrics["verify.pool_speedup_2w"] = speedup
            metrics["trace.overhead_s"] = traced_wall - untraced_wall
            units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
            units.update(EXTRA_LAYER_METRICS)
            extra = {name: (metrics.pop(name), units[name]) for name in PRINTED_ONLY_LAYER_METRICS}
            extra["verify.applicable_ratio"] = (
                sum(o.checked for o in sweep_results) / enumerated if enumerated else 0.0, "ratio"
            )
            extra["untraced_wall_s"] = (untraced_wall, "s")
            extra["traced_wall_s"] = (traced_wall, "s")
            detail = {
                "passes": len(passes),
                "pool_probe": {"plan": probe.name, "workers": workers,
                               "seconds": {str(w): o.seconds for w, o in probe_runs.items()}},
                "trace": tracer.table(),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra["ops_failed"] = (len(failures), "count")
    extra["ops_total"] = (attempted, "count")
    lines = []
    lines.append(f"# ucx benchmark workload={args.workload} seed={args.seed} slot={slot} "
                 f"trace={args.trace} passes={len(passes)}")
    lines.append("meta " + json.dumps(meta, sort_keys=True))
    for name, value in detail.get("op_median_s", {}).items():
        lines.append(f"op {name} median {value:.6f} s")
    for row in (detail["trace"] or [])[:15]:
        lines.append(f"span {row['function']} calls={row['calls']} total={row['total_s']:.6f} s "
                     f"self={row['self_s']:.6f} s (all passes)")
    for failure in failures:
        lines.append(f"FAILED {failure}")
    for name, value in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, meta=meta, detail=detail, failures=failures,
                  extra={k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
