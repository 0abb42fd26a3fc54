"""The four benchmark workloads: fixed lists of sweep plans and CLI calls.

An op is one ``run_sweep`` plan or one ``ucx`` CLI call.  Each workload is
a fixed list of ops whose plan seeds and input files derive from the golden
slot of the benchmark seed, so the same seed always gives the same inputs
and the outputs can be checked against digests recorded from a known-good
commit.  Program entry points are looked up on their modules at call time,
so wrappers installed by the layer tracer are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

FUNCTION_PROPS = ("parseval", "influence-identity", "corollary-lb", "edge-iso")
EXHAUSTIVE_PROPS = ("duality", "shadow-lemma", "theorem2", "frankl", "conjecture2", "kotlov")
FN_SAMPLES_N12 = 2048  # one full 2048-row FWHT chunk per plan
FN_SAMPLES_N14 = 1024  # a 128 MB int64 chunk, larger than a 105 MB L3
FAMILY_SAMPLES = 1000
SCAN_SAMPLES = 500

WORKLOAD_NAMES = ("sweep-fn-n12", "sweep-family-random", "sweep-exhaustive-n4", "analyze-n16")


@dataclass(frozen=True)
class Op:
    """One plan (``kind == "sweep"``) or CLI call; ``args`` are SweepPlan
    fields or argv with ``{work}`` standing for the work directory."""

    name: str
    kind: str
    args: tuple
    output: str | None = None


@dataclass
class Outcome:
    seconds: float
    output: bytes
    instances: int
    checked: int | None
    ok: bool
    error: str | None = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output).hexdigest()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    files: dict[str, str] = field(default_factory=dict)  # file name -> input key

    def prepare(self, slot: int, work: Path) -> dict:
        """Write this workload's input files; returns their descriptions."""
        if not self.files:
            return {}
        made = inputs.make_inputs(slot)
        described = {}
        for file_name, key in self.files.items():
            n, table = made[key]
            (work / file_name).write_text(inputs.format_table(n, table), encoding="utf-8")
            described[key] = inputs.describe(n, table)
        return described


def _sweep(prop: str, n: int, seed: int, samples: int | None = None) -> Op:
    mode = "exhaustive" if samples is None else "random"
    return Op(f"{prop}-n{n}", "sweep", (prop, n, mode, samples, seed))


def build(name: str, slot: int) -> Workload:
    """The workload's ops for one golden slot."""
    seed = 1000 + slot
    if name == "sweep-fn-n12":
        ops = [_sweep(p, 12, seed, FN_SAMPLES_N12) for p in FUNCTION_PROPS]
        ops.append(_sweep("parseval", 14, seed, FN_SAMPLES_N14))
        return Workload(name, ops)
    if name == "sweep-family-random":
        ops = [_sweep("conjecture2", n, seed, FAMILY_SAMPLES) for n in range(5, 13)]
        ops += [
            _sweep("theorem2", 10, seed, FAMILY_SAMPLES),
            _sweep("shadow-lemma", 12, seed, FAMILY_SAMPLES // 2),
            _sweep("frankl", 12, seed, FAMILY_SAMPLES),
            Op(
                "scan-conjecture2-n12",
                "scan",
                ("scan", "conjecture2", "--n", "12", "--samples", str(SCAN_SAMPLES),
                 "--seed", str(seed), "--csv", "{work}/scan.csv"),
                "scan.csv",
            ),
        ]
        return Workload(name, ops)
    if name == "sweep-exhaustive-n4":
        return Workload(name, [_sweep(p, 4, seed) for p in EXHAUSTIVE_PROPS])
    if name == "analyze-n16":
        ops = [
            Op("analyze-union-closed", "analyze",
               ("analyze", "{work}/g.family", "--json", "{work}/g.json"), "g.json"),
            Op("analyze-simply-rooted", "analyze",
               ("analyze", "{work}/f.family", "--json", "{work}/f.json"), "f.json"),
            Op("closure-n14", "closure",
               ("closure", "{work}/c.family", "-o", "{work}/c.closed"), "c.closed"),
        ]
        files = {"g.family": "union_closed", "f.family": "simply_rooted", "c.family": "closure_input"}
        return Workload(name, ops, files)
    raise ValueError(f"unknown workload {name!r}")


def pool_probe(slot: int) -> Op:
    """The largest plan of sweep-family-random, run again at 2 workers."""
    return next(op for op in build("sweep-family-random", slot).ops if op.name == "conjecture2-n12")


def invocation(op: Op, work: Path, worker_count: int = 1):
    """A zero-argument call that runs the op and returns (seconds, result);
    only the program call is timed."""
    if op.kind == "sweep":
        from ucx import verify

        prop, n, mode, samples, seed = op.args
        plan = verify.SweepPlan(prop, n, mode, samples=samples, seed=seed, worker_count=worker_count)

        def call():
            started = time.perf_counter()
            report = verify.run_sweep(plan)
            return time.perf_counter() - started, report

        return call

    from ucx import cli

    argv = [a.replace("{work}", str(work)) for a in op.args]
    (work / op.output).unlink(missing_ok=True)

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - started
        return seconds, (code, sink.getvalue())

    return call


def outcome(op: Op, work: Path, seconds: float, result) -> Outcome:
    """Turn a call's result into the output bytes that the golden digest covers."""
    if op.kind == "sweep":
        report = result
        return Outcome(seconds, report.canonical_json().encode(), report.enumerated,
                       report.checked, bool(report.passed))
    code, printed = result
    if code != 0:
        return Outcome(seconds, b"", 0, None, False, f"exit code {code}: {printed[-300:]}")
    output = (work / op.output).read_bytes()
    if op.kind == "scan":
        rows = output.count(b"\n") - 1
        return Outcome(seconds, output, rows, rows, True)
    return Outcome(seconds, output, 1, None, True)


def run_pass(ops: list[Op], work: Path, tracer=None, worker_count: int = 1) -> list[Outcome]:
    """Run every op once, in order.  A tracer, when given, is installed only
    around the program calls, so output checks are not traced."""
    calls = [invocation(op, work, worker_count) for op in ops]
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            try:
                results.append(call())
            except Exception as exc:  # a failing op is counted, not fatal
                results.append(exc)
    finally:
        if tracer is not None:
            tracer.remove()
    outcomes = []
    for op, result in zip(ops, results):
        try:
            if isinstance(result, Exception):
                raise result
            outcomes.append(outcome(op, work, *result))
        except Exception as exc:
            outcomes.append(Outcome(0.0, b"", 0, None, False, f"{type(exc).__name__}: {exc}"))
    return outcomes


def check(result: Outcome, golden: dict | None) -> str | None:
    """Why the outcome is wrong, or None when it matches the golden record."""
    if result.error:
        return result.error
    if not result.ok:
        return "passed=False"
    if golden is None:
        return "no golden record"
    if result.checked != golden["checked"]:
        return f"checked={result.checked}, expected {golden['checked']}"
    if result.sha256 != golden["sha256"]:
        return "output digest differs from the golden digest"
    return None
