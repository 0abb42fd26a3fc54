"""Record golden output digests for every workload op and seed slot.

Run from the repository root on a commit whose outputs are known good:

    python3 perfbench/record_golden.py

It runs each workload's ops once in each of the SLOTS slots, requires
every op to pass, and writes perfbench/golden.json: for each workload, one
mapping per slot from op name to the sha256 of its output and its
``checked`` count.  The pool
probe's plan is an op of sweep-family-random, so it shares that record.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SLOTS = 16


def main() -> int:
    if run.load_program() is None:
        print(f"error: no ucx package under {run.SRC}", file=sys.stderr)
        return 2
    work = run.OUT / "golden-work"
    work.mkdir(parents=True, exist_ok=True)
    record = {"slots": SLOTS, "commit": run.git_commit(), "workloads": {}}
    try:
        for name in workloads.WORKLOAD_NAMES:
            per_slot = []
            for slot in range(SLOTS):
                wl = workloads.build(name, slot)
                wl.prepare(slot, work)
                ops = {}
                for op, outcome in zip(wl.ops, workloads.run_pass(wl.ops, work)):
                    if outcome.error or not outcome.ok:
                        print(f"error: {name} slot {slot} {op.name}: {outcome.error or 'passed=False'}",
                              file=sys.stderr)
                        return 1
                    ops[op.name] = {"sha256": outcome.sha256, "checked": outcome.checked}
                per_slot.append(ops)
                print(f"{name} slot {slot}: {len(ops)} ops", flush=True)
            record["workloads"][name] = per_slot
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
