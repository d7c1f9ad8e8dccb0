"""Record the committed fingerprints the benchmark checks outputs against.

Usage, from the root of a checkout::

    python3 perfbench/record.py

Runs one sample of each single-kernel workload per seed in ``SEEDS``,
one at a time, and writes
``perfbench/expected.json``: makespan, event count and (alltoall)
per-pid received counts; for ``paper-tables`` every cell's correctness
flag and makespan, and the MAPE against the paper.  The sharded
workload is checked against the single-kernel ``wan-alltoall`` entry.
Re-record only for a change that is meant to alter simulated results.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

RECORDED = ("wan-alltoall", "wan-build", "paper-tables")
SEEDS = range(64)


def fingerprint(workload: str, seed: int) -> dict:
    sample = run.run_child(workload, seed)
    problems = [p for op in sample["ops"]
                for p in workloads.check_op(workload, seed, op, {})]
    if problems:
        raise SystemExit(f"{workload} seed {seed}: {problems[:5]}")
    fps = {op["name"]: op["fingerprint"] for op in sample["ops"]}
    if workload == "paper-tables":
        return {"cells": {k: [fp["correct"], fp["makespan_s"]]
                          for k, fp in fps.items()},
                "mape_pct": sample["counts"]["paper.mape_pct"]}
    (fp,) = fps.values()
    if workload == "wan-build":
        del fp["received"]      # the ring invariant already pins it exactly
    return fp


def write_expected(expected: dict) -> None:
    """One line per workload and seed, so a re-recording diffs by seed."""
    blocks = []
    for workload in sorted(expected):
        rows = [f"  {json.dumps(seed)}: {json.dumps(fp, sort_keys=True)}"
                for seed, fp in sorted(expected[workload].items(),
                                       key=lambda kv: int(kv[0]))]
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows)
                      + "\n }")
    (run.HERE / "expected.json").write_text(
        "{\n" + ",\n".join(blocks) + "\n}\n")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    expected = {w: {str(seed): fingerprint(w, seed) for seed in SEEDS}
                for w in RECORDED}
    write_expected(expected)
    print(f"recorded {len(RECORDED) * len(SEEDS)} fingerprints",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
