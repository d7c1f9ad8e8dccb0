"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workloads paper-tables,wan-build]

Runs ``perfbench/run.py --trace 0`` for ``run_seconds`` from
``BENCHMARK.json`` once per workload, seed (1 to 10) and set (two).
The sets alternate which of them runs first from one seed to the next,
so a drift of the host's speed falls on both.  Per workload and
end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median,
and it judges whether the sets agree within the metric's ``bound``:
each set's spread at most the bound, and the two medians apart by at
most the bound, in either direction, as a share of the first.  The
spread target is a third of the bound.  Writes
``perfbench/out/steady.json``; exits 1 on disagreement.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

SETS = 2
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:"
                         f" {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s",
          file=sys.stderr, flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args(argv)
    chosen = args.workloads.split(",")
    runs = {(w, s): [] for w in chosen for s in range(SETS)}
    for i, seed in enumerate(SEEDS):
        order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
        for s in order:
            for w in chosen:
                runs[(w, s)].append(one_run(w, seed, bench["run_seconds"]))
    report, agree = {}, True
    for w in chosen:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r[name] for r in runs[(w, s)]])
                    for s in range(SETS)]
            apart = abs(sets[1]["median"] - sets[0]["median"]) \
                / sets[0]["median"]
            ok = apart <= bound and all(st["spread"] <= bound
                                        for st in sets)
            agree &= ok
            report[f"{w}/{name}"] = {"bound": bound, "sets": sets,
                                     "apart": apart, "agree": ok}
            print(f"{w:22s} {name:13s} bound {bound:5.3f}  " + "  ".join(
                f"med {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                f"spread {st['spread']:.4f}"
                f"{'' if st['spread'] <= bound / 3 else ' (> bound/3)'}"
                for st in sets)
                + f"  apart {apart:.4f}"
                + ("" if ok else "  DISAGREE"))
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "steady.json").write_text(json.dumps(report, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
