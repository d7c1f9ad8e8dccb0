"""The repository benchmark: host time, memory and correctness of the
NCS simulator on the workloads named in ``BENCHMARK.json``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wan-alltoall --seed 0 \\
        --seconds 20 --trace 0

Every sample runs in a fresh process (``child.py``), back to back, a
closed loop of one client.  With ``--trace 0`` samples repeat until
``--seconds`` have passed and the end-to-end metrics are their medians.
Host times are scaled to a reference host speed: before each timed
phase a sample times a fixed pure-Python probe on the core it then runs
on (``workloads.place``), and a run's times are multiplied by
``PROBE_REF_S`` over its mean probe time.  The host's speed drifts by
tens of percent over minutes; the scaled times follow the program, not
the host.  The raw medians and the mean probe time are in the record.
With ``--trace 1`` one sample runs with GC callbacks only (phase times,
GC pauses) and one under cProfile (self time per layer); the ratio of
their wall times is the profiler's overhead.  The traced run fails when
the profile misses a forked shard worker or its self times fall short
of the wall time profiled.  Samples get one BLAS thread.

Each sample's outputs are checked: the seed-independent invariants
always, and the committed fingerprints in ``expected.json`` when it has
the seed.  An op that raises or mismatches is failed.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; a
line before it and ``perfbench/out/`` carry the host context, every
sample and its phase spans.  The exit code is 0 only when every op was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads    # the harness's own module; it imports no repro

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: set-up is sampled at least this many times per timed run
SETUP_SAMPLES = 9
#: timed runs report host times scaled to a host on which the probe of
#: ``workloads.place`` takes this long (s)
PROBE_REF_S = 1e-3
#: one sample may not take longer than this
CHILD_TIMEOUT_S = 150
#: how far the profiled self times may be from the profiled wall time;
#: cProfile's own bookkeeping hides 2.5 % of it on wan-build
COVERAGE_TOLERANCE = 0.05


class ChildFailed(RuntimeError):
    """A sample process died or printed no result."""


def host_context(trace: bool) -> dict:
    return {"cpu_count": os.cpu_count(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit_hash(),
            "trace": trace}


def commit_hash():
    """HEAD of the checkout's own git repository, if it is one (never a
    parent directory's)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_child(workload: str, seed: int, mode: str = "plain",
              setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if setup_only:
        cmd.append("--setup-only")
    with tempfile.TemporaryDirectory(dir=OUT) as dump_dir:
        if mode == "profile":
            cmd += ["--dump-dir", dump_dir]
        t0 = time.perf_counter()
        # a new process group, so a timeout also stops forked shard
        # workers; one BLAS thread, so a sample's time does not depend on
        # what else holds the other cores
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                start_new_session=True,
                                env={**os.environ,
                                     "OPENBLAS_NUM_THREADS": "1"})
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"sample exceeded {CHILD_TIMEOUT_S} s")
        wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"sample exited {proc.returncode}: "
                          f"{stderr.strip()[-2000:]}")
    sample = json.loads(lines[-1])
    sample["wall_s"] = wall
    sample["setup_s"] = span_s(sample, "load", "build_cluster",
                               "build_runtime")
    sample["run_s"] = span_s(sample, "driver")
    return sample


def span_s(sample: dict, *names: str) -> float:
    """Total duration of a sample's spans with these names."""
    return sum(s["end"] - s["start"] for s in sample["spans"]
               if s["name"] in names)


def judge(workload: str, seed: int, samples: list[dict],
          expected: dict) -> tuple[int, list[str]]:
    """Failed ops and their problems over every sample."""
    failed, problems = 0, []
    for sample in samples:
        for op in sample["ops"]:
            found = workloads.check_op(workload, seed, op, expected)
            failed += bool(found)
            problems += found
        if workload == "paper-tables" and sample["ops"]:
            ref = expected.get(workload, {}).get(str(seed))
            mape = sample["counts"]["paper.mape_pct"]
            if ref is not None and mape != ref["mape_pct"]:
                problems.append(f"paper_mape_pct {mape!r} != expected "
                                f"{ref['mape_pct']!r}")
    return failed, problems


def timed_run(workload: str, seed: int, seconds: float) -> tuple:
    deadline = time.perf_counter() + seconds
    samples = [run_child(workload, seed)]
    while time.perf_counter() < deadline:
        samples.append(run_child(workload, seed))
    setups = []
    while len(samples) + len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, setup_only=True))
    med = statistics.median
    raw = {"setup_s": med(s["setup_s"] for s in samples + setups),
           "run_s": med(s["run_s"] for s in samples),
           "wall_s": med(s["wall_s"] for s in samples),
           "events_per_s": med(s["counts"]["sim.events"] / s["run_s"]
                               for s in samples)}
    probe_s = statistics.fmean(span["probe_s"] for s in samples + setups
                               for span in s["spans"] if "probe_s" in span)
    scale = PROBE_REF_S / probe_s
    metrics = {"setup_s": (raw["setup_s"] * scale, "s"),
               "run_s": (raw["run_s"] * scale, "s"),
               "wall_s": (raw["wall_s"] * scale, "s"),
               "events_per_s": (raw["events_per_s"] / scale, "events/s"),
               "peak_rss_mb": (med(s["peak_rss_mb"] for s in samples), "MB")}
    return metrics, samples + setups, {"probe_s": probe_s, "raw": raw}


def traced_run(workload: str, seed: int) -> tuple:
    ref = run_child(workload, seed, mode="gc")
    prof = run_child(workload, seed, mode="profile")
    counts, profile = prof["counts"], prof["profile"]
    groups = profile["groups"]

    metrics = {f"{g}.self_s": (v, "s") for g, v in groups.items()}
    built = counts["tcp.conns_built"]
    metrics.update({
        "profile.total_s": (profile["total_s"], "s"),
        "profile.coverage": (profile["coverage"], "ratio"),
        "trace.overhead_x": (prof["wall_s"] / ref["wall_s"], "x"),
        "phase.load_s": (span_s(ref, "load"), "s"),
        "net.build_cluster_s": (span_s(ref, "build_cluster"), "s"),
        "core.build_runtime_s": (span_s(ref, "build_runtime"), "s"),
        "phase.driver_s": (span_s(ref, "driver"), "s"),
        "phase.snapshot_s": (span_s(ref, "snapshot"), "s"),
        "sim.us_per_event": (1e6 * ref["run_s"] / max(counts["sim.events"],
                                                       1), "us"),
        "gc.pause_s": (ref["gc"]["pause_s"], "s"),
        "gc.collections": (ref["gc"]["collections"], "count"),
        "gc.gen2_collections": (ref["gc"]["gen2_collections"], "count"),
        "sharded.coordinator_self_s": (profile["coordinator_self_s"], "s"),
        "sharded.coordinator_wait_s": (profile["coordinator_wait_s"], "s"),
        "kernel.shard_load": (counts["kernel.shard_load"], "x"),
        "kernel.lookahead_s": (counts["kernel.lookahead_s"], "s"),
        "tcp.conns_used_ratio": (counts["tcp.conns_used"] / built
                                 if built else 0.0, "ratio"),
        "paper.mape_pct": (counts["paper.mape_pct"], "%"),
    })
    for name in (*workloads.COUNTERS, "net.vcs_built", "tcp.conns_built"):
        metrics[name] = (counts[name], "count")
    return metrics, [ref, prof], {}


def profile_problems(workload: str, sample: dict) -> list[str]:
    """What the profile of a traced run lost: a forked worker's figures,
    or profiled wall time that the self times do not account for."""
    profile, problems = sample["profile"], []
    processes = 1
    if (workload == "wan-alltoall-sharded"
            and sample["context"]["sharded_transport"] == "process"):
        processes += workloads.SHARDS
    if profile["processes"] != processes:
        problems.append(f"profile covers {profile['processes']} processes, "
                        f"want {processes}")
    if abs(profile["coverage"] - 1) > COVERAGE_TOLERANCE:
        problems.append(f"self times cover {profile['coverage']:.4f} of the "
                        "profiled wall time")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    context = host_context(bool(args.trace))
    try:
        if args.trace:
            metrics, samples, host = traced_run(args.workload, args.seed)
        else:
            metrics, samples, host = timed_run(args.workload, args.seed,
                                               args.seconds)
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    context.update(samples[0]["context"])
    failed, problems = judge(args.workload, args.seed, samples, expected)
    if args.trace:
        problems += profile_problems(args.workload, samples[-1])
    attempted = sum(len(s["ops"]) for s in samples)
    result = {"correct": not problems and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"args": vars(args), "context": context, "problems": problems,
         "result": result, "host": host, "samples": samples}, indent=1))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"context": context, "record": str(record.relative_to(
        ROOT))}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
