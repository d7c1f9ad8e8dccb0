"""The benchmark's workloads: generated specs, ops, fingerprints, checks.

Each workload is generated from one integer seed.  The seed flows only
into the seed fields of the generated specs, as an offset from each
field's default: ``ClusterSpec.seed = 1995 + seed`` on the wan-ring
workloads, and ``seed = default + seed`` for the table apps' own data
seeds (matmul 7, JPEG 1995, FFT 3).  Seed 0 therefore reproduces the
repository's committed Tables 1-3 exactly.

Everything here drives the simulator through its public entry points
only: ``ScenarioSpec``, ``build_cluster``, ``ScenarioRun`` (whose
``runtime`` property calls ``build_runtime``), ``APP_DRIVERS``,
``run_scenario``, ``repro.bench.tables.run_cell`` and
``cluster.metrics``.  ``repro`` is imported lazily, inside the
functions, because the caller times that import as part of set-up.
"""

from __future__ import annotations

import os
import time

NAMES = ("wan-alltoall", "wan-build", "paper-tables", "wan-alltoall-sharded")

#: wan-ring alltoall: 8 sites x 4 hosts, 4 rounds of 1 KiB messages
A2A_SITES, A2A_HOSTS_PER_SITE, A2A_ROUNDS, A2A_NBYTES = 8, 4, 4, 1024
#: worker processes of the sharded workload
SHARDS = 2
#: wan-ring construction-heavy ring: 8 sites x 16 hosts, one round
BUILD_SITES, BUILD_HOSTS_PER_SITE, BUILD_ROUNDS = 8, 16, 1

#: (table, app, params) for Tables 1-3, with each app's default data seed
TABLES = (
    ("table1", "matmul", {"n": 128}, 7),
    ("table2", "jpeg", {}, 1995),
    ("table3", "fft", {"m": 512, "n_sets": 8}, 3),
)

#: deterministic counters summed over a sample's ops
COUNTERS = {
    "sim.events": "sim.events_processed",
    "mts.context_switches": "mts.context_switches",
    "mps.messages": "mps.data_sent",
    "atm.cells": "atm.cells_sent",
    "tcp.segments": "tcp.segments_sent",
    "ip.packets": "ip.packets_sent",
    "ethernet.frames": "ethernet.frames_delivered",
}
#: every key a sample's counts carry (zero where a layer is not used)
COUNT_KEYS = (*COUNTERS, "net.vcs_built", "tcp.conns_built",
              "tcp.conns_used", "kernel.shard_load", "kernel.lookahead_s",
              "paper.mape_pct")


#: the cores this process may run on when it starts
CORES = sorted(os.sched_getaffinity(0))


def place() -> dict:
    """Pin this process to the core that runs a fixed loop fastest now.

    Each core of a shared host switches, for seconds at a time, between
    a fast state and one about 1.5 times slower (measured on a 2-core
    guest, the cores switching independently).  Every timed phase and
    op starts on the core that is fast at that moment, so fewer of them
    are timed in the slow state.  Forked shard workers inherit the
    core: the sharded workload shares one core among all its processes
    and measures the kernel's own overhead.  Returns the core and its
    probe time, which the phase's span records."""
    probe_s = {}
    for core in CORES:
        os.sched_setaffinity(0, {core})
        probe_s[core] = min(_probe_s() for _ in range(3))
    core = min(probe_s, key=probe_s.get)
    os.sched_setaffinity(0, {core})
    return {"core": core, "probe_s": probe_s[core]}


def _probe_s() -> float:
    t0 = time.perf_counter()
    table = {}
    for i in range(10000):
        table[i & 255] = i * i % 7
    return time.perf_counter() - t0


class Spans:
    """Phase spans kept in memory: name, start, end, parent id."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.items: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        sid = len(self.items)
        self.items.append({"id": sid, "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": time.perf_counter() - self.t0,
                           "end": None, **attrs})
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        span = self.items[sid]
        span["end"] = time.perf_counter() - self.t0
        return span["end"] - span["start"]


def a2a_spec(seed: int, shards: int = 1):
    from repro.config import AppSpec, ClusterSpec, ScenarioSpec
    return ScenarioSpec(
        name=f"perfbench-wan-alltoall-s{shards}",
        cluster=ClusterSpec(topology="wan-ring", seed=1995 + seed,
                            options={"n_sites": A2A_SITES,
                                     "hosts_per_site": A2A_HOSTS_PER_SITE}),
        mode="hsm",
        app=AppSpec("alltoall", {"rounds": A2A_ROUNDS,
                                 "nbytes": A2A_NBYTES}),
        shards=shards)


def build_spec(seed: int):
    from repro.config import AppSpec, ClusterSpec, ScenarioSpec
    return ScenarioSpec(
        name="perfbench-wan-build",
        cluster=ClusterSpec(topology="wan-ring", seed=1995 + seed,
                            options={"n_sites": BUILD_SITES,
                                     "hosts_per_site": BUILD_HOSTS_PER_SITE}),
        mode="nsm",
        app=AppSpec("ring", {"rounds": BUILD_ROUNDS}))


def table_cells(seed: int):
    """Every (cell key, driver, platform, nodes, params) of Tables 1-3,
    p4 and NCS variants, in the order ``repro.bench.tables`` runs them."""
    from repro.bench import paper_data
    cells = []
    for table, app, params, app_seed in TABLES:
        for platform, nodes in paper_data.TABLE_NODES[table].items():
            for n in nodes:
                for variant in ("p4", "ncs"):
                    driver = f"{app}-{variant}"
                    cells.append((f"{driver}/{platform}/{n}", driver,
                                  platform, n,
                                  {**params, "seed": app_seed + seed}))
    return cells


def paper_reference(key: str) -> float:
    """The paper's own seconds for a cell key ``app-variant/platform/n``."""
    from repro.bench import paper_data
    driver, platform, n = key.split("/")
    app, variant = driver.split("-")
    table = {"matmul": 1, "jpeg": 2, "fft": 3}[app]
    ref = getattr(paper_data, f"TABLE{table}_{variant.upper()}")
    return ref[(platform, int(n))]


def mape_pct(cells: dict) -> float:
    """Mean absolute relative error (%) of simulated makespans against
    the paper's Tables 1-3."""
    errs = [abs(makespan - paper_reference(key)) / paper_reference(key)
            for key, (_ok, makespan) in sorted(cells.items())]
    return 100.0 * sum(errs) / len(errs)


# ----------------------------------------------------------------- counts
def cluster_counts(cluster) -> dict:
    """Counters read after a run from ``cluster.metrics`` and from the
    cluster's public objects."""
    metrics = cluster.metrics
    counts = {name: int(metrics.total(series))
              for name, series in COUNTERS.items()}
    signaling = getattr(cluster, "signaling", None)
    counts["net.vcs_built"] = (len(signaling.open_vcs)
                               if signaling is not None else 0)
    built = used = 0
    for stack in getattr(cluster, "stacks", ()):
        for conn in stack.tcp.connections():
            built += 1
            used += conn.segments_sent > 0
    counts["tcp.conns_built"] = built
    counts["tcp.conns_used"] = used
    # the sharded kernel stamps its plan into the merged snapshot:
    # shard_load is the planned load of the busiest shard over the mean
    loads = []
    if metrics.value("kernel.shards", 0) > 1:
        loads = list(metrics.snapshot()["kernel.shard_load"].values())
    counts["kernel.shard_load"] = (max(loads) * len(loads) / sum(loads)
                                   if loads else 0.0)
    counts["kernel.lookahead_s"] = float(
        metrics.value("kernel.lookahead_s", 0.0))
    return counts


def add_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        if k.startswith("kernel."):
            total[k] = max(total.get(k, 0.0), v)
        else:
            total[k] = total.get(k, 0) + v


# -------------------------------------------------------------- execution
def run_sample(workload: str, seed: int, spans: Spans,
               setup_only: bool = False) -> dict:
    """One fresh-process sample: set up, run every op, fingerprint.

    Returns ``{"ops": [...], "counts": {...}, "context": {...}}``; each
    op records ``name``, ``fingerprint`` or ``error``.  On
    ``paper-tables`` the counts carry ``paper.mape_pct`` when every cell
    ran.  Every phase span is a child of one ``sample`` span; ``load``
    times the first import of ``repro``.
    """
    root = spans.open("sample", workload=workload, seed=seed)
    sid = spans.open("load", **place())
    from repro.config import ensure_components
    ensure_components()
    spans.close(sid)
    from repro.sim.sharded import DEFAULT_MODE
    context = {"sharded_transport": DEFAULT_MODE}
    if workload in ("wan-alltoall", "wan-build"):
        spec = a2a_spec(seed) if workload == "wan-alltoall" else \
            build_spec(seed)
        ops, counts = _run_runtime_op(spec, spans, setup_only)
    elif workload == "wan-alltoall-sharded":
        ops, counts = ([], {}) if setup_only else \
            _run_sharded_op(a2a_spec(seed, shards=SHARDS), spans)
    elif workload == "paper-tables":
        ops, counts = ([], {}) if setup_only else \
            _run_table_ops(seed, spans)
        cells = {op["name"]: (op["fingerprint"]["correct"],
                              op["fingerprint"]["makespan_s"])
                 for op in ops if "fingerprint" in op}
        if cells and len(cells) == len(ops):
            counts["paper.mape_pct"] = mape_pct(cells)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spans.close(root)
    return {"ops": ops, "counts": dict.fromkeys(COUNT_KEYS, 0) | counts,
            "context": context}


def _drive(spans: Spans, name: str, call):
    """Run one op inside a ``driver`` span.  An exception is recorded on
    the op, which then counts as failed; the sample goes on."""
    op = {"name": name}
    sid = spans.open("driver", op=name, **place())
    try:
        return call(), op
    except Exception as exc:
        op["error"] = f"{type(exc).__name__}: {exc}"
        return None, op
    finally:
        spans.close(sid)


def _run_runtime_op(spec, spans: Spans, setup_only: bool):
    from repro.config import ScenarioRun, build_cluster
    from repro.registry import APP_DRIVERS
    run = ScenarioRun(spec)
    sid = spans.open("build_cluster", **place())
    run.cluster = build_cluster(spec.cluster, spec.obs)
    spans.close(sid)
    sid = spans.open("build_runtime", **place())
    run.runtime                                    # noqa: B018 - builds it
    spans.close(sid)
    if setup_only:
        return [], {}
    value, op = _drive(spans, spec.name,
                       lambda: APP_DRIVERS.get(spec.app.driver)(run))
    if value is None:
        return [op], {}
    return [op], _fingerprint_runtime(spans, op, value, run.cluster)


def _run_sharded_op(spec, spans: Spans):
    from repro.config import run_scenario
    result, op = _drive(spans, spec.name, lambda: run_scenario(spec))
    if result is None:
        return [op], {}
    return [op], _fingerprint_runtime(spans, op, result.value,
                                      result.cluster)


def _fingerprint_runtime(spans: Spans, op: dict, value, cluster) -> dict:
    sid = spans.open("snapshot", op=op["name"])
    counts = cluster_counts(cluster)
    op["fingerprint"] = {"makespan_s": value["makespan_s"],
                         "events": counts["sim.events"],
                         "received": value["received"]}
    spans.close(sid)
    return counts


def _run_table_ops(seed: int, spans: Spans):
    from repro.bench.tables import run_cell
    ops, counts = [], {}
    for key, driver, platform, n, params in table_cells(seed):
        result, op = _drive(spans, key,
                            lambda: run_cell(driver, platform, n, **params))
        ops.append(op)
        if result is None:
            continue
        sid = spans.open("snapshot", op=key)
        add_counts(counts, cluster_counts(result.cluster))
        op["fingerprint"] = {"correct": bool(result.correct),
                             "makespan_s": result.makespan_s}
        spans.close(sid)
    return ops, counts


# ------------------------------------------------------------ correctness
def check_op(workload: str, seed: int, op: dict, expected: dict) -> list[str]:
    """Problems with one op's outputs; empty when it is correct.

    The seed-independent invariants always run.  When ``expected``
    holds values for this workload and seed, the op's deterministic
    outputs must also equal them exactly.
    """
    if "error" in op:
        return [f"{op['name']}: raised {op['error']}"]
    fp = op["fingerprint"]
    problems = _invariants(workload, op["name"], fp)
    # the sharded run is held to the single kernel's value and makespan;
    # its event count legitimately differs (cut events merge)
    ref_workload = ("wan-alltoall" if workload == "wan-alltoall-sharded"
                    else workload)
    ref = expected.get(ref_workload, {}).get(str(seed))
    if ref is None:
        return problems
    if workload == "paper-tables":
        want = ref["cells"].get(op["name"])
        got = [fp["correct"], fp["makespan_s"]]
        if want != got:
            problems.append(f"{op['name']}: (correct, makespan) {got} "
                            f"!= expected {want}")
        return problems
    for key in ("makespan_s", "events", "received"):
        if key not in ref or (key == "events" and ref_workload != workload):
            continue
        if fp[key] != ref[key]:
            problems.append(f"{op['name']}: {key} {fp[key]!r} != expected "
                            f"{ref[key]!r}")
    return problems


def _invariants(workload: str, name: str, fp: dict) -> list[str]:
    problems = []
    if workload == "paper-tables":
        if not fp["correct"]:
            problems.append(f"{name}: application result is wrong")
        return problems
    received = fp["received"]
    if workload == "wan-build":
        n = BUILD_SITES * BUILD_HOSTS_PER_SITE
        for pid in range(n):
            want = [[(pid - 1) % n, r] for r in range(BUILD_ROUNDS)]
            if received.get(str(pid)) != want:
                problems.append(f"{name}: pid {pid} received "
                                f"{received.get(str(pid))!r}, want {want!r}")
    else:
        n = A2A_SITES * A2A_HOSTS_PER_SITE
        want = (n - 1) * A2A_ROUNDS
        for pid in range(n):
            if received.get(str(pid)) != want:
                problems.append(f"{name}: pid {pid} received "
                                f"{received.get(str(pid))!r} messages, "
                                f"want {want}")
    if not fp["makespan_s"] > 0:
        problems.append(f"{name}: makespan {fp['makespan_s']!r} is not > 0")
    return problems
