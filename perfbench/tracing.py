"""Host-time attribution for the traced run: cProfile self time grouped
by this repository's layers, and garbage-collector pauses.

Layers are the ``repro`` packages, with ``repro.core.mts`` and
``repro.core.mps`` apart from the rest of ``repro.core`` and
``repro.sim.sharded`` apart from the rest of ``repro.sim``.  Packages
no workload spends time in (``faults``, ``resilience``, ``bench``,
``fleet``) join the top-level modules in ``repro``.  C functions
(cProfile's ``~`` entries) form ``builtins``; Python files of the
standard library form ``stdlib``; anything else (NumPy, this harness)
is ``other``.  Every profiled function falls in exactly one group, so
the groups sum to the profiled total.

The sharded kernel forks its workers.  :class:`Profiler` starts a fresh
profiler in each forked worker and has it dump its statistics, and the
wall time it was on, when the worker exits; :meth:`Profiler.attribute`
merges them with the parent's.  The profiler's timer is the wall clock,
so the profiled total should match the wall time the profilers were on:
their ratio, ``coverage``, falls when a process's figures are lost.
"""

from __future__ import annotations

import cProfile
import gc
import multiprocessing.util
import os
import pstats
import sysconfig
import time
from pathlib import Path

GROUPS = ("sim", "sharded", "mts", "mps", "core", "atm", "net", "protocols",
          "ethernet", "p4", "apps", "hosts", "obs", "config", "repro",
          "builtins", "stdlib", "other")

_STDLIB = tuple(str(Path(sysconfig.get_paths()[k]).resolve()) + os.sep
                for k in ("stdlib", "platstdlib"))


def group_of(filename: str, repro_dir: Path) -> str:
    """The layer a profiled function's source file belongs to."""
    if filename == "~":
        return "builtins"
    if filename.startswith("<frozen"):
        return "stdlib"
    path = Path(filename)
    try:
        parts = path.relative_to(repro_dir).parts
    except ValueError:
        resolved = str(path.resolve())
        if resolved.startswith(_STDLIB) and "-packages" not in resolved:
            return "stdlib"
        return "other"
    if parts[0] == "core" and parts[1] in ("mts", "mps"):
        return parts[1]
    if parts[:2] == ("sim", "sharded.py"):
        return "sharded"
    return parts[0] if len(parts) > 1 and parts[0] in GROUPS else "repro"


def is_poll_wait(func: tuple) -> bool:
    """A C-level poll/select call: where a coordinator blocks on pipes."""
    filename, _line, name = func
    return filename == "~" and ("select.poll" in name
                                or "select.select" in name
                                or "select.epoll" in name)


class Profiler:
    """cProfile over this process and every worker it forks."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.prof = cProfile.Profile()
        self._t0 = self.wall_s = 0.0
        multiprocessing.util.register_after_fork(self, Profiler._in_child)

    def _in_child(self) -> None:
        # the child inherited an enabled copy of the parent's profiler,
        # whose figures die with it: swap in one that dumps at exit
        self.prof.disable()
        self.prof = cProfile.Profile()
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)
        self.__enter__()

    def _dump(self) -> None:
        self.__exit__()
        stem = self.dump_dir / f"worker-{os.getpid()}"
        self.prof.dump_stats(stem.with_suffix(".pstats"))
        stem.with_suffix(".wall").write_text(repr(self.wall_s))

    def __enter__(self):
        self._t0 = time.perf_counter()
        self.prof.enable()
        return self

    def __exit__(self, *exc):
        self.prof.disable()
        self.wall_s = time.perf_counter() - self._t0

    def attribute(self, repro_dir: Path) -> dict:
        """Self time per group over this process and its workers, the
        profiled total over the wall time profiled, plus this
        (coordinating) process's own ``sharded`` self time and its time
        blocked in poll."""
        own = pstats.Stats(self.prof)
        merged = pstats.Stats(self.prof)
        dumps = sorted(self.dump_dir.glob("worker-*.pstats"))
        wall_s = self.wall_s
        for dump in dumps:
            merged.add(str(dump))
            wall_s += float(dump.with_suffix(".wall").read_text())
        groups = dict.fromkeys(GROUPS, 0.0)
        for func, (_cc, _nc, tottime, _ct, _callers) in merged.stats.items():
            groups[group_of(func[0], repro_dir)] += tottime
        return {"groups": groups, "total_s": merged.total_tt,
                "coverage": merged.total_tt / wall_s,
                "processes": 1 + len(dumps),
                "coordinator_self_s": sum(
                    v[2] for f, v in own.stats.items()
                    if group_of(f[0], repro_dir) == "sharded"),
                "coordinator_wait_s": sum(
                    v[2] for f, v in own.stats.items() if is_poll_wait(f))}


class GcPauses:
    """Wall time the collector spends per collection, via gc.callbacks."""

    def __init__(self):
        self.pause_s = 0.0
        self.collections = 0
        self.gen2 = 0
        self._t = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._t
        self.collections += 1
        self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
