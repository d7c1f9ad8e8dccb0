"""One sample of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py --workload NAME --seed N
[--mode plain|gc|profile] [--setup-only] [--dump-dir DIR]``

Imports ``repro`` from the ``src`` directory next to this one, sets up
and runs the workload once, and prints one JSON object: the phase
spans, each op's deterministic outputs (or its error), the counters
read after the run, peak RSS and, per ``--mode``, GC pauses or the
cProfile self time per layer.  ``run.py`` starts it and judges it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPRO_DIR = ROOT / "src" / "repro"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "gc", "profile"),
                    default="plain")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dump-dir", type=Path)
    args = ap.parse_args(argv)
    if not (REPRO_DIR / "__init__.py").is_file():
        print(f"no simulator source at {REPRO_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPRO_DIR.parent))

    import workloads
    spans = workloads.Spans()
    out: dict = {}
    # tracing is imported only when used: the stdlib modules it loads
    # would otherwise be warm when ``load`` times the import of repro
    if args.mode == "profile":
        if args.dump_dir is None:
            ap.error("--mode profile needs --dump-dir")
        import tracing
        profiler = tracing.Profiler(args.dump_dir)
        with profiler:
            sample = workloads.run_sample(args.workload, args.seed, spans,
                                          args.setup_only)
        out["profile"] = profiler.attribute(REPRO_DIR)
    elif args.mode == "gc":
        import tracing
        with tracing.GcPauses() as pauses:
            sample = workloads.run_sample(args.workload, args.seed, spans,
                                          args.setup_only)
        out["gc"] = {"pause_s": pauses.pause_s,
                     "collections": pauses.collections,
                     "gen2_collections": pauses.gen2}
    else:
        sample = workloads.run_sample(args.workload, args.seed, spans,
                                      args.setup_only)
    # forked shard workers hold most of the sharded workload's memory
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                 (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out.update(sample, spans=spans.items, peak_rss_mb=rss_kb / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
