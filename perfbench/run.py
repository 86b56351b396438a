"""Run one benchmark workload against the program in ``src/`` and print
its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_inproc --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``paper_inproc``: the paper's 8 queries x 7 schemes, in-process;
* ``serve_adhoc``: seeded ad-hoc queries over HTTP to ``python -m repro
  serve``, open loop on a fixed ladder of rates;
* ``ingest_rw``: add-then-search on a durable store, with checkpoints and
  a reopen.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with spans recorded around each
layer's public functions, and prints the per-layer metrics with the
tracing overhead; the spans are written under ``.perfbench_out/``.
Every time reported is scaled to a reference host speed, read from
probes of a fixed kernel taken through the run (``perfbench/hostspeed.py``);
the times as measured are printed as ``raw_*`` lines beside them.
Every output is checked against the canonical plan.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``REPRO_*`` variables are cleared so the
program runs with its defaults.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"paper_inproc": "paper", "serve_adhoc": "serve", "ingest_rw": "ingest"}


class Context:
    """What a workload needs besides its time budget."""

    def __init__(self, seed: int, root: Path, scratch, tag: str):
        self.seed = seed
        self.root = root
        self.scratch = scratch
        #: Distinguishes the untraced and traced passes of one run.
        self.tag = tag


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program source is missing ({src}/repro)", file=sys.stderr)
        return 2
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    sys.path[:0] = [str(src), str(ROOT)]
    signal.signal(signal.SIGTERM, _raise_exit)

    from perfbench.common import E2E_METRICS, LAYER_METRICS, Scratch
    from perfbench.tracer import Recorder, install_layers

    workload = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          f"python={platform.python_version()} cleared_env={cleared}")
    scratch = Scratch(ROOT)
    try:
        if not args.trace:
            results = [workload.measure(Context(args.seed, ROOT, scratch, "plain"),
                                        args.seconds)]
            metrics = results[0].e2e
            units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
        else:
            half = args.seconds / 2.0
            plain = workload.measure(Context(args.seed, ROOT, scratch, "plain"), half)
            recorder = Recorder()
            install_layers(recorder)
            try:
                traced = workload.measure(Context(args.seed, ROOT, scratch, "traced"),
                                          half, recorder)
            finally:
                recorder.uninstall()
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            recorder.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
            results = [plain, traced]
            metrics = dict(traced.layers)
            metrics["trace.overhead_frac"] = traced.primary_p50 / plain.primary_p50 - 1.0
            units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
    finally:
        scratch.close()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = failed == 0 and all(r.correct for r in results)
    for tag, r in zip(("untraced", "traced"), results):
        if args.trace:
            print(f"# {tag} pass")
        for name, value in r.raw.items():
            r.report[f"raw_{name}"] = (value, E2E_METRICS[name][0])
        for name, (value, unit) in sorted(r.report.items()):
            print(f"  {name:<40} {_fmt(value)} {unit}")
    print(f"  {'fail_frac':<40} {_fmt(failed / max(1, attempted))} frac")
    for name in units:
        line = f"{name:<42} {_fmt(metrics[name])} {units[name]}"
        if args.trace:
            _, moves, where = LAYER_METRICS[name]
            line += f"    -> {moves} on {where}"
        print(line)
    bad = [n for n in units if not math.isfinite(metrics[n])]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
