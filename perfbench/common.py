"""Shared pieces of the workloads: scratch space, results, per-layer maths."""

from __future__ import annotations

import gc
import shutil
import tempfile
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock

from perfbench import stats
from perfbench.gen import SCHEMES
from perfbench.tracer import NAME, RID, START, END, ATTRS, self_times, span
from repro.bench.workload import PAPER_QUERIES

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: In ``paper_inproc`` and ``serve_adhoc`` a store is reopened this many
#: times per run, spread through it, and the mean reported.
REOPENS = 15
#: Saves timed per set-up in ``paper_inproc``, each to its own
#: directory; their median over all set-ups is its ``checkpoint_p50_ms``.
SAVES_PER_SETUP = 3
#: The search that answers a reopen.
FIRST_QUERY = ("san francisco fault line", "sumbest")

#: End-to-end metrics every workload reports: name -> (unit, better).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "checkpoint_p50_ms": ("ms", "lower"),
    "reopen_ms": ("ms", "lower"),
    "store_bytes_per_user_byte": ("B/B", "lower"),
}

#: Per-layer metrics: name -> (unit, end-to-end metric it should move,
#: workload where it should move it).
LAYER_METRICS = {
    "mcalc.parse_ms": ("ms", "latency_p50_ms", "serve_adhoc"),
    "graft.optimize_ms": ("ms", "latency_p50_ms, max_rate_qps", "serve_adhoc"),
    "graft.rules_fired": ("count", "latency_p50_ms", "serve_adhoc"),
    "exec.execute_ms": ("ms", "throughput_qps", "paper_inproc"),
    **{f"exec.execute_ms.{q}": ("ms", "latency_tail_ms", "paper_inproc")
       for q in PAPER_QUERIES},
    **{f"exec.execute_ms.{s}": ("ms", "throughput_qps", "paper_inproc")
       for s in SCHEMES},
    "exec.positions_scanned": ("count", "throughput_qps", "paper_inproc"),
    "exec.doc_entries_scanned": ("count", "throughput_qps", "paper_inproc"),
    "exec.rows_joined": ("count", "throughput_qps", "paper_inproc"),
    "exec.rows_grouped": ("count", "throughput_qps", "paper_inproc"),
    "exec.rows_per_result": ("ratio", "throughput_qps", "paper_inproc"),
    "exec.plan_cache_hit_ratio": ("ratio", "latency_p50_ms", "paper_inproc, serve_adhoc"),
    "api.search_self_ms": ("ms", "latency_p50_ms", "paper_inproc"),
    "index.build_ms": ("ms", "add_then_search_p50_ms", "ingest_rw"),
    "index.build_docs_per_s": ("1/s", "add_then_search_p50_ms", "ingest_rw"),
    "index.store.wal_append_ms": ("ms", "ingest_docs_per_s", "ingest_rw"),
    "index.store.fsyncs_per_doc": ("count", "ingest_docs_per_s", "ingest_rw"),
    "index.store.checkpoint_ms": ("ms", "checkpoint_p50_ms", "ingest_rw"),
    "index.store.bytes_written_per_user_byte": ("B/B", "checkpoint_p50_ms", "ingest_rw"),
    "index.store.load_ms": ("ms", "reopen_ms", "ingest_rw"),
    "corpus.analyze_ms_per_doc": ("ms", "ingest_docs_per_s", "ingest_rw"),
    "corpus.generate_s": ("s", "setup_s", "all"),
    "serve.http_ms": ("ms", "latency_p50_ms", "serve_adhoc"),
    "serve.queue_wait_ms": ("ms", "latency_tail_ms", "serve_adhoc"),
    "serve.service_self_ms": ("ms", "max_rate_qps", "serve_adhoc"),
    "serve.cpu_ms_per_req": ("ms", "max_rate_qps", "serve_adhoc"),
    "serve.shed_frac": ("frac", "fail_frac", "serve_adhoc"),
    "loadgen.late_ms": ("ms", "latency_tail_ms", "serve_adhoc"),
    "trace.overhead_frac": ("frac", "(none: traced vs untraced run)", "all"),
}


@dataclass
class Result:
    """What one measured pass of a workload produced."""

    attempted: int = 0
    failed: int = 0
    #: False when a whole-run check (durability, clean shutdown) failed.
    correct: bool = True
    e2e: dict = field(default_factory=dict)
    #: The end-to-end times as measured, before scaling to the reference
    #: host speed (:mod:`perfbench.hostspeed`), for the report.
    raw: dict = field(default_factory=dict)
    #: Per-layer metrics (traced pass only).
    layers: dict = field(default_factory=dict)
    #: Extra human-readable figures, name -> (value, unit).
    report: dict = field(default_factory=dict)
    #: Median latency the tracing overhead is judged on.
    primary_p50: float = 0.0


class Scratch:
    """A temporary directory inside the checkout, removed on close."""

    def __init__(self, root: Path):
        self.base = root / ".perfbench_tmp"
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.base))

    def sub(self, name: str) -> Path:
        return self.path / name

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run's scratch is still there


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size of a process (``VmHWM``), in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


class PeakRss:
    """Peak resident set size of this process inside chosen windows.

    Each window first resets the kernel's high-water mark, so set-up,
    reopens and the output checks between windows do not count.
    """

    def __init__(self):
        self.mb = 0.0

    @contextmanager
    def window(self):
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # reset VmHWM to the current resident set
        try:
            yield
        finally:
            self.mb = max(self.mb, vm_hwm_mb())


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def user_bytes(collection) -> int:
    """Bytes of text the user handed over (tokens joined by spaces)."""
    return sum(len(" ".join(doc.tokens).encode("utf-8")) for doc in collection)


@contextmanager
def paused_gc():
    """Collect, then keep the collector off for a timed one-shot operation.

    As ``timeit`` does: whether a collection of older objects falls
    inside one checkpoint or reopen depends on the heap's history, not
    on the operation.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def timed_save(engine, target: Path, speed) -> tuple[float, float]:
    """Save ``engine`` to ``target``; returns the time in seconds, raw and
    at the reference host speed."""
    with paused_gc():
        _, raw, scaled = speed.timed(lambda: engine.save(target))
    return raw, scaled


def timed_saves(engine, store: Path, speed) -> list[tuple[float, float]]:
    """Save ``engine`` :data:`SAVES_PER_SETUP` times, the last time to
    ``store``; returns each save's :func:`timed_save` times."""
    return [timed_save(engine, store if k == 1 else store.with_name(f"{store.name}-save{k}"), speed)
            for k in range(SAVES_PER_SETUP, 0, -1)]


def timed_reopen(open_store, rec, j: int, speed) -> tuple[float, float, object]:
    """Open a store, timed until its first search is answered; returns
    the time (ms) raw and at the reference host speed, and the engine."""

    def reopen():
        with span(rec, "op", rid=f"reopen-{j}"):
            engine = open_store()
            engine.search(FIRST_QUERY[0], scheme=FIRST_QUERY[1], top_k=10)
        return engine

    with paused_gc():
        engine, raw, scaled = speed.timed(reopen)
    return raw * 1000.0, scaled * 1000.0, engine


def latency_report(result: Result, prefix: str, values_ms: list[float]) -> dict:
    """Add the p50/tail provenance of a latency sample to the report."""
    s = stats.summarize(values_ms)
    result.report[f"{prefix}_samples"] = (s["n"], "count")
    result.report[f"{prefix}_tail_percentile"] = (s["tail_pct"], "pct")
    result.report[f"{prefix}_tail_samples_beyond"] = (s["tail_beyond"], "count")
    return s


def layer_metrics(spans: list[list], ops: dict, extra: dict, window=()) -> dict:
    """Per-layer metrics from a traced pass.

    ``ops`` maps the request id of every timed operation to its query
    name (None for ad-hoc text) and scheme.  Self times are per timed
    operation.  Per-call figures (build, checkpoint, load, analyze) use
    the calls inside timed operations and the other timed spans whose
    request ids ``window`` names, when there are any, else every call
    (set-up).  ``extra`` supplies figures measured without spans;
    layers a workload does not exercise report 0.
    """
    out = {name: 0.0 for name in LAYER_METRICS}
    selfs = self_times(spans)
    n_ops = max(1, len(ops))
    window_self = defaultdict(float)
    exec_by_key = defaultdict(float)
    for span, own in zip(spans, selfs):
        op = ops.get(span[RID])
        if op is None:
            continue
        window_self[span[NAME]] += own
        if span[NAME] == "exec.execute":
            exec_by_key[op["query"]] += own
            exec_by_key[op["scheme"]] += own
    out["mcalc.parse_ms"] = window_self["mcalc.parse"] / n_ops / 1e6
    out["graft.optimize_ms"] = window_self["graft.optimize"] / n_ops / 1e6
    out["exec.execute_ms"] = window_self["exec.execute"] / n_ops / 1e6
    out["api.search_self_ms"] = window_self["api.search"] / n_ops / 1e6
    key_counts = defaultdict(int)
    for op in ops.values():
        key_counts[op["query"]] += 1
        key_counts[op["scheme"]] += 1
    for key in list(PAPER_QUERIES) + list(SCHEMES):
        if key_counts[key]:
            out[f"exec.execute_ms.{key}"] = exec_by_key[key] / key_counts[key] / 1e6

    timed = set(ops) | set(window)

    def calls(*names):
        found = [s for s in spans if s[NAME] in names]
        return [s for s in found if s[RID] in timed] or found

    def mean_ms(name):
        found = calls(name)
        return sum(s[END] - s[START] for s in found) / len(found) / 1e6 if found else 0.0

    searches = [s[ATTRS] for s in spans if s[NAME] == "api.search" and s[RID] in ops]
    if searches:
        n = len(searches)
        for key in ("positions_scanned", "doc_entries_scanned",
                    "rows_joined", "rows_grouped"):
            out[f"exec.{key}"] = sum(a[key] for a in searches) / n
        out["graft.rules_fired"] = sum(a["rules"] for a in searches) / n
        rows = sum(a["rows_joined"] + a["rows_grouped"] for a in searches)
        out["exec.rows_per_result"] = rows / max(1, sum(a["results"] for a in searches))
    builds = calls("index.build")
    if builds:
        out["index.build_ms"] = mean_ms("index.build")
        seconds = sum(s[END] - s[START] for s in builds) / 1e9
        out["index.build_docs_per_s"] = sum(s[ATTRS]["docs"] for s in builds) / seconds
    out["index.store.wal_append_ms"] = mean_ms("index.store.wal_append")
    out["index.store.checkpoint_ms"] = mean_ms("index.store.checkpoint")
    opens = len(calls("api.open", "api.load"))
    if opens:
        loads = calls("index.store.load")
        out["index.store.load_ms"] = sum(s[END] - s[START] for s in loads) / opens / 1e6
    out["corpus.analyze_ms_per_doc"] = mean_ms("corpus.analyze")
    generated = [s for s in spans if s[NAME] == "corpus.generate"]
    if generated:
        out["corpus.generate_s"] = sum(s[END] - s[START] for s in generated) / len(generated) / 1e9
    out.update(extra)
    return out
