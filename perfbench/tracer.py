"""Spans recorded from outside the program, around its public functions.

The program is not instrumented.  :func:`install_layers` replaces the
public entry points of each layer (module attributes and methods) with
wrappers that record a span around the original call, and
:meth:`Recorder.uninstall` puts the originals back.  Spans live in memory
and are written out once, at the end of a run.

A span is ``[name, start_ns, end_ns, parent, request_id, attrs]``.  The
parent is the innermost span open on the same thread; a span opened with
no parent takes its request id from ``rid_source`` (the server child
reads the id the service assigned to the request it is serving).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, RID, ATTRS = range(6)


class Recorder:
    def __init__(self, rid_source=None):
        self.spans: list[list] = []
        self.enabled = True
        self.rid_source = rid_source
        #: Engines whose ``search`` was traced, for their cache counters.
        self.engines: dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        """Record one span around the ``with`` body; yields its attrs dict
        (None while recording is paused)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            if parent is not None:
                rid = self.spans[parent][RID]
            elif self.rid_source is not None:
                rid = self.rid_source()
        record = [name, time.perf_counter_ns(), 0, parent, rid, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield attrs
        finally:
            record[END] = time.perf_counter_ns()
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, parent=None,
            rid=None, **attrs) -> int:
        """Record a span measured elsewhere (e.g. across ``await``s)."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, parent, rid, attrs])
            return len(self.spans) - 1

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(attrs, args, kwargs, result)`` may add attributes
        to the span from the call's arguments and result.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_result is not None and attrs is not None:
                    on_result(attrs, args, kwargs, result)
                return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def span(recorder: Recorder | None, name: str, rid=None, **attrs):
    """``recorder.span(...)``, or a no-op when not tracing."""
    if recorder is None:
        return nullcontext()
    return recorder.span(name, rid=rid, **attrs)


@contextmanager
def paused(recorder: Recorder | None):
    """Record nothing inside the ``with`` body (the benchmark's own checks)."""
    if recorder is None:
        yield
        return
    was, recorder.enabled = recorder.enabled, False
    try:
        yield
    finally:
        recorder.enabled = was


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted((spans[c][START], spans[c][END])
                             for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _on_search(recorder: Recorder):
    def note(attrs, args, kwargs, outcome):
        engine = args[0]
        recorder.engines[id(engine)] = engine
        m = outcome.metrics
        attrs.update(
            results=len(outcome.results),
            positions_scanned=m.positions_scanned,
            doc_entries_scanned=m.doc_entries_scanned,
            rows_joined=m.rows_joined,
            rows_grouped=m.rows_grouped,
            rules=len(outcome.applied_optimizations),
            plan_cached=outcome.plan_cached,
        )
    return note


def _on_build(attrs, args, kwargs, result):
    attrs["docs"] = len(args[0])


def _on_checkpoint(attrs, args, kwargs, result):
    files = args[1] if len(args) > 1 else kwargs["files"]
    attrs["bytes"] = sum(len(data) for data in files.values())


def install_layers(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.api as api
    import repro.exec.parallel as parallel
    import repro.exec.procpool as procpool
    import repro.index.store as store
    from repro.corpus.collection import DocumentCollection
    from repro.graft.optimizer import Optimizer
    from repro.index.store import IndexStore

    engine = api.SearchEngine
    recorder.wrap(engine, "search", "api.search", _on_search(recorder))
    recorder.wrap(engine, "add", "api.add")
    recorder.wrap(engine, "checkpoint", "api.checkpoint")
    recorder.wrap(engine, "open", "api.open")
    recorder.wrap(engine, "load", "api.load")
    recorder.wrap(api, "parse_query", "mcalc.parse")
    recorder.wrap(Optimizer, "optimize", "graft.optimize")
    recorder.wrap(Optimizer, "canonical", "graft.optimize")
    recorder.wrap(api, "execute", "exec.execute")
    recorder.wrap(parallel, "execute_sharded", "exec.execute")
    recorder.wrap(procpool, "execute_sharded_process", "exec.execute")
    recorder.wrap(api, "build_index", "index.build", _on_build)
    recorder.wrap(store, "engine_payload", "index.store.serialize")
    recorder.wrap(IndexStore, "append_wal", "index.store.wal_append")
    recorder.wrap(IndexStore, "checkpoint", "index.store.checkpoint", _on_checkpoint)
    recorder.wrap(IndexStore, "read_all_verified", "index.store.load")
    recorder.wrap(IndexStore, "load_index", "index.store.load")
    recorder.wrap(DocumentCollection, "add_text", "corpus.analyze")


def cache_totals(recorder: Recorder) -> dict:
    """Plan-cache hits and misses summed over every traced engine."""
    hits = misses = 0
    for engine in recorder.engines.values():
        plan = engine.cache_stats()["plan"]
        hits += plan["hits"]
        misses += plan["misses"]
    return {"hits": hits, "misses": misses}
