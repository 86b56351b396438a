"""``paper_inproc``: the paper's 8 queries x 7 schemes, in-process.

A closed loop with one client calls ``SearchEngine.search`` (top-10) on a
4000-document synthetic corpus persisted to a store and loaded back.  The
56 (query, scheme) keys fit in the plan cache, so execution dominates.
"""

from __future__ import annotations

import gc
from itertools import islice

from perfbench import check, gen, stats
from perfbench.common import (
    FIRST_QUERY, SETUP_REPEATS, Result, clock, latency_report, layer_metrics,
    PeakRss, REOPENS, timed_reopen, timed_saves, tree_bytes, user_bytes,
)
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import paused, span
from repro import SearchEngine

NUM_DOCS = 4000
TOP_K = 10


#: Seconds of searching between two probes of the host's speed.
PROBE_EVERY_S = 0.05


def _setup(ctx, rec, i: int, speed):
    """Generate, index, checkpoint to a store and load it back; returns
    the store and the set-up figures (raw and scaled seconds)."""

    def generate():
        with span(rec, "corpus.generate"):
            return gen.corpus(NUM_DOCS)

    def index():
        engine = SearchEngine(collection)
        engine.index
        return engine

    def load():
        SearchEngine.load(store).search(FIRST_QUERY[0], scheme=FIRST_QUERY[1], top_k=TOP_K)

    collection, *generate_s = speed.timed(generate)
    engine, *index_s = speed.timed(index)
    store = ctx.scratch.sub(f"paper-{ctx.tag}-{i}")
    saves = timed_saves(engine, store, speed)
    _, *load_s = speed.timed(load)
    steps = [generate_s, index_s, *saves, load_s]
    return store, {"setup": [sum(t[k] for t in steps) for k in (0, 1)], "checkpoint": saves,
                   "bytes": tree_bytes(store) / user_bytes(collection)}


def measure(ctx, seconds: float, rec=None) -> Result:
    result = Result()
    speed = HostSpeed()
    setups = []
    for i in range(SETUP_REPEATS):
        store, figures = _setup(ctx, rec, i, speed)
        setups.append(figures)

    def reopen(j):
        return timed_reopen(lambda: SearchEngine.load(store), rec, j, speed)

    *ms, engine = reopen(0)
    reopens = [ms]
    # Fill the plan cache with all 56 keys before timing.
    keys = list(islice(gen.paper_requests(ctx.seed), 56))
    for _, text, scheme in keys:
        engine.search(text, scheme=scheme, top_k=TOP_K)

    before = engine.cache_stats()["plan"]
    searches, chunks, outputs, ops = [], [], [], {}
    stream = gen.paper_requests(ctx.seed)
    rss = PeakRss()
    # The other reopens fall between equal slices of the timed loop, so
    # they sample different moments of the run.
    for j in range(REOPENS):
        if j:
            reopens.append(reopen(j)[:2])
        gc.collect()  # set-up garbage is not the timed loop's to collect
        with rss.window():
            chunks += _timed_slice(engine, stream, seconds / REOPENS, rec, ops,
                                   searches, outputs, speed)
    after = engine.cache_stats()["plan"]

    result.attempted = len(outputs)
    with paused(rec):
        result.failed = _check_outputs(engine, outputs, result)
    latencies = [lat * 1000.0 / speed.slowdown(t0, t0 + lat) for t0, lat in searches]
    summary = latency_report(result, "search", latencies)
    raw = stats.summarize([lat * 1000.0 for _, lat in searches])
    result.primary_p50 = summary["p50"]
    elapsed = sum(speed.scaled(end - start, start, end) for start, end in chunks)
    result.e2e = {
        "setup_s": stats.median(s["setup"][1] for s in setups),
        "latency_p50_ms": summary["p50"],
        "latency_tail_ms": summary["tail"],
        "throughput_per_s": len(latencies) / elapsed,
        "peak_rss_mb": rss.mb,
        "checkpoint_p50_ms": stats.median(t[1] for s in setups for t in s["checkpoint"]) * 1000.0,
        "reopen_ms": sum(r[1] for r in reopens) / len(reopens),
        "store_bytes_per_user_byte": stats.median(s["bytes"] for s in setups),
    }
    result.raw = {
        "setup_s": stats.median(s["setup"][0] for s in setups),
        "latency_p50_ms": raw["p50"],
        "latency_tail_ms": raw["tail"],
        "throughput_per_s": len(latencies) / sum(end - start for start, end in chunks),
        "checkpoint_p50_ms": stats.median(t[0] for s in setups for t in s["checkpoint"]) * 1000.0,
        "reopen_ms": sum(r[0] for r in reopens) / len(reopens),
    }
    result.report["host_slowdown"] = (speed.overall(), "x")
    result.report["host_probes"] = (len(speed.costs), "count")
    result.report["throughput_qps"] = (result.e2e["throughput_per_s"], "1/s")
    if rec is not None:
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        hit_ratio = (after["hits"] - before["hits"]) / max(1, lookups)
        result.layers = layer_metrics(rec.spans, ops, {"exec.plan_cache_hit_ratio": hit_ratio},
                                      window=[f"reopen-{j}" for j in range(len(reopens))])
    return result


def _timed_slice(engine, stream, seconds, rec, ops, searches, outputs, speed) -> list:
    """Search for ``seconds`` from ``stream``, probing the host's speed
    every :data:`PROBE_EVERY_S`; records each request's key, start,
    latency (seconds) and output, and returns the ``(start, end)`` of
    each stretch of searching between probes."""
    chunks = []
    started = chunk_start = clock()
    deadline = started + seconds
    while (now := clock()) < deadline:
        if now - chunk_start >= PROBE_EVERY_S:
            chunks.append((chunk_start, now))
            speed.probe()
            chunk_start = clock()
        i = len(outputs)
        name, text, scheme = next(stream)
        ops[i] = {"query": name, "scheme": scheme}
        t0 = clock()
        try:
            with span(rec, "op", rid=i):
                outcome = engine.search(text, scheme=scheme, top_k=TOP_K)
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append((name, text, scheme, None, repr(exc)))
        else:
            searches.append((t0, clock() - t0))
            outputs.append((name, text, scheme,
                            tuple((r.doc_id, r.score) for r in outcome.results), None))
    chunks.append((chunk_start, clock()))
    speed.probe()
    return chunks


def _check_outputs(engine, outputs, result: Result) -> int:
    """Check every output against the canonical plan; returns failures."""
    references: dict[tuple[str, str], list] = {}
    verdicts: dict[tuple, str | None] = {}
    failed = 0
    for name, text, scheme, got, error in outputs:
        if error is not None:
            failed += 1
            result.report.setdefault("first_failure", (f"{name}/{scheme}: {error}", ""))
            continue
        key = (text, scheme, got)
        if key not in verdicts:
            if (text, scheme) not in references:
                references[(text, scheme)] = check.canonical_ranking(engine, text, scheme)
            verdicts[key] = check.check_topk(list(got), references[(text, scheme)], TOP_K)
        if verdicts[key] is not None:
            failed += 1
            result.report.setdefault("first_failure", (f"{name}/{scheme}: {verdicts[key]}", ""))
    result.report["keys_checked"] = (len(references), "count")
    return failed
