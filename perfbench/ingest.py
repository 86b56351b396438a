"""``ingest_rw``: documents added beside searches on a durable store.

A closed loop with one client opens a ~1000-document store with
``SearchEngine.open``, then repeats: add one seeded document, search one
paper query.  Every ``CHECKPOINT_EVERY`` adds it checkpoints, and
``WAL_TAIL`` adds after each checkpoint but the first it closes the
store and reopens it (``REOPENS_PER_RESTART`` times), replaying those
adds from the WAL, as a writer that restarts does.  Once the time is spent the loop ends on such a
reopen, and every acknowledged add is checked present and searchable.
"""

from __future__ import annotations

import gc
from perfbench import check, gen, stats
from perfbench.common import (
    FIRST_QUERY, SETUP_REPEATS, Result, clock, latency_report, layer_metrics,
    PeakRss, paused_gc, timed_reopen, tree_bytes, user_bytes,
)
from perfbench.hostspeed import BURST, HostSpeed
from perfbench.tracer import paused, span
from repro import SearchEngine
from repro.obs.metrics import store_fsyncs

BASE_DOCS = 1000
TOP_K = 10
#: Adds between checkpoints.  Chosen so that a 22-second run (about 48
#: adds on a 2-vCPU VM) times about nine checkpoints and restarts; no
#: deployment or default sets a cadence (``serve --checkpoint-every`` is
#: off by default), so how often real writers checkpoint is an
#: unverified assumption.
CHECKPOINT_EVERY = 5
#: Adds after a checkpoint at which the store is closed and reopened;
#: every reopen, the last one too, replays this many WAL records.
WAL_TAIL = 2
#: Reopens at each restart, each replaying the same WAL records, so that
#: ``reopen_ms`` is a mean over about eighteen of them.
REOPENS_PER_RESTART = 2
#: More documents than a run can add; the loop stops early if it runs out.
MAX_ADDS = 400


def _fsyncs() -> float:
    return sum(child.value for _, child in store_fsyncs().samples())


def _setup(ctx, rec, i: int, speed) -> tuple[SearchEngine, dict]:
    """Generate the base corpus, checkpoint it to a store, open for
    writing; the set-up time is kept raw and scaled."""

    def generate():
        with span(rec, "corpus.generate"):
            return gen.corpus(BASE_DOCS)

    def save():
        engine = SearchEngine(collection)
        engine.index
        engine.save(store)

    def open_store():
        writer = SearchEngine.open(store)
        writer.search(FIRST_QUERY[0], scheme=FIRST_QUERY[1], top_k=TOP_K)
        return writer

    store = ctx.scratch.sub(f"ingest-{ctx.tag}-{i}")
    collection, *generate_s = speed.timed(generate)
    _, *save_s = speed.timed(save)
    writer, *open_s = speed.timed(open_store)
    steps = (generate_s, save_s, open_s)
    return writer, {"setup": [sum(t[k] for t in steps) for k in (0, 1)], "store": store,
                    "user_bytes": user_bytes(collection)}


def measure(ctx, seconds: float, rec=None) -> Result:
    result = Result()
    speed = HostSpeed()
    texts = gen.ingest_texts(ctx.seed, MAX_ADDS)
    setups = []
    writer = None
    for i in range(SETUP_REPEATS):
        if writer is not None:
            writer.close()
        writer, figures = _setup(ctx, rec, i, speed)
        setups.append(figures)
    store = setups[-1]["store"]
    base_user_bytes = setups[-1]["user_bytes"]

    # Each operation's time, raw and scaled; every one has a burst of
    # host-speed probes on each side.
    latencies, checkpoints, reopens, acked, ops = [], [], [], [], {}
    scaled_timed = 0.0
    stream = gen.paper_requests(ctx.seed)
    add_fsyncs = reopen_fsyncs = 0.0
    user = base_user_bytes
    timed = 0.0
    gc.collect()  # set-up garbage is not the timed loop's to collect
    fsyncs_before = _fsyncs()
    checkpoint_user_bytes = []
    # Peak memory of the adds, searches and checkpoints, not of the checks.
    rss = PeakRss()
    nonempty = 0
    i = 0
    stop_at = len(texts)
    speed.probe(BURST)
    while i < stop_at:
        name, text, scheme = next(stream)
        ops[i] = {"query": name, "scheme": scheme}
        result.attempted += 1
        before = _fsyncs()
        t0 = clock()
        try:
            with rss.window(), span(rec, "op", rid=i):
                doc_id = writer.add(texts[i])
                after = _fsyncs()
                acked.append((doc_id, gen.marker(ctx.seed, i), texts[i]))
                outcome = writer.search(text, scheme=scheme, top_k=TOP_K)
        except Exception as exc:  # a failed operation is counted, not fatal
            t1 = clock()
            speed.probe(BURST)
            timed += t1 - t0
            scaled_timed += speed.scaled(t1 - t0, t0, t1)
            result.failed += 1
            result.report.setdefault("first_failure", (repr(exc), ""))
            i += 1
            continue
        t1 = clock()
        speed.probe(BURST)
        timed += t1 - t0
        latencies.append(((t1 - t0) * 1000.0, speed.scaled(t1 - t0, t0, t1) * 1000.0))
        scaled_timed += latencies[-1][1] / 1000.0
        add_fsyncs += after - before
        user += len(texts[i].encode("utf-8"))
        got = [(r.doc_id, r.score) for r in outcome.results]
        nonempty += bool(got)
        with paused(rec):
            problem = check.check_topk(
                got, check.canonical_ranking(writer, text, scheme), TOP_K)
        if problem is not None:
            result.failed += 1
            result.report.setdefault("first_failure", (f"{name}/{scheme}: {problem}", ""))
        i += 1
        if i % CHECKPOINT_EVERY == 0 and i < stop_at:
            with paused_gc():
                t0 = clock()
                with rss.window(), span(rec, "op", rid=f"checkpoint-{i}"):
                    writer.checkpoint()
                t1 = clock()
            speed.probe(BURST)
            timed += t1 - t0
            checkpoints.append(((t1 - t0) * 1000.0, speed.scaled(t1 - t0, t0, t1) * 1000.0))
            scaled_timed += checkpoints[-1][1] / 1000.0
            checkpoint_user_bytes.append(user)
            if timed >= seconds:
                # End on the reopen WAL_TAIL adds after this checkpoint.
                stop_at = min(stop_at, i + WAL_TAIL)
        elif i % CHECKPOINT_EVERY == WAL_TAIL and i > CHECKPOINT_EVERY:
            # A restart: each reopen replays the WAL_TAIL adds since the
            # checkpoint and rebuilds the index.
            for _ in range(REOPENS_PER_RESTART):
                writer.close()
                before = _fsyncs()
                *ms, writer = timed_reopen(lambda: SearchEngine.open(store), rec,
                                           len(reopens), speed)
                reopen_fsyncs += _fsyncs() - before
                reopens.append(ms)
    fsyncs = _fsyncs() - fsyncs_before - reopen_fsyncs
    if not reopens or i % CHECKPOINT_EVERY != WAL_TAIL:
        # The texts ran out before the time did: reopen for the check.
        writer.close()
        *ms, writer = timed_reopen(lambda: SearchEngine.open(store), rec, len(reopens), speed)
        reopens = reopens or [ms]
    with paused(rec):
        lost = _durability_problem(writer, acked, BASE_DOCS)
    writer.close()
    if lost is not None:
        result.correct = False
        result.report["durability"] = (lost, "")

    adds = len(acked)
    summary = latency_report(result, "add_then_search", [lat[1] for lat in latencies])
    raw = stats.summarize([lat[0] for lat in latencies])
    result.primary_p50 = summary["p50"]
    result.e2e = {
        "setup_s": stats.median(s["setup"][1] for s in setups),
        "latency_p50_ms": summary["p50"],
        "latency_tail_ms": summary["tail"],
        "throughput_per_s": adds / scaled_timed,
        "peak_rss_mb": rss.mb,
        "checkpoint_p50_ms": stats.median(c[1] for c in checkpoints),
        "reopen_ms": sum(r[1] for r in reopens) / len(reopens),
        "store_bytes_per_user_byte": tree_bytes(store) / user,
    }
    result.raw = {
        "setup_s": stats.median(s["setup"][0] for s in setups),
        "latency_p50_ms": raw["p50"],
        "latency_tail_ms": raw["tail"],
        "throughput_per_s": adds / timed,
        "checkpoint_p50_ms": stats.median(c[0] for c in checkpoints),
        "reopen_ms": sum(r[0] for r in reopens) / len(reopens),
    }
    result.report["host_slowdown"] = (speed.overall(), "x")
    result.report["host_probes"] = (len(speed.costs), "count")
    result.report["add_then_search_p50_ms"] = (summary["p50"], "ms")
    result.report["add_then_search_tail_ms"] = (summary["tail"], "ms")
    result.report["ingest_docs_per_s"] = (result.e2e["throughput_per_s"], "1/s")
    result.report["checkpoints"] = (len(checkpoints), "count")
    result.report["reopens"] = (len(reopens), "count")
    result.report["wal_fsyncs_per_add"] = (add_fsyncs / max(1, adds), "count")
    result.report["durable_adds_checked"] = (adds, "count")
    result.report["nonempty_result_share"] = (nonempty / max(1, len(latencies)), "frac")
    if rec is not None:
        written = [s[5]["bytes"] for s in rec.spans
                   if s[0] == "index.store.checkpoint" and str(s[4]).startswith("checkpoint-")]
        extra = {
            "index.store.fsyncs_per_doc": fsyncs / max(1, adds),
            "index.store.bytes_written_per_user_byte":
                sum(written) / max(1, sum(checkpoint_user_bytes[:len(written)])),
        }
        others = [s[4] for s in rec.spans if s[0] == "op" and s[4] not in ops]
        result.layers = layer_metrics(rec.spans, ops, extra, window=others)
    return result


def _durability_problem(reader: SearchEngine, acked, base_docs: int) -> str | None:
    """Why an acknowledged add is missing or unsearchable after reopen."""
    expected = base_docs + len(acked)
    if len(reader.collection) != expected:
        return f"reopened store holds {len(reader.collection)} docs, expected {expected}"
    for doc_id, marker, text in acked:
        if reader.collection[doc_id].tokens != tuple(text.split()):
            return f"doc {doc_id} came back with other tokens"
        hits = [r.doc_id for r in reader.search(marker, top_k=TOP_K)]
        if hits != [doc_id]:
            return f"marker of doc {doc_id} finds {hits}"
    return None
