"""``serve_adhoc``: seeded ad-hoc queries over HTTP, open loop.

``python -m repro serve`` runs in a child process with default flags over
a 600-document store.  One asyncio client with ``nproc`` (at most 8)
keep-alive connections sends ``GET /search`` (top-10, scheme rotating) on
a fixed schedule: first at a nominal rate, where latency is reported, then in
sweeps up a fixed ladder of rates, where the highest rate meeting the
latency limit (fixed in BENCHMARK.json) is found.  Each request is timed
from when it was due, so a stall also delays the requests queued behind
it.  Nearly every query text is new, so the plan cache does not help and
parse, optimize and the HTTP stack carry the cost.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from perfbench import check, gen, stats
from perfbench.common import (
    SETUP_REPEATS, Result, clock, latency_report, layer_metrics,
    REOPENS, timed_reopen, timed_save, tree_bytes, user_bytes, vm_hwm_mb,
)
from perfbench.hostspeed import BURST, HostSpeed
from perfbench.tracer import PARENT, load as load_spans, paused, span
from repro import SearchEngine

NUM_DOCS = 600
TOP_K = 10
#: Requests per second of the nominal phase, well below saturation.
#: Once or twice in its 990 requests the server stops for a full garbage
#: collection (60-110 ms on a 2-vCPU VM), and every request falling due
#: meanwhile or while the backlog drains waits.  At 100 req/s one long
#: pause delayed 20 requests, and at 60 req/s two pauses on a slow host
#: did, so the p98 (the 20th slowest) fell in the pauses in some runs
#: and in the body in others.  At 45 req/s two pauses delay about 15.
#: Every pause still counts in each request it delays.
NOMINAL_RATE = 45.0
#: Requests of the nominal phase.  The tail rule then reads p98 with 19
#: samples beyond it; 1000 would read p99 with only 10.
NOMINAL_REQUESTS = 990
#: Seconds of requests at the nominal rate, not measured, before it.
WARMUP_S = 1.0
#: The fixed ladder of offered rates (requests per second): geometric,
#: about 9% apart from 200 to 3200, far above what one server process
#: reaches, so a sweep ends by missing the limit, not by running out of
#: rungs.
LADDER = tuple(round(200.0 * 2.0 ** (k / 8), 1) for k in range(33))
#: Seconds each rung offers its rate.
RUNG_S = 0.6
#: A sweep stops after this many rungs in a row miss the limit.
FAILED_RUNGS_TO_STOP = 2
#: A sweep after the first starts this many rungs below the previous
#: sweep's highest passing rung, so the ladder's time goes to the rates
#: near the limit.
RESTART_BELOW = 3
#: Connections are ``nproc`` but at most the server's default admission
#: width (``serve --max-inflight``), so a many-core client is never shed.
MAX_CONNECTIONS = 8
#: In the nominal phase the client probes the host's speed at most this
#: often, and only when no request is in flight and the next one falls
#: due at least PROBE_GAP_S later, so a probe delays no request.
PROBE_EVERY_S = 0.05
PROBE_GAP_S = 0.005
#: Requests replayed in-process to split service time from engine time.
REPLAY = 200
READY = re.compile(r"on http://([0-9.]+):(\d+)")


def latency_limit_ms(root: Path) -> float:
    """The latency limit, as fixed in BENCHMARK.json's serve_adhoc entry."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve_adhoc")
    found = re.search(r"limit of (\d+(?:\.\d+)?) ms", why)
    if found is None:
        raise ValueError("BENCHMARK.json: serve_adhoc names no 'limit of N ms'")
    return float(found.group(1))


class ServerChild:
    """``python -m repro serve STORE`` in a child process, default flags.

    With ``spans_path`` the server runs under ``serve_child.py`` so its
    layers are traced.  :meth:`stop` sends SIGTERM and reaps the child.
    """

    def __init__(self, root: Path, store: Path, log: Path, spans_path: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", str(store), "--port", "0"]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "serve_child.py"),
                   str(spans_path), str(store), "--port", "0"]
        self.log = log
        with open(log, "wb") as out:
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                         cwd=root, env=env)
        try:
            self.host, self.port = self._wait_ready(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            found = READY.search(self.log.read_text(errors="replace"))
            if found:
                return found.group(1), int(found.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}: "
                                   f"{self.log.read_text(errors='replace')[-2000:]}")
            time.sleep(0.01)
        raise RuntimeError("server did not become ready in time")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


@dataclass
class Sample:
    phase: int
    due: float
    sent: float
    done: float
    late: float
    rid: str
    text: str
    scheme: str
    status: int | None
    payload: dict | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Connection:
    """One keep-alive HTTP/1.1 connection, reopened after an error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def get(self, path: str, rid: str) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        try:
            self.writer.write(f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                              f"X-Request-Id: {rid}\r\n\r\n".encode("ascii"))
            await self.writer.drain()
            status = int((await self.reader.readline()).split()[1])
            length = 0
            while (line := await self.reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length)
        except BaseException:
            await self.close()
            raise

    async def close(self) -> None:
        if self.writer is not None:
            writer, self.writer = self.writer, None
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _drive(host, port, nominal, ladder_s, nominal_queries, ladder_queries,
                 n_conns, limit_ms, pin, speed):
    """Run the nominal ``(rate, seconds)`` phase on ``nominal_queries``,
    then sweeps up the ladder on ``ladder_queries`` for about ``ladder_s``
    seconds (at least one; another starts while a short one still fits),
    each phase open loop.  The first sweep starts at the bottom rung,
    later ones :data:`RESTART_BELOW` rungs below the previous sweep's
    highest passing rung.  ``pin(True)`` puts the client and the server
    on one CPU for the nominal phase, ``pin(False)`` frees them after it.
    The host's speed is probed in the nominal phase's idle moments and
    between rungs.

    Returns every sample and, per sweep, its start and end and each
    rung's :func:`_rung` figures.
    """
    loop = asyncio.get_running_loop()
    conns = [Connection(host, port) for _ in range(n_conns)]
    samples: list[Sample] = []
    counter = itertools.count()
    state = {"inflight": 0, "next_due": math.inf, "probed": -math.inf}

    async def worker(conn, queue, phase):
        while (item := await queue.get()) is not None:
            due, late, (text, scheme) = item
            rid = f"pb{next(counter)}"
            path = f"/search?q={quote(text)}&scheme={scheme}&top_k={TOP_K}"
            sent = loop.time()
            status = payload = None
            state["inflight"] += 1
            try:
                status, body = await conn.get(path, rid)
                if status == 200:
                    payload = json.loads(body)
            except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
                pass  # recorded as a failed request (status None)
            finally:
                state["inflight"] -= 1
            done = loop.time()
            samples.append(Sample(phase, due, sent, done, late, rid,
                                  text, scheme, status, payload))
            if (phase == 0 and state["inflight"] == 0 and queue.empty()
                    and state["next_due"] - done > PROBE_GAP_S
                    and done - state["probed"] >= PROBE_EVERY_S):
                state["probed"] = done
                speed.probe()

    async def run_phase(phase, rate, seconds, queries) -> int:
        """Send one phase; returns the backlog when its last request fell due."""
        queue: asyncio.Queue = asyncio.Queue()
        workers = [asyncio.create_task(worker(c, queue, phase)) for c in conns]
        start = loop.time() + 0.01
        n = max(1, round(rate * seconds))
        for i in range(n):
            due = start + i / rate
            state["next_due"] = due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            state["next_due"] = start + (i + 1) / rate if i + 1 < n else math.inf
            queue.put_nowait((due, loop.time() - due, next(queries)))
        backlog = queue.qsize()
        for _ in conns:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
        return backlog

    sweeps: list[tuple[float, float, list]] = []
    try:
        pin(True)
        try:
            # Warm-up: the server's first requests after start-up are slow
            # for reasons of their own (lazy imports, cold caches).
            await run_phase(-1, nominal[0], WARMUP_S, ladder_queries)
            speed.probe(BURST)
            await run_phase(0, *nominal, nominal_queries)
            speed.probe(BURST)
        finally:
            pin(False)
        phase = 0
        deadline = loop.time() + ladder_s
        # A later sweep passes about RESTART_BELOW rungs, then fails some.
        short_sweep_s = (RESTART_BELOW + FAILED_RUNGS_TO_STOP + 1) * RUNG_S
        bottom = 0
        while not sweeps or loop.time() + short_sweep_s <= deadline:
            rungs: list[tuple[float, float, bool, float]] = []
            started = loop.time()
            for rate in LADDER[bottom:]:
                phase += 1
                backlog = await run_phase(phase, rate, RUNG_S, ladder_queries)
                speed.probe(BURST)
                rungs.append(_rung(rate, [s for s in samples if s.phase == phase],
                                   backlog, limit_ms))
                if len(rungs) >= FAILED_RUNGS_TO_STOP and not any(
                        rung[2] for rung in rungs[-FAILED_RUNGS_TO_STOP:]):
                    break
            sweeps.append((started, loop.time(), rungs))
            passed = [k for k, rung in enumerate(rungs) if rung[2]]
            if passed:
                bottom = max(0, bottom + passed[-1] - RESTART_BELOW)
    finally:
        for conn in conns:
            await conn.close()
    return samples, sweeps


def _process_tree(pid: int) -> list[int]:
    """``pid`` and every process descended from it."""
    parents = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            parents[int(stat.parent.name)] = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError):
            pass  # the process has ended
    tree = [pid]
    for p in tree:
        tree.extend(c for c, parent in parents.items() if parent == p)
    return tree


def set_affinity(pids, cpus) -> None:
    """Set the CPUs every thread of each process in ``pids`` may run on."""
    for pid in pids:
        for task in Path(f"/proc/{pid}/task").glob("[0-9]*"):
            try:
                os.sched_setaffinity(int(task.name), cpus)
            except OSError:
                pass  # the thread has ended


def _rung(rate, samples, backlog, limit_ms) -> tuple[float, float, bool, float]:
    """``(rate, tail_ms, passed, served_per_s)`` of one ladder rung.

    A rung passes when its tail (a failed request counting as missing
    the limit) is within the limit and the backlog left when its last
    request fell due could still be served within the limit.
    """
    lat = [s.latency_ms if _ok_status(s) else math.inf for s in samples]
    tail_ms = stats.tail(lat)[0]
    passed = tail_ms <= limit_ms and backlog <= rate * limit_ms / 1000.0
    span_s = max(s.done for s in samples) - min(s.due for s in samples)
    return rate, tail_ms, passed, sum(map(_ok_status, samples)) / span_s


def max_rate(rungs) -> float:
    """Highest sustainable rate on the ladder.

    Between the last passing rung and the next one, the rate is the one
    the server sustained on that next rung, where its queue grew: that
    is its capacity, clamped to the two rungs.  With no passing rung it
    is the lowest rung's served rate.
    """
    passed = [i for i, r in enumerate(rungs) if r[2]]
    if not passed:
        return min(rungs[0][0], rungs[0][3])
    i = passed[-1]
    if i == len(rungs) - 1:
        return rungs[i][0]
    return min(rungs[i + 1][0], max(rungs[i][0], rungs[i + 1][3]))


def _ok_status(s: Sample) -> bool:
    return s.status == 200 and s.payload is not None and not s.payload.get("degraded")


def _setup(ctx, rec, i: int, spans_path: Path | None, speed):
    """Generate, checkpoint to a store, start the server on it; the
    set-up time is kept raw and scaled."""

    def generate():
        with span(rec, "corpus.generate"):
            return gen.corpus(NUM_DOCS)

    def save():
        engine = SearchEngine(collection)
        engine.index
        engine.save(store)

    store = ctx.scratch.sub(f"serve-{ctx.tag}-{i}")
    collection, *generate_s = speed.timed(generate)
    _, *save_s = speed.timed(save)
    server, *start_s = speed.timed(lambda: ServerChild(
        ctx.root, store, ctx.scratch.sub(f"server-{ctx.tag}-{i}.log"), spans_path))
    steps = (generate_s, save_s, start_s)
    return server, store, collection, {
        "setup": [sum(t[k] for t in steps) for k in (0, 1)],
        "bytes": tree_bytes(store) / user_bytes(collection),
    }


def measure(ctx, seconds: float, rec=None) -> Result:
    result = Result()
    speed = HostSpeed()
    limit_ms = latency_limit_ms(ctx.root)
    n_conns = min(os.cpu_count() or 1, MAX_CONNECTIONS)
    # The nominal phase takes the run's time; the ladder then makes one
    # sweep, and more while they fit in the time left.
    nominal = (NOMINAL_RATE, min(NOMINAL_REQUESTS / NOMINAL_RATE, seconds))
    spans_path = ctx.scratch.sub("server-spans.jsonl") if rec is not None else None

    setups, server = [], None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, store, collection, figures = _setup(
                ctx, rec, i, spans_path if i == SETUP_REPEATS - 1 else None, speed)
            setups.append(figures)
        nominal_sample = gen.adhoc_sample(
            collection, ctx.seed, max(1, round(nominal[0] * nominal[1])))
        ladder_queries = gen.adhoc_queries(collection, ctx.seed)
        # In the nominal phase the client and every thread of the server
        # share one CPU.  At that load they seldom need two, and on a
        # shared VM each wakeup of an idle second vCPU waits on the host's
        # scheduler: pinned, five interleaved pairs on a 2-vCPU VM read
        # p50 4.1 against 4.9 ms and a tail spread of 0.24 against 0.60.
        # The ladder runs on every CPU, so parallel work in the server
        # still shows in its rate.
        cpus = os.sched_getaffinity(0)

        def pin(nominal_phase: bool) -> None:
            set_affinity([os.getpid(), *_process_tree(server.proc.pid)],
                         {min(cpus)} if nominal_phase else cpus)

        cpu0 = server.cpu_s()
        samples, sweeps = asyncio.run(_drive(
            server.host, server.port, nominal, seconds - nominal[1],
            iter(nominal_sample), ladder_queries, n_conns, limit_ms, pin, speed))
        cpu_s = server.cpu_s() - cpu0
        rss_mb = server.peak_rss_mb()
    finally:
        rc = server.stop() if server is not None else 0
    if rc != 0:
        result.correct = False
        result.report["server_exit"] = (rc, "code")

    # The reopens and saves are spread through the output check, so that
    # they fall at different moments of the run; each reopened engine is
    # saved, then is the reference for the next share of the responses.
    result.attempted = len(samples)
    references: dict[tuple[str, str], list] = {}
    reopens, saves = [], []
    share = -(-len(samples) // REOPENS)
    for j in range(REOPENS):
        *ms, reference = timed_reopen(lambda: SearchEngine.load(store), rec, j, speed)
        reopens.append(ms)
        saves.append(timed_save(reference, ctx.scratch.sub(f"serve-{ctx.tag}-save{j}"), speed))
        with paused(rec):
            result.failed += _check(reference, samples[j * share:(j + 1) * share],
                                    references, result)
    nominal = [s for s in samples if s.phase == 0]
    summary = latency_report(result, "nominal", [
        s.latency_ms / speed.slowdown(s.due, s.done) for s in nominal])
    raw = stats.summarize([s.latency_ms for s in nominal])
    result.primary_p50 = summary["p50"]
    # The best sweep's rate: a stall on a shared machine can only lower
    # a sweep's rate, never raise it.
    rates = [(max_rate(rungs), speed.slowdown(start, end)) for start, end, rungs in sweeps]
    rate = max(r * slow for r, slow in rates)
    result.e2e = {
        "setup_s": stats.median(s["setup"][1] for s in setups),
        "latency_p50_ms": summary["p50"],
        "latency_tail_ms": summary["tail"],
        "throughput_per_s": rate,
        "peak_rss_mb": rss_mb,
        "checkpoint_p50_ms": stats.median(t[1] for t in saves) * 1000.0,
        "reopen_ms": sum(r[1] for r in reopens) / len(reopens),
        "store_bytes_per_user_byte": stats.median(s["bytes"] for s in setups),
    }
    result.raw = {
        "setup_s": stats.median(s["setup"][0] for s in setups),
        "latency_p50_ms": raw["p50"],
        "latency_tail_ms": raw["tail"],
        "throughput_per_s": max(r for r, _ in rates),
        "checkpoint_p50_ms": stats.median(t[0] for t in saves) * 1000.0,
        "reopen_ms": sum(r[0] for r in reopens) / len(reopens),
    }
    result.report["host_slowdown"] = (speed.overall(), "x")
    result.report["host_probes"] = (len(speed.costs), "count")
    result.report["max_rate_qps"] = (rate, "1/s")
    result.report["latency_limit_ms"] = (limit_ms, "ms")
    result.report["nominal_rate"] = (NOMINAL_RATE, "1/s")
    result.report["connections"] = (n_conns, "count")
    result.report["sweeps"] = (len(sweeps), "count")
    # A sweep passing the top rung reports the ladder's ceiling, not a
    # measured capacity.
    result.report["sweeps_passing_top_rung"] = (
        sum(r[-1][0] == LADDER[-1] and r[-1][2] for _, _, r in sweeps), "count")
    for k, (_, _, rungs) in enumerate(sweeps):
        result.report[f"sweep{k}_max_rate_qps"] = (max_rate(rungs), "1/s")
        for r, tail_ms, ok, served in rungs:
            result.report[f"sweep{k}_rung_{r:g}_tail_ms"] = (
                tail_ms, "ms " + ("pass" if ok else "fail"))
    texts = [s.text for s in samples]
    result.report["distinct_query_share"] = (len(set(texts)) / max(1, len(texts)), "frac")
    answered = [s for s in samples if s.payload is not None]
    result.report["nonempty_result_share"] = (
        sum(bool(s.payload["results"]) for s in answered) / max(1, len(answered)), "frac")
    if rec is not None:
        with paused(rec):
            result.layers = _layers(rec, spans_path, samples, cpu_s, store)
    return result


def _check(reference: SearchEngine, samples: list[Sample], references: dict,
           result: Result) -> int:
    """Check every response against the canonical plan (cached per query
    in ``references``); returns failures."""
    failed = 0
    for s in samples:
        if not _ok_status(s):
            problem = f"status {s.status}" + (" (degraded)" if s.payload else "")
        else:
            key = (s.text, s.scheme)
            if key not in references:
                references[key] = check.canonical_ranking(reference, s.text, s.scheme)
            got = [(r["doc_id"], r["score"]) for r in s.payload["results"]]
            problem = check.check_topk(got, references[key], TOP_K)
        if problem is not None:
            failed += 1
            result.report.setdefault("first_failure", (f"{s.text!r}/{s.scheme}: {problem}", ""))
    return failed


def _layers(rec, spans_path: Path, samples, cpu_s: float, store: Path) -> dict:
    """Per-layer metrics: server-side spans joined to client samples.

    The client's spans (due to response, and the HTTP round trip within
    it) and the server child's spans share each request's id; both go
    into ``rec`` so they are written out together.
    """
    for s in samples:
        root = rec.add("loadgen.request", int(s.due * 1e9), int(s.done * 1e9), rid=s.rid)
        rec.add("serve.http", int(s.sent * 1e9), int(s.done * 1e9), parent=root, rid=s.rid)
    child = load_spans(spans_path)
    offset = len(rec.spans)
    for s in child:
        if s[PARENT] is not None:
            s[PARENT] += offset
    rec.spans.extend(child)
    cache = json.loads(Path(str(spans_path) + ".cache.json").read_text())
    answered = [s for s in samples if s.payload is not None]
    ops = {s.rid: {"query": None, "scheme": s.scheme} for s in answered}
    n = max(1, len(samples))
    extra = {
        "exec.plan_cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.http_ms": sum((s.done - s.sent) * 1000.0 - s.payload["wall_ms"]
                             for s in answered) / max(1, len(answered)),
        "serve.queue_wait_ms":
            sum(s.payload["queued_ms"] for s in answered) / max(1, len(answered)),
        "serve.cpu_ms_per_req": cpu_s * 1000.0 / n,
        "serve.shed_frac": sum(s.status in (429, 503) for s in samples) / n,
        "loadgen.late_ms": sum(s.late for s in samples) * 1000.0 / n,
        "serve.service_self_ms":
            _service_self_ms(store, [(s.text, s.scheme) for s in samples[:REPLAY]]),
    }
    reopens = [s[4] for s in rec.spans if str(s[4]).startswith("reopen-")]
    return layer_metrics(rec.spans, ops, extra, window=reopens)


def _service_self_ms(store: Path, stream) -> float:
    """Mean in-process ``QueryService.search`` time minus mean
    ``SearchEngine.search`` time over the same requests."""
    from repro.serve import QueryService

    async def through_service():
        service = QueryService(store)
        await service.start()
        try:
            t0 = clock()
            for text, scheme in stream:
                await service.search(text, scheme=scheme, top_k=TOP_K)
            return clock() - t0
        finally:
            await service.stop()

    service_s = asyncio.run(through_service())
    engine = SearchEngine.load(store)
    t0 = clock()
    for text, scheme in stream:
        engine.search(text, scheme=scheme, top_k=TOP_K)
    engine_s = clock() - t0
    return (service_s - engine_s) * 1000.0 / max(1, len(stream))
