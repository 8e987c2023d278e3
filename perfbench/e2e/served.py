"""``served_mix``: reads beside writes through the query server.

The first ``cold_query`` corpus plus one live S1 stream run is served by a
``python -m repro serve --port 0`` subprocess in its default config.  Set-up
sends one warm-up query per stored run.  Two paced HTTP clients then
issue a seeded mix drawn Zipf (s=1) over about 390 (kind, run, pattern)
keys -- backtraces, forward traces and small SAR pages -- which is about
3x the server's 128-entry pattern cache, so the hot head hits and the
tail misses.  At seeded positions of its op list, client 0 has a writer
process ingest one S1 micro-batch through ``StreamSession.ingest`` and
then queries the live run.  The server, the clients and a host-speed probe
share the run's core; the writer uses the spare one.  The workload
exercises ``serve`` (HTTP, pool, cache, epoch invalidation) and ``stream``
(ingest, live-epoch merge).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro import PebbleSession, StreamSession, Warehouse, query_provenance
from repro.engine.scheduler import RetryPolicy
from repro.errors import AdmissionError, TaskTimeoutError
from repro.serve.service import result_to_json
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.twitter import TwitterConfig, generate_tweets

from .cold import KEYS, RUNS, SUBJECT, Stored, record_stored_runs, references
from .common import (
    SETUP_PROBES,
    Context,
    Outcome,
    Spans,
    canonical,
    corrupt,
    mean,
    median,
    percentile,
)

#: Forward subjects per stored run; SAR pages cover the same subjects.
FORWARD_SUBJECTS = 6
SAR_PAGE_SIZE = 2
#: Micro-batches of the S1 stream: one at set-up, INGESTS during the window.
STREAM_BATCHES = 8
INGESTS = 5
#: Client 0's ingest positions are drawn from the first INGEST_SPAN of the
#: ops it is scheduled to send in the window.
INGEST_SPAN = 0.8
CLIENTS = 2
#: Offered load per client (requests/s).  At about 5 ms mean latency the
#: core is idle most of the time, so latency reads service time.
RATE_PER_CLIENT = 30.0
ZIPF_S = 1.0
#: Keys asked once before the window: the server's pattern-cache size.
WARM_KEYS = 128
#: Every error is an answer; the clients never retry, so 429/504 count.
NO_RETRY = RetryPolicy(max_retries=0)
SERVER_START_TIMEOUT = 60.0
WRITER_TIMEOUT = 120.0


@dataclass
class State:
    stored: Stored
    keys: dict[str, list[str]]
    root: Path
    stream: StreamWriter
    batches: list[list[dict[str, Any]]]
    live_keys: list[str]
    server: subprocess.Popen
    url: str
    setup_s: float
    log: Any


def _stream_batches(ctx: Context) -> list[list[dict[str, Any]]]:
    """The S1 feed in event-time order, split into micro-batches."""
    tweets = generate_tweets(
        TwitterConfig(scale=ctx.scale, seed=ctx.derive_seed("s1-stream"))
    )
    tweets.sort(key=lambda tweet: tweet["created_at"])
    size = -(-len(tweets) // STREAM_BATCHES)
    return [tweets[low:low + size] for low in range(0, len(tweets), size)]


def _open_stream(warehouse: Any) -> StreamSession:
    session = StreamSession(warehouse=warehouse, name="S1")
    source = session.source("tweets.json")
    session.open(SCENARIOS["S1"].build(session.session, session.dataset(source)))
    return session


def _writer_main(conn: Any, root: str, batches: list, cpu: int) -> None:
    """The stream writer process: owns the live run's StreamSession.

    Ingest runs outside the benchmark process and on the spare core, so the
    HTTP clients' timings never include waiting on the interpreter lock or
    the core behind a micro-batch.
    """
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    session = _open_stream(Warehouse.open(root))
    try:
        while True:
            command, arg = conn.recv()
            started = time.perf_counter()
            try:
                if command == "ingest":
                    entry = session.ingest(batches[arg])
                    conn.send((time.perf_counter() - started, entry["total_bytes"],
                               session.run_id))
                elif command == "finish":
                    session.finish(compact=True)
                    conn.send((time.perf_counter() - started, 0, session.run_id))
                else:
                    return
            except Exception as error:  # noqa: BLE001 -- reported to the parent
                conn.send(RuntimeError(f"stream writer: {error!r}"))
    finally:
        conn.close()


class StreamWriter:
    """Parent-side handle of the stream writer process."""

    def __init__(self, root: Path, batches: list, cpu: int):
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_writer_main, args=(child, str(root), batches, cpu), daemon=True
        )
        self._process.start()
        child.close()
        self.run_id = ""

    def _call(self, command: str, arg: Any = None) -> tuple[float, int]:
        self._conn.send((command, arg))
        if not self._conn.poll(WRITER_TIMEOUT):
            raise RuntimeError(f"stream writer did not answer {command!r}")
        reply = self._conn.recv()
        if isinstance(reply, BaseException):
            raise reply
        seconds, size, self.run_id = reply
        return seconds, size

    def ingest(self, batch: int) -> tuple[float, int]:
        """Ingest micro-batch *batch*; returns (seconds, bytes appended)."""
        return self._call("ingest", batch)

    def finish(self) -> float:
        """Seal the live run with ``finish(compact=True)``; returns seconds."""
        return self._call("finish")[0]

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send(("close", None))
            except OSError:
                pass
            self._process.join(timeout=WRITER_TIMEOUT)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()


def _live_keys(batches: list[list[dict[str, Any]]]) -> list[str]:
    """S1 group keys, read from the one-shot result over the whole feed."""
    rows = [tweet for batch in batches for tweet in batch]
    items = SCENARIOS["S1"].build(PebbleSession(), rows).execute().items()
    return sorted({item["id_str"] for item in items})


def _start_server(ctx: Context, root: Path, log: Any) -> tuple[subprocess.Popen, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ctx.checkout / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root), "--port", "0"],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ctx.checkout,
    )
    deadline = time.monotonic() + SERVER_START_TIMEOUT
    log_path = Path(log.name)
    while time.monotonic() < deadline:
        match = re.search(r" at (http://\S+)", log_path.read_text(encoding="utf-8"))
        if match:
            return server, match.group(1)
        if server.poll() is not None:
            break
        time.sleep(0.02)
    _stop(server)
    raise RuntimeError(f"server did not start: {log_path.read_text(encoding='utf-8')[-2000:]}")


def _stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def _live_pattern(key: str) -> str:
    return 'root{/id_str="%s", /texts}' % key


def setup(ctx: Context, slot: int) -> State:
    root = ctx.fresh_dir(f"served-{slot}")
    ctx.host.probe(SETUP_PROBES)
    started = time.perf_counter()
    stored = record_stored_runs(ctx, root)
    batches = _stream_batches(ctx)
    stream = StreamWriter(root, batches, ctx.spare_cpu)
    try:
        stream.ingest(0)
    except BaseException:
        stream.close()
        raise
    raw = time.perf_counter() - started
    ctx.host.probe(SETUP_PROBES)
    setup_s = ctx.host.normalise(raw, started)
    # Benchmark-side: read the keys off the results (not part of set-up).
    keys = references(ctx, stored).keys()
    live_keys = _live_keys(batches)
    log = open(root.parent / f"server-{slot}.log", "w", encoding="utf-8")
    ctx.host.probe(SETUP_PROBES)
    started = time.perf_counter()
    # The server inherits the run's core, which the probe process measures.
    server, url = _start_server(ctx, root, log)
    state = State(stored, keys, root, stream, batches, live_keys, server, url, 0.0, log)
    try:
        client = repro.connect(url, policy=NO_RETRY)
        for run in RUNS:
            client.backtrace(KEYS[run][1][0] % keys[run][0], run=stored.run_ids[run])
        client.backtrace(_live_pattern(live_keys[0]), run=stream.run_id)
    except BaseException:
        teardown(state)
        raise
    raw = time.perf_counter() - started
    ctx.host.probe(SETUP_PROBES)
    state.setup_s = setup_s + ctx.host.normalise(raw, started)
    return state


def teardown(state: State) -> None:
    try:
        _stop(state.server)
    finally:
        state.stream.close()
        state.log.close()


# -- the traffic ---------------------------------------------------------------------


def proportional_order(
    classes: dict[Any, float], count: int, tie_seed: int
) -> list[Any]:
    """*count* class picks whose every prefix follows the class weights.

    A stratified draw: after n picks each class has been chosen within one
    of ``n * weight / total`` times, so a short measured window sees the
    same mix on every seed.  Ties break by a seeded priority.
    """
    rng = random.Random(tie_seed)
    total = sum(classes.values())
    priority = {key: rng.random() for key in classes}
    taken = {key: 0 for key in classes}
    order = []
    for n in range(1, count + 1):
        key = max(
            classes,
            key=lambda k: (n * classes[k] / total - taken[k], priority[k]),
        )
        taken[key] += 1
        order.append(key)
    return order


def _spread_by_size(pool: list[Any], size: Any, offset: float) -> list[Any]:
    """*pool* in an order whose every prefix spans the answer sizes evenly.

    Rank *r* takes the key at quantile ``frac(offset + r * golden)`` of the
    size-sorted pool, so the few hot keys at the head of a Zipf draw are
    neither all small nor all large answers.  With a random order the head's
    answer sizes -- and so the hit latency -- swung 15% from seed to seed.
    """
    ordered = sorted(pool, key=size)
    points = [(offset + r * 0.6180339887498949) % 1.0 for r in range(len(pool))]
    slot = {r: i for i, r in enumerate(sorted(range(len(pool)), key=points.__getitem__))}
    return [ordered[slot[r]] for r in range(len(pool))]


def key_space(ctx: Context, state: State) -> list[tuple[str, str, Any]]:
    """All (kind, run, pattern-or-page) keys, in Zipf rank order.

    Ranks interleave the classes in proportion to their sizes (a stratified
    order), so each kind's share of the traffic is the same on every seed.
    Within a class, ranks spread over the answer sizes (``_spread_by_size``)
    from a seeded offset.
    """
    rng = random.Random(ctx.derive_seed("served-keys"))
    refs = references(ctx, state.stored)
    keys = state.keys
    pools: dict[tuple[str, str], list[Any]] = {}
    for run in RUNS:
        pools[("backtrace", run)] = [
            template % key for key in keys[run] for template in KEYS[run][1]
        ]
        subjects = rng.sample(keys[run], min(FORWARD_SUBJECTS, len(keys[run])))
        pools[("forward", run)] = [SUBJECT % subject for subject in subjects]
        pages = -(-len(subjects) // SAR_PAGE_SIZE)
        pools[("sar", run)] = [(tuple(subjects), page) for page in range(1, pages + 1)]
    for (kind, run), pool in pools.items():
        size = {
            "backtrace": lambda key: len(refs.backtrace(run, key)),
            "forward": lambda key: len(refs.forward(run, key)),
            "sar": lambda key: len(refs.sar(run, list(key[0]), key[1], SAR_PAGE_SIZE)),
        }[kind]
        # Reversed: ranks are taken with pop().
        pool[:] = reversed(_spread_by_size(pool, size, rng.random()))
    weights = {cls: float(len(pool)) for cls, pool in pools.items()}
    total = sum(len(pool) for pool in pools.values())
    ranked = []
    for kind, run in proportional_order(weights, total, ctx.derive_seed("served-ranks")):
        ranked.append((kind, run, pools[(kind, run)].pop()))
    return ranked


@dataclass
class Sample:
    kind: str
    run: str
    key: Any
    seconds: float
    #: The decoded answer; checked after the window, so no client thread
    #: holds the interpreter lock hashing while another waits for a reply.
    answer: Any = None
    server_seconds: float = 0.0
    cached: bool = False
    query_seconds: float = 0.0
    error: str = ""
    #: How long after its due time the request went out.
    late: float = 0.0
    #: When it went out (perf_counter).
    started: float = 0.0


def _answer_digest(payload: Any) -> str:
    # The payload is decoded JSON already, so one sorted dump is canonical.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Client(threading.Thread):
    """One paced HTTP client over its seeded op list.

    Request *k* is due at ``start + k / RATE_PER_CLIENT``; the client waits
    for its previous answer (one request in flight) and for the due time.
    Latency runs from the send, and how late the client ran is kept apart.
    An unpaced closed loop on two shared cores turns every dip in
    host CPU into queueing and multiplies it.
    """

    def __init__(self, index: int, state: State, ops: list, start: float, end: float,
                 spans: Spans, ingest_at: dict[int, int]):
        super().__init__(name=f"perfbench-client-{index}", daemon=True)
        self.index = index
        self.state = state
        self.ops = ops
        self.start_at = start
        self.end = end
        self.spans = spans
        self.ingest_at = ingest_at
        self.samples: list[Sample] = []
        self.ingests: list[tuple[int, float, int]] = []
        self.crash: BaseException | None = None

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # noqa: BLE001 -- reported by the main thread
            self.crash = error

    def _loop(self) -> None:
        client = repro.connect(self.state.url, policy=NO_RETRY)
        stored = self.state.stored
        due = self.start_at
        for position, (kind, run, key) in enumerate(self.ops):
            if due >= self.end:
                return
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            batch = self.ingest_at.get(position)
            if batch is not None:
                # The client's own write pauses its schedule: lateness
                # measures the server, not the ingest.
                paused = time.perf_counter()
                self._ingest(client, batch, position)
                due += time.perf_counter() - paused
            self._request(client, kind, run, stored.run_ids[run], key, position, due)
            due += 1.0 / RATE_PER_CLIENT

    def _ingest(self, client: Any, batch: int, position: int) -> None:
        stream = self.state.stream
        with self.spans.span("stream.ingest", client=self.index) as span:
            seconds, size = stream.ingest(batch)
            span.set(bytes_appended=size)
        self.ingests.append((batch, seconds, size))
        pattern = _live_pattern(self.state.live_keys[batch % len(self.state.live_keys)])
        self._request(client, "live", "S1", stream.run_id, (batch, pattern), position)

    def _request(self, client: Any, kind: str, run: str, run_id: str, key: Any,
                 position: int, due: float | None = None) -> None:
        started = time.perf_counter()
        late = 0.0 if due is None else max(0.0, started - due)
        try:
            with self.spans.span(f"serve.{kind}", client=self.index,
                                 run=run):
                if kind in ("backtrace", "forward"):
                    call = client.backtrace if kind == "backtrace" else client.forward
                    payload = call(key, run=run_id)
                    answer = payload["result"]
                elif kind == "live":
                    payload = client.backtrace(key[1], run=run_id)
                    answer = payload["result"]
                else:
                    subjects, page = key
                    payload = client.sar(list(subjects), run=run_id, page=page,
                                         page_size=SAR_PAGE_SIZE)
                    answer = payload["report"]
            seconds = time.perf_counter() - started
        except (AdmissionError, TaskTimeoutError) as error:
            self.samples.append(Sample(kind, run, key, time.perf_counter() - started,
                                       error=f"rejected: {error!r}", started=started))
            return
        except Exception as error:  # noqa: BLE001 -- every failure counts
            self.samples.append(Sample(kind, run, key, time.perf_counter() - started,
                                       error=repr(error), started=started))
            return
        server = payload.get("server", {})
        self.samples.append(Sample(
            kind, run, key, seconds, answer,
            server.get("seconds", 0.0), bool(server.get("cached")),
            payload.get("query_seconds", 0.0), late=late, started=started,
        ))


def _warm_cache(state: State, ranked: list) -> list[float]:
    """Fill the pattern cache before timing: ask the hottest keys once each,
    coldest first, so the window starts near the cache's steady state.
    Returns the server's compute seconds of the SAR pages it missed on."""
    client = repro.connect(state.url, policy=NO_RETRY)
    sar_s = []
    for kind, run, key in reversed(ranked[:WARM_KEYS]):
        run_id = state.stored.run_ids[run]
        if kind == "backtrace":
            client.backtrace(key, run=run_id)
        elif kind == "forward":
            client.forward(key, run=run_id)
        else:
            payload = client.sar(list(key[0]), run=run_id, page=key[1],
                                 page_size=SAR_PAGE_SIZE)
            if not payload.get("server", {}).get("cached"):
                sar_s.append(payload.get("query_seconds", 0.0))
    return sar_s


#: Zipf draws come in blocks of this many, stratified over the weights.
ZIPF_BLOCK = 64


def _ops(ctx: Context, ranked: list, client: int, count: int) -> list:
    """*count* Zipf draws over *ranked*, in shuffled blocks of systematic
    samples: every block takes each key in proportion to its weight, give
    or take one, so the hit ratio does not swing with the luck of the draw."""
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, len(ranked) + 1)]
    total = sum(weights)
    cumulative = list(itertools.accumulate(w / total for w in weights))
    rng = random.Random(ctx.derive_seed(f"served-client-{client}"))
    ops: list = []
    while len(ops) < count:
        offset = rng.random() / ZIPF_BLOCK
        block = [ranked[min(bisect.bisect_left(cumulative, offset + k / ZIPF_BLOCK),
                            len(ranked) - 1)] for k in range(ZIPF_BLOCK)]
        rng.shuffle(block)
        ops += block
    return ops[:count]


def _scrape(url: str) -> dict[str, float]:
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("repro_serve_") and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def _counter(values: dict[str, float], name: str) -> float:
    return sum(value for key, value in values.items() if key.split("{")[0] == name)


def _run_clients(ctx: Context, state: State, ranked: list, ingest_at: dict[int, int],
                 window: float, spans: Spans) -> list[Client]:
    end = window + ctx.seconds
    count = int(ctx.seconds * RATE_PER_CLIENT) + ZIPF_BLOCK
    clients = [
        Client(index, state, _ops(ctx, ranked, index, count), window, end, spans,
               ingest_at if index == 0 else {})
        for index in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=ctx.seconds + 120)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
        if client.crash is not None:
            raise client.crash
    return clients


def measure(ctx: Context, state: State, spans: Spans) -> Outcome:
    out = Outcome()
    stored = state.stored
    ranked = key_space(ctx, state)
    rng = random.Random(ctx.derive_seed("served-ingest"))
    scheduled = int(ctx.seconds * RATE_PER_CLIENT * INGEST_SPAN)
    positions = sorted(rng.sample(range(1, max(scheduled, INGESTS + 1)), INGESTS))
    ingest_at = {position: batch for batch, position in enumerate(positions, start=1)}
    # The probe reads the core whenever the server and the clients leave it
    # idle, so it never delays a request.
    ctx.host.start_free_run()
    try:
        warm_sar_s = _warm_cache(state, ranked)
        before = _scrape(state.url) if spans.enabled else {}
        window = time.perf_counter()
        clients = _run_clients(ctx, state, ranked, ingest_at, window, spans)
        window_s = time.perf_counter() - window
    finally:
        ctx.host.stop_free_run()
    after = _scrape(state.url) if spans.enabled else {}
    samples = [sample for client in clients for sample in client.samples]
    ingests = clients[0].ingests

    # After timing: seal the live run and check it against one-shot batch.
    with spans.span("stream.seal"):
        seal_s = state.stream.finish()

    out.attempted = len(samples) + len(ingests)
    errors = [s for s in samples if s.error]
    for sample in errors[:5]:
        out.report.append(f"error: {sample.kind} {sample.run} {sample.key}: {sample.error}")
    out.wrong_answers = _check(ctx, state, samples, ingests, out)
    out.failed = len(errors) + out.wrong_answers

    ok = [s for s in samples if not s.error]
    raw = [s.seconds for s in ok]
    latencies = [ctx.host.normalise(s.seconds, s.started) for s in ok]
    ingest_s = [seconds for _, seconds, _ in ingests]
    # Throughput from service time: the rate the clients would reach over
    # the read mix with no pause between an answer and the next request.
    # The paced send rate is the benchmark's own choice, so requests per
    # window second would read it back.  The five live-run queries weigh as
    # much as the rest together; they are reported apart.
    reads = [n for n, s in zip(latencies, ok) if s.kind != "live"]
    qps = CLIENTS * len(reads) / sum(reads)
    out.put("ops_per_s", qps, "1/s")
    out.put("p50_ms", median(latencies) * 1000, "ms")
    # p90, as on the other workloads: p95 and p99 fall among the few live-run
    # reloads and costliest misses, whose count swings from run to run.
    out.put("tail_ms", percentile(latencies, 90) * 1000, "ms")
    kinds = {kind: sum(1 for s in ok if s.kind == kind)
             for kind in ("backtrace", "forward", "sar", "live")}
    out.counts.update(
        requests=len(samples), ingests=len(ingests), keys=len(ranked),
        samples_p50_ms=len(latencies), samples_tail_ms=len(latencies),
        samples_ingest_p50_ms=len(ingest_s),
        **{f"requests_{k}": v for k, v in kinds.items()},
    )
    hits = sum(1 for s in ok if s.cached)
    out.report += [
        f"served_qps                   {qps:12.1f} requests/s "
        f"({CLIENTS} clients x {len(reads)} read answers / their summed latency)",
        f"sent                         {len(ok) / window_s:12.1f} requests/s "
        f"({len(ok)} in {window_s:.1f} s; offered {CLIENTS * RATE_PER_CLIENT:.0f})",
        f"served_p50_ms                {median(latencies) * 1000:12.2f} ms "
        f"(n={len(latencies)}; raw {median(raw) * 1000:.2f})",
        f"served_p90_ms                {percentile(latencies, 90) * 1000:12.2f} ms "
        f"(n={len(latencies)}; raw {percentile(raw, 90) * 1000:.2f})",
        f"served_p95_ms                {percentile(latencies, 95) * 1000:12.2f} ms "
        f"(n={len(latencies)})",
        f"served_p99_ms                {percentile(latencies, 99) * 1000:12.2f} ms "
        f"(n={len(latencies)})",
        f"ingest_p50_ms                {median(ingest_s or [0.0]) * 1000:12.1f} ms "
        f"(n={len(ingest_s)}; raw)",
        f"live_query_p50_ms            "
        f"{median([n for n, s in zip(latencies, ok) if s.kind == 'live'] or [0.0]) * 1000:12.1f}"
        f" ms (n={kinds['live']})",
        f"pattern cache hit ratio      {hits / len(ok):12.3f}",
        f"client late                  {mean([s.late for s in ok]) * 1000:12.1f} ms mean, "
        f"max {max(s.late for s in ok) * 1000:.1f} ms",
    ]
    if spans.enabled:
        _layers(out, ok, samples, ingests, before, after, seal_s, warm_sar_s)
    return out


def _check(ctx: Context, state: State, samples: list[Sample], ingests: list,
           out: Outcome) -> int:
    """Compare every answer with its in-memory reference; count mismatches."""
    refs = references(ctx, state.stored)

    def reference(kind: str, run: str, key: Any) -> str:
        if kind == "backtrace":
            text = refs.backtrace(run, key)
        elif kind == "forward":
            text = refs.forward(run, key)
        else:
            subjects, page = key
            text = refs.sar(run, list(subjects), page, SAR_PAGE_SIZE)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    expected = _live_references(ctx, state, len(ingests))
    wrong = 0
    reported = set()
    for sample in samples:
        if sample.error:
            continue
        key = (sample.kind, sample.run, sample.key)
        if key not in expected:
            expected[key] = reference(*key)
        digest = "corrupted" if ctx.corrupts(sample.kind) else expected[key]
        if _answer_digest(sample.answer) != digest:
            wrong += 1
            if key not in reported:
                reported.add(key)
                out.report.append(f"wrong answer: {sample.kind} {sample.run} {sample.key}")
    return wrong + _check_sealed(ctx, state, ingests, out)


def _live_references(ctx: Context, state: State, ingested: int) -> dict:
    """Answers the live query must give after each ingest: replay the same
    micro-batches into a scratch warehouse and ask the library directly."""
    warehouse = Warehouse.open(ctx.fresh_dir("replay"))
    session = _open_stream(warehouse)
    session.ingest(state.batches[0])
    answers = {}
    for batch in range(1, ingested + 1):
        session.ingest(state.batches[batch])
        pattern = _live_pattern(state.live_keys[batch % len(state.live_keys)])
        result, _ = warehouse.backtrace(session.run_id, pattern)
        answers[("live", "S1", (batch, pattern))] = hashlib.sha256(
            canonical(result_to_json(result)).encode("utf-8")).hexdigest()
    return answers


def _check_sealed(ctx: Context, state: State, ingests: list, out: Outcome) -> int:
    """The sealed, compacted live run answers like a one-shot batch run."""
    count = 1 + len(ingests)
    rows = [tweet for batch in state.batches[:count] for tweet in batch]
    batch_run = SCENARIOS["S1"].build(PebbleSession(), rows).execute(capture=True)
    warehouse = Warehouse.open(state.root)  # the writer process sealed the run
    wrong = 0
    for key in state.live_keys[:4]:
        pattern = _live_pattern(key)
        sealed, _ = warehouse.backtrace(state.stream.run_id, pattern)
        expected = result_to_json(query_provenance(batch_run, pattern))
        if ctx.corrupts("sealed"):
            expected = corrupt(expected)
        if canonical(result_to_json(sealed)) != canonical(expected):
            wrong += 1
            out.report.append(f"wrong answer: sealed S1 {pattern}")
    return wrong


def _layers(out: Outcome, ok: list[Sample], samples: list[Sample], ingests: list,
            before: dict[str, float], after: dict[str, float], seal_s: float,
            warm_sar_s: list[float]) -> None:
    misses = [s for s in ok if not s.cached]
    out.layers["serve.server_ms"] = (mean([s.server_seconds * 1000 for s in ok]), "ms")
    out.layers["serve.transport_ms"] = (
        mean([(s.seconds - s.server_seconds) * 1000 for s in ok]), "ms")
    out.layers["serve.compute_ms"] = (mean([s.query_seconds * 1000 for s in misses]), "ms")
    out.layers["serve.cache_hit_ratio"] = ((len(ok) - len(misses)) / len(ok), "ratio")
    for metric, counter in (
        ("serve.catalog_refreshes", "repro_serve_catalog_refreshes_total"),
        ("serve.segment_invalidations", "repro_serve_segment_invalidations_total"),
    ):
        out.layers[metric] = (_counter(after, counter) - _counter(before, counter), "count")
    out.layers["serve.rejected"] = (
        sum(1 for s in samples if s.error.startswith("rejected")), "count")
    # SAR pages are few in the window; the cache warm-up misses on some.
    sar_s = warm_sar_s + [s.query_seconds for s in misses if s.kind == "sar"]
    out.layers["audit.sar_ms"] = (mean([s * 1000 for s in sar_s]), "ms")
    out.layers["stream.ingest_ms"] = (mean([s * 1000 for _, s, _ in ingests]), "ms")
    out.layers["stream.bytes_appended"] = (mean([b for _, _, b in ingests]), "bytes")
    out.layers["stream.live_query_ms"] = (
        mean([s.seconds * 1000 for s in ok if s.kind == "live"]), "ms")
    out.layers["stream.seal_ms"] = (seal_s * 1000, "ms")
