"""``cold_query``: point questions against runs recorded earlier.

Set-up records T1, T2, T5 and D3 (0.25x items, 1x keys), indexed, from
each of three seeded corpora.  One backtrace pattern is derived per result
group key (about 200 keys a corpus) and one forward subject per key.  One
closed-loop client asks seeded rounds of questions, 2 in 3 through
``Warehouse.backtrace`` and 1 in 3 through ``Warehouse.forward``.  Every
question loads a fresh lazy store, so no program cache is reused; the OS
page cache is warm.  The workload exercises the read side of ``warehouse``
plus ``core`` and ``audit`` and bypasses ``engine`` and ``serve``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import PebbleSession, Warehouse, query_provenance
from repro.audit.forward import ForwardTracer
from repro.audit.sar import sar_over_tracers
from repro.obs.breakdown import QueryBreakdown
from repro.serve.service import result_to_json
from repro.workloads.scenarios import SCENARIOS

from .catalog import PHASES, STORED_RUNS
from .common import (
    SETUP_PROBES,
    Context,
    Inputs,
    Outcome,
    Spans,
    build,
    canonical,
    corrupt,
    generate_inputs,
    mean,
    median,
    percentile,
)

RUNS = STORED_RUNS
#: Stored runs at 0.25x with the 1x user and person populations: the ~200
#: group keys of a 1x run at a quarter of the per-question cost, so one
#: window holds enough questions for steady percentiles.
SCALE = 0.25
KEY_SCALE = 1.0

#: Per stored run: the result group key and backtrace pattern templates.
#: ``cold_query`` asks the first template; ``served_mix`` asks both.
KEYS: dict[str, tuple[Callable[[Any], str], tuple[str, ...]]] = {
    "T1": (lambda item: item["m_user"]["id_str"],
           ('root{/m_user{/id_str="%s"}}', 'root{/m_user{/id_str="%s"}, /tweets}')),
    "T2": (lambda item: item["m_user"]["id_str"],
           ('root{/m_user{/id_str="%s"}}', 'root{/m_user{/id_str="%s"}, /hashtag}')),
    "T5": (lambda item: item["a_id"],
           ('root{/a_id="%s", /authored}', 'root{/a_id="%s", /mentioned_in}')),
    "D3": (lambda item: item["author"],
           ('root{/author="%s", /works}', 'root{/author="%s", /alias_sets}')),
}

#: Forward subjects use the SAR default template, so forward and SAR
#: questions name the same data subjects.
SUBJECT = 'root{//*="%s"}'

#: Independent seeded corpora, each recorded as T1, T2, T5 and D3.  One
#: 0.25x corpus of 100 tweets gives a T2 whose questions cost 20% more or
#: less from seed to seed; questions spread over three corpora average
#: that out at the same cost per question.
CORPORA = 3

#: Questions per round.  D3 holds about 4 in 7 of the ~200 group keys and
#: gets that share of each kind, which keeps the medians inside D3's
#: population; T2, the costliest run, gets 3 backtraces so the p90 falls
#: inside its population rather than on its border with T5.  Backtraces are
#: 2 in 3 of the questions.
ROUND = {
    ("backtrace", "T1"): 2, ("backtrace", "T2"): 3, ("backtrace", "T5"): 2,
    ("backtrace", "D3"): 8,
    ("forward", "T1"): 1, ("forward", "T2"): 1, ("forward", "T5"): 1, ("forward", "D3"): 4,
}


@dataclass
class Stored:
    """The recorded runs of one corpus and the inputs they were captured from."""

    warehouse: Warehouse
    run_ids: dict[str, str]
    inputs: Inputs
    corpus: int = 0


def record_stored_runs(ctx: Context, root, corpus: int = 0) -> Stored:
    """Generate corpus *corpus* and record T1, T2, T5, D3 indexed into *root*."""
    inputs = generate_inputs(ctx, SCALE, KEY_SCALE, corpus)
    warehouse = Warehouse.open(root)
    run_ids = {
        name: warehouse.record(
            build(name, inputs).execute(capture=True), name=name, index=True
        ).run_id
        for name in RUNS
    }
    return Stored(warehouse, run_ids, inputs, corpus)


class References:
    """In-memory reference answers, computed once per distinct question.

    The reference executions are separate in-memory captures in the
    ``rows`` layout: answers are byte-identical across layouts by the
    program's contract, so a stored or served answer must equal them, and
    the row layout answers a point question without decoding columns.
    Runs are recorded deterministically per seed, so one instance serves
    every set-up of a benchmark run.
    """

    def __init__(self, stored: Stored):
        self.inputs = stored.inputs
        self.run_ids = dict(stored.run_ids)
        self._executions: dict[str, Any] = {}
        self._answers: dict[tuple[str, str, str], str] = {}
        self._tracers: dict[str, MemoTracer] = {}

    def execution(self, run: str) -> Any:
        if run not in self._executions:
            spec = SCENARIOS[run]
            data = self.inputs.tweets if spec.kind == "twitter" else self.inputs.dblp
            session = PebbleSession(layout="rows")
            self._executions[run] = spec.build(session, data).execute(capture=True)
        return self._executions[run]

    def keys(self) -> dict[str, list[str]]:
        """Group keys per run, read from the generated results."""
        keys = {}
        for run in RUNS:
            extract = KEYS[run][0]
            keys[run] = sorted({extract(item) for item in self.execution(run).items()})
            if any('"' in key for key in keys[run]):
                raise ValueError(f"{run}: a group key contains a quote")
        return keys

    def _store(self, key: tuple[str, str, str], payload: Any) -> str:
        self._answers[key] = canonical(payload)
        return self._answers[key]

    def tracer(self, run: str) -> "MemoTracer":
        if run not in self._tracers:
            self._tracers[run] = MemoTracer(ForwardTracer(self.execution(run)))
        return self._tracers[run]

    def backtrace(self, run: str, pattern: str) -> str:
        key = ("backtrace", run, pattern)
        if key not in self._answers:
            result = query_provenance(self.execution(run), pattern)
            self._store(key, result_to_json(result))
        return self._answers[key]

    def forward(self, run: str, pattern: str) -> str:
        key = ("forward", run, pattern)
        if key not in self._answers:
            payload = self.tracer(run).trace(pattern).to_json()
            payload["run_id"] = self.run_ids[run]
            self._store(key, payload)
        return self._answers[key]

    def sar(self, run: str, subjects: list[str], page: int, page_size: int) -> str:
        key = ("sar", run, repr((subjects, page, page_size)))
        if key not in self._answers:
            self._store(key, sar_over_tracers(
                [(self.run_ids[run], self.tracer(run))], subjects,
                page=page, page_size=page_size,
            ))
        return self._answers[key]


def references(ctx: Context, stored: Stored) -> References:
    """The run's :class:`References` of *stored*'s corpus, shared by every
    measured set-up."""
    if ctx.references is None:
        ctx.references = {}
    if stored.corpus not in ctx.references:
        ctx.references[stored.corpus] = References(stored)
    return ctx.references[stored.corpus]


class MemoTracer:
    """A forward tracer that answers each subject pattern once (SAR pages
    and forward questions over the same subject share the work)."""

    def __init__(self, tracer: ForwardTracer):
        self._tracer = tracer
        self._results: dict[str, Any] = {}

    def trace(self, pattern: str) -> Any:
        if pattern not in self._results:
            self._results[pattern] = self._tracer.trace(pattern)
        return self._results[pattern]


@dataclass
class State:
    #: One set of stored runs per corpus.
    corpora: list[Stored]
    #: Group keys per run, per corpus.
    keys: list[dict[str, list[str]]]
    setup_s: float


def setup(ctx: Context, slot: int) -> State:
    root = ctx.fresh_dir(f"cold-{slot}")
    ctx.host.probe(SETUP_PROBES)
    started = time.perf_counter()
    corpora = [record_stored_runs(ctx, root, corpus) for corpus in range(CORPORA)]
    raw = time.perf_counter() - started
    ctx.host.probe(SETUP_PROBES)
    keys = [references(ctx, stored).keys() for stored in corpora]
    return State(corpora, keys, ctx.host.normalise(raw, started))


def teardown(state: State) -> None:
    pass


@dataclass
class Question:
    corpus: int
    kind: str
    run: str
    pattern: str
    started: float = 0.0
    seconds: float = 0.0
    answer: Any = None


def rounds(ctx: Context, keys: list[dict[str, list[str]]]):
    """Seeded rounds of questions, endlessly.

    Each round asks a fixed quota per (kind, run) -- see ``ROUND`` -- in a
    seeded order.  A run's questions take the corpora in turn; within a
    corpus and run the keys come from a seeded shuffle, each key once
    before any repeats.  Whole rounds keep the mix identical on every seed,
    which a uniform draw over ~200 keys cannot do in a window of a few
    dozen questions.
    """
    rng = random.Random(ctx.derive_seed("cold-questions"))
    cycles: dict[tuple[int, str], list[str]] = {}
    turn = {run: 0 for run in RUNS}
    slots = [cls for cls, quota in ROUND.items() for _ in range(quota)]
    while True:
        rng.shuffle(slots)
        picked = []
        for kind, run in slots:
            corpus = turn[run] % len(keys)
            turn[run] += 1
            cycle = cycles.setdefault((corpus, run), [])
            if not cycle:
                cycle += rng.sample(keys[corpus][run], len(keys[corpus][run]))
            template = KEYS[run][1][0] if kind == "backtrace" else SUBJECT
            picked.append(Question(corpus, kind, run, template % cycle.pop()))
        yield picked


def _ask(out: Outcome, spans: Spans, stored: Stored, question: Question,
         asked: list[Question]) -> None:
    """Ask one question, timed; appends it to *asked* with its answer."""
    kind, run, pattern = question.kind, question.run, question.pattern
    warehouse, run_id = stored.warehouse, stored.run_ids[run]
    out.attempted += 1
    try:
        if kind == "backtrace":
            breakdown = QueryBreakdown() if spans.enabled else None
            started = time.perf_counter()
            with spans.span("warehouse.backtrace", run=run) as span:
                result, cache = warehouse.backtrace(run_id, pattern, breakdown=breakdown)
            seconds = time.perf_counter() - started
            answer = result_to_json(result)
            if spans.enabled:
                span.set(
                    segments_decoded=cache.misses, bytes_read=cache.bytes_read,
                    item_misses=cache.item_misses,
                    answer_bytes=len(canonical(answer)),
                    phases=breakdown.to_json()["phases"],
                    total=breakdown.total_seconds,
                )
        else:
            started = time.perf_counter()
            with spans.span("audit.forward", run=run) as span:
                result = warehouse.forward(run_id, pattern)
            seconds = time.perf_counter() - started
            answer = result.to_json()
            span.set(**result.stats)
    except Exception as error:  # noqa: BLE001 -- every failure counts
        out.failed += 1
        out.report.append(f"error: {kind} {run} {pattern}: {error!r}")
        return
    question.started, question.seconds, question.answer = started, seconds, answer
    asked.append(question)


def measure(ctx: Context, state: State, spans: Spans) -> Outcome:
    out = Outcome()
    asked: list[Question] = []
    window = time.perf_counter()
    whole_rounds = 0
    source = rounds(ctx, state.keys)
    while whole_rounds == 0 or time.perf_counter() - window < ctx.seconds:
        for question in next(source):
            ctx.host.probe()
            _ask(out, spans, state.corpora[question.corpus], question, asked)
        whole_rounds += 1
    ctx.host.probe()
    window_s = time.perf_counter() - window

    refs = [references(ctx, stored) for stored in state.corpora]
    for q in asked:
        ref = refs[q.corpus]
        expected = ref.backtrace(q.run, q.pattern) if q.kind == "backtrace" else ref.forward(
            q.run, q.pattern)
        if ctx.corrupts(q.kind):
            expected = canonical(corrupt(json.loads(expected)))
        if canonical(q.answer) != expected:
            out.wrong_answers += 1
            out.report.append(f"wrong answer: {q.kind} {q.run} {q.pattern}")
    out.failed += out.wrong_answers

    normalised = [ctx.host.normalise(q.seconds, q.started) for q in asked]
    backtraces = [n for n, q in zip(normalised, asked) if q.kind == "backtrace"]
    forwards = [n for n, q in zip(normalised, asked) if q.kind == "forward"]
    raw = [q.seconds for q in asked if q.kind == "backtrace"]
    qps = len(asked) / sum(normalised)
    out.put("ops_per_s", qps, "1/s")
    out.put("p50_ms", median(backtraces) * 1000, "ms")
    out.put("tail_ms", percentile(backtraces, 90) * 1000, "ms")
    out.counts.update(
        rounds=whole_rounds, questions=len(asked), backtraces=len(backtraces),
        forwards=len(forwards), samples_p50_ms=len(backtraces),
        samples_tail_ms=len(backtraces), samples_forward_p50_ms=len(forwards),
        corpora=len(state.corpora),
        **{f"questions_{run}": sum(1 for q in asked if q.run == run) for run in RUNS},
    )
    out.report += [
        "page cache: warm (every question opens a fresh lazy store; the OS "
        "page cache is not dropped)",
        f"cold_qps                     {qps:12.2f} questions/s "
        f"({len(asked)} in {window_s:.1f} s; "
        f"raw {len(asked) / sum(q.seconds for q in asked):.2f})",
        f"cold_backtrace_p50_ms        {median(backtraces) * 1000:12.1f} ms "
        f"(n={len(backtraces)}; raw {median(raw) * 1000:.1f})",
        f"cold_backtrace_p90_ms        {percentile(backtraces, 90) * 1000:12.1f} ms "
        f"(n={len(backtraces)}; raw {percentile(raw, 90) * 1000:.1f})",
        f"cold_forward_p50_ms          {median(forwards) * 1000:12.1f} ms "
        f"(n={len(forwards)})",
    ]
    if spans.enabled:
        # The eager ceiling: the same backtraces over the in-memory capture.
        for corpus, run, pattern in sorted(
            {(q.corpus, q.run, q.pattern) for q in asked if q.kind == "backtrace"}
        ):
            with spans.span("core.inmemory_backtrace", run=run):
                query_provenance(refs[corpus].execution(run), pattern)
        _layers(out, spans)
    return out


def _layers(out: Outcome, spans: Spans) -> None:
    backtraces = spans.select("warehouse.backtrace")
    for run in RUNS:
        mine = [r.attrs for r in backtraces if r.attrs["run"] == run]
        load = mean([a["phases"].get("load", 0.0) * 1000 for a in mine])
        rest = mean([(a["total"] - a["phases"].get("load", 0.0)) * 1000 for a in mine])
        out.layers[f"warehouse.load_ms.{run}"] = (load, "ms")
        out.layers[f"core.backtrace_ms.{run}"] = (rest, "ms")
        out.layers[f"core.inmemory_backtrace_ms.{run}"] = (
            spans.mean_ms("core.inmemory_backtrace", run=run), "ms")
    attrs = [r.attrs for r in backtraces]
    out.layers["warehouse.segments_decoded"] = (
        mean([a["segments_decoded"] for a in attrs]), "count")
    out.layers["warehouse.bytes_read"] = (mean([a["bytes_read"] for a in attrs]), "bytes")
    out.layers["warehouse.item_misses"] = (mean([a["item_misses"] for a in attrs]), "count")
    answer_bytes = sum(a["answer_bytes"] for a in attrs)
    out.layers["warehouse.read_amplification"] = (
        sum(a["bytes_read"] for a in attrs) / answer_bytes if answer_bytes else 0.0, "ratio")
    for phase in PHASES:
        out.layers[f"query.phase.{phase}_ms"] = (
            mean([a["phases"].get(phase, 0.0) * 1000 for a in attrs]), "ms")
    out.layers["audit.forward_ms"] = (spans.mean_ms("audit.forward"), "ms")
    out.layers["audit.operators_decoded"] = (
        spans.mean_attr("audit.forward", "operators_decoded"), "count")
    out.layers["audit.operators_skipped"] = (
        spans.mean_attr("audit.forward", "operators_skipped"), "count")
