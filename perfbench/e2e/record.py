"""``record``: batch capture and persist.

One closed-loop client cycles T2, T3 and D3 at 0.25x over three seeded
corpora.  Each pipeline runs once as a plain ``Dataset.execute()`` and once
through the durable path: ``execute(capture=True)`` then
``Warehouse.record(..., index=True)``.  T2 is flatten-heavy with the largest
provenance, T3 is union+group and reads its input twice, D3 is a DBLP
join+group.  The workload exercises ``engine`` and
the persist side of ``warehouse`` and bypasses every read path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro import Warehouse
from repro.nested.json_io import item_to_json

from .catalog import RECORD_SCENARIOS
from .common import (
    SETUP_PROBES,
    Context,
    Inputs,
    Outcome,
    Spans,
    build,
    dir_bytes,
    generate_inputs,
    input_size,
    mean,
    percentile,
)

SCENARIOS = RECORD_SCENARIOS
#: 0.25x rather than 2x: short passes, so a 15 s window holds six or more
#: cycles even on a slow core, and host-speed readings come close together.
SCALE = 0.25
#: Independent seeded corpora, taken in turn by whole cycles: one small
#: corpus makes T2 cost 20% more or less from seed to seed.
CORPORA = 3
#: Probe readings before each pass: passes are long, so readings are sparse.
PROBES = 3


@dataclass
class State:
    corpora: list[Inputs]
    warehouse: Warehouse
    #: (input items, input bytes) per scenario, per corpus.
    sizes: list[dict[str, tuple[int, int]]]
    setup_s: float


def setup(ctx: Context, slot: int) -> State:
    root = ctx.fresh_dir(f"record-{slot}")
    ctx.host.probe(SETUP_PROBES)
    started = time.perf_counter()
    corpora = [generate_inputs(ctx, SCALE, corpus=corpus) for corpus in range(CORPORA)]
    warehouse = Warehouse.open(root)
    raw = time.perf_counter() - started
    ctx.host.probe(SETUP_PROBES)
    setup_s = ctx.host.normalise(raw, started)
    sizes = [{name: input_size(name, inputs) for name in SCENARIOS} for inputs in corpora]
    return State(corpora, warehouse, sizes, setup_s)


def teardown(state: State) -> None:
    pass  # the run directory goes with the context's scratch space


def _durable(state: State, inputs: Inputs, name: str, spans: Spans) -> tuple[Any, Any, float]:
    """One durable pass; returns (execution, run record, seconds).

    Traced runs split ``record(index=True)`` into ``record(index=False)``
    plus ``build_index``, which write the same bytes, so persist and index
    time show separately.
    """
    dataset = build(name, inputs)
    started = time.perf_counter()
    with spans.span("engine.capture", scenario=name):
        execution = dataset.execute(capture=True)
    if spans.enabled:
        with spans.span("warehouse.write", scenario=name):
            record = state.warehouse.record(execution, name=name, index=False)
        with spans.span("warehouse.index", scenario=name):
            state.warehouse.build_index(record.run_id)
    else:
        record = state.warehouse.record(execution, name=name, index=True)
    return execution, record, time.perf_counter() - started


def _warm_up(ctx: Context, state: State) -> None:
    """One small untimed pass per scenario, so the window starts with the
    interpreter's first-call costs (imports, caches) already paid."""
    inputs = state.corpora[0]
    small = Inputs(
        inputs.tweets_raw[:40], {}, inputs.tweets[:40],
        {name: records[:40] for name, records in inputs.dblp.items()},
    )
    warehouse = Warehouse.open(ctx.fresh_dir("record-warm-up"))
    for name in SCENARIOS:
        build(name, small).execute(capture=False)
        warehouse.record(build(name, small).execute(capture=True), name=name, index=True)


def rows_json(execution: Any) -> list[str]:
    return [item_to_json(item) for item in execution.items()]


def _check(ctx: Context, out: Outcome, name: str, check: str, expected: list[str],
           actual: list[str]) -> None:
    if ctx.corrupts(check):
        expected = expected + ["perfbench: corrupted reference row"]
    if actual != expected:
        out.wrong_answers += 1
        out.report.append(f"wrong answer: {check} {name}")


def cycle_ms(seconds: dict[str, list[float]], q: float) -> float:
    """The *q* percentile of each scenario's passes, summed over the
    scenarios: one T2+T3+D3 cycle at that percentile.  Taking the
    percentile per scenario keeps it off the border between two
    scenarios' populations."""
    return sum(percentile(seconds[name], q) for name in SCENARIOS) * 1000


def measure(ctx: Context, state: State, spans: Spans) -> Outcome:
    out = Outcome()
    host = ctx.host
    # (start, seconds) of every pass.
    plain_s: dict[str, list[tuple[float, float]]] = {name: [] for name in SCENARIOS}
    durable_s: dict[str, list[tuple[float, float]]] = {name: [] for name in SCENARIOS}
    written: dict[str, list[int]] = {name: [] for name in SCENARIOS}
    # (input items, input bytes) of every pass.
    sizes: dict[str, list[tuple[int, int]]] = {name: [] for name in SCENARIOS}
    records_count: dict[str, int] = {}
    last: dict[str, tuple[Any, Any]] = {}
    _warm_up(ctx, state)
    cycles = 0
    window = time.perf_counter()
    # Whole turns through the corpora only, so every run sees the same
    # scenario and corpus mix.
    while cycles % CORPORA or time.perf_counter() - window < ctx.seconds:
        corpus = cycles % CORPORA
        inputs = state.corpora[corpus]
        for name in SCENARIOS:
            out.attempted += 2
            sizes[name].append(state.sizes[corpus][name])
            dataset = build(name, inputs)
            host.probe(PROBES)
            started = time.perf_counter()
            with spans.span("engine.plain", scenario=name):
                plain = dataset.execute(capture=False)
            plain_s[name].append((started, time.perf_counter() - started))
            host.probe(PROBES)
            execution, record, seconds = _durable(state, inputs, name, spans)
            durable_s[name].append((time.perf_counter() - seconds, seconds))
            # Capture must not change the answer, and the catalog must hold
            # every row the run produced.
            expected = rows_json(plain)
            _check(ctx, out, name, "captured rows", expected, rows_json(execution))
            _check(ctx, out, name, "catalog row count", [str(len(expected))],
                   [str(record.row_count)])
            written[name].append(dir_bytes(state.warehouse.run_dir(record.run_id)))
            if spans.enabled:
                records_count[name] = execution.store.size_report().association_count
            last[name] = (execution, record)
        cycles += 1
    host.probe(PROBES)
    # The persisted rows read back as the captured ones (in the program's
    # JSON form, the form answers are compared in).
    for name, (execution, record) in last.items():
        _check(ctx, out, name, "rows read back", rows_json(execution),
               rows_json(state.warehouse.load(record.run_id)))
    out.failed = out.wrong_answers

    raw = {name: [s for _, s in durable_s[name]] for name in SCENARIOS}
    durable = {name: [host.normalise(s, t) for t, s in durable_s[name]] for name in SCENARIOS}
    plain = {name: [host.normalise(s, t) for t, s in plain_s[name]] for name in SCENARIOS}
    durable_items = sum(items for n in SCENARIOS for items, _ in sizes[n])
    record_items_per_s = durable_items / sum(sum(durable[n]) for n in SCENARIOS)
    plain_items_per_s = durable_items / sum(sum(plain[n]) for n in SCENARIOS)
    raw_items_per_s = durable_items / sum(sum(raw[n]) for n in SCENARIOS)
    bytes_ratio = sum(sum(written[n]) for n in SCENARIOS) / sum(
        size for n in SCENARIOS for _, size in sizes[n]
    )
    p50, p90 = cycle_ms(durable, 50), cycle_ms(durable, 90)
    out.put("ops_per_s", record_items_per_s, "1/s")
    out.put("p50_ms", p50, "ms")
    out.put("tail_ms", p90, "ms")
    out.counts.update(
        cycles=cycles, corpora=CORPORA, durable_passes=sum(len(raw[n]) for n in SCENARIOS),
        samples_p50_ms=cycles, samples_tail_ms=cycles, samples_plain_items_per_s=cycles,
    )
    out.report += [
        f"record_items_per_s           {record_items_per_s:12.1f} input items/s "
        f"(capture+record+index; raw {raw_items_per_s:.1f})",
        f"plain_items_per_s            {plain_items_per_s:12.1f} input items/s",
        f"record_bytes_per_input_byte  {bytes_ratio:12.3f} ratio",
        f"durable_cycle_p50_ms         {p50:12.1f} ms "
        f"(per-scenario medians of {cycles} passes, summed; raw {cycle_ms(raw, 50):.1f})",
        f"durable_cycle_p90_ms         {p90:12.1f} ms (raw {cycle_ms(raw, 90):.1f})",
        f"plain_cycle_p50_ms           {cycle_ms(plain, 50):12.1f} ms",
    ]
    if spans.enabled:
        _layers(out, spans, state, written, records_count, bytes_ratio)
    return out


def _layers(
    out: Outcome,
    spans: Spans,
    state: State,
    written: dict[str, list[int]],
    records_count: dict[str, int],
    bytes_ratio: float,
) -> None:
    table = [
        "durable overhead (traced run; ms are means per pass)",
        f"  {'scenario':<8} {'plain':>9} {'capture':>9} {'+write':>9} {'+index':>9} "
        f"{'in-memory':>10} {'durable':>9}",
    ]
    for name in SCENARIOS:
        plain = spans.mean_ms("engine.plain", scenario=name)
        capture = spans.mean_ms("engine.capture", scenario=name)
        write = spans.mean_ms("warehouse.write", scenario=name)
        index = spans.mean_ms("warehouse.index", scenario=name)
        inmemory = capture / plain
        durable = (capture + write + index) / plain
        out.layers[f"engine.plain_ms.{name}"] = (plain, "ms")
        out.layers[f"engine.capture_ms.{name}"] = (capture, "ms")
        out.layers[f"engine.provenance_records.{name}"] = (records_count[name], "count")
        out.layers[f"warehouse.write_ms.{name}"] = (write, "ms")
        out.layers[f"warehouse.index_ms.{name}"] = (index, "ms")
        out.layers[f"warehouse.bytes_written.{name}"] = (mean(written[name]), "bytes")
        out.layers[f"inmemory_overhead.{name}"] = (inmemory, "ratio")
        out.layers[f"durable_overhead.{name}"] = (durable, "ratio")
        table.append(
            f"  {name:<8} {plain:9.1f} {capture:9.1f} {capture + write:9.1f} "
            f"{capture + write + index:9.1f} {(inmemory - 1) * 100:9.1f}% "
            f"{(durable - 1) * 100:8.1f}%"
        )
    out.layers["warehouse.bytes_per_input_byte"] = (bytes_ratio, "ratio")
    out.report += table
