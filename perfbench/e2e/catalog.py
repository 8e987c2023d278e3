"""Every metric the benchmark emits, with its unit and better direction.

``BENCHMARK.json`` lists exactly these; the benchmark's tests hold the two
in step.  Every workload emits every metric: an end-to-end metric is
defined per workload (see README.md).  A traced run must produce the
per-layer metrics its workload owns (``OWNED``); a metric of a layer the
workload bypasses reads 0.
"""

from __future__ import annotations

#: Set-up time, then the throughput, median and tail latency of the
#: workload's primary operation.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
)

#: Metrics where more is better; every other metric is better lower.
HIGHER_IS_BETTER = {
    "ops_per_s", "serve.cache_hit_ratio", "audit.operators_skipped",
    "trace_overhead.ops_per_s",
}

RECORD_SCENARIOS = ("T2", "T3", "D3")
STORED_RUNS = ("T1", "T2", "T5", "D3")
PHASES = ("load", "pattern_match", "segment_decode", "closure", "source_resolution")


def _record_layers() -> tuple[tuple[str, str], ...]:
    names: list[tuple[str, str]] = []
    for s in RECORD_SCENARIOS:
        names += [
            (f"engine.plain_ms.{s}", "ms"),
            (f"engine.capture_ms.{s}", "ms"),
            (f"engine.provenance_records.{s}", "count"),
            (f"warehouse.write_ms.{s}", "ms"),
            (f"warehouse.index_ms.{s}", "ms"),
            (f"warehouse.bytes_written.{s}", "bytes"),
            (f"inmemory_overhead.{s}", "ratio"),
            (f"durable_overhead.{s}", "ratio"),
        ]
    names.append(("warehouse.bytes_per_input_byte", "ratio"))
    return tuple(names)


def _cold_layers() -> tuple[tuple[str, str], ...]:
    names: list[tuple[str, str]] = []
    for r in STORED_RUNS:
        names += [
            (f"warehouse.load_ms.{r}", "ms"),
            (f"core.backtrace_ms.{r}", "ms"),
            (f"core.inmemory_backtrace_ms.{r}", "ms"),
        ]
    names += [
        ("warehouse.segments_decoded", "count"),
        ("warehouse.bytes_read", "bytes"),
        ("warehouse.item_misses", "count"),
        ("warehouse.read_amplification", "ratio"),
    ]
    names += [(f"query.phase.{p}_ms", "ms") for p in PHASES]
    names += [
        ("audit.forward_ms", "ms"),
        ("audit.operators_decoded", "count"),
        ("audit.operators_skipped", "count"),
    ]
    return tuple(names)


SERVED_LAYERS = (
    ("audit.sar_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.catalog_refreshes", "count"),
    ("serve.segment_invalidations", "count"),
    ("serve.rejected", "count"),
    ("stream.ingest_ms", "ms"),
    ("stream.bytes_appended", "bytes"),
    ("stream.live_query_ms", "ms"),
    ("stream.seal_ms", "ms"),
)

#: Emitted by every traced run.
COMMON_LAYERS = (("error_rate", "ratio"),) + tuple(
    (f"trace_overhead.{name}", unit) for name, unit in END_TO_END[1:]
)

RECORD_LAYERS = _record_layers()
COLD_LAYERS = _cold_layers()
PER_LAYER = RECORD_LAYERS + COLD_LAYERS + SERVED_LAYERS + COMMON_LAYERS

#: The per-layer metrics each workload must produce; the rest read 0.
OWNED = {
    workload: tuple(name for name, _ in layers + COMMON_LAYERS)
    for workload, layers in (
        ("record", RECORD_LAYERS), ("cold_query", COLD_LAYERS), ("served_mix", SERVED_LAYERS),
    )
}

#: Owned metrics that may truly read 0: counts of failures, and differences.
MAY_READ_ZERO = {"serve.rejected", "error_rate", "audit.operators_skipped"} | {
    name for name, _ in COMMON_LAYERS if name.startswith("trace_overhead.")
}


def better(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"
