"""A request racing a catalog refresh never answers from pre-ingest epochs.

``QueryService.check_catalog`` has an unlocked fast path: one ``stat`` of
``catalog.json`` compared against the last published signature.  The
signature must therefore be published only after every stale resident and
cached answer is gone; otherwise a request arriving mid-refresh sees the
new signature, skips the refresh, and is served the cached answer computed
before the ingest.
"""

from __future__ import annotations

import threading

from repro.engine.expressions import col, collect_list, count
from repro.obs.metrics import MetricsRegistry
from repro.pebble.query import query_provenance
from repro.serve import QueryService, ServeConfig, result_to_json
from repro.stream import StreamSession, TumblingWindow, window_by
from repro.warehouse import Warehouse

PATTERN = 'root{/user="u1", /ids}'


def _rows(lo: int, hi: int) -> list[dict]:
    return [{"id": i, "user": f"u{i % 2}", "ts": float(i)} for i in range(lo, hi)]


def test_request_during_slow_refresh_never_gets_the_stale_answer(tmp_path):
    stream = StreamSession(
        warehouse=Warehouse.open(tmp_path / "wh"), name="feed", num_partitions=2
    )
    stream.open(
        window_by(stream.dataset(), col("ts"), TumblingWindow(4.0), col("user")).agg(
            collect_list(col("id")).alias("ids"), count().alias("n")
        )
    )
    stream.ingest(_rows(0, 6))
    service = QueryService.open(
        ServeConfig(root=str(tmp_path / "wh"), port=0), registry=MetricsRegistry()
    )
    stale = service.query(PATTERN, run_id=stream.run_id)["result"]

    stream.ingest(_rows(6, 14))
    fresh = result_to_json(
        query_provenance(stream.warehouse.load(stream.run_id), PATTERN)
    )
    assert fresh != stale

    entered, release = threading.Event(), threading.Event()
    refresh = service.warehouse.refresh

    def slow_refresh(*args, **kwargs):
        outcome = refresh(*args, **kwargs)
        entered.set()
        release.wait(10)
        return outcome

    service.warehouse.refresh = slow_refresh  # type: ignore[method-assign]
    answers: list[dict] = []

    def request() -> None:
        service.check_catalog()
        answers.append(service.query(PATTERN, run_id=stream.run_id)["result"])

    refresher = threading.Thread(target=service.check_catalog)
    refresher.start()
    try:
        assert entered.wait(10), "the refresh never started"
        racer = threading.Thread(target=request)
        racer.start()
        # Give the racing request ample time to slip past the refresh.
        racer.join(0.5)
    finally:
        release.set()
        refresher.join(10)
    racer.join(10)
    service.close()
    assert answers == [fresh]
