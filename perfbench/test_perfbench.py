"""Tests of the end-to-end benchmark itself (tiny scale, seconds-long runs).

Run from the repository root::

    python3 -m pytest perfbench -q

They check the output contract (every metric named in ``BENCHMARK.json``
is emitted with its unit), that a run passes its own answer checks, that
the answer checker can fail, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seconds", "1", "--scale", "0.1"]

sys.path.insert(0, str(HERE))
from e2e.catalog import END_TO_END, MAY_READ_ZERO, OWNED, PER_LAYER, better  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done, result


def test_benchmark_json_lists_the_catalog():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == ["record", "cold_query", "served_mix"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] == better(metric["name"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", ["record", "cold_query", "served_mix"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(workload, trace):
    done, result = run("--workload", workload, "--seed", "3", "--trace", trace, *TINY)
    assert done.returncode == 0, done.stderr
    assert result is not None, done.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # What the workload measures must read as measured, not as the 0
        # of a bypassed layer.
        silent = [name for name in OWNED[workload]
                  if name not in MAY_READ_ZERO and result["metrics"][name]["value"] == 0]
        assert not silent, silent


#: Every answer check of each workload, as its wrong-answer lines name it.
CHECKS = {
    "record": ["captured rows", "catalog row count", "rows read back"],
    "cold_query": ["backtrace", "forward"],
    "served_mix": ["backtrace", "live", "sealed"],
}


@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_a_wrong_reference_answer_is_a_failure(workload):
    done, result = run("--workload", workload, "--seed", "4", "--corrupt-reference", *TINY)
    assert done.returncode == 0, done.stderr
    assert result["correct"] is False
    assert result["failed"] >= len(CHECKS[workload])
    for check in CHECKS[workload]:
        assert f"wrong answer: {check} " in done.stdout, check


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, result = run("--workload", "record", "--seed", "1", *TINY, cwd=tmp_path)
    assert done.returncode != 0
    assert result is None
