"""Shared benchmark infrastructure.

Every benchmark writes its paper-style table to ``benchmarks/results/`` so a
run leaves a directly comparable textual artefact per figure, and prints it
(visible with ``pytest -s``).
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def host_facts() -> str:
    """One line naming the machine a table was measured on."""
    return (
        f"host: {os.cpu_count()} CPUs ({platform.machine()}), "
        f"Python {platform.python_version()}, {platform.system()}"
    )


@pytest.fixture
def save_result(results_dir):
    """Write (and echo) a rendered figure/table with its host facts."""

    def save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        text = f"{text}\n{host_facts()}"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[saved to {path}]")

    return save


def run_once(benchmark, fn):
    """Run a heavyweight measurement exactly once under the benchmark fixture.

    The harness functions already repeat and aggregate internally; wrapping
    them in pytest-benchmark's default rounds would multiply minutes-long
    sweeps.  ``pedantic`` with one round keeps them visible in the benchmark
    report without re-running.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
