"""Shared machinery of the end-to-end benchmark.

Everything here is benchmark-side: seeded input generation, the in-memory
span recorder used by traced runs, percentile helpers, the host-speed probe
that normalises every measured time, answer canonicalisation for the
byte-for-byte checks, and the host stamp printed next to every result set.
The program under test is reached only through its public calls, from the
workload modules.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import PebbleSession
from repro.nested.values import DataItem
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.twitter import TwitterConfig, generate_tweets

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Host-speed readings before and after each set-up.
SETUP_PROBES = 6


# -- run context ---------------------------------------------------------------


@dataclass
class Context:
    """One benchmark invocation: arguments, scratch space, result sink."""

    checkout: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Multiplies every input scale (1.0 in real runs; tests shrink it).
    scale: float = 1.0
    #: Test hook: perturb one expected answer of every checker, so each
    #: checker must fail.
    corrupt_reference: bool = False
    work: Path = field(init=False)
    _corrupted: set[str] = field(init=False, default_factory=set)
    #: Reference-task readings of the core the run is pinned to.
    host: "HostSpeed | None" = None
    #: The core the run is pinned to, and a spare one (the same on one core).
    cpu: int = -1
    spare_cpu: int = -1
    #: Reference answers, shared by every set-up of this run (same seed,
    #: same inputs, same run ids).
    references: Any = None

    def __post_init__(self) -> None:
        self.work = self.checkout / ".perfbench_work" / f"{self.workload}-{os.getpid()}"

    def derive_seed(self, label: str) -> int:
        """A stable per-purpose seed derived from ``--seed``."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def corrupts(self, check: str) -> bool:
        """True once per *check* under ``--corrupt-reference``: the caller
        then makes that check's next expected answer wrong."""
        if not self.corrupt_reference or check in self._corrupted:
            return False
        self._corrupted.add(check)
        return True

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


@dataclass
class Outcome:
    """What a measured window produced: metrics plus the check tallies."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Per-layer metrics (traced runs only).
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong_answers: int = 0
    #: Lines of the human-readable report (per-workload metric names, tables).
    report: list[str] = field(default_factory=list)
    #: Op counts and percentile sample counts for the stamp.
    counts: dict[str, int] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- spans (traced runs only) ----------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """One timed call into the program: its name, attributes and times."""

    spans: "Spans"
    name: str
    attrs: dict[str, Any]
    start: float = 0.0
    end: float = 0.0

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = time.perf_counter()
        self.spans.records.append(self)

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder around the benchmark's calls into each layer.

    Disabled (untraced runs) it hands out one shared no-op span, so the
    untraced path pays one attribute check per call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[Span] = []

    def span(self, name: str, **attrs: Any):
        return Span(self, name, attrs) if self.enabled else _NULL_SPAN

    def select(self, name: str, **attrs: Any) -> list[Span]:
        return [
            record for record in self.records
            if record.name == name
            and all(record.attrs.get(key) == value for key, value in attrs.items())
        ]

    def mean_ms(self, name: str, **attrs: Any) -> float:
        """Mean duration in ms of the matching spans (0 when none ran)."""
        return mean([record.seconds * 1000.0 for record in self.select(name, **attrs)])

    def mean_attr(self, name: str, attr: str, **attrs: Any) -> float:
        return mean([r.attrs[attr] for r in self.select(name, **attrs) if attr in r.attrs])


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- host speed ------------------------------------------------------------------
#
# A core of the shared host runs the same Python code up to 2x slower for
# stretches of seconds to a minute, so raw times of one run differ from the
# next by more than a program change worth gating on.  A probe process on
# the run's core times a fixed stdlib reference task (JSON decode, sort,
# group, encode: allocation- and memory-heavy like the program, but none of
# its code and none of its heap) between the workload's operations, and
# each measured time is scaled by how long the reference took around it.  A
# normalised time reads as if the reference had taken ``NOMINAL_PROBE_S``:
# a slower program still reads slower, a slower core does not.


def _reference_document() -> str:
    rng = random.Random(7)
    return json.dumps([
        {"id": i, "user": {"name": f"u{rng.randrange(500)}",
                           "tags": [f"t{rng.randrange(50)}" for _ in range(4)]},
         "score": rng.random()}
        for i in range(1500)
    ])


#: What the reference task is scaled to (about its time on a quiet core).
NOMINAL_PROBE_S = 0.005
#: Probes this close to a measured interval set its scale.
PROBE_NEIGHBOURHOOD_S = 1.0
#: Pause between two readings of a free-running probe.
PROBE_INTERVAL_S = 0.05
#: A free-running reading that lost more than this to other processes is
#: dropped: it also paid for the caches they left behind.
PROBE_PREEMPTED_S = 0.0005
PROBE_TIMEOUT_S = 60.0


def reference_task(document: str) -> int:
    rows = json.loads(document)
    rows.sort(key=lambda row: (row["user"]["name"], row["score"]))
    groups: dict[str, list[int]] = {}
    for row in rows:
        groups.setdefault(row["user"]["name"], []).append(row["id"])
    return len(json.dumps(groups))


def time_reference(document: str) -> tuple[float, float, float]:
    """Run the reference task once; returns (midpoint, wall seconds, CPU
    seconds), the midpoint on ``perf_counter``'s clock (system-wide)."""
    started, cpu = time.perf_counter(), time.thread_time()
    reference_task(document)
    wall, cpu = time.perf_counter() - started, time.thread_time() - cpu
    return started + wall / 2, wall, cpu


def _probe_main(conn: Any) -> None:
    """The probe process.  It runs at idle priority on the run's core, so it
    takes the core only when the workload leaves it idle.  ``sample``: one
    reading now (the workload waits for it).  ``free``: readings every
    ``PROBE_INTERVAL_S`` until ``stop``, keeping the undisturbed ones."""
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    gc.disable()
    document = _reference_document()
    try:
        while True:
            command = conn.recv()
            if command == "sample":
                conn.send(time_reference(document))
            elif command == "free":
                readings = []
                while not conn.poll(PROBE_INTERVAL_S):
                    midpoint, wall, cpu = time_reference(document)
                    if wall - cpu <= PROBE_PREEMPTED_S:
                        readings.append((midpoint, wall))
                conn.recv()
                conn.send(readings)
            else:
                return
    finally:
        conn.close()


class HostSpeed:
    """The probe process and its readings (midpoint, seconds) over time."""

    def __init__(self) -> None:
        import multiprocessing

        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_probe_main, args=(child,), daemon=True)
        self._process.start()
        child.close()
        self.readings: list[tuple[float, float]] = []

    def _reply(self) -> Any:
        if not self._conn.poll(PROBE_TIMEOUT_S):
            raise RuntimeError("the host-speed probe did not answer")
        return self._conn.recv()

    def probe(self, count: int = 1) -> None:
        """*count* readings now, while this process waits."""
        for _ in range(count):
            self._conn.send("sample")
            midpoint, wall, _ = self._reply()
            self.readings.append((midpoint, wall))

    def start_free_run(self) -> None:
        self._conn.send("free")

    def stop_free_run(self) -> None:
        self._conn.send("stop")
        self.readings += self._reply()

    def close(self) -> None:
        if self._process.is_alive():
            try:
                self._conn.send("close")
            except OSError:
                pass
            self._process.join(timeout=PROBE_TIMEOUT_S)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self._conn.close()

    def scale(self, start: float, end: float) -> float:
        """Multiply a time measured over [start, end] by this to normalise it."""
        near = [s for t, s in self.readings
                if start - PROBE_NEIGHBOURHOOD_S <= t <= end + PROBE_NEIGHBOURHOOD_S]
        if not near:
            nearest = min(self.readings, key=lambda r: min(abs(r[0] - start), abs(r[0] - end)))
            near = [nearest[1]]
        return NOMINAL_PROBE_S / median(near)

    def normalise(self, seconds: float, start: float) -> float:
        return seconds * self.scale(start, start + seconds)

    def summary(self) -> dict[str, float]:
        times = [s * 1000 for _, s in self.readings]
        return {"probes": len(times), "probe_p50_ms": round(median(times), 3),
                "probe_min_ms": round(min(times), 3), "probe_max_ms": round(max(times), 3)}


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Starting a ``spawn`` helper starts the tracker too; left alone it exits
    only after this process has, so it would outlive the run."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def pin_to_one_cpu() -> tuple[int, int]:
    """Pin this process to one CPU; returns (that CPU, another one or the
    same).  The workload and its reference probes then share one core."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return -1, -1
    main = cpus[-1]
    os.sched_setaffinity(0, {main})
    return main, cpus[0]


# -- answers ---------------------------------------------------------------------


def canonical(payload: Any) -> str:
    """Canonical JSON text of an answer (a JSON round trip first, so an
    in-memory reference and a decoded HTTP body compare as equal text)."""
    plain = json.loads(json.dumps(payload, default=str))
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))


def corrupt(payload: dict[str, Any]) -> dict[str, Any]:
    """A deliberately wrong copy of a reference answer (checker self-test)."""
    wrong = json.loads(json.dumps(payload, default=str))
    wrong["perfbench_corrupted"] = True
    return wrong


# -- inputs ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Seeded Twitter and DBLP corpora at one scale, raw and as data items."""

    tweets_raw: list[dict[str, Any]]
    dblp_raw: dict[str, list[dict[str, Any]]]
    tweets: list[DataItem]
    dblp: dict[str, list[DataItem]]


def generate_inputs(ctx: Context, scale: float, key_scale: float | None = None,
                    corpus: int = 0) -> Inputs:
    """Seeded corpora at *scale*; with *key_scale*, the user and person
    populations (the result group keys) keep their size at that scale.
    Each *corpus* number gives independent data from the same ``--seed``."""
    suffix = f"-{corpus}" if corpus else ""
    twitter = TwitterConfig(scale=scale * ctx.scale, seed=ctx.derive_seed("twitter" + suffix))
    dblp = DblpConfig(scale=scale * ctx.scale, seed=ctx.derive_seed("dblp" + suffix))
    if key_scale is not None:
        twitter = TwitterConfig(
            scale=scale * ctx.scale, seed=ctx.derive_seed("twitter" + suffix),
            user_count=TwitterConfig(scale=key_scale * ctx.scale).user_count,
        )
        dblp.persons_count = DblpConfig(scale=key_scale * ctx.scale).persons_count
    tweets_raw = generate_tweets(twitter)
    dblp_raw = generate_dblp(dblp)
    return Inputs(
        tweets_raw,
        dblp_raw,
        [DataItem(tweet) for tweet in tweets_raw],
        {name: [DataItem(r) for r in records] for name, records in dblp_raw.items()},
    )


#: The input collections each ``record`` scenario reads (for items/s and
#: the bytes ratio).
SCENARIO_INPUTS = {"T2": ("tweets",), "T3": ("tweets",), "D3": ("inproceedings", "persons")}


def build(name: str, inputs: Inputs):
    """A fresh dataset of scenario *name* over the generated inputs."""
    spec = SCENARIOS[name]
    data = inputs.tweets if spec.kind == "twitter" else inputs.dblp
    return spec.build(PebbleSession(), data)


def input_size(name: str, inputs: Inputs) -> tuple[int, int]:
    """(input items, canonical-JSON input bytes) of scenario *name*."""
    items = 0
    size = 0
    for collection in SCENARIO_INPUTS[name]:
        records = inputs.tweets_raw if collection == "tweets" else inputs.dblp_raw[collection]
        items += len(records)
        size += len(json.dumps(records, sort_keys=True, separators=(",", ":")).encode())
    return items, size


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- host stamp ------------------------------------------------------------------


def _git_sha(checkout: Path) -> str:
    if not (checkout / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest(checkout: Path) -> str:
    """sha256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    hasher = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(src.rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def host_facts(checkout: Path) -> dict[str, Any]:
    import repro

    return {
        "git_sha": _git_sha(checkout),
        "src_sha256": _source_digest(checkout),
        "repro_version": repro.__version__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def loadavg() -> list[float]:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return []
