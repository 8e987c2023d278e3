#!/usr/bin/env python3
"""End-to-end benchmark of the Pebble reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload record|cold_query|served_mix \\
        --seed N --seconds S --trace 0|1

Runs one workload against the program in ``src/``, pinned to one core:
set-up three times (``setup_s`` is the median), then one measured window
of ``--seconds`` with in-program tracing off.  Times are normalised to a
reference host speed (see ``e2e/common.py``); the report prints raw ones
next to them.  ``--trace 1`` measures an untraced window
and then a traced one, each on its own fresh set-up, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced).
Every answer is checked against an in-memory reference.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Scratch files live under ``.perfbench_work/`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKLOADS = ("record", "cold_query", "served_mix")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input scale (tests use a tiny one)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="checker self-test: make one reference answer wrong")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program
    from there -- never an installed copy."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    # The program's environment knobs (scheduler, layout, tracing, slow-query
    # capture, faults) stay at their defaults.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0 or args.scale <= 0:
        raise SystemExit("perfbench: --seconds and --scale must be positive")
    _import_program()
    from e2e import cold, record, served
    from e2e.catalog import END_TO_END, OWNED, PER_LAYER
    from e2e.common import (SETUP_REPEATS, Context, HostSpeed, Spans, host_facts, loadavg,
                            median, pin_to_one_cpu, stop_resource_tracker)

    module = {"record": record, "cold_query": cold, "served_mix": served}[args.workload]
    ctx = Context(CHECKOUT, args.workload, args.seed, args.seconds, bool(args.trace),
                  scale=args.scale, corrupt_reference=args.corrupt_reference)
    ctx.cpu, ctx.spare_cpu = pin_to_one_cpu()
    facts = host_facts(CHECKOUT)
    load_before = loadavg()
    # Started after pinning, so the probe process shares the run's core.
    ctx.host = HostSpeed()
    # Slots: every set-up is timed; the last one (and, traced, the one
    # before it for the untraced comparison) is also measured.
    measured = {SETUP_REPEATS - 1: ctx.trace}
    if ctx.trace:
        measured[SETUP_REPEATS - 2] = False
    setups: list[float] = []
    outcomes = {}
    spans = Spans(True)
    try:
        for slot in range(SETUP_REPEATS):
            # Each set-up starts from the same heap: the previous slot's state
            # is released and collected before the next one is built.
            gc.collect()
            state = module.setup(ctx, slot)
            try:
                setups.append(state.setup_s)
                if slot in measured:
                    traced = measured[slot]
                    # Objects alive now (inputs, references, set-up state)
                    # are exempt from the cyclic collector during the window,
                    # so its pauses scale with the program's own allocations.
                    gc.collect()
                    gc.freeze()
                    try:
                        outcomes[traced] = module.measure(
                            ctx, state, spans if traced else Spans(False))
                    finally:
                        gc.unfreeze()
            finally:
                module.teardown(state)
                del state
    finally:
        ctx.host.close()
        ctx.cleanup()
        stop_resource_tracker()
    load_after = loadavg()

    main_outcome = outcomes[ctx.trace]
    main_outcome.put("setup_s", median(setups), "s")
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    wrong = sum(o.wrong_answers for o in outcomes.values())

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    for traced in sorted(outcomes):
        print(f"-- {'traced' if traced else 'untraced'} window")
        for line in outcomes[traced].report:
            print("  " + line)
    print(f"  setup_s                      {median(setups):12.3f} s "
          f"(median of {len(setups)}: {', '.join(f'{s:.3f}' for s in setups)})")
    print(f"  error_rate                   {failed / max(attempted, 1):12.4f} "
          f"failed/attempted ({failed}/{attempted}, wrong answers {wrong})")
    stamp = dict(facts, workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, scale=args.scale, loadavg_before=load_before,
                 loadavg_after=load_after, setup_samples=len(setups),
                 cpu=ctx.cpu, spare_cpu=ctx.spare_cpu, host_speed=ctx.host.summary(),
                 in_program_tracing="off",
                 counts={("traced" if t else "untraced"): o.counts
                         for t, o in outcomes.items()})
    print("stamp " + json.dumps(stamp, sort_keys=True))

    if ctx.trace:
        traced, untraced = outcomes[True], outcomes[False]
        traced.layers["error_rate"] = (failed / max(attempted, 1), "ratio")
        for name, unit in END_TO_END[1:]:
            traced.layers[f"trace_overhead.{name}"] = (
                traced.metrics[name][0] - untraced.metrics[name][0], unit)
        # A layer the workload bypasses reads 0; one it owns must be there.
        missing = [name for name in OWNED[args.workload] if name not in traced.layers]
        if missing:
            raise RuntimeError(f"traced run did not produce {', '.join(missing)}")
        catalog, values = PER_LAYER, traced.layers
    else:
        catalog, values = END_TO_END, main_outcome.metrics
    metrics = {}
    for name, unit in catalog:
        value = values.get(name, (0.0, unit))[0]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40} {value:14.4f} {unit}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _stop_on_sigterm(signum: int, frame: object) -> None:
    # Unwind through the finally blocks, which stop the server and the
    # helper processes.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop_on_sigterm)
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
