"""Stage-ledger benchmark: one command, three workloads.

    python3 stagebench/run.py --workload paper-sweep --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` the run is untraced and prints the end-to-end
metrics; with ``--trace 1`` it measures half of ``--seconds`` untraced
and half traced, prints the per-layer metrics and a self-time table,
and writes the spans as JSON lines under ``.stagebench/``.  The last
stdout line is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits with a
non-zero code and prints no result.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

#: BLAS/OpenMP threads.  One thread per process: on a small shared box
#: a second BLAS thread made per-decision times slower and noisier.
THREADS = 1
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUTPUT = HERE.parent / ".stagebench"

WORKLOADS = {
    "paper-sweep": "paper_sweep",
    "stream-serve": "stream_serve",
    "wideband-scan": "wideband_scan",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program comes from there."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as error:
        sys.exit(
            f"stagebench: cannot import the program from {SOURCE}: {error}"
        )
    if not Path(repro.__file__).resolve().is_relative_to(SOURCE):
        sys.exit(
            f"stagebench: repro was imported from {repro.__file__}, not "
            f"from {SOURCE}"
        )


def pin_resources() -> tuple[int, int]:
    """Fix the BLAS/OpenMP thread count (before numpy loads) and bind
    the process to one CPU, the highest it may use.  Returns that CPU
    and how many CPUs the process could use before.

    stream-serve runs the event loop and the engine batch on two
    threads.  Spread over two CPUs its closed-loop rate ranged 619-827
    detects/s over five runs; bound to one CPU, 658-712 (runs of 20 s,
    interleaved).  The other workloads run on one thread either way.
    """
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(THREADS)
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, len(allowed)


def time_setups(workload, state, tracer, seconds: list, slices: list):
    """Set *workload* up ``SETUP_REPEATS`` times, each after closing the
    state before it (*state* first, if any), and return the last state.

    Appends each set-up's wall time to *seconds*; with a *tracer*, also
    ``(spans, plan cache misses)`` of each set-up to *slices*.
    """
    import harness

    if tracer is not None:
        harness.install_layer_spans(tracer)
    for _ in range(harness.SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        mark = tracer.mark() if tracer is not None else 0
        started = time.perf_counter()
        state = workload.setup()
        seconds.append(time.perf_counter() - started)
        if tracer is not None:
            misses = workload.plan_cache(state).stats.misses
            slices.append((tracer.spans[mark:], misses))
    if tracer is not None:
        tracer.restore()
    return state


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu, allowed = pin_resources()
    if args.seconds <= 0:
        sys.exit("stagebench: --seconds must be positive")
    import_program()

    import importlib
    import json

    import harness
    from harness import END_TO_END, PER_LAYER, Tracer, log

    module = importlib.import_module(WORKLOADS[args.workload])
    print(
        "env: " + json.dumps(harness.environment(THREADS, allowed, cpu)),
        flush=True,
    )

    workload = module.Workload(args.seed)
    workload.warm_up()

    tracer = Tracer() if args.trace else None
    setup_seconds = []
    setup_slices = []
    state = time_setups(workload, None, tracer, setup_seconds, setup_slices)
    try:
        if tracer is None:
            measurement = workload.measure(state, args.seconds)
            peak_rss_mb = harness.peak_rss_mb()  # before the checks
            traced = None
        else:
            measurement = workload.measure(state, args.seconds / 2)
            harness.install_layer_spans(tracer)
            mark = tracer.mark()
            traced = workload.measure(state, args.seconds / 2, tracer=tracer)
            tracer.restore()
            traced_spans = tracer.spans[mark:]
        problems = workload.check(state, measurement)
        if traced is not None:
            problems += workload.check(state, traced)
        # The second half of the set-ups runs well after the first:
        # the machine's speed drifts over seconds, and a median over
        # two moments of the run follows that drift less.
        state = time_setups(
            workload, state, tracer, setup_seconds, setup_slices
        )
    finally:
        workload.close(state)
        workload.shutdown()

    for problem in problems:
        log(f"CHECK FAILED [{args.workload}]: {problem}")

    runs = [measurement] if traced is None else [measurement, traced]
    attempted = sum(run.ops for run in runs)
    failed = sum(run.failed for run in runs)
    if tracer is None:
        catalogue = END_TO_END
        values = {
            "setup_s": harness.median(setup_seconds),
            "ops_per_s": measurement.rate,
            "latency_p50_ms": harness.median(measurement.latencies_ms),
            "peak_rss_mb": peak_rss_mb,
        }
        log(
            f"{args.workload}: {measurement.ops} ops, "
            f"{len(measurement.rates)} rounds, "
            f"{len(measurement.latencies_ms)} latency samples, set-ups "
            f"{[round(s, 4) for s in setup_seconds]}"
        )
    else:
        catalogue = PER_LAYER
        values = harness.layer_metrics(
            setup_slices, traced_spans, traced, measurement
        )
        print(harness.format_self_times(
            harness.self_times(traced_spans), traced.ops
        ))
        path = OUTPUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        log(f"{len(tracer.spans)} spans written to {path}")
    metrics = {name: (values[name], unit) for name, unit in catalogue.items()}
    print(
        harness.result_line(not problems, attempted, failed, metrics),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
