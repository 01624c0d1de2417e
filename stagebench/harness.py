"""Shared pieces of the stage-ledger benchmark.

* the metric catalogue (names and units, one place);
* the environment block printed with every run;
* :class:`Tracer` — spans kept in memory, recorded around calls into
  the program's public layer functions, never inside ``src/``;
* :func:`layer_metrics` — the per-layer figures derived from the spans;
* the result line.

Importing this module needs numpy; ``run.py`` pins the BLAS/OpenMP
thread count before anything imports numpy.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: End-to-end metrics every untraced run prints (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run prints (name -> unit).  A layer
#: the workload never enters reads 0.
PER_LAYER = {
    "plans.block_fft_us": "us",
    "plans.gram_us": "us",
    "plans.coherence_us": "us",
    "plans.reduce_us": "us",
    "engine.plan_build_s": "s",
    "engine.calibrate_s": "s",
    "cache.plan_misses": "count",
    "engine.trials_per_call": "count",
    "serve.ingest_us": "us",
    "serve.window_spectra_us": "us",
    "serve.execute_us": "us",
    "serve.wait_us": "us",
    "serve.batch_size": "count",
    "serve.spectra_share": "ratio",
    "serve.queue_depth_max": "count",
    "serve.generator_lag_ms": "ms",
    "scanner.channelize_us": "us",
    "scanner.band_statistics_us": "us",
    "scanner.decide_us": "us",
    "scanner.calibrate_s": "s",
    "trace.overhead_pct": "%",
}

#: Set-ups timed before the measurement and again after the checks;
#: ``setup_s`` is the median of all of them.
SETUP_REPEATS = 8

REPO_ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> tuple[str, int | None]:
    """BLAS vendor numpy was built with, and its live thread count."""
    vendor = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    threads = None
    try:
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    threads = int(getter())
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return vendor, threads


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without a subprocess
    (``unknown`` in an exported tree)."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(threads: int, cpus_allowed: int, pinned_cpu: int) -> dict:
    """The environment block printed with every run."""
    vendor, live_threads = blas_info()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads_pinned": threads,
        "blas_threads_live": live_threads,
        "cpus": os.cpu_count(),
        "cpus_allowed": cpus_allowed,
        "pinned_cpu": pinned_cpu,
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    items: int = 0


class Tracer:
    """Spans around calls into the program, kept in memory.

    :meth:`wrap` replaces one attribute of a class or module with a
    timing wrapper (sync or async) and :meth:`restore` puts every
    original back.  The parent span and the request id travel in
    context variables, so they follow asyncio tasks and
    ``asyncio.to_thread`` hand-offs.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.current = contextvars.ContextVar("span", default=None)
        self.request = contextvars.ContextVar("request", default=None)
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def open(self, name: str, items: int = 0) -> tuple[Span, object]:
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self.current.get(),
            request=self.request.get(),
            items=items,
        )
        return span, self.current.set(span.id)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self.current.reset(token)
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, items=None) -> None:
        """Time every call of ``owner.attr`` as span *name*.

        *items* maps the call's positional arguments to a work count
        stored on the span (e.g. the trials of a batch).
        """
        if isinstance(owner, type):
            function = owner.__dict__[attr]
        else:
            function = getattr(owner, attr)
        tracer = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span, token = tracer.open(name, items(*args) if items else 0)
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer.close(span, token)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span, token = tracer.open(name, items(*args) if items else 0)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.close(span, token)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, function))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Position in the span list (to slice phases)."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        """Write every span as a JSON line (times from the first)."""
        origin = min((span.start for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "start": span.start - origin,
                            "end": span.end - origin,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds (the
    duration less the time its direct child spans cover)."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (
                span.end - span.start
            )
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        )
        duration = span.end - span.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time.get(span.id, 0.0)
        row["items"] += span.items
    return table


def format_self_times(table: dict[str, dict], ops: int) -> str:
    """The per-layer self-time table printed by traced runs."""
    lines = [
        f"{'span':<32s} {'calls':>8s} {'self us/op':>12s} {'incl us/op':>12s}"
    ]
    for name, row in sorted(
        table.items(), key=lambda item: -item[1]["self_s"]
    ):
        lines.append(
            f"{name:<32s} {row['calls']:>8d} "
            f"{row['self_s'] / ops * 1e6:>12.1f} "
            f"{row['total_s'] / ops * 1e6:>12.1f}"
        )
    return "\n".join(lines)


def _batch_items(self, batch, *rest) -> int:
    return len(batch)


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions at each layer boundary of the program.

    Self times then split a decision into the plan stages: block FFT
    (``block_spectra``), Gram (``dscf_values``), coherence
    (``surfaces``) and reduction (``statistics``).
    """
    from repro.engine import plans
    from repro.engine.engine import Engine
    from repro.engine.plans import BatchExecutionPlan
    from repro.scanner.scanner import BandScanner
    from repro.serve.service import SensingService
    from repro.serve.session import SensingSession

    for attr, name in (
        ("block_spectra", "plans.block_spectra"),
        ("dscf_values", "plans.dscf_values"),
        ("surfaces", "plans.surfaces"),
        ("statistics", "plans.statistics"),
        ("statistics_from_spectra", "plans.statistics_from_spectra"),
    ):
        tracer.wrap(BatchExecutionPlan, attr, name)
    tracer.wrap(plans, "build_plan", "engine.build_plan")
    tracer.wrap(Engine, "calibrate_threshold", "engine.calibrate_threshold")
    tracer.wrap(Engine, "statistics", "engine.statistics", _batch_items)
    tracer.wrap(
        Engine, "spectra_statistics", "engine.spectra_statistics", _batch_items
    )
    tracer.wrap(SensingService, "ingest", "serve.ingest")
    tracer.wrap(SensingService, "detect", "serve.detect")
    tracer.wrap(SensingService, "detect_samples", "serve.detect_samples")
    tracer.wrap(SensingSession, "window_spectra", "serve.window_spectra")
    tracer.wrap(BandScanner, "scan", "scanner.scan")
    tracer.wrap(BandScanner, "channelize", "scanner.channelize")
    tracer.wrap(BandScanner, "band_statistics", "scanner.band_statistics")
    tracer.wrap(BandScanner, "calibrate", "scanner.calibrate")


def layer_metrics(setups, spans, traced, untraced) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    *setups* holds ``(spans, plan_cache_misses)`` per timed setup;
    *spans* are those of the traced measured phase, whose
    :class:`Measurement` is *traced*; *untraced* is the untraced phase
    of the same run (for the tracing overhead).
    """
    ops = traced.ops
    table = self_times(spans)

    def row(name: str) -> dict:
        return table.get(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0}
        )

    def self_us(*names: str) -> float:
        return sum(row(name)["self_s"] for name in names) / ops * 1e6

    def total_us(name: str) -> float:
        return row(name)["total_s"] / ops * 1e6

    def mean_us(name: str) -> float:
        calls = row(name)["calls"]
        return row(name)["total_s"] / calls * 1e6 if calls else 0.0

    def per_setup_s(name: str) -> float:
        return median(
            sum(span.end - span.start for span in setup if span.name == name)
            for setup, _ in setups
        )

    engine_calls = [row("engine.statistics"), row("engine.spectra_statistics")]
    calls = sum(entry["calls"] for entry in engine_calls)
    trials = sum(entry["items"] for entry in engine_calls)

    detects = [
        span.end - span.start
        for span in spans
        if span.name in ("serve.detect", "serve.detect_samples")
    ]
    # Under a service every engine call is one coalesced batch.
    executes = [
        span
        for span in spans
        if detects
        and span.name in ("engine.statistics", "engine.spectra_statistics")
    ]
    execute_us = 0.0
    wait_us = 0.0
    if executes:
        execute_us = float(
            np.mean([span.end - span.start for span in executes]) * 1e6
        )
        # Each request waits for its whole batch: weight every batch's
        # execute time by the requests riding in it.
        share = sum(
            span.items * (span.end - span.start) for span in executes
        ) / sum(span.items for span in executes)
        wait_us = (float(np.mean(detects)) - share) * 1e6

    extra = traced.extra
    return {
        "plans.block_fft_us": self_us("plans.block_spectra"),
        "plans.gram_us": self_us("plans.dscf_values"),
        "plans.coherence_us": self_us("plans.surfaces"),
        "plans.reduce_us": self_us(
            "plans.statistics", "plans.statistics_from_spectra"
        ),
        "engine.plan_build_s": per_setup_s("engine.build_plan"),
        "engine.calibrate_s": per_setup_s("engine.calibrate_threshold"),
        "cache.plan_misses": median(misses for _, misses in setups),
        "engine.trials_per_call": trials / calls if calls else 0.0,
        "serve.ingest_us": mean_us("serve.ingest"),
        "serve.window_spectra_us": mean_us("serve.window_spectra"),
        "serve.execute_us": execute_us,
        "serve.wait_us": wait_us,
        "serve.batch_size": extra.get("batch_size", 0.0),
        "serve.spectra_share": extra.get("spectra_share", 0.0),
        "serve.queue_depth_max": extra.get("queue_depth_max", 0.0),
        "serve.generator_lag_ms": extra.get("generator_lag_ms", 0.0),
        "scanner.channelize_us": total_us("scanner.channelize"),
        "scanner.band_statistics_us": total_us("scanner.band_statistics"),
        "scanner.decide_us": self_us("scanner.scan"),
        "scanner.calibrate_s": per_setup_s("scanner.calibrate"),
        "trace.overhead_pct": (untraced.rate / traced.rate - 1.0) * 100.0,
    }


# ----------------------------------------------------------------------
# Run results
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """What one measured phase of a workload produced."""

    ops: int  # operations attempted
    failed: int
    rates: list[float]  # ops per second of each round (or window)
    latencies_ms: list[float]
    extra: dict = field(default_factory=dict)

    @property
    def rate(self) -> float:
        """Median throughput over the rounds: a burst of load from
        elsewhere on the machine slows a few rounds, not the figure."""
        return median(self.rates)


def median(values) -> float:
    return float(statistics.median(values))


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict
) -> str:
    """The final stdout line: one JSON object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def log(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the
    result line."""
    print(message, file=sys.stderr, flush=True)
