"""paper-sweep: a Monte-Carlo Pd-vs-SNR sweep at the paper point.

One op is one trial decision.  One round is one
``Engine.map_operating_points`` call (jobs=1): ``TRIALS`` noise-only
trials calibrate the threshold, then ``TRIALS`` trials run at each SNR
of ``SNRS_DB``.  Every round sees the same pre-drawn trials; the
factories only index them.
"""

from __future__ import annotations

import time

import numpy as np

import reference
from harness import Measurement
from repro.engine import Engine, PlanCache
from repro.pipeline import PipelineConfig

#: The geometry ``tests/fixtures/golden_pd.json`` pins: K=256, M=63
#: (127x127), N=8, BPSK at 8 samples per symbol, Pfa 0.05.
CONFIG = PipelineConfig(
    fft_size=256,
    num_blocks=8,
    m=63,
    pfa=0.05,
    calibration_trials=64,
    backend="vectorized",
    precision="float64",
)
SAMPLES_PER_SYMBOL = 8
SNRS_DB = tuple(float(snr) for snr in range(-6, 4))
TRIALS = 64
#: Fresh noise-only trials for the realised-Pfa check.
FRESH_NOISE = 256
#: H1 trials per SNR point compared against the reference, drawn anew
#: for each point from all its trials (the batched call runs them in
#: ``trial_chunk`` slabs).
SAMPLED_PER_POINT = 3
#: Least Pd accepted at +3 dB.  Over 400 seeds the detector gave 0.96 on
#: average (least 0.78; the threshold comes from only 64 noise trials).
#: Resampling those statistics put P(Pd < 0.5) below 1e-5, while a
#: broken detector sits near the Pfa.
MIN_PD_AT_3DB = 0.5

#: Warm-up operating point (another geometry, so no plan is shared).
WARM_CONFIG = PipelineConfig(fft_size=128, num_blocks=8, m=31, pfa=0.1)


def complex_noise(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-power circular complex Gaussian noise."""
    return (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ) / np.sqrt(2.0)


def bpsk(rng: np.random.Generator, trials: int, samples: int) -> np.ndarray:
    """Unit-power rectangular-pulse BPSK with a random symbol timing."""
    symbols = samples // SAMPLES_PER_SYMBOL + 2
    bits = rng.choice([-1.0, 1.0], size=(trials, symbols))
    wave = np.repeat(bits, SAMPLES_PER_SYMBOL, axis=1)
    offsets = rng.integers(0, SAMPLES_PER_SYMBOL, size=trials)
    rows = offsets[:, None] + np.arange(samples)[None, :]
    return np.take_along_axis(wave, rows, axis=1).astype(np.complex128)


class Workload:
    name = "paper-sweep"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        samples = CONFIG.samples_per_decision
        self.h0 = complex_noise(rng, (TRIALS, samples))
        self.h1 = {}
        for snr_db in SNRS_DB:
            amplitude = np.sqrt(10.0 ** (snr_db / 10.0))
            self.h1[snr_db] = amplitude * bpsk(
                rng, TRIALS, samples
            ) + complex_noise(rng, (TRIALS, samples))
        self.fresh = complex_noise(rng, (FRESH_NOISE, samples))
        self.sampled = {
            snr_db: rng.choice(TRIALS, size=SAMPLED_PER_POINT, replace=False)
            for snr_db in SNRS_DB
        }

    def h0_factory(self, trial: int) -> np.ndarray:
        return self.h0[trial]

    def h1_factory(self, snr_db: float, trial: int) -> np.ndarray:
        return self.h1[snr_db][trial]

    def warm_up(self) -> None:
        with Engine(cache=PlanCache()) as engine:
            engine.calibrate_threshold(WARM_CONFIG, trials=32)

    def setup(self) -> Engine:
        engine = Engine(cache=PlanCache())
        engine.plan(CONFIG)
        engine.calibrate_threshold(CONFIG)
        return engine

    def close(self, engine: Engine) -> None:
        engine.close()

    def shutdown(self) -> None:
        pass

    def plan_cache(self, engine: Engine) -> PlanCache:
        return engine.cache

    def measure(
        self, engine: Engine, seconds: float, tracer=None
    ) -> Measurement:
        sweeps = []
        latencies = []
        per_round = TRIALS * (1 + len(SNRS_DB))
        started = time.perf_counter()
        while True:
            begin = time.perf_counter()
            sweeps.append(
                engine.map_operating_points(
                    self.h0_factory,
                    self.h1_factory,
                    SNRS_DB,
                    config=CONFIG,
                    pfa=CONFIG.pfa,
                    trials=TRIALS,
                )
            )
            end = time.perf_counter()
            latencies.append((end - begin) * 1e3)
            if end - started >= seconds:
                break
        return Measurement(
            ops=len(sweeps) * per_round,
            failed=0,
            rates=[per_round / (ms / 1e3) for ms in latencies],
            latencies_ms=latencies,
            extra={"sweeps": sweeps},
        )

    def check(self, engine: Engine, measurement: Measurement) -> list[str]:
        problems = []
        sweeps = measurement.extra["sweeps"]
        first = sweeps[0]
        for sweep in sweeps[1:]:
            if sweep.points != first.points:
                problems.append("sweeps over the same trials differ")
                break
        threshold = first.points[0].threshold
        cfg = CONFIG

        def ref(samples):
            return reference.statistic(
                samples, cfg.fft_size, cfg.num_blocks, cfg.hop, cfg.m
            )

        # The threshold is the (1 - pfa) quantile of the H0 statistics;
        # recompute it from reference statistics.
        ref_h0 = np.array([ref(row) for row in self.h0])
        ref_threshold = float(np.quantile(ref_h0, 1.0 - cfg.pfa))
        if not np.isclose(
            threshold, ref_threshold, rtol=reference.STATISTIC_RTOL, atol=0
        ):
            problems.append(
                f"threshold {threshold!r} != reference {ref_threshold!r}"
            )
        # H1 statistics in one call of the timed shape (every trial of
        # the point, so every trial_chunk slab runs): sampled rows
        # against the reference, and the sweep's Pd against them all.
        for point, snr_db in zip(first.points, SNRS_DB):
            sampled = self.sampled[snr_db]
            program = engine.statistics(self.h1[snr_db], config=cfg)
            expected = np.array(
                [ref(row) for row in self.h1[snr_db][sampled]]
            )
            if not np.allclose(
                program[sampled],
                expected,
                rtol=reference.STATISTIC_RTOL,
                atol=0,
            ):
                problems.append(
                    f"statistics at {snr_db:+.0f} dB differ from the "
                    f"reference: {program[sampled]} vs {expected}"
                )
            pd = float(np.mean(program > threshold))
            if point.snr_db != snr_db or point.pd != pd:
                problems.append(
                    f"sweep point {point} != Pd {pd} of the statistics "
                    f"at {snr_db:+.0f} dB"
                )
        # Realised Pfa on fresh noise, bounded by the exact null law of
        # exceedances over an order-statistic threshold.
        position = (TRIALS - 1) * (1.0 - cfg.pfa)
        low, high = reference.order_statistic_exceedance_bounds(
            TRIALS,
            int(np.floor(position)) + 1,
            int(np.ceil(position)) + 1,
            FRESH_NOISE,
        )
        alarms = sum(
            int(np.sum(engine.statistics(rows, config=cfg) > threshold))
            for rows in np.split(self.fresh, FRESH_NOISE // TRIALS)
        )
        if not low <= alarms <= high:
            problems.append(
                f"{alarms}/{FRESH_NOISE} fresh-noise false alarms outside "
                f"[{low}, {high}]"
            )
        pd_high = first.points[-1].pd
        if pd_high < MIN_PD_AT_3DB:
            problems.append(
                f"Pd at +3 dB is {pd_high}, below {MIN_PD_AT_3DB}"
            )
        return problems
