"""wideband-scan: ``BandScanner.scan`` with classification.

One op is one capture scanned.  The ``five-emitter`` preset (BPSK,
QPSK, CP-OFDM, SC-FDMA and a duty-cycled BPSK burster over one noise
floor at 8 MHz) is realised ``CAPTURES`` times from the seed before
anything is timed; one round scans every capture once, one at a time.
Sub-bands run K=64, N=64 (M=15), so the Gram stage is small and the
channelizer, band statistics and blind classification share the time.
"""

from __future__ import annotations

import time

import numpy as np

import reference
from harness import Measurement
from repro.engine import Engine, PlanCache
from repro.pipeline import PipelineConfig
from repro.scanner import BandScanner
from repro.signals import scenario_preset

SAMPLE_RATE_HZ = 8e6
PRESET = "five-emitter"
CONFIG = PipelineConfig(
    fft_size=64,
    num_blocks=64,
    scan_bands=8,
    sample_rate_hz=SAMPLE_RATE_HZ,
    pfa=0.05,
    calibration_trials=40,
)
LEAK_MARGIN = 1.6
CAPTURES = 16

WARM_CONFIG = PipelineConfig(
    fft_size=32,
    num_blocks=32,
    scan_bands=8,
    sample_rate_hz=SAMPLE_RATE_HZ,
    pfa=0.1,
    calibration_trials=16,
)


class Workload:
    name = "wideband-scan"

    def __init__(self, seed: int) -> None:
        scenario, self.num_bands = scenario_preset(
            PRESET, sample_rate_hz=SAMPLE_RATE_HZ
        )
        length = BandScanner(CONFIG).required_samples
        seeds = np.random.SeedSequence([seed, 3]).generate_state(CAPTURES)
        self.captures = []
        self.truths = []
        for capture_seed in seeds:
            capture, truth = scenario.realize(length, seed=int(capture_seed))
            self.captures.append(np.asarray(capture.samples))
            self.truths.append(truth)

    def warm_up(self) -> None:
        with Engine(cache=PlanCache()) as engine:
            scanner = BandScanner(WARM_CONFIG, engine=engine)
            length = scanner.required_samples
            scanner.scan(self.captures[0][:length])

    def setup(self) -> BandScanner:
        scanner = BandScanner(
            CONFIG,
            leak_margin=LEAK_MARGIN,
            engine=Engine(cache=PlanCache()),
        )
        scanner.calibrate()
        return scanner

    def close(self, scanner: BandScanner) -> None:
        scanner.engine.close()

    def shutdown(self) -> None:
        pass

    def plan_cache(self, scanner: BandScanner) -> PlanCache:
        return scanner.engine.cache

    def measure(
        self, scanner: BandScanner, seconds: float, tracer=None
    ) -> Measurement:
        maps = [None] * CAPTURES
        unstable = 0
        latencies = []
        rates = []
        started = time.perf_counter()
        while True:
            begin = time.perf_counter()
            for index, capture in enumerate(self.captures):
                before = time.perf_counter()
                occupancy = scanner.scan(capture)
                latencies.append((time.perf_counter() - before) * 1e3)
                if maps[index] is None:
                    maps[index] = occupancy
                elif occupancy != maps[index]:
                    unstable += 1
            end = time.perf_counter()
            rates.append(CAPTURES / (end - begin))
            if end - started >= seconds:
                break
        return Measurement(
            ops=len(latencies),
            failed=0,
            rates=rates,
            latencies_ms=latencies,
            extra={"maps": maps, "unstable": unstable},
        )

    def check(
        self, scanner: BandScanner, measurement: Measurement
    ) -> list[str]:
        problems = []
        if measurement.extra["unstable"]:
            problems.append(
                f"{measurement.extra['unstable']} rescans of the same "
                f"capture changed the occupancy map"
            )
        empty = 0
        alarms = 0
        for index, (occupancy, truth) in enumerate(
            zip(measurement.extra["maps"], self.truths)
        ):
            for emitter in truth.emitters:
                band = truth.emitter_band(emitter.name, self.num_bands)
                decision = occupancy.bands[band]
                if not decision.occupied:
                    problems.append(
                        f"capture {index}: {emitter.name} in band {band} "
                        f"was not detected"
                    )
                elif decision.label != emitter.modulation_class:
                    problems.append(
                        f"capture {index}: {emitter.name} labelled "
                        f"{decision.label!r}, expected "
                        f"{emitter.modulation_class!r}"
                    )
            vacant = ~truth.band_mask(self.num_bands)
            empty += int(vacant.sum())
            alarms += sum(
                decision.occupied
                for decision, free in zip(occupancy.bands, vacant)
                if free
            )
        limit = reference.binomial_upper(empty, CONFIG.pfa)
        if alarms > limit:
            problems.append(
                f"{alarms}/{empty} false alarms on empty bands, above the "
                f"binomial bound {limit} at Pfa {CONFIG.pfa}"
            )
        return problems
