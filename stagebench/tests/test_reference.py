"""The benchmark's reference checked against properties of the method,
and against the program it is used to check."""

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import reference
from paper_sweep import bpsk, complex_noise
from repro.engine import Engine, PlanCache
from repro.pipeline import PipelineConfig

K = 256
M = 63


@pytest.fixture
def rng():
    return np.random.default_rng(2007)


def test_bpsk_peak_sits_at_the_symbol_rate_offset(rng):
    # A cycle frequency of fs / sps separates f + a and f - a by K / sps
    # bins, so the feature sits at |a| = K / (2 sps).
    sps = 8
    samples = bpsk(rng, 1, 32 * K)[0] + 0.1 * complex_noise(rng, 32 * K)
    spectra = reference.block_spectra(samples, K, 32, K)
    _, offset = reference.peak(reference.coherence(spectra, M))
    assert abs(offset) == K // (2 * sps)


def test_dscf_magnitude_is_symmetric_in_the_cyclic_offset(rng):
    spectra = reference.block_spectra(complex_noise(rng, 8 * K), K, 8, K)
    values = reference.dscf(spectra, M)
    # S(f, -a) = conj(S(f, a)), so |S(f, -a)| = |S(f, a)|.
    np.testing.assert_allclose(
        np.abs(values[:, ::-1]), np.abs(values), rtol=1e-12
    )


def test_coherence_never_exceeds_one(rng):
    spectra = reference.block_spectra(complex_noise(rng, 8 * K), K, 8, K)
    assert reference.coherence(spectra, M).max() <= 1.0 + 1e-12


def test_block_spectra_match_a_direct_dft(rng):
    samples = complex_noise(rng, 3 * 64)
    spectra = reference.block_spectra(samples, 64, 3, 48)
    t = np.arange(64)
    for n in range(3):
        for k in (-32, -5, 0, 17, 31):
            start = n * 48
            direct = np.sum(
                samples[start : start + 64]
                * np.exp(-2j * np.pi * k * (start + t) / 64)
            )
            assert spectra[n, k + 32] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize(
    "num_blocks,hop", [(8, None), (32, 64)], ids=["paper", "overlapped"]
)
def test_reference_matches_the_program(rng, num_blocks, hop):
    config = PipelineConfig(fft_size=K, num_blocks=num_blocks, m=M, hop=hop)
    length = config.samples_per_decision
    signals = np.concatenate(
        [complex_noise(rng, (2, length)), bpsk(rng, 2, length)]
    )
    with Engine(cache=PlanCache()) as engine:
        program = engine.statistics(signals, config=config)
    expected = [
        reference.statistic(row, K, num_blocks, config.hop, M)
        for row in signals
    ]
    np.testing.assert_allclose(
        program, expected, rtol=reference.STATISTIC_RTOL, atol=0
    )


def test_exceedance_law_matches_simulation():
    rng = np.random.default_rng(5)
    calibration, fresh, rank = 20, 30, 19
    counts = []
    for _ in range(4000):
        draws = rng.random(calibration + fresh)
        threshold = np.sort(draws[:calibration])[rank - 1]
        counts.append(int(np.sum(draws[calibration:] > threshold)))
    low, high = reference.order_statistic_exceedance_bounds(
        calibration, rank, rank, fresh, tail=1e-3
    )
    inside = np.mean([(low <= c <= high) for c in counts])
    assert inside > 0.99
    assert low <= np.mean(counts) <= high


def test_binomial_upper_is_a_tail_bound():
    rng = np.random.default_rng(6)
    limit = reference.binomial_upper(200, 0.05, tail=1e-3)
    draws = rng.binomial(200, 0.05, size=20000)
    assert np.mean(draws > limit) < 3e-3
    assert limit > 10


def test_self_time_subtracts_direct_children():
    spans = [
        harness.Span(1, "outer", 0.0, 10.0, None, None),
        harness.Span(2, "inner", 1.0, 4.0, 1, None),
        harness.Span(3, "leaf", 2.0, 3.0, 2, None),
    ]
    table = harness.self_times(spans)
    assert table["outer"]["self_s"] == pytest.approx(7.0)
    assert table["inner"]["self_s"] == pytest.approx(2.0)
    assert table["leaf"]["self_s"] == pytest.approx(1.0)


def test_tracer_restores_what_it_wraps():
    class Layer:
        def work(self, batch):
            return len(batch)

    original = Layer.__dict__["work"]
    tracer = harness.Tracer()
    tracer.wrap(Layer, "work", "layer.work", lambda self, batch: len(batch))
    assert Layer().work([1, 2, 3]) == 3
    tracer.restore()
    assert Layer.__dict__["work"] is original
    (span,) = tracer.spans
    assert span.name == "layer.work" and span.items == 3


def test_metric_catalogue_matches_benchmark_json():
    spec = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    declared = json.loads(spec.read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == (
        harness.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == (
        harness.PER_LAYER
    )
