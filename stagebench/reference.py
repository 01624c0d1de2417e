"""Plain-numpy reference for the expression-3 DSCF detector.

Written from the method's formulas, not from the program's code, so the
benchmark can check the program's statistics against it:

* block spectra with an absolute time reference (expression 2)::

      X_n(k) = sum_t w[t] x[s_n + t] exp(-2 pi i k (s_n + t) / K),
      s_n = n * hop,  k in [-K/2, K/2)

* the discrete spectral correlation function (expression 3)::

      S(f, a) = (1/N) sum_n X_n(f + a) conj(X_n(f - a)),  f, a in [-M, M]

* the spectral coherence::

      C(f, a) = |S(f, a)| / sqrt(P(f + a) P(f - a)),
      P(k) = (1/N) sum_n |X_n(k)|^2

* the detection statistic: the peak of C over every f and every a != 0.

Only numpy is used: one direct DFT per block and fancy indexing for the
(f, a) grid.  No Gram matrix, no plan, no batching.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance between the program's statistics and this
#: reference.  Both compute the same sums in float64 but in different
#: orders (a BLAS Gram product against an indexed mean), so they agree
#: to ~1e-13; 1e-9 leaves room for any BLAS while catching every real
#: change of the mathematics.
STATISTIC_RTOL = 1e-9


def block_spectra(
    samples: np.ndarray, fft_size: int, num_blocks: int, hop: int
) -> np.ndarray:
    """Centered ``(N, K)`` block spectra of a rectangular-windowed
    series, referenced to absolute time."""
    samples = np.asarray(samples, dtype=np.complex128)
    k = np.arange(fft_size) - fft_size // 2
    t = np.arange(fft_size)
    starts = np.arange(num_blocks) * hop
    blocks = samples[starts[:, None] + t[None, :]]
    # exp(-2 pi i k (s + t) / K) = exp(-2 pi i k s / K) exp(-2 pi i k t / K)
    dft = np.exp(-2j * np.pi * np.outer(t, k) / fft_size)
    phase = np.exp(-2j * np.pi * np.outer(starts, k) / fft_size)
    return phase * (blocks @ dft)


def dscf(spectra: np.ndarray, m: int) -> np.ndarray:
    """Expression-3 DSCF ``S[f + M, a + M]`` of centered block spectra."""
    center = spectra.shape[1] // 2
    offsets = np.arange(-m, m + 1)
    plus = center + offsets[:, None] + offsets[None, :]
    minus = center + offsets[:, None] - offsets[None, :]
    return np.mean(spectra[:, plus] * np.conj(spectra[:, minus]), axis=0)


def coherence(spectra: np.ndarray, m: int) -> np.ndarray:
    """Spectral coherence ``C[f + M, a + M]`` of centered block spectra."""
    center = spectra.shape[1] // 2
    offsets = np.arange(-m, m + 1)
    plus = center + offsets[:, None] + offsets[None, :]
    minus = center + offsets[:, None] - offsets[None, :]
    power = np.mean(np.abs(spectra) ** 2, axis=0)
    return np.abs(dscf(spectra, m)) / np.sqrt(power[plus] * power[minus])


def peak(surface: np.ndarray) -> tuple[float, int]:
    """Peak of a ``(2M+1, 2M+1)`` surface over ``a != 0``, and the
    cyclic offset ``a`` where it sits."""
    m = (surface.shape[1] - 1) // 2
    masked = surface.copy()
    masked[:, m] = -np.inf
    flat = int(np.argmax(masked))
    return float(masked.ravel()[flat]), flat % surface.shape[1] - m


def statistic(
    samples: np.ndarray, fft_size: int, num_blocks: int, hop: int, m: int
) -> float:
    """The detection statistic of one observation."""
    spectra = block_spectra(samples, fft_size, num_blocks, hop)
    return peak(coherence(spectra, m))[0]


def order_statistic_exceedance_bounds(
    calibration: int, rank_low: int, rank_high: int, fresh: int,
    tail: float = 1e-6,
) -> tuple[int, int]:
    """Bounds on fresh noise trials above a calibrated threshold.

    Under the null model (every statistic an independent draw of one
    continuous law), calibration and fresh statistics are exchangeable.
    If the threshold is the ``r``-th smallest of ``n`` calibration
    statistics, the count ``X`` of ``F`` fresh statistics above it has

        P(X = j) = C(r - 1 + F - j, F - j) C(n - r + j, j) / C(n + F, F)

    for any noise law.  A quantile that interpolates between order
    statistics ``rank_low <= rank_high`` lies between them, so the
    count is bracketed by the two laws.  Returns ``(low, high)`` with
    ``P(X < low) <= tail`` under ``rank_high`` and ``P(X > high) <=
    tail`` under ``rank_low``.
    """
    from math import comb

    def law(rank: int) -> np.ndarray:
        total = comb(calibration + fresh, fresh)
        return np.array(
            [
                comb(rank - 1 + fresh - j, fresh - j)
                * comb(calibration - rank + j, j)
                / total
                for j in range(fresh + 1)
            ]
        )

    at_most = np.cumsum(law(rank_high))  # P(X <= j), fewest exceedances
    at_least = np.cumsum(law(rank_low)[::-1])[::-1]  # P(X >= j), most
    low = int(np.sum(at_most <= tail))
    beyond = np.append(at_least[1:], 0.0)  # P(X > j)
    high = int(np.argmax(beyond <= tail))
    return low, high


def binomial_upper(trials: int, p: float, tail: float = 1e-6) -> int:
    """Smallest count ``c`` with ``P(Binomial(trials, p) > c) <= tail``."""
    from math import comb

    cumulative = 0.0
    for count in range(trials + 1):
        cumulative += comb(trials, count) * p**count * (1 - p) ** (
            trials - count
        )
        if 1.0 - cumulative <= tail:
            return count
    return trials
