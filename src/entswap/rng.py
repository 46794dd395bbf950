"""Deterministic counter-based random numbers (a SplitMix64 stream).

Draw number i (0-based) of the stream with 64-bit seed s is

    raw(s, i) = mix64((s + (i + 1) * GOLDEN) mod 2**64)

where GOLDEN = 0x9E3779B97F4A7C15 and mix64 is the SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with every step on 64-bit words. A uniform double keeps the top 53 bits,
u = (raw >> 11) * 2**-53, so u lies in [0, 1). Each draw is a pure
function of (seed, index): vectorized evaluation, resuming mid-stream,
and chunking by counter range are all bit-identical to drawing one at a
time.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0**-53


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start + count) as doubles in [0, 1), vectorized."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & MASK64) + idx * np.uint64(GOLDEN)  # wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE


def complex_normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard circular complex Gaussians; entry k uses draws start+2k, start+2k+1.

    Radius from the exponential law of |z|^2 and a uniform phase is exactly
    the polar form of a complex Gaussian, so normalized batches are Haar
    directions.
    """
    u = uniforms(seed, start, 2 * count)
    r = np.sqrt(-np.log1p(-u[0::2]))  # 1 - u > 0 because u < 1
    return r * np.exp(2j * np.pi * u[1::2])


def categorical(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Map uniforms to label indices by cumulative-probability inversion.

    Label of u is the smallest k with u <= cum[k] and probs[k] > 0, so ties
    on a boundary land on the lower-indexed label and zero-probability
    labels are never chosen. A draw beyond the last boundary (possible only
    through rounding of the cumulative sum) lands on the last
    positive-probability label.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0 or np.any(p < 0.0):
        raise ValueError("probs must be a nonempty nonnegative vector")
    cum = np.cumsum(p)
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {cum[-1]}, not 1")
    positive = np.flatnonzero(p > 0.0)
    idx = np.searchsorted(cum, np.asarray(u, dtype=float), side="left")
    idx = np.where(idx >= p.size, positive[-1], idx)
    return np.maximum(idx, positive[0])
