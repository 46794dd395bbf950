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

import functools

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_DOUBLE_SCALE = 2.0**-53
_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))
_MIX_BLOCK = 16384  # words per block of `_draws`: its one scratch, 128 KB
SHOT_CHUNK = 1 << 16  # words per chunk of `_label_counts`: its one buffer, 512 KB, for any count


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws [start, start + count) as doubles in [0, 1), vectorized.

    `_draws` makes the words in the output's own memory, viewed as uint64,
    and they are then cast in place, so a call holds the output and one block.
    """
    out = np.empty(count, dtype=np.float64)
    words = _draws(seed, start, out.view(np.uint64))
    # exact: a word < 2**53 converts without rounding, and int64 converts faster than
    # uint64; the cast reads each word before it writes its double over it, and neither
    # it nor the in-place scale needs a conversion buffer
    np.copyto(out, words.view(np.int64))
    out *= _DOUBLE_SCALE
    return out


def _draws(seed: int, start: int, words: np.ndarray) -> np.ndarray:
    """Draws [start, start + len(words)) as their top 53 bits, made in the uint64 array `words`.

    The words are made one block of _MIX_BLOCK at a time: each block's
    counters are a cached table of steps plus one offset, and its
    xor-shifts go through one scratch block, so a call holds `words` and
    one block. Returns `words`, each an integer m < 2**53 whose uniform is
    m * 2**-53.
    """
    count = len(words)
    steps = _counter_steps(_MIX_BLOCK)
    scratch = np.empty(min(count, _MIX_BLOCK), dtype=np.uint64)
    origin = int(seed) + int(start) * GOLDEN
    for a in range(0, count, _MIX_BLOCK):
        z = words[a:a + _MIX_BLOCK]
        t = scratch[:len(z)]
        # the counters seed + (start + a + j + 1) * GOLDEN, wrapped mod 2**64
        np.add(steps[:len(z)], np.uint64((origin + a * GOLDEN) & MASK64), out=z)
        np.right_shift(z, _S30, out=t)
        z ^= t
        z *= _M1
        np.right_shift(z, _S27, out=t)
        z ^= t
        z *= _M2
        np.right_shift(z, _S31, out=t)
        z ^= t
    words >>= _S11
    return words


@functools.cache
def _counter_steps(block: int) -> np.ndarray:
    """(j + 1) * GOLDEN mod 2**64 for j < block: a block's counters, less its offset.

    Made once per block size and kept (128 KB at the default block), so no
    call forms its counters with an arange and a multiply.
    """
    steps = np.arange(1, block + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN)
    steps.flags.writeable = False
    return steps


def complex_normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard circular complex Gaussians; entry k uses draws start+2k, start+2k+1.

    Radius from the exponential law of |z|^2 and a uniform phase is exactly
    the polar form of a complex Gaussian, so normalized batches are Haar
    directions. r*cos(2*pi*u) and r*sin(2*pi*u) go into the two halves of
    the output: the bits of r * exp(2j*pi*u) wherever numpy's complex exp
    is cos + i sin (a test pins it), without its temporaries. The draws take
    the output's bytes (and one block of `uniforms` while they are made),
    and each buffer is dropped as soon as it is spent, so the call never
    holds more than twice the output's bytes.
    """
    u = uniforms(seed, start, 2 * count)
    r = np.sqrt(-np.log1p(-u[0::2]))  # 1 - u > 0 because u < 1
    theta = u[1::2] * (2.0 * np.pi)
    del u
    x, y = np.cos(theta), np.sin(theta)
    del theta
    x *= r
    y *= r
    del r
    z = np.empty(count, dtype=complex)
    z.real, z.imag = x, y
    return z


def _boundaries(probs) -> tuple[np.ndarray, int, int]:
    """Checked inner boundaries of a probability vector: (cum[first:last], first, size).

    Rejects anything but a nonempty vector of finite nonnegative entries
    summing to 1 within 1e-9; every comparison is written so that NaN fails it.
    first and last are the first and last positive labels, and only the
    boundaries between them can split draws: a draw at or below cum[first]
    goes to first, one above cum[last - 1] to last, even past cum[-1] through
    rounding or as NaN, and a zero label between them repeats the boundary
    before it, so no draw reaches it.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0 or not (p >= 0.0).all():
        raise ValueError("probs must be a nonempty nonnegative vector")
    cum = np.cumsum(p)
    if not abs(cum[-1] - 1.0) <= 1e-9:
        raise ValueError(f"probabilities sum to {cum[-1]}, not 1")
    positive = np.flatnonzero(p > 0.0)
    first, last = int(positive[0]), int(positive[-1])
    return cum[first:last], first, p.size


def categorical(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Map uniforms to label indices by cumulative-probability inversion.

    Label of u is the smallest k with u <= cum[k] and probs[k] > 0, so ties
    on a boundary land on the lower-indexed label and zero-probability
    labels are never chosen; `_boundaries` decides where a draw outside
    the boundaries goes.
    """
    inner, first, _ = _boundaries(probs)
    return first + np.searchsorted(inner, np.asarray(u, dtype=float), side="left")


def _label_counts(seed: int, count: int, probs) -> np.ndarray:
    """Per-label counts of `categorical` on draws [0, count) of the seed's stream, no draw labelled.

    The draws are made SHOT_CHUNK at a time into one buffer of `_draws`
    words. A uniform m * 2**-53 is at or below a boundary c exactly when
    m <= floor(c * 2**53): the scaling is exact and m an integer, so each
    `_boundaries` cut becomes that integer, and words (< 2**53) and cuts
    (<= 2**53) are compared as float64 bits, finite nonnegative doubles
    that IEEE 754 orders as their bits. The running count of the draws at
    or below cut j is those labelled first + j or lower; differenced between
    0 and `count` once, at the end, the counts give the draws of labels
    first to last, and every other label counts nothing.
    """
    cuts, first, size = _boundaries(probs)
    # rebound, so that the boundaries' array is freed before the draws are made
    cuts = np.floor(cuts * 2.0**53).astype(np.uint64).view(np.float64).tolist()
    at_most = [0] * len(cuts)
    buffer = np.empty(min(SHOT_CHUNK, count), dtype=np.uint64)
    for start in range(0, count, SHOT_CHUNK):
        u = _draws(seed, start, buffer[:count - start]).view(np.float64)
        at_most = [n + np.count_nonzero(u <= c) for n, c in zip(at_most, cuts)]
    counts = np.zeros(size, dtype=np.int64)
    counts[first:first + len(cuts) + 1] = np.diff([0, *at_most, count])
    return counts
