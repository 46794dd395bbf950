"""Factories for the states the swapping protocol consumes and produces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .linalg import _check_dims, _row_sums, require_integer

NORM_TOL = 1e-12

#: canonical Bell-state order, used everywhere labels appear
BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over subsystems of the given dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        dims = _check_dims(self.dims, amps.size)
        # Python floats: a huge finite entry squares to inf with no warning, rejected below
        norm = math.sqrt(sum([x * x for x in amps.view(float).tolist()]))
        # a NaN or inf entry makes the norm NaN or inf, so it fails here
        if not abs(norm - 1.0) <= NORM_TOL:
            if not np.isfinite(amps).all():
                raise ValueError("amplitudes have non-finite entries")
            raise ValueError(f"state norm {norm} differs from 1 beyond 1e-12")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)


def require_weight(value, name: str = "weight"):
    """Validate Schmidt weights: one number or an array of them, each in [0, 1].

    NaN fails the check like any other value outside the interval. Returns
    a float64 scalar for a scalar and a float64 array for an array.
    """
    w = np.asarray(value, dtype=float)
    if not ((w >= 0.0) & (w <= 1.0)).all():
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return w[()]


def _one_weight(value, name: str):
    """`require_weight` for a constructor that takes one number: an array raises ValueError."""
    if np.ndim(value) != 0:
        raise ValueError(f"{name} must be one number, got shape {np.shape(value)}")
    return require_weight(value, name)


def schmidt_pair(w: float) -> PureState:
    """Two-qubit pair sqrt(w)|00> + sqrt(1-w)|11>."""
    w = _one_weight(w, "w")
    return PureState(np.array([math.sqrt(w), 0.0, 0.0, math.sqrt(1.0 - w)]), (2, 2))


def haar_states(dim_a: int, dim_b: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` Haar-random bipartite pure states as rows of an array, shape (count, dim_a*dim_b).

    State k consumes uniform draws [2*d*(start+k), 2*d*(start+k+1)) of the
    seed's stream, d = dim_a*dim_b, so batches of any size agree draw for
    draw. The squared norms are summed as `np.linalg.norm` sums them, from
    the complex product conj(z) * z: numpy may fuse that product's
    multiply-add, so re*re + im*im need not give the same bits. The rows are
    then scaled in place by their reciprocal norms, as numpy divides complex
    by real: the bits of z / np.linalg.norm(z, axis=1, keepdims=True). Every
    step works in place, so the call holds at most twice the rows' bytes.
    Each argument must be an integer; the seed is read mod 2**64, as the
    stream reads it.
    """
    args = {"dim_a": dim_a, "dim_b": dim_b, "seed": seed, "count": count, "start": start}
    dim_a, dim_b, seed, count, start = (require_integer(value, name) for name, value in args.items())
    for name, value, low in (("dim_a", dim_a, 1), ("dim_b", dim_b, 1), ("count", count, 0), ("start", start, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    d = dim_a * dim_b
    z = _rng.complex_normals(seed, 2 * d * start, count * d).reshape(count, d)
    mod2 = z.conj()
    np.multiply(mod2, z, out=mod2)
    inv = _row_sums(mod2.real.T)
    del mod2
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    parts = z.view(np.float64)  # (count, 2d): each amplitude's real and imaginary part
    parts *= inv[:, None]
    return z
