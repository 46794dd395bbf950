"""Factories for the states the swapping protocol consumes and produces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .linalg import DensityMatrix, partial_trace

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
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims) or math.prod(dims) != amps.size:
            raise ValueError(f"dims {dims} do not match amplitude count {amps.size}")
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            raise ValueError("amplitudes have non-finite entries")
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} differs from 1 beyond 1e-12")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def reduced(self, keep) -> DensityMatrix:
        rho = DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)
        return partial_trace(rho, keep)


def require_weight(value, name: str = "weight"):
    """Validate Schmidt weights: one number or an array of them, each in [0, 1].

    NaN fails the check like any other value outside the interval. Returns
    a float64 scalar for a scalar and a float64 array for an array.
    """
    w = np.asarray(value, dtype=float)
    if not ((w >= 0.0) & (w <= 1.0)).all():
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return w[()]


def schmidt_pair(w: float) -> PureState:
    """Two-qubit pair sqrt(w)|00> + sqrt(1-w)|11>."""
    w = require_weight(w)
    return PureState(np.array([math.sqrt(w), 0.0, 0.0, math.sqrt(1.0 - w)]), (2, 2))


def haar_states(dim_a: int, dim_b: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` Haar-random bipartite pure states as rows of an array.

    State k consumes uniform draws [2*d*(start+k), 2*d*(start+k+1)) of the
    seed's stream, d = dim_a*dim_b, so batches of any size agree draw for
    draw.
    """
    d = dim_a * dim_b
    z = _rng.complex_normals(seed, 2 * d * start, count * d).reshape(count, d)
    return z / np.linalg.norm(z, axis=1, keepdims=True)
