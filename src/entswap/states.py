"""Factories for the states the swapping protocol consumes and produces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .linalg import DensityMatrix, _row_sums, partial_trace

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


def _pair_amplitudes(w) -> np.ndarray:
    """Amplitudes of sqrt(w)|00> + sqrt(1-w)|11> for each weight in `w`, shape (..., 4)."""
    w = np.asarray(w, dtype=float)
    zero = np.zeros_like(w)
    return np.stack([np.sqrt(w), zero, zero, np.sqrt(1.0 - w)], axis=-1)


def schmidt_pair(w: float) -> PureState:
    """Two-qubit pair sqrt(w)|00> + sqrt(1-w)|11>."""
    return PureState(_pair_amplitudes(require_weight(w)), (2, 2))


def haar_states(dim_a: int, dim_b: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` Haar-random bipartite pure states as rows of an array.

    State k consumes uniform draws [2*d*(start+k), 2*d*(start+k+1)) of the
    seed's stream, d = dim_a*dim_b, so batches of any size agree draw for
    draw. Rows are scaled in place by their reciprocal norms, as numpy
    divides complex by real, with the norms summed as `np.linalg.norm` sums
    them: the bits of z / np.linalg.norm(z, axis=1, keepdims=True).
    """
    d = dim_a * dim_b
    z = _rng.complex_normals(seed, 2 * d * start, count * d).reshape(count, d)
    norm2 = _row_sums((z.conj() * z).real.T)
    parts = z.view(np.float64)  # (count, 2d): each amplitude's real and imaginary part
    parts *= (1.0 / np.sqrt(norm2))[:, None]
    return z
