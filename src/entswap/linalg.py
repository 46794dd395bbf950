"""Dense complex linear algebra for small quantum systems (dimension <= 16).

All carriers are plain numpy complex128 arrays. Composite indices are
big-endian over the subsystem list: the first subsystem is the most
significant digit, which matches numpy's kron/reshape ordering. Every
function here is pure, so concurrent callers never interfere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12


class NonHermitianError(ValueError):
    """Raised when an operation that requires a Hermitian matrix gets one that is not."""


def _checked_adjoint(a: np.ndarray, ndims: tuple[int, ...]) -> np.ndarray:
    """a^H, once `a` is checked: ndim in `ndims`, square, finite and Hermitian within 1e-12."""
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix with ndim in {ndims}, got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    # a NaN or inf entry makes the deviation NaN or inf, so it fails here
    if not np.abs(a - ah).max(initial=0.0) <= HERMITICITY_TOL:
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        raise NonHermitianError("matrix is not Hermitian within 1e-12")
    return ah


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix together with its subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        _checked_adjoint(m, (2,))
        if not dims or any(d < 1 for d in dims) or math.prod(dims) != m.shape[0]:
            raise ValueError(f"subsystem dims {dims} do not factor dimension {m.shape[0]}")
        tr = complex(m.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within 1e-12, got {tr}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce onto the kept subsystems, summing out the rest.

    `keep` is any nonempty collection of subsystem indices; the kept
    subsystems stay in their original order.
    """
    n = len(rho.dims)
    kept = sorted({int(k) for k in keep})
    if not kept:
        raise ValueError("keep must name at least one subsystem")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} subsystems")
    if len(kept) == n:
        return rho
    dims = list(rho.dims)
    t = rho.matrix.reshape(dims + dims)
    # trace removes an axis pair but leaves the order of the others alone
    for ax in reversed([i for i in range(n) if i not in kept]):
        t = np.trace(t, axis1=ax, axis2=ax + len(dims))
        del dims[ax]
    d = math.prod(dims)
    return DensityMatrix(t.reshape(d, d), tuple(dims))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, or of each matrix in a stack.

    `m` is one (n, n) matrix, giving shape (n,), or a stack (N, n, n),
    giving shape (N, n). A matrix Hermitian within 1e-12 is solved as its
    Hermitian part (m + m^H) / 2. A 2x2 spectrum is a closed form, computed
    elementwise: it is exact on a diagonal matrix and otherwise accurate to
    about 1e-16 times the matrix norm. Larger matrices go to LAPACK through
    `np.linalg.eigvalsh`, which reads only one triangle; a LAPACK failure to
    converge raises numpy's `LinAlgError`. A stack gives each matrix the bits
    a solve on its own gives.
    """
    a = np.asarray(m, dtype=complex)
    ah = _checked_adjoint(a, (2, 3))
    if a.shape[-1] != 2:
        h = 0.5 * a  # halve each term before the sum, so finite inputs cannot overflow;
        h += np.multiply(ah, 0.5, out=ah)  # ah is a fresh conjugate: halve it in place
        return np.linalg.eigvalsh(h)
    # lambda = mean -+ hypot(h, |b|) with h the half gap, written as the outer
    # diagonal entry -+ s so that a zero b gives back the diagonal exactly.
    # h halves before it subtracts, and b adds half the (checked, tiny)
    # Hermiticity deviation, so finite inputs cannot overflow.
    d0, d1 = a[..., 0, 0].real, a[..., 1, 1].real
    b = a[..., 1, 0] + 0.5 * (ah[..., 1, 0] - a[..., 1, 0])
    h = np.abs(0.5 * d0 - 0.5 * d1)
    s = np.hypot(h, np.abs(b)) - h
    return np.stack([np.minimum(d0, d1) - s, np.maximum(d0, d1) + s], axis=-1)
