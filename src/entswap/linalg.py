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
EIG_CLAMP = 1e-12  # eigenvalues with |lam| below this count as exact zeros
EIG_NEG_TOL = 1e-10  # most negative eigenvalue tolerated on a density matrix

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


class NonHermitianError(ValueError):
    """Raised when an operation that requires a Hermitian matrix gets one that is not."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix together with its subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not dims or any(d < 1 for d in dims) or math.prod(dims) != m.shape[0]:
            raise ValueError(f"subsystem dims {dims} do not factor dimension {m.shape[0]}")
        # a NaN or inf entry makes the deviation NaN or inf, so it fails here
        if not np.abs(m - m.conj().T).max() <= HERMITICITY_TOL:
            if not np.isfinite(m).all():
                raise ValueError("density matrix has non-finite entries")
            raise NonHermitianError("matrix is not Hermitian within 1e-12")
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
    giving shape (N, n). Cyclic complex Jacobi, vectorised over the stack
    (Golub and Van Loan, Matrix Computations, 8.5): each rotation is a phase
    times a plane rotation that zeroes one off-diagonal pair exactly, and a
    matrix whose pair is already below tolerance is left alone while the
    others rotate. Sweeps repeat until no off-diagonal magnitude exceeds
    1e-14 (scaled up only for matrices far above unit entry scale), capped
    at 100 sweeps. A matrix Hermitian within 1e-12 is solved as its
    Hermitian part (m + m^H) / 2.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    ah = a.conj().swapaxes(-1, -2)
    if np.abs(a - ah).max(initial=0.0) > HERMITICITY_TOL:
        raise NonHermitianError("matrix is not Hermitian within 1e-12")
    # exactly Hermitian from here on, and the rotations keep it so: the upper
    # triangle alone decides convergence
    a = 0.5 * (a + ah)
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    tol = _JACOBI_TOL * np.abs(a).max(axis=(1, 2), initial=1.0)
    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                rotate = np.abs(a[:, p, q]) > tol
                if not rotate.any():
                    continue
                if sweep == _JACOBI_MAX_SWEEPS:
                    off = np.abs(a[:, ~np.eye(n, dtype=bool)]).max(axis=1)
                    worst = int(np.argmax(off))
                    raise ArithmeticError(
                        f"Jacobi eigensolver did not converge within {_JACOBI_MAX_SWEEPS} "
                        f"sweeps: largest off-diagonal magnitude {off[worst]:.3e} "
                        f"(tolerance {tol[worst]:.3e}) at batch index {worst}"
                    )
                rotated = True
                if rotate.all():
                    _rotate(a, p, q)
                else:
                    idx = np.flatnonzero(rotate)
                    sub = a[idx]
                    _rotate(sub, p, q)
                    a[idx] = sub
        if not rotated:
            break
    vals = np.sort(np.diagonal(a, axis1=1, axis2=2).real, axis=1)
    return vals[0] if single else vals


def _rotate(a: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation in the (p, q) plane of every matrix in the stack, in place."""
    g = a[:, p, q]
    h = np.abs(g)
    theta = 0.5 * np.arctan2(2.0 * h, (a[:, p, p] - a[:, q, q]).real)
    c = np.cos(theta)[:, None]
    s = np.sin(theta)[:, None]
    phase = (g / h)[:, None]
    pc = phase.conj()
    col_p, col_q = a[:, :, p], a[:, :, q]
    a[:, :, p], a[:, :, q] = c * col_p + pc * s * col_q, -s * col_p + pc * c * col_q
    row_p, row_q = a[:, p, :], a[:, q, :]
    a[:, p, :], a[:, q, :] = c * row_p + phase * s * row_q, -s * row_p + phase * c * row_q
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real
