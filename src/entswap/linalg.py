"""Dense complex linear algebra for small quantum systems (dimension <= 16).

All carriers are plain numpy complex128 arrays. Composite indices are
big-endian over the subsystem list: the first subsystem is the most
significant digit, which matches numpy's kron/reshape ordering. Every
function here is pure, so concurrent callers never interfere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12


class NonHermitianError(ValueError):
    """Raised when an operation that requires a Hermitian matrix gets one that is not."""


def _check_hermitian(a: np.ndarray, ndims: tuple[int, ...]) -> None:
    """Raise unless `a` has ndim in `ndims` and is square, finite and Hermitian within 1e-12."""
    if a.ndim not in ndims or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix with ndim in {ndims}, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # a NaN or inf entry gives a NaN or inf deviation, which fails
        deviation = np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0)
    if not deviation <= HERMITICITY_TOL:
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        raise NonHermitianError("matrix is not Hermitian within 1e-12")


def _check_density(m: np.ndarray, ndims: tuple[int, ...]) -> None:
    """Raise unless each matrix of `m` (..., d, d) is square, finite, Hermitian and of unit trace."""
    _check_hermitian(m, ndims)
    if not (abs(m.trace(axis1=-2, axis2=-1) - 1.0) <= TRACE_TOL).all():
        raise ValueError("every trace must be 1 within 1e-12")


def require_integer(value, name: str) -> int:
    """`value` as an int: a bool, float, string or other non-integer raises ValueError, never truncated or parsed."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_dims(dims, size: int) -> tuple[int, ...]:
    """`dims` as a tuple of ints; raise unless it is a sequence of positive integers whose product is `size`."""
    if not np.iterable(dims):
        raise ValueError(f"dims must be a sequence of integers, got {dims!r}")
    dims = tuple(require_integer(d, "a subsystem dim") for d in dims)
    if not dims or any(d < 1 for d in dims) or math.prod(dims) != size:
        raise ValueError(f"subsystem dims {dims} do not factor dimension {size}")
    return dims


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix together with its subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        _check_density(m, (2,))
        dims = _check_dims(self.dims, m.shape[0])
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce onto the kept subsystems, summing out the rest.

    `keep` is any nonempty collection of subsystem indices; the kept
    subsystems stay in their original order.
    """
    if not np.iterable(keep):
        raise ValueError(f"keep must be a collection of subsystem indices, got {keep!r}")
    n = len(rho.dims)
    kept = sorted({require_integer(k, "a keep index") for k in keep})
    if not kept:
        raise ValueError("keep must name at least one subsystem")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} subsystems")
    if len(kept) == n:
        return rho
    # a traced subsystem's column label repeats its row label, so einsum sums its diagonal
    cols = [n + i if i in kept else i for i in range(n)]
    t = np.einsum(rho.matrix.reshape(rho.dims * 2), [*range(n), *cols], kept + [n + i for i in kept])
    dims = tuple(rho.dims[i] for i in kept)
    d = math.prod(dims)
    return DensityMatrix(t.reshape(d, d), dims)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, or of each matrix in a stack.

    `m` is one (n, n) matrix, giving shape (n,), or a stack (N, n, n), giving
    shape (N, n), finite and Hermitian within 1e-12: `_eigenvalues` solves it.
    """
    a = np.asarray(m, dtype=complex)
    _check_hermitian(a, (2, 3))
    planes = np.moveaxis(a, (-2, -1), (0, 1))
    return np.moveaxis(_eigenvalues(planes.real, planes.imag), 0, -1)


def _eigenvalues(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, rows (k, ...), of the Hermitian matrices held as planes re, im (k, k, ...).

    Only the lower triangle is read. A 2x2 spectrum is a closed form with
    contiguous rows, exact on a diagonal matrix and else within about 1e-16
    times its norm; larger ones go to `np.linalg.eigvalsh`, which may raise
    `LinAlgError`. Each matrix gets the bits of a solve on its own.
    """
    if len(re) == 2:
        return _qubit_eigenvalues(re[0, 0], re[1, 1], re[1, 0] + 1j * im[1, 0])
    m = np.empty(re.shape[2:] + re.shape[:2], dtype=complex)
    m.real, m.imag = np.moveaxis(re, (0, 1), (-2, -1)), np.moveaxis(im, (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.eigvalsh(m), -1, 0)


def _qubit_eigenvalues(d0, d1, b) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian 2x2 matrices [[d0, b*], [b, d1]], as rows (2, ...).

    lambda = mean -+ hypot(h, |b|) with h the half gap, written as the outer
    diagonal entry -+ s so that a zero b gives back the diagonal exactly;
    h halves before it subtracts, so finite inputs cannot overflow.
    """
    h = np.abs(0.5 * d0 - 0.5 * d1)
    s = np.hypot(h, np.abs(b)) - h
    lam = np.empty((2,) + s.shape)
    np.subtract(np.minimum(d0, d1), s, lam[0, ...])
    np.add(np.maximum(d0, d1), s, lam[1, ...])
    return lam


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the first axis of x (d, ...), added in the order numpy's `sum` adds a row of d.

    numpy starts from 0.0 and adds fewer than eight terms one after another.
    From eight terms on (up to 128) it adds term j into partial sum j mod 8
    over the whole blocks of eight, combines the partial sums as ((r0 + r1)
    + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the terms left over one
    at a time. So `_row_sums(x.T)` is `x.sum(axis=-1)` bit for bit, in any
    layout of x, with each step one addition of whole rows.
    """
    d = len(x)
    if d < 8:
        out, rest = 0.0 + x[0], x[1:]
    else:
        whole = d - d % 8
        r = [functools.reduce(np.add, x[j:whole:8]) for j in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        out, rest = 0.0 + tree, x[whole:]
    for row in rest:
        out += row
    return out
