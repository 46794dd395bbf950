"""Brute-force reference computations, deliberately separate from the library paths.

Each function here recomputes something the library produces analytically
or through optimized numpy routes, using the most literal method available:
explicit index loops, explicit projections, determinant sign changes.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = np.sqrt(2.0)

# B[c, c'] amplitude matrices of the four Bell states on the measured wires
BELL_MATRICES = {
    "phi+": np.array([[1, 0], [0, 1]], dtype=complex) / _SQRT2,
    "phi-": np.array([[1, 0], [0, -1]], dtype=complex) / _SQRT2,
    "psi+": np.array([[0, 1], [1, 0]], dtype=complex) / _SQRT2,
    "psi-": np.array([[0, 1], [-1, 0]], dtype=complex) / _SQRT2,
}


def project_bbm(psi16: np.ndarray) -> dict[str, tuple[float, np.ndarray | None]]:
    """Measure wires 1 and 2 of an (A, C, C', B) state vector in the Bell basis.

    Returns, per label, the outcome probability and the normalized AB post
    state (None when the probability is zero). This is the projector route:
    contract the actual composite amplitudes with each Bell bra.
    """
    t = np.asarray(psi16, dtype=complex).reshape(2, 2, 2, 2)
    out: dict[str, tuple[float, np.ndarray | None]] = {}
    for label, bell in BELL_MATRICES.items():
        amp_ab = np.einsum("cd,acdb->ab", bell.conj(), t).reshape(4)
        prob = float(np.vdot(amp_ab, amp_ab).real)
        post = amp_ab / np.sqrt(prob) if prob > 0.0 else None
        out[label] = (prob, post)
    return out


def _flat_index(keep_code: int, traced_code: int, dims, keep, traced) -> int:
    """Big-endian composite index from separate kept/traced digit codes."""
    digits = [0] * len(dims)
    rem = keep_code
    for idx in reversed(keep):
        digits[idx] = rem % dims[idx]
        rem //= dims[idx]
    rem = traced_code
    for idx in reversed(traced):
        digits[idx] = rem % dims[idx]
        rem //= dims[idx]
    flat = 0
    for d, digit in zip(dims, digits):
        flat = flat * d + digit
    return flat


def partial_trace_loops(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit index summation, no reshapes."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    dt = int(np.prod([dims[i] for i in traced])) if traced else 1
    out = np.zeros((dk, dk), dtype=complex)
    for ik in range(dk):
        for jk in range(dk):
            acc = 0.0 + 0.0j
            for it in range(dt):
                row = _flat_index(ik, it, dims, keep, traced)
                col = _flat_index(jk, it, dims, keep, traced)
                acc += mat[row, col]
            out[ik, jk] = acc
    return out


def det_gauss(m: np.ndarray) -> complex:
    """Determinant by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) == 0.0:
            return 0.0 + 0.0j
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det *= a[k, k]
        a[k + 1 :, k:] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k:])
    return det


def charpoly_eigenvalues(h: np.ndarray, samples: int = 4001, tol: float = 1e-13) -> list[float]:
    """Real roots of det(H - x I) for Hermitian H, found by sign-change bisection.

    Scans a Gershgorin-bounded interval; assumes simple eigenvalues, which
    the seeded random test matrices have.
    """
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    radius = np.abs(h).sum(axis=1)
    lo = float((h.diagonal().real - radius).min()) - 1.0
    hi = float((h.diagonal().real + radius).max()) + 1.0

    def f(x: float) -> float:
        return det_gauss(h - x * np.eye(n)).real

    xs = np.linspace(lo, hi, samples)
    vals = [f(float(x)) for x in xs]
    roots: list[float] = []
    for k in range(samples - 1):
        if vals[k] == 0.0:
            roots.append(float(xs[k]))
            continue
        if (vals[k] > 0.0) != (vals[k + 1] > 0.0):
            a_x, b_x = float(xs[k]), float(xs[k + 1])
            fa = vals[k]
            while b_x - a_x > tol:
                mid = 0.5 * (a_x + b_x)
                fm = f(mid)
                if fm == 0.0:
                    a_x = b_x = mid
                    break
                if (fa > 0.0) != (fm > 0.0):
                    b_x = mid
                else:
                    a_x, fa = mid, fm
            roots.append(0.5 * (a_x + b_x))
    return roots


def jacobi_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of one Hermitian matrix, ascending, by scalar cyclic complex Jacobi.

    One matrix at a time with Python-level rotations and math-module
    trigonometry: the reference the vectorised library solver is held to.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    tol = 1e-14 * max(1.0, float(np.abs(a).max()))
    for _ in range(100):
        off = a - np.diag(np.diag(a))
        if np.abs(off).max() <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                h = abs(g)
                if h <= tol:
                    continue
                theta = 0.5 * math.atan2(2.0 * h, (a[p, p] - a[q, q]).real)
                c = math.cos(theta)
                s = math.sin(theta)
                phase = g / h
                pc = phase.conjugate()
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + pc * s * col_q
                a[:, q] = -s * col_p + pc * c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + phase * s * row_q
                a[q, :] = -s * row_p + phase * c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge within 100 sweeps")
    return np.sort(np.diag(a).real)
