"""Brute-force reference computations, deliberately separate from the library paths.

Each function here recomputes something the library produces analytically
or through optimized numpy routes, using the most literal method available:
explicit index loops, explicit projections, determinant sign changes,
one random draw at a time, math-module arithmetic on one number at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from entswap import rng, swap
from entswap.states import BELL_LABELS, PureState, schmidt_pair

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


def eigvalsh_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack by LAPACK alone, at every size.

    `np.linalg.eigvalsh` on the Hermitian part (m + m^H) / 2, as the library
    solves n >= 3: the reference its closed 2x2 form is held to.
    """
    a = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2)))


# splitmix64 one draw at a time, with its own copy of the constants
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def raw_draw(seed: int, index: int) -> int:
    """The 64-bit word of draw `index` from `seed`'s stream."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def uniform(seed: int, index: int) -> float:
    """Draw `index` as a double in [0, 1): its top 53 bits times 2**-53."""
    return (raw_draw(seed, index) >> 11) * 2.0**-53


@dataclass(frozen=True)
class RngState:
    """Position in a seeded stream; value semantics, cheap to copy."""

    seed: int
    counter: int = 0

    def draw(self) -> tuple[float, "RngState"]:
        return uniform(self.seed, self.counter), RngState(self.seed, self.counter + 1)


def sample_bbm(p: float, q: float, state: RngState) -> tuple[str, RngState]:
    """Draw one Bell label; returns the label and the advanced stream state."""
    probs = np.array(list(swap.outcome_probabilities(p, q).values()))
    u, nxt = state.draw()
    idx = int(rng.categorical(np.array([u]), probs)[0])
    return BELL_LABELS[idx], nxt


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by explicit index loops; two vectors give a vector.

    out[i * rows_b + k, j * cols_b + l] = a[i, j] * b[k, l], the big-endian
    composite order the library uses.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    vectors = a.ndim == 1 and b.ndim == 1
    a2 = a.reshape(a.shape[0], -1)
    b2 = b.reshape(b.shape[0], -1)
    (ra, ca), (rb, cb) = a2.shape, b2.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for col in range(cb):
                    out[i * rb + k, j * cb + col] = a2[i, j] * b2[k, col]
    return out.reshape(-1) if vectors else out


def bell_state(label: str) -> PureState:
    """One of the four Bell states by label."""
    if label not in BELL_MATRICES:
        raise ValueError(f"unknown Bell label {label!r}, expected one of {BELL_LABELS}")
    return PureState(BELL_MATRICES[label].reshape(4), (2, 2))


def composite_state(p: float, q: float) -> PureState:
    """Both source pairs side by side on wires (A, C, C', B).

    The measured qubits sit at positions 1 and 2, which keeps them adjacent
    for the Bell projection.
    """
    amps = kron(schmidt_pair(p).amplitudes, schmidt_pair(q).amplitudes)
    return PureState(amps, (2, 2, 2, 2))


def fidelity(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2; insensitive to global phase."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


_FD_STEP = 1e-5


def stationarity_check(q: float, branch: str) -> tuple[float, float, int]:
    """Finite-difference check that the branch entropy peaks where it should.

    p_star is 1-q for the phi branch and q for the psi branch. Returns
    (p_star, central first-difference quotient at p_star, sign of the
    second difference); a maximum shows up as a tiny residual with sign -1.
    """
    if branch == "phi":
        p_star, pick = 1.0 - q, 0
    elif branch == "psi":
        p_star, pick = q, 1
    else:
        raise ValueError(f"branch must be 'phi' or 'psi', got {branch!r}")
    h = _FD_STEP
    if not 0.0 < q < 1.0 or p_star - h < 0.0 or p_star + h > 1.0:
        raise ValueError(f"q={q} leaves no room for the finite-difference window")
    s0 = swap.post_entropies(p_star, q)[pick]
    sp = swap.post_entropies(p_star + h, q)[pick]
    sm = swap.post_entropies(p_star - h, q)[pick]
    first = (sp - sm) / (2.0 * h)
    second = sp - 2.0 * s0 + sm
    sign = 0 if second == 0.0 else (1 if second > 0.0 else -1)
    return p_star, first, sign


def three_sigma(prob: float, shots: int) -> float:
    """Normal-approximation 3-sigma band for a binomial frequency."""
    return 3.0 * math.sqrt(prob * (1.0 - prob) / shots)


def binary_entropy(x: float, y: float) -> float:
    """-x log2 x - y log2 y with 0 log 0 = 0, one term at a time."""
    return sum(-t * math.log2(t) for t in (x, y) if t > 0.0)


def figure_rows(which: str, grid: int) -> list[list[float]]:
    """Rows of one `figures` CSV, point by point from the closed forms with math-module arithmetic."""
    rows = []
    for i in range(grid):
        x = i / (grid - 1)
        if which in ("1a", "1b"):
            row = [x]
            for q in (0.1, 0.25, 0.5, 0.75, 0.9):
                p, u, v = x, 1.0 - x, 1.0 - q
                if which == "1a":
                    n2 = p * q + u * v
                    row.append(binary_entropy(p * q / n2, u * v / n2))
                else:
                    n2 = p * v + u * q
                    row.append(binary_entropy(u * q / n2, p * v / n2))
        elif which == "2a":
            q, v = x, 1.0 - x
            row = [q, q * v, (q * q + v * v) / 2.0, 0.5 - 2.0 * q * v]
        elif which == "2b":
            q, p = x, 1.0 - x
            s_initial = binary_entropy(p, 1.0 - p)
            # psi+ on p = 1-q: rho_A = diag(p(1-q), (1-p)q) / (p(1-q) + (1-p)q)
            n2 = p * (1.0 - q) + (1.0 - p) * q
            s_final = binary_entropy(p * (1.0 - q) / n2, (1.0 - p) * q / n2)
            row = [q, s_initial, 1.0 - s_initial, s_final, 1.0 - s_final]
        else:
            raise ValueError(f"unknown figure {which!r}")
        rows.append(row)
    return rows


def csv_lines_per_cell(rows: np.ndarray) -> str:
    """CSV lines of a block, one `format(x, ".17g")` call per cell."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows.tolist())
