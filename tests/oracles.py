"""Brute-force reference computations, deliberately separate from the library paths.

Each function here recomputes something the library produces analytically
or through optimized numpy routes, using the most literal method available:
explicit index loops, explicit projections, determinant sign changes,
one random draw at a time, math-module arithmetic on one number at a time.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import io
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from entswap import measures, rng, swap
from entswap.cli import VERIFY_MAX_DIM, main
from entswap.experiment import RunConfig, run_ensemble
from entswap.linalg import DensityMatrix, hermitian_eigenvalues, partial_trace
from entswap.states import BELL_LABELS, PureState, schmidt_pair

_SQRT2 = np.sqrt(2.0)

# every (DA, DB) that `verify --dims` accepts
VERIFY_DIMS = [(da, db) for da in range(2, VERIFY_MAX_DIM // 2 + 1) for db in range(2, VERIFY_MAX_DIM // da + 1)]

# the `verify --dims` at which Tier-1 and the output manifest hold the bytes of every chunking
BYTE_CHECK_DIMS = ["2,2", "3,2", "3,3", "8,2", "2,8", "4,4", "5,3"]

# a weight pair of every `swap` document shape: all branches live, the phi pair dead, the psi
# pair dead, the two golden documents, then the phi pair's probability 0.5 * n2 underflowing
# to 0.0 though n2 does not
DOCUMENT_SHAPES = [(0.3, 0.6), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (0.5, 0.5), (1.0, 5e-324), (5e-324, 1.0)]

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


@functools.cache
def projector_grid() -> tuple[tuple[dict[str, tuple[float, np.ndarray | None]], ...], ...]:
    """`project_bbm` of `composite_state(p, q)` at every p, q = i / 100, i = 0..100.

    Made once per session and indexed [i][j], with the post states
    read-only. Each source pair is built once per weight; the `kron` of two
    of them is `composite_state`'s amplitudes bit for bit.
    """
    pairs = [schmidt_pair(i / 100).amplitudes for i in range(101)]
    grid = tuple(tuple(project_bbm(kron(a, b)) for b in pairs) for a in pairs)
    for row in grid:
        for branches in row:
            for _, post in branches.values():
                if post is not None:
                    post.flags.writeable = False
    return grid


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


@functools.cache
def _trace_index(dims: tuple[int, ...], keep: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """index[ik][it]: the composite index of kept digit code ik and traced digit code it."""
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    dt = math.prod(dims[i] for i in traced)
    return tuple(tuple(_flat_index(ik, it, dims, keep, traced) for it in range(dt)) for ik in range(dk))


def reduced(state: PureState, keep) -> DensityMatrix:
    """The reduction of a pure state onto the subsystems `keep`, by the package's `partial_trace`."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return partial_trace(DensityMatrix(rho, state.dims), keep)


def reduced_stack(psi: np.ndarray) -> np.ndarray:
    """rho_A = psi psi^H of each pure state in a stack of amplitude matrices psi[N, dA, dB], by one einsum."""
    return np.einsum("nab,ncb->nac", psi, psi.conj())


def pure_report(psi: np.ndarray) -> measures.MeasureReport:
    """The report of rho_A for each pure state in psi[N, dA, dB], by `measures._plane_gram` and `_gram_report`.

    A C-contiguous complex stack is read in place; a real or strided one is
    copied once to a complex stack.
    """
    return measures._gram_report(*measures._plane_gram(np.asarray(psi)))


def partial_trace_loops(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace by explicit index summation, no reshapes."""
    index = _trace_index(tuple(dims), tuple(sorted(keep)))
    entries = mat.tolist()  # Python numbers, cheaper to read one at a time
    out = np.zeros((len(index), len(index)), dtype=complex)
    for ik, rows in enumerate(index):
        for jk, cols in enumerate(index):
            acc = 0.0 + 0.0j
            for row, col in zip(rows, cols):
                acc += entries[row][col]
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
        # the largest off-diagonal modulus, one scalar at a time: a diagonal matrix stops here
        if max(abs(a[i, j]) for i in range(n) for j in range(n) if i != j) <= tol:
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
    return np.sort(a.diagonal().real)


def eigvalsh_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack by LAPACK alone, at every size.

    `np.linalg.eigvalsh`, which reads the lower triangle as the library does:
    the reference the library's closed 2x2 form is held to.
    """
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))


def entropy_columns(lam: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum along the last axis of `lam`, by numpy's `sum` over it.

    The library's entropy before it summed whole rows: the reference
    `measures._entropy` is held to bit for bit. 0 log 0 = 0, and nothing
    else is read as zero: a solved spectrum takes `clamped` first.
    """
    kept = np.where(lam <= 0.0, 1.0, lam)
    return 0.0 - (kept * np.log2(kept)).sum(axis=-1)


def entropy_digits(spectrum) -> float:
    """-sum t log2 t in bits over a spectrum of floats or Decimals, each read exactly, at 60 digits.

    0 log 0 = 0. The reference the closed-form entropies are held to within
    an ulp or two: its own error is far below the double it rounds to.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        terms = [t * t.ln() for t in map(decimal.Decimal, spectrum) if t > 0]
        return float(-sum(terms, decimal.Decimal(0)) / decimal.Decimal(2).ln())


def family_digits(p: float, q: float, family: int) -> list[decimal.Decimal]:
    """The rho_A spectrum of the phi (0) or psi (1) branch family at exact weights p, q, at 60 digits.

    phi's (pq, (1-p)(1-q)) and psi's ((1-p)q, p(1-q)), each over their sum,
    as `swap._products` and `_family` write them in doubles.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        p, q = decimal.Decimal(p), decimal.Decimal(q)
        s, t = (p * q, (1 - p) * (1 - q)) if family == 0 else ((1 - p) * q, p * (1 - q))
        return [s / (s + t), t / (s + t)]


def clamped(lam: np.ndarray) -> np.ndarray:
    """A solved spectrum, or the populations it is compared with, with every value below
    `measures.EIG_CLAMP` read as an exact zero: the package's rule for eigensolver noise."""
    return np.where(lam < measures.EIG_CLAMP, 0.0, lam)


def report_columns(populations: np.ndarray, lam: np.ndarray, purity: np.ndarray) -> measures.MeasureReport:
    """The report tail over columns: populations (N, d), spectra (N, k), purities (N,).

    `measures._report` as it was before it took rows (d, N): np.sort along
    each state's populations, both spectra `clamped`, and numpy's `sum` along
    each state's row. The reference the row tail is held to bit for bit.
    """
    d = populations.shape[-1]
    s = entropy_columns(clamped(lam))
    s_diag = entropy_columns(clamped(np.sort(populations, axis=1)))
    diag_purity = (populations * populations).sum(axis=-1)
    c_hs = purity - diag_purity
    s_l = 1.0 - purity
    p_l = measures._linear_predictability(diag_purity, d)
    c_re = s_diag - s
    p_vn = math.log2(d) - s_diag
    return measures.MeasureReport(c_re=c_re, p_vn=p_vn, s_vn=s, vn_sum=c_re + p_vn + s, c_hs=c_hs,
                                  p_l=p_l, s_l=s_l, l_sum=c_hs + p_l + s_l, dim=d)


def pure_report_einsum(psi: np.ndarray) -> measures.MeasureReport:
    """The report of rho_A for each pure state in psi[N, dA, dB], by complex einsum reductions.

    The kernel `measures._plane_gram` and `_gram_report` replaced, kept as its reference:
    rho_A by `reduced_stack`, the spectrum from the smaller of rho_A and rho_B
    through `hermitian_eigenvalues`, it and the sorted populations `clamped`
    before their entropies, every other quantifier from rho_A's
    entries: C_hs from the squared moduli off the diagonal, S_l from Tr(rho_A^2).
    """
    psi = np.asarray(psi, dtype=complex)
    n, da, db = psi.shape
    rho_a = reduced_stack(psi)
    smaller = np.einsum("nab,nac->nbc", psi, psi.conj()) if db < da else rho_a
    s = entropy_columns(clamped(hermitian_eigenvalues(smaller)))
    populations = np.diagonal(rho_a, axis1=1, axis2=2).real
    s_diag = entropy_columns(clamped(np.sort(populations, axis=1)))
    sq = np.abs(rho_a) ** 2
    c_hs = sq.reshape(n, da * da).sum(axis=1) - np.diagonal(sq, axis1=1, axis2=2).sum(axis=1)
    s_l = 1.0 - np.einsum("nij,nji->n", rho_a, rho_a).real
    p_l = measures._linear_predictability((populations * populations).sum(axis=-1), da)
    c_re = s_diag - s
    p_vn = math.log2(da) - s_diag
    return measures.MeasureReport(c_re=c_re, p_vn=p_vn, s_vn=s, vn_sum=c_re + p_vn + s, c_hs=c_hs,
                                  p_l=p_l, s_l=s_l, l_sum=c_hs + p_l + s_l, dim=da)


def bits(x) -> np.ndarray:
    """The IEEE bit patterns of a float64 or complex128 array, so that equality sees the sign of a zero."""
    return np.ascontiguousarray(x, dtype=np.result_type(x, np.float64)).view(np.int64)


def branches_by_entry(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`swap._branches` with each family's norm and each amplitude written out one at a time.

    The products in `swap._products`' operand order; the probabilities from
    each family's sum; the spectra divided by the family's norm, NaN where
    its probability 0.5 * n2 is 0.0; and the amplitude table zeroed, then
    filled one nonzero entry at a time (a minus branch negates its root) and
    divided by the norm's root, with the weights' index innermost and
    returned as a transposed view. The reference for `_branches`' bits,
    shapes and strides.
    """
    u, v = 1.0 - p, 1.0 - q
    phi, psi = (p * q, u * v), (u * q, p * v)
    n2_phi, n2_psi = phi[0] + phi[1], psi[0] + psi[1]
    norm_phi, norm_psi = (np.where(0.5 * n2 > 0.0, n2, np.nan) for n2 in (n2_phi, n2_psi))
    probabilities = 0.5 * np.array([n2_phi, n2_phi, n2_psi, n2_psi])
    spectra = np.concatenate([np.array(phi) / norm_phi, np.array(psi) / norm_psi])
    a, b, d, c = np.sqrt([*phi, *psi])
    amps = np.zeros((4, 4) + a.shape)
    amps[0, 0] = amps[1, 0] = a
    amps[0, 3] = b
    amps[1, 3] = -b
    amps[2, 1] = amps[3, 1] = c
    amps[2, 2] = d
    amps[3, 2] = -d
    amps[:2] /= np.sqrt(norm_phi)
    amps[2:] /= np.sqrt(norm_psi)
    return probabilities, spectra, amps.transpose(*range(2, amps.ndim), 0, 1)


def peak_bytes(f) -> int:
    """The tracemalloc peak of a second call of f, in bytes: first-call allocations are not f's."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def main_peak_bytes(argv: list[str]) -> int:
    """`peak_bytes` of a `main(argv)` that exits 0, its stdout sent to a sink that holds none of its text."""
    def call():
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0, argv

    return peak_bytes(call)


def complex_normals_exp(seed: int, start: int, count: int) -> np.ndarray:
    """Complex Gaussians r * exp(2j*pi*u) through numpy's complex exp, one per pair of draws.

    `rng.complex_normals` as it was before it wrote r*cos and r*sin into the
    two halves: the reference it is held to bit for bit.
    """
    u = rng.uniforms(seed, start, 2 * count)
    return np.sqrt(-np.log1p(-u[0::2])) * np.exp(2j * np.pi * u[1::2])


def haar_states_norm(dim_a: int, dim_b: int, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Haar states as rows divided by `np.linalg.norm`, from `complex_normals_exp`.

    `states.haar_states` as it was before it scaled the rows in place: the
    reference it is held to bit for bit.
    """
    d = dim_a * dim_b
    z = complex_normals_exp(seed, 2 * d * start, count * d).reshape(count, d)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


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
    probs = np.array([outcome.probability for outcome in swap.bbm_outcomes(p, q)])
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


def _shown(name: str, value: float | None) -> dict:
    """`name` rounded to 4 decimals and `name_full` at full precision; two nulls for None."""
    return {name: None if value is None else round(float(value), 4), f"{name}_full": value}


def swap_document(p: float, q: float, shots: int | None = None, seed: int = 7) -> str:
    """The `swap` stdout at (p, q): a dict of plain Python values through json.dumps(indent=2).

    The reference the CLI's cached templates are held to byte for byte. Every
    reported state is in Schmidt form, so its rho_A is diagonal: the source
    pairs' populations are (w, 1 - w), and each live branch's are its closed-form
    eigenvalues, written here in Python floats with the operations and operand
    order of `swap._products`, so they have its bits without calling it.
    Their entropies are `entropy_columns`', the reference `measures._entropy`
    is held to, and P_vn = log2 2 - S and C_re = S - S are formed here, so a
    fault in the package's diagonal measures differs. Which branches are live
    it decides itself, by the probability 0.5 * n2, so a package that keeps a
    dead branch's state or drops a live one differs.
    It dumps with allow_nan=False: NaN and the infinities are not JSON, and
    the CLI writes no document that holds one.
    """
    outcomes = swap.bbm_outcomes(p, q)
    u, v = 1.0 - p, 1.0 - q
    pq, uv, pv, uq = p * q, u * v, p * v, u * q
    # (s, t, n2) of each branch, live when its probability 0.5 * n2 is not 0.0
    families = [(pq, uv, pq + uv)] * 2 + [(uq, pv, pv + uq)] * 2
    lives = [0.5 * n2 > 0.0 for _, _, n2 in families]
    populations = [(p, u), (q, v)] + [(s / n2, t / n2) for (s, t, n2), live in zip(families, lives) if live]
    pair_p, pair_q, *s_branches = entropy_columns(np.array(populations)).tolist()
    branch_measures = ((s, math.log2(2) - s, s - s) for s in s_branches)
    entries = []
    for o, live in zip(outcomes, lives):
        s_vn, p_vn, c_re = next(branch_measures) if live else (None, None, None)
        entries.append({
            "label": o.label,
            **_shown("probability", float(o.probability)),
            "post_state": o.post_state.amplitudes.view(float).reshape(-1, 2).tolist() if live else None,
            **_shown("svn", s_vn), **_shown("pvn", p_vn), **_shown("cre", c_re),
        })
    doc = {
        "p": p,
        "q": q,
        "initial": {**_shown("svn_pair_p", pair_p), **_shown("svn_pair_q", pair_q)},
        "outcomes": entries,
    }
    if shots is not None:
        result = run_ensemble(RunConfig(p, q, shots, seed))
        doc["empirical"] = {
            "shots": shots,
            "seed": seed,
            "counts": result.counts,
            "frequencies": result.empirical_freq,
            "max_abs_error": float(max(result.freq_error().values())),
        }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
