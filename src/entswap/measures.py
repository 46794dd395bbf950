"""Complementarity quantifiers and the triality bookkeeping.

All entropic quantities are in bits. The two sums C_re + P_vn + S_vn and
C_hs + P_l + S_l are reported exactly as computed, never coerced to their
bounds. `report` computes every quantifier for a whole stack of density
matrices at once, and a single DensityMatrix is a stack of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, _check_density, _eigenvalues, _row_sums

EIG_CLAMP = 1e-12  # eigenvalues with |lam| below this count as exact zeros
EIG_NEG_TOL = 1e-10  # most negative eigenvalue tolerated on a density matrix


@dataclass(frozen=True)
class MeasureReport:
    """Every quantifier plus the two triality sums.

    Floats for one density matrix; arrays of length N for a stack of N.
    """

    c_re: float | np.ndarray
    p_vn: float | np.ndarray
    s_vn: float | np.ndarray
    vn_sum: float | np.ndarray
    c_hs: float | np.ndarray
    p_l: float | np.ndarray
    s_l: float | np.ndarray
    l_sum: float | np.ndarray
    dim: int


def _entropy(lam: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum along the first axis of `lam` (k, ...)."""
    lowest = np.fmin.reduce(lam, axis=None, initial=0.0)  # fmin skips NaN: a dead column blinds no other
    if lowest < -EIG_NEG_TOL:
        raise ValueError(f"eigenvalue {lowest} is below -1e-10; not a density matrix")
    kept = np.where(lam < EIG_CLAMP, 1.0, lam)  # tiny magnitudes count as exact zeros: 1*log2(1) = 0
    terms = np.log2(kept)
    terms *= kept
    return 0.0 - _row_sums(terms)  # 0.0 - x, not -x, so a zero entropy is +0.0


def _sorted_rows(x: np.ndarray) -> np.ndarray:
    """x (d, N) with each column sorted ascending, by an odd-even transposition network.

    Round r compares rows i and i + 1 for every i of r's parity, and d
    rounds sort d rows. min and max only select values, so the result is
    np.sort's along the columns, bit for bit, at a few whole-row calls.
    """
    rows = list(x)
    for r in range(len(rows)):
        for i in range(r % 2, len(rows) - 1, 2):
            rows[i], rows[i + 1] = np.minimum(rows[i], rows[i + 1]), np.maximum(rows[i], rows[i + 1])
    return np.stack(rows)


def _linear_predictability(diag_purity: np.ndarray, d: int) -> np.ndarray:
    """(d-1)/d - S_l(rho_diag), from Tr(rho_diag^2), the sum of the squared populations."""
    return (d - 1) / d - (1.0 - diag_purity)


def _purity(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Tr(rho^2) = ||rho||_F^2 of each Hermitian matrix held as planes re, im (d, d, N).

    The squared moduli are added one entry at a time in row-major order, so
    the bits depend neither on N nor on the planes' memory layout.
    """
    sq = re * re
    sq += im * im
    return functools.reduce(np.add, sq.reshape(len(sq) ** 2, sq.shape[-1]))


def _tail(s: np.ndarray, s_diag: np.ndarray, purity: np.ndarray, diag_purity: np.ndarray,
          d: int) -> MeasureReport:
    """Every quantifier and both sums from the entropies and purities of rho and of its diagonal part."""
    c_hs = purity - diag_purity
    s_l = 1.0 - purity
    p_l = _linear_predictability(diag_purity, d)
    c_re = s_diag - s
    p_vn = math.log2(d) - s_diag
    return MeasureReport(c_re=c_re, p_vn=p_vn, s_vn=s, vn_sum=c_re + p_vn + s,
                         c_hs=c_hs, p_l=p_l, s_l=s_l, l_sum=c_hs + p_l + s_l, dim=d)


def _diagonal_report(populations: np.ndarray) -> MeasureReport:
    """The report of each diagonal qubit density matrix in a stack, from its populations (2, N).

    A diagonal matrix is its own diagonal part: its spectrum is its
    populations and its purity the sum of their squares, so one entropy and
    one sum of squares serve both, and no eigensolver runs. The bits are
    `_gram_report`'s on the same matrices at d = 2, its only use: the closed
    2x2 spectrum of a diagonal matrix is its diagonal sorted, and
    `_gram_report` sorts the populations too, but min and max only select
    values and the entropy's and the purity's two-term sums do not depend on
    the order.
    """
    s = _entropy(populations)
    purity = _row_sums(populations * populations)
    return _tail(s, s, purity, purity, len(populations))


def report(rho: DensityMatrix | np.ndarray) -> MeasureReport:
    """All quantifiers at once.

    `rho` is one DensityMatrix, giving floats, or a stack of density
    matrices shaped (N, d, d), giving arrays of length N. A stack is checked
    here as a DensityMatrix is checked when it is built: finite, Hermitian
    matrices with unit traces. A DensityMatrix is not checked again.
    """
    one = isinstance(rho, DensityMatrix)
    m = rho.matrix[None] if one else np.asarray(rho, dtype=complex)
    if not one:
        _check_density(m, (3,))
    re, im = m.real.transpose(1, 2, 0), m.imag.transpose(1, 2, 0)
    rep = _gram_report(re, im, np.diagonal(re).T)
    if one:
        rep = MeasureReport(**{k: v if k == "dim" else float(v[0]) for k, v in vars(rep).items()})
    return rep


def _planes(psi: np.ndarray) -> np.ndarray:
    """The amplitudes of each pure state in psi[N, dA, dB] as real planes (dA, dB, 2, N).

    planes[a, b, 0] and planes[a, b, 1] hold the real and imaginary parts of
    amplitude (a, b) of every state, copied bit for bit from psi in any
    layout, real or complex. The memory runs over the smaller side first,
    the side of the Gram matrix (a when dB >= dA, else b), then real and
    imaginary part, then the other side, then the states. So every row
    planes[a, b, part] is contiguous, and numpy reads each operand of
    `_gram` and of the populations' sums, the two rows of one amplitude,
    with no iteration buffers.
    """
    n, da, db = psi.shape
    if db >= da:
        planes = np.empty((da, 2, db, n)).transpose(0, 2, 1, 3)
    else:
        planes = np.empty((db, 2, da, n)).transpose(2, 0, 1, 3)
    planes[:, :, 0] = psi.real.transpose(1, 2, 0)
    planes[:, :, 1] = psi.imag.transpose(1, 2, 0)
    return planes


def _gram(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes re, im (k, k, N) of G[i, l] = sum_j x[i, j] x[l, j]* for amplitude planes x (k, m, 2, N).

    Each term's two products are added before it is accumulated, as in
    einsum's complex product, and the sum runs over j one term at a time
    from 0.0, so G has the bits of psi psi^H by einsum. Every term is formed
    in one (2, N) buffer, so the sums hold only two rows beyond G. Only the
    lower triangle is summed. The upper one is its mirror, re[l, i] =
    re[i, l] and im[l, i] = -im[i, l]: exact but for the sign of a zero
    imaginary part, which the eigensolvers (lower triangle) and the purity
    (squares) never see. A diagonal term's imaginary part is x - x = +0.0.
    """
    k, m, _, n = x.shape
    re, im = np.zeros((k, k, n)), np.zeros((k, k, n))
    term = np.empty((2, n))
    for i in range(k):
        for l in range(i + 1):
            for j in range(m):
                np.multiply(x[i, j], x[l, j], out=term)  # re_i re_l, im_i im_l
                re[i, l] += np.add(term[0], term[1], out=term[0])
            if l < i:
                for j in range(m):
                    np.multiply(x[i, j, 1], x[l, j, 0], out=term[0])
                    np.multiply(x[i, j, 0], x[l, j, 1], out=term[1])
                    im[i, l] += np.subtract(term[0], term[1], out=term[0])
                re[l, i] = re[i, l]
                np.negative(im[i, l], out=im[l, i])
    return re, im


def _plane_gram(planes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first stage of the report of rho_A for each pure state held as amplitude planes (dA, dB, 2, N).

    planes[a, b, 0] and planes[a, b, 1] are the real and imaginary parts of
    amplitude (a, b) of every state, in any memory layout; that of
    `_planes` is read fastest. This stage is the planes' last
    read: it returns the planes re, im (k, k, N) of the smaller Gram matrix
    and rho_A's populations (dA, N), and `_gram_report` takes the report
    from them, so a caller that drops the planes between the two stages
    never holds them beside the spectrum. rho_A and rho_B share their
    purity and their nonzero eigenvalues, the squared Schmidt coefficients,
    so only the smaller Gram matrix is formed: rho_A = psi psi^H when
    dB >= dA, whose diagonal is then the populations, and rho_B =
    psi^T psi* otherwise. Then the populations are the row sums of |psi|^2,
    (x0^2 + x1^2) added over b = 0, 1, ...; starting them from 0.0 moves no
    bit of a sum of squares. The states must be normalized: there is no
    trace check here. Non-finite amplitudes raise ValueError.
    """
    if not np.isfinite(planes).all():
        raise ValueError("amplitudes must be finite")
    da, db, _, n = planes.shape
    re, im = _gram(planes if db >= da else planes.swapaxes(0, 1))
    if db >= da:
        return re, im, np.diagonal(re).T
    # summed beside the Gram planes, so only the rows they fill and one term buffer are new
    populations, term = np.zeros((da, n)), np.empty((2, n))
    for row, out in zip(planes, populations):
        for x in row:
            np.multiply(x, x, out=term)
            out += np.add(term[0], term[1], out=term[0])
    return re, im, populations


def _gram_report(re: np.ndarray, im: np.ndarray, populations: np.ndarray) -> MeasureReport:
    """Every quantifier of each density matrix held as planes re, im (k, k, N) and its diagonal (d, N).

    The second stage after `_plane_gram`, and all of `report`. re, im may be
    the smaller Gram matrix of a pure state (k <= d): it shares rho's purity
    and nonzero eigenvalues, and the entropy ignores the zero ones. Every
    step works on whole rows of N, in any layout; the sums over a column add
    in the order numpy's `sum` adds a row of d, so the bits are those of the
    same tail over (N, d) columns.
    """
    lam = _eigenvalues(re, im)
    purity = _purity(re, im)
    s_diag = _entropy(_sorted_rows(populations))  # the diagonal part's spectrum is its diagonal
    return _tail(_entropy(lam), s_diag, purity, _row_sums(populations * populations), len(populations))


def svn(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr(rho log2 rho)."""
    return report(rho).s_vn
