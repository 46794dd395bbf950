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
    lowest = lam.min(initial=0.0)
    if lowest < -EIG_NEG_TOL:
        raise ValueError(f"eigenvalue {lowest} is below -1e-10; not a density matrix")
    kept = np.where(lam < EIG_CLAMP, 1.0, lam)  # tiny magnitudes count as exact zeros: 1*log2(1) = 0
    return 0.0 - _row_sums(kept * np.log2(kept))  # 0.0 - x, not -x, so a zero entropy is +0.0


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


def _report(populations: np.ndarray, lam: np.ndarray, purity: np.ndarray) -> MeasureReport:
    """Every quantifier of each state in a stack, from its diagonal, spectrum and purity.

    `populations` (d, N) holds the density matrices' diagonals as rows,
    `lam` (k, N) their eigenvalues (zero eigenvalues may be omitted: the
    entropy ignores them) and `purity` (N,) their Tr(rho^2). Every step
    works on whole rows of N, in any layout; the sums over a column add in
    the order numpy's `sum` adds a row of d, so the bits are those of the
    same tail over (N, d) columns.
    """
    s_diag = _entropy(_sorted_rows(populations))  # the diagonal part's spectrum is its diagonal
    return _tail(_entropy(lam), s_diag, purity, _row_sums(populations * populations), len(populations))


def _diagonal_report(populations: np.ndarray) -> MeasureReport:
    """The report of each diagonal qubit density matrix in a stack, from its populations (2, N).

    A diagonal matrix is its own diagonal part: its spectrum is its
    populations and its purity the sum of their squares, so one entropy and
    one sum of squares serve both, and no eigensolver runs. The bits are
    `_report`'s on the same matrices: for d = 2, its only use, `_report`
    sorts the populations first, but min and max only select values and the
    entropy's and the purity's two-term sums do not depend on the order. The
    closed 2x2 spectrum returns a diagonal matrix's diagonal sorted, so these
    are also the bits of `_pure_report` on Schmidt-form states.
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
    rep = _report(np.diagonal(re).T, _eigenvalues(re, im), _purity(re, im))
    if one:
        rep = MeasureReport(**{k: v if k == "dim" else float(v[0]) for k, v in vars(rep).items()})
    return rep


def _gram(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planes re, im (k, k, N) of G[i, l] = sum_j x[i, j] x[l, j]* for amplitude planes x (k, m, 2, N).

    The sum runs over j one term at a time, into the output in place; each
    term's products are added before it is accumulated, as in einsum's
    complex product, so G has the bits of psi psi^H by einsum.
    """
    k, _, _, n = x.shape
    re, im = np.zeros((k, k, n)), np.zeros((k, k, n))
    term, part = np.empty((k, k, n)), np.empty((k, k, n))
    for r, i in x.transpose(1, 2, 0, 3):
        rc, ic = r[:, None], i[:, None]
        np.multiply(rc, r, term)
        term += np.multiply(ic, i, part)
        re += term
        np.multiply(ic, r, term)
        term -= np.multiply(rc, i, part)
        im += term
    return re, im


def _pure_report(psi: np.ndarray) -> MeasureReport:
    """The report of rho_A for each pure state in a stack of amplitude matrices psi[N, dA, dB].

    The work is done on real planes with the state index innermost. rho_A
    and rho_B share their purity and their nonzero eigenvalues, the squared
    Schmidt coefficients, so only the smaller Gram matrix of psi is formed:
    rho_A = psi psi^H when dB >= dA, rho_B = psi^T psi* otherwise. rho_A's
    populations are the row sums of |psi|^2. A real or strided stack is
    read as it is, with no complex copy. The states must be normalized:
    there is no trace check here. Non-finite amplitudes raise ValueError.
    """
    psi = np.asarray(psi)
    n, da, db = psi.shape
    planes = np.empty((da, db, 2, n))
    planes[:, :, 0] = psi.real.transpose(1, 2, 0)
    planes[:, :, 1] = psi.imag.transpose(1, 2, 0)
    if not np.isfinite(planes).all():
        raise ValueError("amplitudes must be finite")
    re, im = _gram(planes if db >= da else planes.swapaxes(0, 1))
    # rho_A's diagonal as rows (dA, N): |psi[a, b]|^2 summed in order b = 0, 1, ...
    if db >= da:
        populations = np.diagonal(re).T  # G is rho_A
    else:
        mod2 = planes[:, :, 0] ** 2 + planes[:, :, 1] ** 2
        populations = functools.reduce(np.add, mod2.swapaxes(0, 1))
    return _report(populations, _eigenvalues(re, im), _purity(re, im))


def svn(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr(rho log2 rho)."""
    return report(rho).s_vn
