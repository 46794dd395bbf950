"""Complementarity quantifiers and the triality bookkeeping.

All entropic quantities are in bits. The two sums C_re + P_vn + S_vn and
C_hs + P_l + S_l are reported exactly as computed, never coerced to their
bounds. `report` computes every quantifier for a whole stack of density
matrices at once, a DensityMatrix as a stack of one, and only its solved spectra take
the solver's rules. `_diagonal_vn` gives the von Neumann fields `swap` and figure 2b print.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityMatrix, _check_density, _eigenvalues, _row_sums

EIG_CLAMP = 1e-12  # a solved eigenvalue below this is noise around an exact zero
EIG_NEG_TOL = 1e-10  # most negative solved eigenvalue tolerated on a density matrix


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
    """Entropy in bits of each spectrum along the first axis of `lam` (k, ...): 0 log 0 = 0, NaN stays."""
    terms = np.where(lam <= 0.0, 1.0, lam)  # 1*log2(1) = 0
    terms *= np.log2(terms)
    return 0.0 - _row_sums(terms)  # 0.0 - x, not -x, so a zero entropy is +0.0


def _solved(lam: np.ndarray) -> np.ndarray:
    """`lam` (k, ...) in place under the solver's rules: NaN or < -EIG_NEG_TOL raises, < EIG_CLAMP is 0."""
    if not (lowest := lam.min(initial=0.0)) >= -EIG_NEG_TOL:
        raise ValueError(f"eigenvalue {lowest} is below -1e-10; not a density matrix")
    lam[lam < EIG_CLAMP] = 0.0
    return lam


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


def _vn_tail(s: np.ndarray, s_diag: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """P_vn and C_re from the entropies of rho and of its diagonal part."""
    return math.log2(d) - s_diag, s_diag - s


def _diagonal_vn(populations: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_vn, P_vn and C_re of each diagonal qubit density matrix in a stack, from its populations (2, N).

    A diagonal matrix is its own diagonal part and its spectrum is its
    populations, so one entropy serves both and no eigensolver runs. The
    bits are `_gram_report`'s at d = 2 where no population is in (0, EIG_CLAMP):
    min and max only select values and a two-term sum does not depend on order.
    """
    s = _entropy(populations)
    return (s, *_vn_tail(s, s, len(populations)))


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


def _plane_gram(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first stage of the report of rho_A for each pure state in psi[N, dA, dB].

    The amplitudes are read in place as real planes (dA, dB, 2, N), a
    float64 view of the complex stack: planes[a, b, 0] and planes[a, b, 1]
    are the real and imaginary parts of amplitude (a, b) of every state. A
    C-contiguous complex stack, as `states.haar_states` returns, is not
    copied; any other is copied once to one. This stage is the states' last
    read: it returns the planes re, im (k, k, N) of the smaller Gram matrix
    and rho_A's populations (dA, N), and `_gram_report` takes the report
    from them, so a caller that drops the states between the two stages
    never holds them beside the spectrum. rho_A and rho_B share their
    purity and their nonzero eigenvalues, the squared Schmidt coefficients,
    so only the smaller Gram matrix is formed: rho_A = psi psi^H when
    dB >= dA, whose diagonal is then the populations, and rho_B =
    psi^T psi* otherwise. Then the populations are the row sums of |psi|^2,
    (x0^2 + x1^2) added over b = 0, 1, ...; starting them from 0.0 moves no
    bit of a sum of squares. The states must be normalized: there is no
    trace check here, and a non-finite amplitude fails `_gram_report`'s check.
    """
    n, da, db = psi.shape
    planes = np.ascontiguousarray(psi, dtype=complex).view(np.float64).reshape(n, da, db, 2).transpose(1, 2, 3, 0)
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

    The second stage after `_plane_gram`, and all of `report`. re, im may be the
    smaller Gram matrix of a pure state (k <= d): it shares rho's purity and
    nonzero eigenvalues, and the entropy ignores the zero ones. Its solved
    spectrum and sorted populations are `_solved`. Every step works on whole rows
    of N, in any layout; the sums over a column add in the order numpy's `sum`
    adds a row of d, so the bits are those of the same tail over (N, d) columns.
    """
    lam = _solved(_eigenvalues(re, im))
    purity = _purity(re, im)
    s_diag = _entropy(_solved(_sorted_rows(populations)))  # the diagonal part's spectrum is its diagonal
    s, diag_purity, d = _entropy(lam), _row_sums(populations * populations), len(populations)
    c_hs = purity - diag_purity
    s_l = 1.0 - purity
    p_l = _linear_predictability(diag_purity, d)
    p_vn, c_re = _vn_tail(s, s_diag, d)
    return MeasureReport(c_re=c_re, p_vn=p_vn, s_vn=s, vn_sum=c_re + p_vn + s,
                         c_hs=c_hs, p_l=p_l, s_l=s_l, l_sum=c_hs + p_l + s_l, dim=d)


def svn(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr(rho log2 rho)."""
    return report(rho).s_vn
