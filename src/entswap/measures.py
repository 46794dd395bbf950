"""Complementarity quantifiers and the triality bookkeeping.

All entropic quantities are in bits. The two sums C_re + P_vn + S_vn and
C_hs + P_l + S_l are reported exactly as computed, never coerced to their
bounds. `report` computes every quantifier for a whole stack of density
matrices at once, and a single DensityMatrix is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import TRACE_TOL, DensityMatrix, hermitian_eigenvalues

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
    """Entropy in bits of each spectrum along the last axis of `lam`."""
    lowest = lam.min(initial=0.0)
    if lowest < -EIG_NEG_TOL:
        raise ValueError(f"eigenvalue {lowest} is below -1e-10; not a density matrix")
    kept = np.where(lam < EIG_CLAMP, 1.0, lam)  # tiny magnitudes count as exact zeros: 1*log2(1) = 0
    return 0.0 - (kept * np.log2(kept)).sum(axis=-1)  # 0.0 - x, not -x, so a zero entropy is +0.0


def _linear_entropy(m: np.ndarray) -> np.ndarray:
    """1 - Tr(rho^2) of each matrix in a stack (N, d, d)."""
    return 1.0 - np.einsum("nij,nji->n", m, m).real


def _linear_predictability(populations: np.ndarray) -> np.ndarray:
    """(d-1)/d - S_l(rho_diag) of each diagonal along the last axis of `populations`."""
    d = populations.shape[-1]
    return (d - 1) / d - (1.0 - (populations * populations).sum(axis=-1))


def _report(m: np.ndarray, lam: np.ndarray) -> MeasureReport:
    """Every quantifier of each matrix in a checked stack (N, d, d), given the spectra `lam`.

    `lam` may omit zero eigenvalues: the entropy ignores them.
    """
    d = m.shape[-1]
    populations = np.diagonal(m, axis1=1, axis2=2).real
    s = _entropy(lam)
    s_diag = _entropy(np.sort(populations, axis=1))  # the diagonal part's spectrum is its diagonal
    sq = np.abs(m) ** 2
    c_hs = sq.reshape(len(m), d * d).sum(axis=1) - np.diagonal(sq, axis1=1, axis2=2).sum(axis=1)
    s_l = _linear_entropy(m)
    p_l = _linear_predictability(populations)
    c_re = s_diag - s
    p_vn = math.log2(d) - s_diag
    return MeasureReport(
        c_re=c_re,
        p_vn=p_vn,
        s_vn=s,
        vn_sum=c_re + p_vn + s,
        c_hs=c_hs,
        p_l=p_l,
        s_l=s_l,
        l_sum=c_hs + p_l + s_l,
        dim=d,
    )


def report(rho: DensityMatrix | np.ndarray) -> MeasureReport:
    """All quantifiers at once.

    `rho` is one DensityMatrix, giving floats, or a stack of density
    matrices shaped (N, d, d), giving arrays of length N. A stack must have
    finite entries, unit traces and Hermitian matrices; a DensityMatrix was
    checked when it was built.
    """
    if isinstance(rho, DensityMatrix):
        m = rho.matrix[None]
        one = _report(m, hermitian_eigenvalues(m))
        return MeasureReport(**{k: v if k == "dim" else float(v[0]) for k, v in vars(one).items()})
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    if not (np.abs(np.trace(m, axis1=1, axis2=2) - 1.0) <= TRACE_TOL).all():
        raise ValueError("every trace must be 1 within 1e-12")
    return _report(m, hermitian_eigenvalues(m))


def _pure_report(psi: np.ndarray) -> MeasureReport:
    """The report of rho_A for each pure state in a stack of amplitude matrices psi[N, dA, dB].

    rho_A and rho_B share their nonzero eigenvalues, the squared Schmidt
    coefficients, so the spectrum is taken from the smaller of the two;
    rho_A's dA - dB extra zero eigenvalues add nothing to the entropy.
    The states must be normalized: there is no trace check here.
    """
    rho_a = np.einsum("nab,ncb->nac", psi, psi.conj())
    _, da, db = psi.shape
    smaller = np.einsum("nab,nac->nbc", psi, psi.conj()) if db < da else rho_a
    return _report(rho_a, hermitian_eigenvalues(smaller))


def svn(rho: DensityMatrix) -> float:
    """von Neumann entropy -Tr(rho log2 rho)."""
    return report(rho).s_vn
