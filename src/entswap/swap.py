"""Bell-basis measurement on the inner qubits and what it induces on A and B.

Weights p and q are the Schmidt weights of the two source pairs. Outcome
labels follow BELL_LABELS order; `phi` branches keep the |00>/|11> sector
of the AB state, `psi` branches the |01>/|10> sector. The closed forms
broadcast: p and q may be numbers or arrays of compatible shapes, and a
call on numbers is the same computation on a single element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .states import BELL_LABELS, PureState, require_weight


class UndefinedBranchError(ValueError):
    """A measurement branch has zero normalization at the requested weights."""


@dataclass(frozen=True, eq=False)
class BBMOutcome:
    """One measurement branch: label, analytic probability, post-measurement AB state.

    post_state is None when the branch has zero probability: there is no
    conditional state, and fabricating one would poison the entropy
    bookkeeping downstream.
    """

    label: str
    probability: float
    post_state: PureState | None


@dataclass(frozen=True)
class SwapSpectrum:
    """Reduced-state eigenvalues of the branch families: (a, b) for phi, (c, d) for psi.

    Numbers for numbers p and q; arrays of their broadcast shape for arrays.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray


def _products(p, q):
    """pq, (1-p)(1-q), p(1-q), (1-p)q and the squared branch norms N_phi^2 and N_psi^2 they sum to."""
    u, v = 1.0 - p, 1.0 - q
    pq, uv, pv, uq = p * q, u * v, p * v, u * q
    return pq, uv, pv, uq, pq + uv, pv + uq


def _spectrum(p, q) -> np.ndarray:
    """Branch eigenvalues a, b = pq, (1-p)(1-q) over N_phi^2 and c, d = (1-p)q, p(1-q) over N_psi^2.

    Stacked on a new first axis and unchecked: NaN where a normalization vanishes.
    """
    pq, uv, pv, uq, n2_phi, n2_psi = _products(p, q)
    spectrum = np.array([pq, uv, uq, pv])
    with np.errstate(invalid="ignore"):  # 0/0 where a branch normalization vanishes
        spectrum[:2] /= n2_phi
        spectrum[2:] /= n2_psi
    return spectrum


def _probabilities(products) -> np.ndarray:
    """Branch probabilities (4, ...) in BELL_LABELS order: halves of `_products`' N_phi^2 and N_psi^2."""
    *_, n2_phi, n2_psi = products
    return 0.5 * np.array([n2_phi, n2_phi, n2_psi, n2_psi])


def _post_amplitudes(products) -> np.ndarray:
    """Normalized AB amplitudes of the four branches, shape (..., 4, 4), rows in BELL_LABELS order.

    From the six `_products`. A branch with zero normalization has a NaN row:
    it has no post state. Every entry is written and divided in place in one
    array that holds the weights' index innermost, so each step runs over
    whole rows of them; the result is that array's transposed view.
    """
    roots = np.sqrt(products)  # a, b, c, d, N_phi, N_psi
    a, b, c, d = roots[:4]
    amps = np.zeros((4, 4) + roots.shape[1:])
    amps[0, 0] = amps[1, 0] = a
    amps[0, 3] = b
    amps[1, 3] = -b
    amps[2, 1] = amps[3, 1] = c
    amps[2, 2] = d
    amps[3, 2] = -d
    with np.errstate(invalid="ignore"):  # 0/0 where a branch normalization vanishes
        amps[:2] /= roots[4]
        amps[2:] /= roots[5]
    return amps.transpose(*range(2, amps.ndim), 0, 1)


def _branches(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (4,) and normalized AB amplitudes (4, 4) of the branches at numbers p and q.

    Both are in BELL_LABELS order. A branch whose probability is 0.0 has no
    post state, whatever its amplitude row holds: 0.5 * n2 underflows to 0.0
    when n2 is the smallest subnormal, so the probability, not n2, decides.
    """
    products = _products(p, q)
    return _probabilities(products), _post_amplitudes(products)


def outcome_probabilities(p: float, q: float) -> dict[str, float]:
    """Analytic probability of each Bell outcome, keyed in BELL_LABELS order."""
    probs = _probabilities(_products(require_weight(p, "p"), require_weight(q, "q")))
    return dict(zip(BELL_LABELS, probs))


def bbm_outcomes(p: float, q: float) -> list[BBMOutcome]:
    """The four measurement branches with their conditional AB states."""
    probs, amps = _branches(require_weight(p, "p"), require_weight(q, "q"))
    return [
        BBMOutcome(label, prob, PureState(row, (2, 2)) if prob > 0.0 else None)
        for label, prob, row in zip(BELL_LABELS, probs, amps)
    ]


def swap_spectrum(p, q) -> SwapSpectrum:
    """The branch eigenvalues of `_spectrum` at validated weights.

    Raises UndefinedBranchError if a branch normalization vanishes at any of them.
    """
    p = require_weight(p, "p")
    q = require_weight(q, "q")
    a, b, c, d = _spectrum(p, q)
    if np.isnan(a).any() or np.isnan(c).any():
        raise UndefinedBranchError(f"branch normalization vanishes at p={p}, q={q}")
    return SwapSpectrum(a=a, b=b, c=c, d=d)


def post_entropies(p, q):
    """Entanglement entropy of the phi- and psi-branch post states, in bits."""
    s = swap_spectrum(p, q)
    return measures._entropy(np.stack([s.a, s.b])), measures._entropy(np.stack([s.c, s.d]))


def special_case_probs(q):
    """Per-outcome probabilities on the p = 1-q line: (each phi, each psi)."""
    q = require_weight(q, "q")
    v = 1.0 - q
    return q * v, 0.5 * (v * v + q * q)


def predictability_probability(q):
    """Outcome probabilities on the p = 1-q line, predicted from linear predictability.

    Returns (Pr(psi+-), Pr(phi+-), P_l of the initial one-qubit state),
    with Pr(psi+-) = (1/2 + P_l)/2 and Pr(phi+-) = (1/2 - P_l)/2. The
    probabilities agree with special_case_probs to rounding.
    """
    q = require_weight(q, "q")
    v = 1.0 - q
    pl_value = measures._linear_predictability(q * q + v * v, 2)
    return 0.5 * (0.5 + pl_value), 0.5 * (0.5 - pl_value), pl_value
