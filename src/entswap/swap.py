"""Bell-basis measurement on the inner qubits and what it induces on A and B.

Weights p and q are the Schmidt weights of the two source pairs. Outcome
labels follow BELL_LABELS order; `phi` branches keep the |00>/|11> sector
of the AB state, `psi` branches the |01>/|10> sector. The closed forms
broadcast: p and q may be numbers or arrays of compatible shapes, and a
call on numbers is the same computation on a single element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .states import BELL_LABELS, PureState, _one_weight, require_weight


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
    """Unnormalized rho_A eigenvalues of each branch family: phi's pq, (1-p)(1-q), psi's (1-p)q, p(1-q)."""
    u, v = 1.0 - p, 1.0 - q
    return (p * q, u * v), (u * q, p * v)


def _norm2(s, t):
    """The squared norm s + t of a branch family of unnormalized eigenvalues s and t, NaN where it is dead.

    The one liveness rule: a family is dead exactly when its probability
    0.5 * (s + t) is 0.0, as it is also where s + t is the smallest
    subnormal. What is divided by a dead family's norm is NaN, and no
    division is 0/0, so nothing warns.
    """
    n2 = s + t
    return np.where(0.5 * n2 > 0.0, n2, np.nan)


def _family(s, t) -> np.ndarray:
    """One family of `_products` over its sum: its eigenvalues, stacked (2, ...), NaN where it is dead."""
    return np.array([s, t]) / _norm2(s, t)


def _spectrum(p, q) -> np.ndarray:
    """Branch eigenvalues a, b of phi and c, d of psi, stacked (4, ...) and unchecked: each `_family`."""
    phi, psi = _products(p, q)
    return np.concatenate([_family(*phi), _family(*psi)])


def _probabilities(products) -> np.ndarray:
    """Branch probabilities (4, ...) in BELL_LABELS order: half the sum of each family of `_products`."""
    (pq, uv), (uq, pv) = products
    n2_phi, n2_psi = pq + uv, uq + pv
    return 0.5 * np.array([n2_phi, n2_phi, n2_psi, n2_psi])


def _post_amplitudes(products) -> np.ndarray:
    """Normalized AB amplitudes of the four branches, shape (..., 4, 4), rows in BELL_LABELS order.

    From the two families of `_products`. A dead family's rows are NaN: it
    has no post state. Every entry is written and divided in place in one
    array that holds the weights' index innermost, so each step runs over
    whole rows of them; the result is that array's transposed view.
    """
    phi, psi = products
    a, b, d, c = np.sqrt([*phi, *psi])
    amps = np.zeros((4, 4) + a.shape)
    amps[0, 0] = amps[1, 0] = a
    amps[0, 3] = b
    amps[1, 3] = -b
    amps[2, 1] = amps[3, 1] = c
    amps[2, 2] = d
    amps[3, 2] = -d
    amps[:2] /= np.sqrt(_norm2(*phi))
    amps[2:] /= np.sqrt(_norm2(*psi))
    return amps.transpose(*range(2, amps.ndim), 0, 1)


def _branches(p, q) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (4,) and normalized AB amplitudes (4, 4) of the branches at numbers p and q.

    Both are in BELL_LABELS order. A dead family's amplitude rows are NaN.
    """
    products = _products(p, q)
    return _probabilities(products), _post_amplitudes(products)


def outcome_probabilities(p: float, q: float) -> dict[str, float]:
    """Analytic probability of each Bell outcome, keyed in BELL_LABELS order."""
    probs = _probabilities(_products(require_weight(p, "p"), require_weight(q, "q")))
    return dict(zip(BELL_LABELS, probs))


def bbm_outcomes(p: float, q: float) -> list[BBMOutcome]:
    """The four measurement branches with their conditional AB states."""
    probs, amps = _branches(_one_weight(p, "p"), _one_weight(q, "q"))
    return [
        # a dead branch's row is NaN (`_norm2`): it has no post state
        BBMOutcome(label, prob, None if math.isnan(row[0]) else PureState(row, (2, 2)))
        for label, prob, row in zip(BELL_LABELS, probs, amps)
    ]


def swap_spectrum(p, q) -> SwapSpectrum:
    """The branch eigenvalues of `_spectrum` at validated weights: NaN where a family is dead."""
    a, b, c, d = _spectrum(require_weight(p, "p"), require_weight(q, "q"))
    return SwapSpectrum(a=a, b=b, c=c, d=d)


def post_entropies(p, q):
    """Entanglement entropy of the phi- and psi-branch post states, in bits: NaN where a family is dead."""
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
