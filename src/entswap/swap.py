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
    """One family of `_products` over its sum, as in the `_branches` spectra: (2, ...), NaN if dead."""
    pair = np.array([s, t])
    pair /= _norm2(s, t)  # in place: the stack is the only array the result needs
    return pair


_PAIRS = np.array([0, 0, 1, 1])  # each branch's family: phi, phi, psi, psi
# amplitude k of branch i is entry _ROOT[i, k] of (a, b, d, c, 0, -b, -d): the roots a, b of
# phi's products and d, c of psi's, a zero, and the two roots the minus branches negate
_ROOT = np.array([[0, 4, 4, 1], [0, 4, 4, 5], [4, 3, 2, 4], [4, 3, 6, 4]])


def _branches(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed-form table of the four branches in BELL_LABELS order, from one `_products`.

    p and q are read unchecked and broadcast. Returns the probabilities
    (4, ...); the rho_A spectra (4, ...), each family's `_family`; and the
    normalized AB amplitudes (..., 4, 4), one row per branch, gathered from
    the signed roots and divided in place with the weights' index innermost,
    and returned as a transposed view. Each family's `_norm2` is formed once.
    A dead family has probability 0.0 and NaN spectra and rows: it has no
    post state.
    """
    phi, psi = _products(p, q)
    products = np.array([*phi, *psi])  # (4, ...)
    shape = products.shape[1:]
    s, t = products[0::2], products[1::2]  # (2, ...): each family's first and second product
    probabilities = 0.5 * (s + t)
    norm2 = _norm2(s, t)[_PAIRS]  # (4, ...): each branch's family's
    roots = np.zeros((7,) + shape)
    np.sqrt(products, out=roots[:4])
    np.negative(roots[1:3], out=roots[5:])
    amps = roots[_ROOT]  # (4, 4, ...)
    amps /= np.sqrt(norm2).reshape((4, 1) + shape)
    return probabilities[_PAIRS], products / norm2, amps.transpose(*range(2, amps.ndim), 0, 1)


def bbm_outcomes(p: float, q: float) -> list[BBMOutcome]:
    """The four measurement branches with their conditional AB states."""
    probs, _, amps = _branches(_one_weight(p, "p"), _one_weight(q, "q"))
    return [
        # a dead branch's row is NaN (`_norm2`): it has no post state
        BBMOutcome(label, prob, None if math.isnan(row[0]) else PureState(row, (2, 2)))
        for label, prob, row in zip(BELL_LABELS, probs, amps)
    ]


def post_entropies(p, q):
    """Entanglement entropy of the phi- and psi-branch post states, in bits: NaN where a family is dead."""
    phi, psi = _products(require_weight(p, "p"), require_weight(q, "q"))
    return measures._entropy(_family(*phi)), measures._entropy(_family(*psi))


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
