"""The paper's claims, each checked by oracle code alone.

Every state is built and measured by the brute-force routes in `oracles`:
the composite state of both source pairs, its Bell projection, loop partial
traces and the scalar Jacobi eigensolver. The quantifiers are written out
here from a one-qubit density matrix, so no check shares code with the
package's `measures` report.
"""

import math

import numpy as np

import oracles

GRID = 101
TOL = 1e-12


def _entropy(values) -> float:
    """Entropy in bits of a probability vector, with 0 log 0 = 0, one term at a time."""
    return sum(-t * math.log2(t) for t in values if t > 0.0)


def _quantifiers(rho: np.ndarray) -> dict[str, float]:
    """Von Neumann and linear predictability, entanglement and coherence of a qubit state rho."""
    populations = rho.diagonal().real
    purity = sum(abs(x) ** 2 for x in rho.ravel())
    coherence = sum(abs(rho[i, j]) ** 2 for i in range(2) for j in range(2) if i != j)
    s_vn = _entropy(oracles.jacobi_eigenvalues(rho))
    s_diag = _entropy(populations)
    return {
        "p_vn": 1.0 - s_diag,
        "s_vn": s_vn,
        "c_re": s_diag - s_vn,
        "p_l": 0.5 - (1.0 - sum(populations**2)),
        "s_l": 1.0 - purity,
        "c_hs": coherence,
    }


def _reduced(amplitudes: np.ndarray, dims, keep) -> np.ndarray:
    return oracles.partial_trace_loops(np.outer(amplitudes, amplitudes.conj()), dims, keep)


def test_predictability_is_consumed_where_entanglement_increases():
    # claim (ii): where a Bell-measurement branch leaves A and B more entangled than
    # a source pair was, the one-qubit predictability has dropped by what the
    # entanglement gained, von Neumann and linear alike, and the coherence is unchanged
    weights = np.arange(GRID) / (GRID - 1)
    # the source pairs' one-qubit states, A of the first pair and B of the second, by weight
    pair_a, pair_b = ([_quantifiers(_reduced(oracles.composite_state(w, w).amplitudes, (2, 2, 2, 2), [k]))
                       for w in weights] for k in (0, 3))
    gained = lost = 0
    for i, p in enumerate(weights):
        for j, q in enumerate(weights):
            composite = oracles.composite_state(p, q).amplitudes
            for label, (_, post) in oracles.project_bbm(composite).items():
                if post is None:
                    continue
                final = _quantifiers(_reduced(post, (2, 2), [0]))
                for init in (pair_a[i], pair_b[j]):
                    ds = final["s_vn"] - init["s_vn"]
                    gained += ds > TOL
                    lost += ds < -TOL
                    if ds <= TOL:
                        continue
                    where = (p, q, label)
                    assert final["p_vn"] < init["p_vn"], where
                    assert abs((final["p_vn"] - init["p_vn"]) + ds) <= TOL, where
                    assert abs((final["p_l"] - init["p_l"]) + (final["s_l"] - init["s_l"])) <= TOL, where
                    assert abs(final["c_re"] - init["c_re"]) <= TOL, where
                    assert abs(final["c_hs"] - init["c_hs"]) <= TOL, where
    # both signs occur on the grid, so the claim is tested where it holds and not vacuously
    assert gained > 0 and lost > 0, (gained, lost)
