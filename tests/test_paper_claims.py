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
from entswap.cli import main
from entswap.states import schmidt_pair

GRID = 101
TOL = 1e-12
# claim (i)'s worst residuals on the grid read 3.3e-16 (signed) and 3.9e-16 (squared); the
# square-root form is not held, as the root amplifies rounding near P_l = 0
CLAIM_I_SIGNED_TOL = 7e-16
CLAIM_I_SQUARED_TOL = 8e-16
# phi- and psi- are phi+ and psi+ with the sign of their |11> and |10> amplitude turned
TURNED = {"phi-": 3, "psi-": 2}


def _quantifiers(rho: np.ndarray) -> dict[str, float]:
    """Von Neumann and linear predictability, entanglement and coherence of a qubit state rho."""
    r00, r01, r10, r11 = entries = rho.ravel().tolist()  # Python numbers, cheaper one at a time
    x, y = r00.real, r11.real
    purity = sum(abs(v) ** 2 for v in entries)
    coherence = abs(r01) ** 2 + abs(r10) ** 2
    s_vn = oracles.binary_entropy(*oracles.jacobi_eigenvalues(rho))
    s_diag = oracles.binary_entropy(x, y)
    return {
        "z": x - y,
        "p_vn": 1.0 - s_diag,
        "s_vn": s_vn,
        "c_re": s_diag - s_vn,
        "p_l": 0.5 - (1.0 - (x * x + y * y)),
        "s_l": 1.0 - purity,
        "c_hs": coherence,
    }


def _reduced(amplitudes: np.ndarray, dims, keep) -> np.ndarray:
    return oracles.partial_trace_loops(np.outer(amplitudes, amplitudes.conj()), dims, keep)


def _shared_family_state(branches, plus: str, minus: str):
    """The post state of `plus`, after checking that `minus` leaves A and B in the same states.

    The two differ only in the sign of one amplitude, and the amplitudes with
    the other A index and the same B index, or the same A index and the other
    B index, are zero, so no term of Tr_B or Tr_A of the projector changes
    sign: one reduction of each quanton serves both branches.
    """
    post, turned = branches[plus][1], branches[minus][1]
    if post is None:
        assert turned is None, minus
        return None
    expected = post.copy()
    expected[TURNED[minus]] *= -1.0
    assert np.array_equal(turned, expected), (plus, minus)
    assert post[TURNED[minus] ^ 2] == 0.0, plus  # index 2a + b: ^ 2 turns a
    assert post[TURNED[minus] ^ 1] == 0.0, plus  # and ^ 1 turns b
    return post


def _assert_triality(own: dict[str, float], other: dict[str, float], where) -> None:
    """Claim (iii) for a quanton of a pure two-party state: C_re + P_vn + E = 1, C_hs + P_l + E_l = 1/2.

    E and E_l are the entropies of the other party's marginal, so neither sum
    is an identity of the quanton's own matrix, as C_re + P_vn + S_vn and
    C_hs + P_l + S_l are: each holds only where both marginals share a spectrum.
    """
    assert abs(own["c_re"] + own["p_vn"] + other["s_vn"] - 1.0) <= TOL, where
    assert abs(own["c_hs"] + own["p_l"] + other["s_l"] - 0.5) <= TOL, where


def test_predictability_is_consumed_where_entanglement_increases():
    # claim (ii): where a Bell-measurement branch leaves A and B more entangled than
    # a source pair was, the one-qubit predictability has dropped by what the
    # entanglement gained, von Neumann and linear alike, and the coherence is unchanged;
    # claims (i) and (iii) are held in the same pass over the grid
    weights = np.arange(GRID) / (GRID - 1)
    pairs = [schmidt_pair(w).amplitudes for w in weights]  # each source pair built once per weight
    # the source pairs' one-qubit states by weight, wires (A, C, C', B): A of the first pair
    # and B of the second, each beside its partner in its own pair, C and C'
    initial = []
    for w, pair in zip(weights, pairs):
        both = oracles.kron(pair, pair)  # `composite_state(w, w)` with the pair built once
        initial.append([_quantifiers(_reduced(both, (2, 2, 2, 2), [k])) for k in range(4)])
        _assert_triality(initial[-1][0], initial[-1][1], (w, "A"))
        _assert_triality(initial[-1][3], initial[-1][2], (w, "B"))
    gained = lost = 0
    worst_signed = worst_squared = 0.0
    for i, p in enumerate(weights):
        for j, q in enumerate(weights):
            branches = oracles.projector_grid()[i][j]  # `project_bbm` of `composite_state(p, q)`
            # claim (i): the source qubits' predictabilities set the families' probabilities,
            # Pr(phi±) - Pr(psi±) = z_A z_B / 2 with z the Bloch z of quanton A of the first
            # pair and of B of the second, and its square is P_l(rho_A) P_l(rho_B)
            a, b = initial[i][0], initial[j][3]
            for phi in ("phi+", "phi-"):
                for psi in ("psi+", "psi-"):
                    lean = branches[phi][0] - branches[psi][0]
                    worst_signed = max(worst_signed, abs(lean - a["z"] * b["z"] / 2.0))
                    worst_squared = max(worst_squared, abs(lean * lean - a["p_l"] * b["p_l"]))
            for plus, minus in (("phi+", "phi-"), ("psi+", "psi-")):
                post = _shared_family_state(branches, plus, minus)
                if post is None:
                    continue
                # quantons A and B of both branches of the family
                final, final_b = (_quantifiers(_reduced(post, (2, 2), [k])) for k in (0, 1))
                _assert_triality(final, final_b, (p, q, plus, minus, "A"))
                _assert_triality(final_b, final, (p, q, plus, minus, "B"))
                for label in (plus, minus):
                    for init in (initial[i][0], initial[j][3]):
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
    worst = (worst_signed, worst_squared)
    assert worst_signed <= CLAIM_I_SIGNED_TOL and worst_squared <= CLAIM_I_SQUARED_TOL, worst


def _relative_entropy_of_coherence(rho: np.ndarray) -> float:
    """C_re = D(rho || diag rho) = Tr rho log2 rho - Tr rho log2 diag(rho), term by term."""
    lam = oracles.jacobi_eigenvalues(rho)
    return sum(t * math.log2(t) for t in lam if t > 0.0) - sum(
        rho[i, i].real * math.log2(rho[i, i].real) for i in range(2) if rho[i, i].real > 0.0)


def test_triality_holds_before_and_after_the_measurement_along_figure_2b(capsys):
    # claim (iii): C_re + P_vn + S_vn = 1 for the prepared one-qubit state and for the
    # psi+ branch's, checked on the p = 1 - q line where figure 2b prints both
    assert main(["figures", "--which", "2b", "--grid", str(GRID)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,svn_initial,pvn_initial,svn_psi,pvn_final_psi"
    assert len(lines) == GRID + 1
    for line in lines[1:]:
        q, svn_initial, pvn_initial, svn_psi, pvn_final_psi = (float(cell) for cell in line.split(","))
        p = 1.0 - q
        composite = oracles.composite_state(p, q).amplitudes
        probability, post = oracles.project_bbm(composite)["psi+"]
        assert probability > 0.0, q  # p(1-q) + (1-p)q > 0 on the whole line
        # A of the first pair before the measurement, A of the psi+ branch after it
        for rho, (s_vn, p_vn) in ((_reduced(composite, (2, 2, 2, 2), [0]), (svn_initial, pvn_initial)),
                                  (_reduced(post, (2, 2), [0]), (svn_psi, pvn_final_psi))):
            oracle_s = oracles.binary_entropy(*oracles.jacobi_eigenvalues(rho))
            oracle_p = 1.0 - oracles.binary_entropy(*rho.diagonal().real)
            c_re = _relative_entropy_of_coherence(rho)
            assert abs(s_vn - oracle_s) <= TOL, (q, s_vn, oracle_s)
            assert abs(p_vn - oracle_p) <= TOL, (q, p_vn, oracle_p)
            assert abs(c_re + oracle_p + oracle_s - 1.0) <= TOL, (q, c_re)
            assert abs(c_re + p_vn + s_vn - 1.0) <= TOL, (q, c_re)
