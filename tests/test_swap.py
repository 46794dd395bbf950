import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entswap import measures, states, swap
from entswap.linalg import DensityMatrix
from entswap.measures import report, svn
from entswap.states import BELL_LABELS
from entswap.swap import (
    bbm_outcomes,
    post_entropies,
    predictability_probability,
    special_case_probs,
    _branches,
)
from oracles import bell_state, composite_state, fidelity, stationarity_check

# subnormal weights make branch probabilities underflow to zero on one
# route but not the other; nothing physical lives down there
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


def test_outcomes_labels_and_order():
    outs = bbm_outcomes(0.3, 0.6)
    assert tuple(o.label for o in outs) == BELL_LABELS


@settings(max_examples=80)
@given(weights, weights)
def test_outcomes_sum_to_one_and_match_the_projector_oracle(p, q):
    outcomes = bbm_outcomes(p, q)
    assert abs(sum(outcome.probability for outcome in outcomes) - 1.0) < 1e-12
    reference = oracles.project_bbm(composite_state(p, q).amplitudes)
    for outcome in outcomes:
        ref_prob, ref_post = reference[outcome.label]
        assert abs(outcome.probability - ref_prob) < 1e-10
        if outcome.post_state is None:
            assert ref_prob < 1e-30
        else:
            assert ref_post is not None
            overlap = abs(np.vdot(ref_post, outcome.post_state.amplitudes)) ** 2
            assert overlap > 1.0 - 1e-10


def test_balanced_swap_yields_bell_states():
    for outcome in bbm_outcomes(0.5, 0.5):
        assert abs(outcome.probability - 0.25) < 1e-12
        assert fidelity(outcome.post_state, bell_state(outcome.label)) > 1.0 - 1e-12


def test_special_case_line_projects_onto_matching_bell():
    # on p = 1-q the phi branches collapse to the corresponding Bell state
    q = 0.3
    for outcome in bbm_outcomes(1.0 - q, q):
        if outcome.label.startswith("phi"):
            assert abs(outcome.probability - q * (1.0 - q)) < 1e-12
            assert fidelity(outcome.post_state, bell_state(outcome.label)) > 1.0 - 1e-12


def test_degenerate_corner_has_undefined_phi_branch():
    outs = {o.label: o for o in bbm_outcomes(1.0, 0.0)}
    assert outs["phi+"].probability == 0.0
    assert outs["phi+"].post_state is None
    assert outs["phi-"].post_state is None
    assert abs(outs["psi+"].probability - 0.5) < 1e-12
    assert np.abs(outs["psi+"].post_state.amplitudes - np.array([0, 1, 0, 0])).max() < 1e-12
    assert svn(oracles.reduced(outs["psi+"].post_state, {0})) == 0.0


def test_post_states_normalized():
    for outcome in bbm_outcomes(0.123, 0.987):
        assert abs(np.linalg.norm(outcome.post_state.amplitudes) - 1.0) < 1e-12


def test_swap_spectrum_worked_example():
    a, b, c, d = _branches(0.1, 0.75)[1]
    assert abs(a - 0.25) < 1e-4
    assert abs(b - 0.75) < 1e-4
    assert abs(c - 0.9643) < 1e-4
    assert abs(d - 0.0357) < 1e-4


@settings(max_examples=80)
@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_swap_spectrum_pairs_sum_to_one(p, q):
    a, b, c, d = _branches(p, q)[1]
    assert abs(a + b - 1.0) < 1e-12
    assert abs(c + d - 1.0) < 1e-12


def test_swap_spectrum_undefined_at_incompatible_corners():
    # at each corner one family is dead, NaN, and the other a product state, exactly
    corners = {
        (0.0, 1.0): (None, (1.0, 0.0)),
        (1.0, 0.0): (None, (0.0, 1.0)),
        (0.0, 0.0): ((0.0, 1.0), None),
        (1.0, 1.0): ((1.0, 0.0), None),
    }
    for (p, q), families in corners.items():
        spectra = _branches(p, q)[1]
        entropies = post_entropies(p, q)
        for pair, family, entropy in zip((spectra[:2], spectra[2:]), families, entropies):
            if family is None:
                assert np.isnan(pair).all() and np.isnan(entropy), (p, q)
            else:
                assert oracles.bits(np.array(pair)).tolist() == oracles.bits(np.array(family)).tolist(), (p, q)
                assert oracles.bits(entropy) == oracles.bits(0.0), (p, q)


def test_post_entropies_match_reduced_state_route():
    for p in (0.05, 0.3, 0.5, 0.77):
        for q in (0.2, 0.5, 0.9):
            s_phi, s_psi = post_entropies(p, q)
            outs = {o.label: o for o in bbm_outcomes(p, q)}
            assert abs(s_phi - svn(oracles.reduced(outs["phi+"].post_state, {0}))) < 1e-10
            assert abs(s_phi - svn(oracles.reduced(outs["phi-"].post_state, {0}))) < 1e-10
            assert abs(s_psi - svn(oracles.reduced(outs["psi+"].post_state, {0}))) < 1e-10


def test_post_entropies_on_arrays_hold_no_amplitude_table():
    # the peak grows by the two families' spectra and entropy terms (88 B per pair on numpy 2.4),
    # not by a (..., 4, 4) amplitude table of 128 B per pair on its own
    p, q = np.random.default_rng(5).random((2, 20_000))
    peaks = [oracles.peak_bytes(lambda: post_entropies(p[:n], q[:n])) for n in (10_000, 20_000)]
    per_pair = (peaks[1] - peaks[0]) / 10_000
    assert per_pair <= 128, per_pair


def test_post_entropies_maximal_on_the_matching_lines():
    for q in (0.2, 0.4, 0.6, 0.9):
        assert abs(post_entropies(1.0 - q, q)[0] - 1.0) < 1e-12
        assert abs(post_entropies(q, q)[1] - 1.0) < 1e-12


def test_post_entropies_vanish_at_separable_edges():
    for p in (0.2, 0.5, 0.8):
        for q in (0.0, 1.0):
            s_phi, s_psi = post_entropies(p, q)
            assert s_phi == 0.0
            assert s_psi == 0.0


def test_stationarity_both_branches():
    for q in (0.25, 0.5, 0.75):
        for branch in ("phi", "psi"):
            p_star, residual, sign = stationarity_check(q, branch)
            assert p_star == (1.0 - q if branch == "phi" else q)
            assert abs(residual) < 1e-6
            assert sign == -1


def test_stationarity_rejects_bad_input():
    with pytest.raises(ValueError):
        stationarity_check(0.5, "theta")
    with pytest.raises(ValueError):
        stationarity_check(0.0, "phi")


@settings(max_examples=80)
@given(weights)
def test_the_special_case_line_sums_to_one_and_agrees_with_both_routes(q):
    pr_phi, pr_psi = special_case_probs(q)
    assert abs(2.0 * pr_phi + 2.0 * pr_psi - 1.0) < 1e-12
    general = {o.label: o.probability for o in bbm_outcomes(1.0 - q, q)}
    assert abs(general["phi+"] - pr_phi) < 1e-12
    assert abs(general["psi-"] - pr_psi) < 1e-12
    predicted_psi, predicted_phi, _ = predictability_probability(q)
    assert abs(predicted_psi - pr_psi) < 1e-12
    assert abs(predicted_phi - pr_phi) < 1e-12


EXACT = 0.0  # a bound that asks for ==
PREDICTABILITY_OUTPUTS = ("pr_psi", "pr_phi", "pl")
# (q, output of `predictability_probability`, expected value, bound on |value - expected|)
PREDICTABILITY_VALUES = [
    (0.99, "pl", 0.4802, 1e-12), (0.99, "pr_psi", 0.4901, 1e-12), (0.99, "pr_phi", 0.0099, 1e-12),
    (0.5, "pl", 0.0, EXACT), (0.5, "pr_psi", 0.25, 1e-12), (0.5, "pr_phi", 0.25, 1e-12),
    (0.0, "pl", 0.5, 1e-12), (0.0, "pr_psi", 0.5, 1e-12), (0.0, "pr_phi", 0.0, 1e-12),
]


@pytest.mark.parametrize("q, output, expected, bound", PREDICTABILITY_VALUES)
def test_predictability_probability_values(q, output, expected, bound):
    value = predictability_probability(q)[PREDICTABILITY_OUTPUTS.index(output)]
    assert value == expected if bound == EXACT else abs(value - expected) < bound


def _rows(result):
    """The outputs of a closed form as rows of IEEE-754 bit patterns."""
    return np.stack([np.asarray(r, dtype=np.float64) for r in result]).view(np.uint64)


def branch_table(p, q):
    """The probabilities and spectra of `_branches`, eight rows."""
    return np.concatenate(_branches(p, q)[:2])


@settings(max_examples=60)
@given(st.lists(st.tuples(weights, weights), max_size=12))
def test_array_calls_equal_the_scalar_calls_bit_for_bit(drawn):
    # the corners leave a family dead: its NaN stays in its own elements
    endpoints = [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 5e-324)]
    p_arr, q_arr = np.array(endpoints + drawn).T
    for fn, args in (
        (branch_table, (p_arr, q_arr)),
        (post_entropies, (p_arr, q_arr)),
        (special_case_probs, (q_arr,)),
        (predictability_probability, (q_arr,)),
    ):
        batch = _rows(fn(*args))
        for k in range(len(args[0])):
            one = _rows(fn(*(float(arg[k]) for arg in args)))
            assert batch[:, k].tolist() == one.tolist(), (fn.__name__, [arg[k] for arg in args])


# the corners where a family dies, -0.0 (whose products and roots are -0.0), underflows, any weight
signed_weights = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-300, 1e-160]) | st.floats(0.0, 1.0)


@settings(max_examples=60)
@given(st.lists(st.tuples(signed_weights, signed_weights), min_size=1, max_size=6))
def test_branch_table_is_the_table_written_entry_by_entry(drawn):
    # the gathered table has the bits, shapes and strides of the one written entry by entry,
    # NaN dead rows and -0.0 included, for numbers, arrays and broadcast arrays alike
    p, q = np.array(drawn).T
    calls = [(float(x), float(y)) for x, y in drawn] + [(p, q), (p[:, None], q[None, :]), (np.float64(p[0]), q)]
    for args in calls:
        for got, expected in zip(_branches(*args), oracles.branches_by_entry(*args)):
            assert (got.shape, got.strides) == (expected.shape, expected.strides), args
            assert oracles.bits(got).tolist() == oracles.bits(expected).tolist(), args


def test_probabilities_follow_the_initial_predictability_by_an_independent_route():
    # P_l of each source pair from a loop partial trace of the composite state,
    # probabilities from projecting it onto the Bell states: no swap.py formula
    grid = [i / 100 for i in range(101)]
    pl = {}
    for w in grid:
        composite = oracles.composite_state(w, w)
        rho = np.outer(composite.amplitudes, composite.amplitudes.conj())
        pl_a, pl_b = (report(DensityMatrix(oracles.partial_trace_loops(rho, (2, 2, 2, 2), [keep]), (2,))).p_l
                      for keep in (0, 3))
        assert pl_a == pl_b  # both pairs of the composite are Schmidt pairs of weight w
        pl[w] = pl_a
    worst_line = worst_off = worst_branches = 0.0
    for i, p in enumerate(grid):
        for j, q in enumerate(grid):
            reference = oracles.projector_grid()[i][j]  # `project_bbm` of `composite_state(p, q)`
            sigma = np.sign((2.0 * p - 1.0) * (2.0 * q - 1.0))
            # derived here, not stated in the paper: with P_l(w) = (2w-1)^2/2,
            # N_phi^2 = pq + (1-p)(1-q) = (1 + (2p-1)(2q-1))/2
            phi = 0.25 + sigma * math.sqrt(pl[p] * pl[q]) / 2.0
            probs = _branches(p, q)[0]
            worst_off = max(worst_off, abs(reference["phi+"][0] - phi), abs(reference["phi-"][0] - phi))
            worst_branches = max(worst_branches, abs(probs[0] - phi), abs(probs[1] - phi))
            if i + j == 100:  # p = 1 - q
                psi = (0.5 + pl[p]) / 2.0
                worst_line = max(worst_line, abs(reference["psi+"][0] - psi), abs(reference["psi-"][0] - psi))
                worst_branches = max(worst_branches, abs(probs[2] - psi), abs(probs[3] - psi))
    assert worst_line < 1e-12 and worst_off < 1e-12 and worst_branches < 1e-12, (worst_line, worst_off, worst_branches)


# weights where a branch dies or an amplitude underflows, next to any weight in [0, 1]
schmidt_weights = st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300]) | st.floats(0.0, 1.0)
# the Schmidt sector of each branch row: phi keeps |00>, |11>, psi keeps |01>, |10>
BRANCH_SECTORS = np.array([[1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0]], dtype=bool)


@settings(max_examples=150)
@given(st.lists(st.tuples(schmidt_weights, schmidt_weights), min_size=1, max_size=8))
def test_swap_states_are_in_schmidt_form_and_report_from_their_populations(drawn):
    p, q = np.array(drawn).T
    posts = swap._branches(p, q)[2]
    pairs = states._pair_amplitudes(np.concatenate([p, q]))
    live = ~np.isnan(posts).any(axis=-1)
    assert np.isnan(posts[~live]).all()  # a branch with zero normalization has no state
    rows = np.concatenate([posts[live], pairs])
    sectors = np.concatenate([np.broadcast_to(BRANCH_SECTORS, posts.shape)[live],
                              np.broadcast_to(BRANCH_SECTORS[0], pairs.shape)])
    # exactly +0.0 outside the sector, so rho_A is diagonal and its spectrum is its populations
    assert (oracles.bits(rows[~sectors]) == 0).all()
    psi = rows.reshape(-1, 2, 2)
    kernel = oracles.pure_report(psi)
    # one term of each population is an exact zero, so any order of summing gives these bits
    populations = (psi * psi).sum(axis=2).T
    assert kernel.dim == 2
    # the kernel reads its spectrum as solved and counts a population below EIG_CLAMP as
    # zero; `_diagonal_vn` reads the populations as they are, so the two agree where none
    # lies in (0, EIG_CLAMP)
    exact = ((populations == 0.0) | (populations >= measures.EIG_CLAMP)).all(axis=0)
    solved = measures._diagonal_vn(oracles.clamped(populations))
    for field, diagonal, clamped in zip(("s_vn", "p_vn", "c_re"), measures._diagonal_vn(populations), solved):
        kernel_bits = oracles.bits(getattr(kernel, field))
        assert kernel_bits.tolist() == oracles.bits(clamped).tolist(), field
        assert kernel_bits[exact].tolist() == oracles.bits(diagonal)[exact].tolist(), field


def branch_law_residuals(p, q) -> dict[str, float]:
    """The worst residuals of the laws of the `_branches` table over weight arrays p, q.

    A dead row (probability 0.0, NaN amplitudes and spectrum) is read as zero.
    - no-signalling: the branches' mixture is what A and B held before the
      measurement, sum_k Pr_k |psi_k><psi_k| = diag(p, 1-p) (x) diag(q, 1-q),
      coherences included;
    - the average concurrence is conserved (Bose, Vedral & Knight, PRA 60,
      194, 1999): sum_k Pr_k 2|a00 a11 - a01 a10| = 2 sqrt(p(1-p)) 2 sqrt(q(1-q)),
      and in its spectral form sum_k Pr_k 2 sqrt(lam0 lam1);
    - each live row's A populations are its family's spectrum, as a set;
    - `post_entropies` is each family's entropy of its concurrence C: the
      entropy of (lam, 1 - lam), lam = C^2 / (2 (1 + sqrt(1 - C^2)));
    - the paper's claim (i), that the source qubits' predictabilities set the
      families' probabilities: with z = 2w - 1 the Bloch z of each source
      qubit, Pr(phi±) - Pr(psi±) = z_A z_B / 2, and its square is
      P_l(rho_A) P_l(rho_B), P_l from the report of diag(w, 1 - w). The
      square-root form |Pr(phi±) - Pr(psi±)| = sqrt(P_l P_l) is not held:
      the root amplifies rounding near P_l = 0.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    probs, spectra, amps = _branches(p, q)
    live = ~np.isnan(amps[..., 0])  # (..., 4)
    rows = np.where(live[..., None], amps, 0.0)
    pr = np.moveaxis(probs, 0, -1)
    mixture = np.einsum("...k,...ki,...kj->...ij", pr, rows, rows)
    held = np.zeros(mixture.shape)
    for i, w in enumerate((p * q, p * (1.0 - q), (1.0 - p) * q, (1.0 - p) * (1.0 - q))):
        held[..., i, i] = w
    source = 2.0 * np.sqrt(p * (1.0 - p)) * 2.0 * np.sqrt(q * (1.0 - q))
    concurrence = 2.0 * np.abs(rows[..., 0] * rows[..., 3] - rows[..., 1] * rows[..., 2])
    own = np.moveaxis(spectra.reshape((2, 2) + p.shape)[[0, 0, 1, 1]], (0, 1), (-2, -1))  # (..., 4, 2)
    own = np.where(live[..., None], own, 0.0)
    spectral = 2.0 * np.sqrt(own[..., 0] * own[..., 1])
    populations = (rows * rows).reshape(rows.shape[:-1] + (2, 2)).sum(axis=-1)
    c = concurrence[..., [0, 2]]  # phi, psi
    lam = c * c / (2.0 * (1.0 + np.sqrt(np.maximum(1.0 - c * c, 0.0))))
    entropies = np.where(live[..., [0, 2]], np.stack(post_entropies(p, q), axis=-1), 0.0)
    family_entropies = oracles.entropy_columns(np.stack([lam, 1.0 - lam], axis=-1))
    lean = probs[0] - probs[2]  # Pr(phi±) - Pr(psi±)
    diagonals = [(np.stack([w, 1.0 - w], axis=-1)[..., None] * np.eye(2)).reshape(-1, 2, 2) for w in (p, q)]
    p_l = [report(rho).p_l.reshape(p.shape) for rho in diagonals]
    return {
        "no-signalling": float(np.abs(mixture - held).max()),
        "concurrence": float(np.abs((pr * concurrence).sum(axis=-1) - source).max()),
        "spectral concurrence": float(np.abs((pr * spectral).sum(axis=-1) - source).max()),
        "populations": float(np.abs(np.sort(populations, axis=-1) - np.sort(own, axis=-1)).max()),
        "post entropies": float(np.abs(entropies - family_entropies).max()),
        "claim (i) signed": float(np.abs(lean - (2.0 * p - 1.0) * (2.0 * q - 1.0) / 2.0).max()),
        "claim (i) squared": float(np.abs(lean * lean - p_l[0] * p_l[1]).max()),
    }


# the laws' worst residuals read 3.3e-16 (no-signalling), 5.6e-16 (concurrence), 3.3e-16
# (its spectral form), 5.6e-16 (populations), 8.9e-16 (post entropies, neither side
# clamped), 1.1e-16 (claim (i) signed) and 1.7e-16 (claim (i) squared) over a 1001 x 1001
# grid, the corners and 3 x 10^5 seeded pairs, uniform, log-uniform down to subnormals
# and near 1; the bound leaves 2.25x to 18x
BRANCH_LAW_TOL = 2e-15
CORNERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
           (1.0, 5e-324), (5e-324, 1.0), (5e-324, 5e-324), (0.5, 0.5)]


def test_branch_table_keeps_the_swap_laws_on_a_grid_and_the_corners():
    grid = np.linspace(0.0, 1.0, 201)
    for p, q in ((grid[:, None], grid[None, :]), np.array(CORNERS).T):
        residuals = branch_law_residuals(p, q)
        assert all(r <= BRANCH_LAW_TOL for r in residuals.values()), residuals  # NaN fails


@settings(max_examples=150)
@given(st.lists(st.tuples(schmidt_weights, schmidt_weights), min_size=1, max_size=8))
def test_branch_table_keeps_the_swap_laws_at_any_weights(drawn):
    residuals = branch_law_residuals(*np.array(drawn).T)
    assert all(r <= BRANCH_LAW_TOL for r in residuals.values()), residuals  # NaN fails
