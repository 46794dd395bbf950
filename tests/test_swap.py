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
    SwapSpectrum,
    bbm_outcomes,
    outcome_probabilities,
    post_entropies,
    predictability_probability,
    special_case_probs,
    _branches,
    swap_spectrum,
)
from oracles import bell_state, composite_state, fidelity, stationarity_check

# subnormal weights make branch probabilities underflow to zero on one
# route but not the other; nothing physical lives down there
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


def test_worked_example_probabilities():
    probs = outcome_probabilities(0.1, 0.75)
    assert abs(probs["phi+"] - 0.15) < 1e-12
    assert abs(probs["phi-"] - 0.15) < 1e-12
    assert abs(probs["psi+"] - 0.35) < 1e-12
    assert abs(probs["psi-"] - 0.35) < 1e-12


def test_outcomes_labels_and_order():
    outs = bbm_outcomes(0.3, 0.6)
    assert tuple(o.label for o in outs) == BELL_LABELS


@settings(max_examples=80, deadline=None)
@given(weights, weights)
def test_outcome_probabilities_sum_to_one(p, q):
    assert abs(sum(outcome_probabilities(p, q).values()) - 1.0) < 1e-12


@settings(max_examples=80, deadline=None)
@given(weights, weights)
def test_outcomes_match_projector_oracle(p, q):
    reference = oracles.project_bbm(composite_state(p, q).amplitudes)
    for outcome in bbm_outcomes(p, q):
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
    spectrum = swap_spectrum(0.1, 0.75)
    assert abs(spectrum.a - 0.25) < 1e-4
    assert abs(spectrum.b - 0.75) < 1e-4
    assert abs(spectrum.c - 0.9643) < 1e-4
    assert abs(spectrum.d - 0.0357) < 1e-4


@settings(max_examples=80, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_swap_spectrum_pairs_sum_to_one(p, q):
    spectrum = swap_spectrum(p, q)
    assert abs(spectrum.a + spectrum.b - 1.0) < 1e-12
    assert abs(spectrum.c + spectrum.d - 1.0) < 1e-12


def test_swap_spectrum_undefined_at_incompatible_corners():
    # at each corner one family is dead, NaN, and the other a product state, exactly
    corners = {
        (0.0, 1.0): (None, (1.0, 0.0)),
        (1.0, 0.0): (None, (0.0, 1.0)),
        (0.0, 0.0): ((0.0, 1.0), None),
        (1.0, 1.0): ((1.0, 0.0), None),
    }
    for (p, q), families in corners.items():
        spectrum = swap_spectrum(p, q)
        entropies = post_entropies(p, q)
        for pair, family, entropy in zip(((spectrum.a, spectrum.b), (spectrum.c, spectrum.d)), families, entropies):
            if family is None:
                assert np.isnan(pair).all() and np.isnan(entropy), (p, q)
            else:
                assert oracles.bits(np.array(pair)).tolist() == oracles.bits(np.array(family)).tolist(), (p, q)
                assert oracles.bits(entropy) == oracles.bits(0.0), (p, q)


def test_post_entropies_worked_example():
    s_phi, s_psi = post_entropies(0.1, 0.75)
    assert abs(s_phi - 0.8112) < 2e-4
    assert abs(s_psi - 0.2222) < 2e-4


def test_post_entropies_match_reduced_state_route():
    for p in (0.05, 0.3, 0.5, 0.77):
        for q in (0.2, 0.5, 0.9):
            s_phi, s_psi = post_entropies(p, q)
            outs = {o.label: o for o in bbm_outcomes(p, q)}
            assert abs(s_phi - svn(oracles.reduced(outs["phi+"].post_state, {0}))) < 1e-10
            assert abs(s_phi - svn(oracles.reduced(outs["phi-"].post_state, {0}))) < 1e-10
            assert abs(s_psi - svn(oracles.reduced(outs["psi+"].post_state, {0}))) < 1e-10


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


def test_special_case_probs_golden_values():
    pr_phi, pr_psi = special_case_probs(0.99)
    assert abs(pr_phi - 0.0099) < 1e-12
    assert abs(pr_psi - 0.4901) < 1e-12
    pr_phi, pr_psi = special_case_probs(0.75)
    assert abs(pr_phi - 0.1875) < 1e-12
    assert abs(pr_psi - 0.3125) < 1e-12


@settings(max_examples=80, deadline=None)
@given(weights)
def test_special_case_probs_total_one(q):
    pr_phi, pr_psi = special_case_probs(q)
    assert abs(2.0 * pr_phi + 2.0 * pr_psi - 1.0) < 1e-12


@settings(max_examples=80, deadline=None)
@given(weights)
def test_special_case_matches_general_formula(q):
    general = outcome_probabilities(1.0 - q, q)
    pr_phi, pr_psi = special_case_probs(q)
    assert abs(general["phi+"] - pr_phi) < 1e-12
    assert abs(general["psi-"] - pr_psi) < 1e-12


def test_predictability_probability_golden():
    pr_psi, pr_phi, pl_value = predictability_probability(0.99)
    assert abs(pl_value - 0.4802) < 1e-12
    assert abs(pr_psi - 0.4901) < 1e-12
    assert abs(pr_phi - 0.0099) < 1e-12


def test_predictability_probability_balanced_line():
    pr_psi, pr_phi, pl_value = predictability_probability(0.5)
    assert pl_value == 0.0
    assert abs(pr_psi - 0.25) < 1e-12
    assert abs(pr_phi - 0.25) < 1e-12


def test_predictability_probability_endpoint():
    pr_psi, pr_phi, pl_value = predictability_probability(0.0)
    assert abs(pl_value - 0.5) < 1e-12
    assert abs(pr_psi - 0.5) < 1e-12
    assert abs(pr_phi) < 1e-12


@settings(max_examples=80, deadline=None)
@given(weights)
def test_predictability_probability_identity(q):
    pr_psi, pr_phi, _ = predictability_probability(q)
    direct_phi, direct_psi = special_case_probs(q)
    assert abs(pr_psi - direct_psi) < 1e-12
    assert abs(pr_phi - direct_phi) < 1e-12


def test_weight_validation_everywhere():
    for fn in (lambda: bbm_outcomes(-0.1, 0.5), lambda: swap_spectrum(0.5, 1.5),
               lambda: special_case_probs(2.0), lambda: predictability_probability(-1.0)):
        with pytest.raises(ValueError):
            fn()
    # bbm_outcomes takes one number per weight, and names the weight that is not
    for bad in (np.array([0.3, 0.4]), [0.5], np.array([[0.5]])):
        with pytest.raises(ValueError, match="p must be one number"):
            bbm_outcomes(bad, 0.5)
        with pytest.raises(ValueError, match="q must be one number"):
            bbm_outcomes(0.5, bad)
    zero_d = bbm_outcomes(np.array(0.3), np.array(0.6))
    for a, b in zip(zero_d, bbm_outcomes(0.3, 0.6)):
        assert a.probability == b.probability and np.array_equal(a.post_state.amplitudes, b.post_state.amplitudes)
    for bad in (np.nan, -0.1, 1.5):
        weights_with_one_bad = np.array([0.2, bad, 0.7])
        for fn in (
            lambda: swap_spectrum(weights_with_one_bad, 0.5),
            lambda: swap_spectrum(0.5, weights_with_one_bad),
            lambda: post_entropies(weights_with_one_bad, 0.3),
            lambda: special_case_probs(weights_with_one_bad),
            lambda: predictability_probability(weights_with_one_bad),
        ):
            with pytest.raises(ValueError):
                fn()


def _rows(result):
    """The outputs of a closed form as rows of IEEE-754 bit patterns."""
    if isinstance(result, SwapSpectrum):
        result = (result.a, result.b, result.c, result.d)
    return np.stack([np.asarray(r, dtype=np.float64) for r in result]).view(np.uint64)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(weights, weights), max_size=12))
def test_array_calls_equal_the_scalar_calls_bit_for_bit(drawn):
    # the corners leave a family dead: its NaN stays in its own elements
    endpoints = [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 5e-324)]
    p_arr, q_arr = np.array(endpoints + drawn).T
    for fn, args in (
        (swap_spectrum, (p_arr, q_arr)),
        (post_entropies, (p_arr, q_arr)),
        (special_case_probs, (q_arr,)),
        (predictability_probability, (q_arr,)),
    ):
        batch = _rows(fn(*args))
        for k in range(len(args[0])):
            one = _rows(fn(*(float(arg[k]) for arg in args)))
            assert batch[:, k].tolist() == one.tolist(), (fn.__name__, [arg[k] for arg in args])


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
            reference = oracles.project_bbm(oracles.composite_state(p, q).amplitudes)
            sigma = np.sign((2.0 * p - 1.0) * (2.0 * q - 1.0))
            # derived here, not stated in the paper: with P_l(w) = (2w-1)^2/2,
            # N_phi^2 = pq + (1-p)(1-q) = (1 + (2p-1)(2q-1))/2
            phi = 0.25 + sigma * math.sqrt(pl[p] * pl[q]) / 2.0
            probs, _ = _branches(p, q)
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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(schmidt_weights, schmidt_weights), min_size=1, max_size=8))
def test_swap_states_are_in_schmidt_form_and_report_from_their_populations(drawn):
    p, q = np.array(drawn).T
    posts = swap._post_amplitudes(swap._products(p, q))
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
    diagonal = measures._diagonal_report(populations)
    assert diagonal.dim == kernel.dim == 2
    for field in ("c_re", "p_vn", "s_vn", "vn_sum", "c_hs", "p_l", "s_l", "l_sum"):
        assert oracles.bits(getattr(diagonal, field)).tolist() == oracles.bits(getattr(kernel, field)).tolist(), field
