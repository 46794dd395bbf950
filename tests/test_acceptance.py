"""End-to-end acceptance suite: nine checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines
as they print; without -s pytest shows them only for failing checks.
"""

import math
import time

import numpy as np

import oracles
from entswap import measures, states, swap
from entswap.cli import main
from entswap.experiment import RunConfig, run_ensemble


def _verdict(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_worked_example_goldens():
    probs = swap.outcome_probabilities(0.1, 0.75)
    s_phi, s_psi = swap.post_entropies(0.1, 0.75)
    s_xi = measures.svn(states.schmidt_pair(0.1).reduced({0}))
    s_eta = measures.svn(states.schmidt_pair(0.75).reduced({0}))
    prob_ok = (
        abs(probs["phi+"] - 0.15) < 1e-12
        and abs(probs["phi-"] - 0.15) < 1e-12
        and abs(probs["psi+"] - 0.35) < 1e-12
        and abs(probs["psi-"] - 0.35) < 1e-12
    )
    entropy_ok = (
        abs(s_phi - 0.8112) < 2e-4
        and abs(s_psi - 0.2222) < 2e-4
        and abs(s_xi - 0.4689) < 2e-4
        and abs(s_eta - 0.8112) < 2e-4
    )
    ok = prob_ok and entropy_ok
    assert _verdict(1, "worked-example goldens", ok), (probs, s_phi, s_psi, s_xi, s_eta)


def test_criterion_2_special_case_goldens():
    hi = swap.special_case_probs(0.99)
    mid = swap.special_case_probs(0.75)
    ok = (
        abs(hi[0] - 0.0099) < 1e-12
        and abs(hi[1] - 0.4901) < 1e-12
        and abs(mid[0] - 0.1875) < 1e-12
        and abs(mid[1] - 0.3125) < 1e-12
    )
    assert _verdict(2, "special-case goldens", ok), (hi, mid)


def test_criterion_3_probability_predictability_identity():
    worst = 0.0
    for i in range(1001):
        q = i / 1000
        pr_phi, pr_psi = swap.special_case_probs(q)
        from_pl_psi, from_pl_phi, _ = swap.predictability_probability(q)
        worst = max(worst, abs(pr_psi - from_pl_psi), abs(pr_phi - from_pl_phi))
    ok = worst < 1e-12
    assert _verdict(3, "probability-predictability identity grid", ok), worst


def test_criterion_4_complementarity_sums_on_random_states():
    start = time.perf_counter()
    worst_vn = 0.0
    worst_l = 0.0
    for da, db in ((2, 2), (3, 2)):
        vn_target = math.log2(da)
        l_target = (da - 1) / da
        reduced = np.stack([
            states.PureState(row, (da, db)).reduced({0}).matrix
            for row in states.haar_states(da, db, 7, 10_000)
        ])
        rep = measures.report(reduced)
        # np.max propagates NaN, which Python's max would drop
        worst_vn = np.max([worst_vn, np.max(np.abs(rep.vn_sum - vn_target))])
        worst_l = np.max([worst_l, np.max(np.abs(rep.l_sum - l_target))])
    elapsed = time.perf_counter() - start
    ok = bool(np.isfinite([worst_vn, worst_l]).all())
    ok = ok and worst_vn < 1e-9 and worst_l < 1e-9 and elapsed < 10.0
    assert _verdict(4, "complementarity sums on random states", ok), (worst_vn, worst_l, elapsed)


def test_criterion_5_projector_oracle_equivalence():
    start = time.perf_counter()
    grid = [i / 100 for i in range(101)]
    worst_prob = 0.0
    worst_fidelity_gap = 0.0
    branch_mismatches = 0
    for p in grid:
        for q in grid:
            reference = oracles.project_bbm(oracles.composite_state(p, q).amplitudes)
            for outcome in swap.bbm_outcomes(p, q):
                ref_prob, ref_post = reference[outcome.label]
                worst_prob = max(worst_prob, abs(outcome.probability - ref_prob))
                if (outcome.post_state is None) != (ref_post is None):
                    branch_mismatches += 1
                elif outcome.post_state is not None:
                    fid = abs(np.vdot(ref_post, outcome.post_state.amplitudes)) ** 2
                    worst_fidelity_gap = max(worst_fidelity_gap, 1.0 - fid)
    elapsed = time.perf_counter() - start
    ok = (
        worst_prob < 1e-10
        and worst_fidelity_gap < 1e-10
        and branch_mismatches == 0
        and elapsed < 30.0
    )
    assert _verdict(5, "projector-oracle equivalence", ok), (
        worst_prob,
        worst_fidelity_gap,
        branch_mismatches,
        elapsed,
    )


def test_criterion_6_entropy_stationarity():
    ok = True
    details = []
    for i in range(1, 10):
        q = i / 10
        for branch in ("phi", "psi"):
            _, residual, sign = oracles.stationarity_check(q, branch)
            details.append((q, branch, residual, sign))
            ok = ok and abs(residual) < 1e-6 and sign == -1
    assert _verdict(6, "entropy stationarity", ok), details


def test_criterion_7_triality_through_the_protocol():
    grid = [i / 100 for i in range(101)]
    reduced = []
    for p in grid:
        for q in grid:
            reduced += [np.diag([w, 1.0 - w]).astype(complex) for w in (p, q)]
            reduced += [
                outcome.post_state.reduced({0}).matrix
                for outcome in swap.bbm_outcomes(p, q)
                if outcome.post_state is not None
            ]
    rep = measures.report(np.stack(reduced))
    # np.max propagates NaN, which a fold with Python's max would drop
    worst_sum = np.max(np.abs(rep.p_vn + rep.s_vn - 1.0))
    worst_cre = np.max(rep.c_re)
    ok = bool(np.isfinite([worst_sum, worst_cre]).all()) and worst_sum < 1e-10 and worst_cre < 1e-12
    assert _verdict(7, "triality through the protocol", ok), (worst_sum, worst_cre)


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    ok = True
    details = []
    for p, q in ((0.5, 0.5), (0.1, 0.75), (0.01, 0.99)):
        cfg = RunConfig(p=p, q=q, shots=10**6, seed=7)
        result = run_ensemble(cfg)
        errors = result.freq_error()
        in_band = all(
            errors[label] <= oracles.three_sigma(prob, cfg.shots)
            for label, prob in result.analytic_prob.items()
        )
        identical = result == run_ensemble(cfg)
        details.append((p, q, max(errors.values()), in_band, identical))
        ok = ok and in_band and identical
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert _verdict(8, "Monte Carlo consistency", ok), (details, elapsed)


def test_criterion_9_figure_2a_ordering(tmp_path):
    target = tmp_path / "fig2a.csv"
    code = main(["figures", "--which", "2a", "--out", str(target)])
    lines = target.read_text().splitlines()
    ok = code == 0 and lines[0] == "q,pr_phi,pr_psi,pl_initial" and len(lines) == 1002
    for line in lines[1:]:
        q, pr_phi, pr_psi, _ = (float(cell) for cell in line.split(","))
        if q == 0.5:
            ok = ok and pr_psi == pr_phi
        else:
            ok = ok and pr_psi > pr_phi
    assert _verdict(9, "figure 2a ordering", ok)
