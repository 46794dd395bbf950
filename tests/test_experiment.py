import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from entswap import experiment, rng
from entswap.experiment import EnsembleResult, RunConfig, run_ensemble
from entswap.states import BELL_LABELS
from entswap.swap import outcome_probabilities

seeds = st.integers(min_value=0, max_value=(1 << 64) - 1)

# published reference outputs of the splitmix64 generator for seed 0
_SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
)


def test_raw_draw_matches_published_vector():
    for i, expected in enumerate(_SPLITMIX64_SEED0):
        assert oracles.raw_draw(0, i) == expected
    # the library stream keeps the top 53 bits of the same words
    expected_uniforms = np.array([(word >> 11) * 2.0**-53 for word in _SPLITMIX64_SEED0])
    assert np.array_equal(rng.uniforms(0, 0, 5), expected_uniforms)


def test_uniform_range_and_resolution():
    u = rng.uniforms(123, 0, 4096)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # 53-bit significands: every value is a multiple of 2**-53
    assert np.all(u * 2.0**53 == np.floor(u * 2.0**53))


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
def test_vectorized_matches_scalar(seed, start, count):
    batch = rng.uniforms(seed, start, count)
    for offset in (0, count // 2, count - 1):
        assert batch[offset] == oracles.uniform(seed, start + offset)


def test_mid_stream_resume():
    whole = rng.uniforms(99, 0, 100)
    assert np.array_equal(whole[40:], rng.uniforms(99, 40, 60))


def test_rng_state_walks_the_stream():
    state = oracles.RngState(31, 0)
    seen = []
    for _ in range(8):
        u, state = state.draw()
        seen.append(u)
    assert state.counter == 8
    assert np.array_equal(np.array(seen), rng.uniforms(31, 0, 8))


def test_complex_normals_deterministic_and_indexed():
    z = rng.complex_normals(5, 0, 16)
    assert z.shape == (16,)
    assert np.all(np.isfinite(z))
    assert np.array_equal(z, rng.complex_normals(5, 0, 16))
    for k in (0, 7, 15):
        assert rng.complex_normals(5, 2 * k, 1)[0] == z[k]


def test_complex_normals_moments():
    z = rng.complex_normals(2024, 0, 40_000)
    assert abs(z.mean()) < 0.02
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02


def test_categorical_tie_goes_to_lower_label():
    probs = np.array([0.5, 0.5])
    assert rng.categorical(np.array([0.5]), probs)[0] == 0
    assert rng.categorical(np.array([np.nextafter(0.5, 1.0)]), probs)[0] == 1


def test_categorical_never_picks_zero_probability_labels():
    probs = np.array([0.0, 0.5, 0.0, 0.5])
    u = rng.uniforms(11, 0, 2000)
    picked = rng.categorical(np.concatenate([u, [0.0, 0.5]]), probs)
    assert set(np.unique(picked)) <= {1, 3}
    assert rng.categorical(np.array([0.0]), probs)[0] == 1


def test_categorical_overflow_lands_on_last_positive_label():
    # cumulative sum rounds below 1; the largest representable u exceeds it
    probs = np.array([0.1] * 7 + [0.3 - 5e-14])
    u_max = np.nextafter(1.0, 0.0)
    assert rng.categorical(np.array([u_max]), probs)[0] == 7


def test_categorical_rejects_bad_vectors():
    with pytest.raises(ValueError):
        rng.categorical(np.array([0.5]), np.array([0.7, 0.6]))
    with pytest.raises(ValueError):
        rng.categorical(np.array([0.5]), np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        rng.categorical(np.array([0.5]), np.array([]))
    # every comparison with NaN is False, so each check must be one that NaN fails
    for bad in ([np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [np.inf, 0.0, 0.0], [0.5, 0.5, np.inf],
                [-np.inf, 0.5, 0.5]):
        with pytest.raises(ValueError):
            rng.categorical(np.array([0.1, 0.6, 0.99]), np.array(bad))
        with pytest.raises(ValueError):
            rng._boundaries(bad)


def test_uniforms_in_place_match_the_scalar_stream_at_extreme_counters():
    seed, start = (1 << 64) - 1, 1 << 40
    for count in (1, (1 << 16) + 3):
        expected = np.array([oracles.uniform(seed, start + i) for i in range(count)])
        u = rng.uniforms(seed, start, count)
        assert u.dtype == np.float64 and np.array_equal(u, expected)


# weights with zeros first, in the middle and last; normalized below
_weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)), min_size=1, max_size=6
).filter(lambda w: sum(w) > 0.0)


@settings(max_examples=200, deadline=None)
@given(_weight_vectors, seeds)
@example([0.0, 0.5, 0.0, 0.5], 1)
@example([0.0, 0.0, 1.0], 2)
@example([0.5, 0.5, 0.0], 3)
@example([0.0, 0.0, 0.5, 0.5], 4)
@example([1.0], 5)
@example([0.1] * 7 + [0.3 - 5e-14], 6)
def test_tally_equals_the_bincount_of_the_labels(weights, seed):
    p = np.array(weights) / sum(weights)
    boundaries = rng._boundaries(p)
    cum = boundaries[0]
    u = np.concatenate([
        rng.uniforms(seed, 0, 300),
        cum,  # exactly on each boundary
        np.nextafter(cum, -np.inf),
        np.nextafter(cum, np.inf),  # the last of these is above cum[-1]
        [0.0, np.nextafter(1.0, 0.0), 1.0, 1.5],
    ])
    expected = np.bincount(rng.categorical(u, p), minlength=len(p))
    tally = rng._tally(u, boundaries)
    assert tally.dtype == expected.dtype and np.array_equal(tally, expected)
    assert np.array_equal(rng._tally(u[:0], boundaries), np.zeros(len(p), dtype=np.int64))


def test_sample_bbm_matches_ensemble_counts():
    cfg = RunConfig(p=0.3, q=0.6, shots=200, seed=9)
    assert _counts_one_draw_at_a_time(cfg) == run_ensemble(cfg).counts


def _counts_one_draw_at_a_time(cfg):
    state = oracles.RngState(cfg.seed, 0)
    tallies = dict.fromkeys(BELL_LABELS, 0)
    for _ in range(cfg.shots):
        label, state = oracles.sample_bbm(cfg.p, cfg.q, state)
        tallies[label] += 1
    return tallies


def test_run_ensemble_chunks_match_the_draws_one_at_a_time(monkeypatch):
    monkeypatch.setattr(experiment, "SHOT_CHUNK", 7)
    for p, q in ((0.3, 0.6), (0.0, 1.0)):
        for shots in (1, 7, 8, 50):
            cfg = RunConfig(p=p, q=q, shots=shots, seed=9)
            assert run_ensemble(cfg).counts == _counts_one_draw_at_a_time(cfg)


def test_run_ensemble_bit_identical_reruns():
    cfg = RunConfig(p=0.1, q=0.75, shots=5000, seed=7)
    assert run_ensemble(cfg) == run_ensemble(cfg)


def test_run_ensemble_bookkeeping():
    cfg = RunConfig(p=0.1, q=0.75, shots=4000, seed=7)
    result = run_ensemble(cfg)
    assert sum(result.counts.values()) == cfg.shots
    assert abs(sum(result.empirical_freq.values()) - 1.0) < 1e-12
    assert result.analytic_prob == outcome_probabilities(cfg.p, cfg.q)


def test_degenerate_branches_are_skipped():
    result = run_ensemble(RunConfig(p=1.0, q=0.0, shots=1000, seed=3))
    assert result.counts["phi+"] == 0 and result.counts["phi-"] == 0
    assert result.counts["psi+"] + result.counts["psi-"] == 1000


def test_three_sigma_band():
    assert abs(oracles.three_sigma(0.25, 10_000) - 3.0 * math.sqrt(0.25 * 0.75 / 10_000)) < 1e-15
    assert oracles.three_sigma(0.0, 100) == 0.0


def test_frequencies_within_three_sigma():
    for shots in (10_000, 100_000):
        result = run_ensemble(RunConfig(p=0.1, q=0.75, shots=shots, seed=7))
        errors = result.freq_error()
        for label, prob in result.analytic_prob.items():
            assert errors[label] <= oracles.three_sigma(prob, shots)


def test_error_shrinks_with_more_shots():
    small = run_ensemble(RunConfig(p=0.1, q=0.75, shots=10_000, seed=7))
    large = run_ensemble(RunConfig(p=0.1, q=0.75, shots=1_000_000, seed=7))
    assert max(large.freq_error().values()) < max(small.freq_error().values())


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_ensemble_deterministic_across_seeds(seed):
    cfg = RunConfig(p=0.4, q=0.55, shots=64, seed=seed)
    first = run_ensemble(cfg)
    assert isinstance(first, EnsembleResult)
    assert first == run_ensemble(cfg)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(p=-0.1, q=0.5, shots=10, seed=0)
    with pytest.raises(ValueError):
        RunConfig(p=0.5, q=1.2, shots=10, seed=0)
    with pytest.raises(ValueError):
        RunConfig(p=0.5, q=0.5, shots=0, seed=0)


def test_run_config_masks_seed_to_64_bits():
    assert RunConfig(p=0.5, q=0.5, shots=1, seed=(1 << 64) + 5).seed == 5
    assert RunConfig(p=0.5, q=0.5, shots=1, seed=-1).seed == (1 << 64) - 1
