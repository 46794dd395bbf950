import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from entswap import rng
from entswap.experiment import EnsembleResult, RunConfig, run_ensemble
from entswap.states import BELL_LABELS
from entswap.swap import bbm_outcomes

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


@settings(max_examples=60)
@given(seeds, st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=64))
def test_vectorized_matches_scalar(seed, start, count):
    batch = rng.uniforms(seed, start, count)
    for offset in (0, count // 2, count - 1):
        assert batch[offset] == oracles.uniform(seed, start + offset)


# (seed, start, count): 4096 draws, which the oracle holds in [0, 1) on the 2**-53 grid; a
# resume mid-stream beside its whole; the extreme counters; and counts on each side of a
# block's end and a short third block
UNIFORM_SLICES = [
    (123, 0, 4096), (99, 0, 100), (99, 40, 60), ((1 << 64) - 1, 1 << 40, 1), ((1 << 64) - 1, 1 << 40, (1 << 16) + 3),
    *((0xDEADBEEF, 12_345, count) for count in (rng._MIX_BLOCK - 1, rng._MIX_BLOCK, rng._MIX_BLOCK + 1,
                                                2 * rng._MIX_BLOCK + 3)),
]


@pytest.mark.parametrize("seed, start, count", UNIFORM_SLICES)
def test_uniforms_are_the_scalar_stream_bit_for_bit(seed, start, count):
    expected = np.array([oracles.uniform(seed, start + i) for i in range(count)])
    u = rng.uniforms(seed, start, count)
    assert u.dtype == np.float64 and np.array_equal(oracles.bits(u), oracles.bits(expected))


def test_rng_state_walks_the_stream():
    state = oracles.RngState(31, 0)
    seen = []
    for _ in range(8):
        u, state = state.draw()
        seen.append(u)
    assert state.counter == 8
    assert np.array_equal(np.array(seen), rng.uniforms(31, 0, 8))


# (seed, start, count): 10^5 normals at three streams, and 16 normals beside entries 0, 7
# and 15 of them drawn alone, entry k from draw 2k on
NORMAL_SLICES = [(5, 0, 100_000), (2024, 123_457, 100_000), (2**64 - 1, 2**40, 100_000), (5, 0, 16),
                 *((5, 2 * k, 1) for k in (0, 7, 15))]


@pytest.mark.parametrize("seed, start, count", NORMAL_SLICES)
def test_complex_normals_keep_the_bits_of_the_complex_exp(seed, start, count):
    # cos and sin written into the halves must round as numpy's complex exp does
    z = rng.complex_normals(seed, start, count)
    assert np.array_equal(oracles.bits(z), oracles.bits(oracles.complex_normals_exp(seed, start, count)))


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
    # NaN compares below no boundary, so it lands there too, also before trailing zeros
    assert rng.categorical(np.array([np.nan]), probs)[0] == 7
    assert rng.categorical(np.array([np.nan]), np.array([0.0, 0.5, 0.5, 0.0]))[0] == 2


# weights with zeros first, in the middle and last; normalized below
_weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)), min_size=1, max_size=6
).filter(lambda w: sum(w) > 0.0)


@pytest.mark.parametrize("probs, passes", [([0.0, 0.0, 0.5, 0.5], 1), ([0.25] * 4, 3), ([1.0], 0)])
def test_label_counts_count_only_at_the_boundaries_that_split_draws(monkeypatch, probs, passes):
    # a dead family, as at (p, q) = (0, 1), leaves one boundary to count; all four live, three;
    # that many passes in each of the three chunks of 1000 draws
    calls = []
    real_count = np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(args)
        return real_count(*args, **kwargs)

    expected = np.bincount(rng.categorical(rng.uniforms(8, 0, 1000), probs), minlength=len(probs))
    monkeypatch.setattr(rng, "SHOT_CHUNK", 400)
    monkeypatch.setattr(np, "count_nonzero", counted)
    assert np.array_equal(rng._label_counts(8, 1000, probs), expected)
    assert len(calls) == 3 * passes


def _assert_label_counts_label_the_words(p, seed):
    # the words that `_label_counts` counts, fed to it through a `_draws` spy: 500 from the
    # stream, and each cut's K = floor(c * 2**53) with its neighbours, the largest word and 0,
    # all below 2**53; in one chunk, and in chunks of 64 so that the counts run across chunks
    inner = rng._boundaries(p)[0]
    near = {k + d for k in (math.floor(Fraction(c) * (1 << 53)) for c in inner.tolist()) for d in (-1, 0, 1)}
    extremes = [m for m in sorted(near | {0, 1, (1 << 53) - 1}) if 0 <= m < 1 << 53]
    m = np.concatenate([rng._draws(seed, 0, np.empty(500, dtype=np.uint64)), np.array(extremes, dtype=np.uint64)])
    expected = np.bincount(rng.categorical(m * 2.0**-53, p), minlength=len(p))

    def chosen(_seed, start, words):
        words[:] = m[start:start + len(words)]
        return words

    for chunk in (rng.SHOT_CHUNK, 64):
        with mock.patch.object(rng, "_draws", chosen), mock.patch.object(rng, "SHOT_CHUNK", chunk):
            counts = rng._label_counts(seed, len(m), p)
        assert counts.dtype == expected.dtype and np.array_equal(counts, expected), (chunk, counts, expected)
        assert counts.sum() == len(m)


@pytest.mark.parametrize("probs", [
    [0.5, 0.5, 1e-300],  # an inner cut of exactly 1.0, so K = 2**53 is above every word
    [5e-324, 1.0 - 5e-324],  # a subnormal cut, K = 0
    [0.1] * 7 + [0.3 - 5e-14],  # cuts off the 2**-53 grid, and a sum below 1
    [1.0],  # no inner cut
    [0.5, 0.5, 0.0, 0.0],  # a dead family
])
def test_label_counts_of_the_words_under_integer_cuts_label_the_uniforms(probs):
    _assert_label_counts_label_the_words(np.array(probs), 3)


@settings(max_examples=200)
@given(_weight_vectors, seeds)
@example([0.0, 0.5, 0.0, 0.5], 1)
@example([0.0, 0.0, 1.0], 2)
@example([0.5, 0.5, 0.0], 3)
@example([0.0, 0.0, 0.5, 0.5], 4)
@example([1.0], 5)
@example([0.1] * 7 + [0.3 - 5e-14], 6)
def test_label_counts_of_the_words_under_integer_cuts_label_the_uniforms_at_any_weights(weights, seed):
    _assert_label_counts_label_the_words(np.array(weights) / sum(weights), seed)


def _counts_one_draw_at_a_time(cfg):
    state = oracles.RngState(cfg.seed, 0)
    tallies = dict.fromkeys(BELL_LABELS, 0)
    for _ in range(cfg.shots):
        label, state = oracles.sample_bbm(cfg.p, cfg.q, state)
        tallies[label] += 1
    return tallies


# (chunk, p, q, shots): chunks of 7 on each side of a chunk's end, with a dead family at
# (0, 1), and 200 shots in one default chunk
ENSEMBLE_CHUNKS = [(7, p, q, shots) for p, q in ((0.3, 0.6), (0.0, 1.0)) for shots in (1, 7, 8, 50)] + [
    (rng.SHOT_CHUNK, 0.3, 0.6, 200)]


@pytest.mark.parametrize("chunk, p, q, shots", ENSEMBLE_CHUNKS)
def test_run_ensemble_chunks_match_the_draws_one_at_a_time(monkeypatch, chunk, p, q, shots):
    monkeypatch.setattr(rng, "SHOT_CHUNK", chunk)
    real_draws = rng._draws
    outs = []

    def spy(seed, start, words):
        outs.append(words)
        return real_draws(seed, start, words)

    monkeypatch.setattr(rng, "_draws", spy)
    cfg = RunConfig(p=p, q=q, shots=shots, seed=9)
    assert run_ensemble(cfg).counts == _counts_one_draw_at_a_time(cfg)
    # every chunk's words are written into the start of one uint64 buffer
    assert [len(out) for out in outs] == [min(chunk, shots - start) for start in range(0, shots, chunk)]
    buffer = outs[0].base
    assert buffer is not None and buffer.dtype == np.uint64 and len(buffer) == min(chunk, shots)
    assert all(out.base is buffer and out.ctypes.data == buffer.ctypes.data for out in outs)


@pytest.mark.parametrize("count", [24_576, 65_536])
def test_uniforms_allocate_no_more_than_the_draws_and_one_block(count):
    # a 2048-state verify chunk at 3,2 and one shot chunk: the float64 output, whose
    # memory holds the words, and one scratch block; no second array of words
    peak = oracles.peak_bytes(lambda: rng.uniforms(3, 5, count))
    assert peak <= 8 * count + 8 * min(count, rng._MIX_BLOCK) + 4096, peak


def test_run_ensemble_bit_identical_reruns():
    cfg = RunConfig(p=0.1, q=0.75, shots=5000, seed=7)
    assert run_ensemble(cfg) == run_ensemble(cfg)


def test_run_ensemble_bookkeeping():
    cfg = RunConfig(p=0.1, q=0.75, shots=4000, seed=7)
    result = run_ensemble(cfg)
    assert sum(result.counts.values()) == cfg.shots
    assert abs(sum(result.empirical_freq.values()) - 1.0) < 1e-12
    assert result.analytic_prob == {o.label: o.probability for o in bbm_outcomes(cfg.p, cfg.q)}


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


@settings(max_examples=25)
@given(seeds)
def test_ensemble_deterministic_across_seeds(seed):
    cfg = RunConfig(p=0.4, q=0.55, shots=64, seed=seed)
    first = run_ensemble(cfg)
    assert isinstance(first, EnsembleResult)
    assert first == run_ensemble(cfg)


