import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entswap import cli, measures
from entswap.states import BELL_LABELS, haar_states, schmidt_pair
from oracles import bell_state, composite_state

weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_schmidt_pair_amplitudes_are_the_scalar_square_roots():
    # the endpoints are the product states |00> and |11>, and 0.5 the Bell state phi+
    for w in (0.0, 1.0, 0.5, 0.3, 0.1, 0.75, 5e-324, 1e-300, 1.0 - 2**-53):
        assert schmidt_pair(w).amplitudes.tolist() == [math.sqrt(w), 0.0, 0.0, math.sqrt(1.0 - w)], w


@settings(max_examples=60)
@given(weights)
def test_schmidt_pair_reductions_are_diagonal(w):
    pair = schmidt_pair(w)
    for side in (0, 1):
        red = oracles.reduced(pair, {side}).matrix
        assert abs(red[0, 0].real - w) < 1e-12
        assert abs(red[1, 1].real - (1.0 - w)) < 1e-12
        assert abs(red[0, 1]) < 1e-15


def test_bell_states_orthonormal():
    for i, a in enumerate(BELL_LABELS):
        for j, b in enumerate(BELL_LABELS):
            overlap = np.vdot(bell_state(a).amplitudes, bell_state(b).amplitudes)
            assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-12


def test_bell_states_maximally_mixed_reductions():
    for label in BELL_LABELS:
        red = oracles.reduced(bell_state(label), {0}).matrix
        assert np.abs(red - np.eye(2) / 2).max() < 1e-12


def test_bell_state_rejects_unknown_label():
    with pytest.raises(ValueError):
        bell_state("phi")


def test_composite_is_product_of_pairs():
    p, q = 0.3, 0.8
    expected = np.kron(schmidt_pair(p).amplitudes, schmidt_pair(q).amplitudes)
    assert np.array_equal(composite_state(p, q).amplitudes, expected)
    assert composite_state(p, q).dims == (2, 2, 2, 2)


def test_composite_extreme_weights_are_basis_states():
    assert composite_state(1.0, 1.0).amplitudes[0] == 1.0
    assert composite_state(0.0, 0.0).amplitudes[-1] == 1.0


def test_composite_balanced_overlaps_quarter_probabilities():
    # matched Bell (x) Bell terms each carry amplitude 1/2 at p = q = 1/2
    psi = composite_state(0.5, 0.5).amplitudes.reshape(2, 2, 2, 2)
    for label in BELL_LABELS:
        bell_cc = oracles.BELL_MATRICES[label]
        bell_ab = bell_state(label).amplitudes.reshape(2, 2)
        overlap = np.einsum("cd,ab,acdb->", bell_cc.conj(), bell_ab.conj(), psi)
        assert abs(abs(overlap) - 0.5) < 1e-12


def _branch_coefficients(p, q):
    # unnormalized AB amplitudes of each Bell branch, times sqrt(2)
    u, v = 1.0 - p, 1.0 - q
    return {
        "phi+": np.array([math.sqrt(p * q), 0, 0, math.sqrt(u * v)]),
        "phi-": np.array([math.sqrt(p * q), 0, 0, -math.sqrt(u * v)]),
        "psi+": np.array([0, math.sqrt(p * v), math.sqrt(u * q), 0]),
        "psi-": np.array([0, math.sqrt(p * v), -math.sqrt(u * q), 0]),
    }


@settings(max_examples=60)
@given(weights, weights)
def test_composite_bell_expansion_and_projections(p, q):
    # expanding the composite in the measured-wire Bell basis reproduces the four
    # branch amplitude vectors coefficient by coefficient, and the projections resolve
    # the identity
    composite = composite_state(p, q).amplitudes
    psi = composite.reshape(2, 2, 2, 2)
    expected = _branch_coefficients(p, q)
    for label, bell in oracles.BELL_MATRICES.items():
        amp_ab = np.einsum("cd,acdb->ab", bell.conj(), psi).reshape(4)
        assert np.abs(math.sqrt(2.0) * amp_ab - expected[label]).max() < 1e-12
    probs = [prob for prob, _ in oracles.project_bbm(composite).values()]
    assert abs(sum(probs) - 1.0) < 1e-12


# (dims, seed, count, start): each verify dims; a small batch; a row of a batch, drawn alone
# beside its batch; and one state at each of two neighbouring seeds
HAAR_DRAWS = [*(((da, db), 71, 4096, 37) for da, db in oracles.VERIFY_DIMS), ((3, 2), 99, 8, 0),
              ((2, 2), 5, 4, 0), ((2, 2), 5, 1, 3), ((2, 2), 1, 1, 0), ((2, 2), 2, 1, 0)]


@pytest.mark.parametrize("dims, seed, count, start", HAAR_DRAWS)
def test_haar_states_keep_the_bits_of_the_norm_division(dims, seed, count, start):
    batch = haar_states(*dims, seed, count, start)
    assert np.array_equal(oracles.bits(batch), oracles.bits(oracles.haar_states_norm(*dims, seed, count, start)))


@pytest.mark.parametrize("count", [cli.VERIFY_CHUNK - 1, cli.VERIFY_CHUNK + 1])
@pytest.mark.parametrize("da, db", oracles.VERIFY_DIMS)
def test_haar_planes_are_the_haar_states_bit_for_bit(monkeypatch, da, db, count):
    # `measures._plane_gram` hands `_gram` the Haar draw itself as real planes, the
    # smaller side first: a float64 view of the states' own memory, no copy
    psi = haar_states(da, db, 71, count, start=37).reshape(count, da, db)
    seen, real_gram = [], measures._gram
    monkeypatch.setattr(measures, "_gram", lambda x: seen.append(x) or real_gram(x))
    measures._plane_gram(psi)
    (planes,) = seen
    assert np.shares_memory(planes, psi)
    side = (psi if db >= da else psi.transpose(0, 2, 1)).transpose(1, 2, 0)
    assert planes.shape == side.shape[:2] + (2, count)
    assert np.array_equal(oracles.bits(planes[:, :, 0]), oracles.bits(side.real))
    assert np.array_equal(oracles.bits(planes[:, :, 1]), oracles.bits(side.imag))


@pytest.mark.parametrize("da, db", oracles.VERIFY_DIMS)
def test_haar_states_memory_stays_within_a_few_batches(da, db):
    # the growth per state from 1024 to 2048 states: twice a state's 16 * D bytes and at most
    # sixteen float64 rows for the norms' sums (136 B measured at 2,2, 608 at 4,4, 8,2 and 2,8)
    peaks = [oracles.peak_bytes(lambda: haar_states(da, db, seed=72, count=n)) for n in (1024, 2048)]
    assert (peaks[1] - peaks[0]) / 1024 <= 2 * 16 * da * db + 16 * 8, peaks


# the fixed-seed draws held to the Haar law's ensemble means: (dims, seed, states)
HAAR_LAW_DRAWS = [((2, 2), 7, 10**4), ((3, 2), 7, 10**4), ((2, 5), 7, 10**5), ((5, 2), 8, 10**5)]
# z = (sample mean - ensemble mean) / standard error. These draws read |z| <= 2.0, and
# 30 to 40 other seeds per dims at most 2.6, while each wrong law tried reads beyond
# the gate at every one of the dims: real Gaussian amplitudes |z| >= 24, a constant
# radius >= 22, and a uniform radius (whose purity is near Haar's at 2,5 and 5,2)
# >= 9.1, by its fourth moment there
HAAR_LAW_Z = 4.0


@pytest.mark.parametrize(("dims", "seed", "count"), HAAR_LAW_DRAWS)
def test_haar_states_follow_the_haar_law(dims, seed, count):
    da, db = dims
    psi = haar_states(da, db, seed, count)
    lam = oracles.eigvalsh_eigenvalues(oracles.reduced_stack(psi.reshape(count, da, db)))
    m, n = sorted(dims)
    kept = np.where(lam > 0.0, lam, 1.0)
    statistics = {
        # Lubkin, J. Math. Phys. 19, 1028 (1978): E Tr rho_A^2 = (dA + dB) / (dA dB + 1)
        "purity": ((lam * lam).sum(axis=1), (da + db) / (da * db + 1)),
        # Page, PRL 71, 1291 (1993): E S(rho_A) = sum_{k=n+1}^{mn} 1/k - (m-1)/(2n) nats, m <= n
        "entropy": (-(kept * np.log(kept)).sum(axis=1),
                    sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2 * n)),
        # a uniform unit vector in C^d: E sum_i |psi_i|^4 = 2 / (d + 1)
        "fourth moment": ((np.abs(psi) ** 4).sum(axis=1), 2.0 / (da * db + 1)),
    }
    # measured z, in the order of HAAR_LAW_DRAWS:
    #   purity  +1.99 +1.13 +1.22 -1.94; entropy -2.00 -1.03 -1.24 +1.99;
    #   fourth moment +0.58 +0.49 -0.07 +0.81
    for name, (sample, mean) in statistics.items():
        z = (sample.mean() - mean) / (sample.std(ddof=1) / math.sqrt(count))
        assert abs(z) < HAAR_LAW_Z, (name, z)
