import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from entswap import cli, linalg, measures, swap
from entswap.linalg import DensityMatrix, hermitian_eigenvalues
from entswap.measures import report, svn
from entswap.states import PureState, haar_states
from oracles import VERIFY_DIMS


def haar_state(da, db, seed, index=0):
    return PureState(haar_states(da, db, seed, 1, start=index)[0], (da, db))


def haar_psi(da, db, seed, count):
    """Amplitude matrices psi[N, DA, DB] of `count` Haar states and their rho_A."""
    psi = haar_states(da, db, seed, count).reshape(count, da, db)
    return psi, oracles.reduced_stack(psi)


def diag_state(*populations):
    return DensityMatrix(np.diag(populations).astype(complex), (len(populations),))


def random_qubit_density(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    m = x @ x.conj().T
    return DensityMatrix(m / m.trace(), (2,))


EXACT = 0.0  # a bound that asks for ==
PURE, HALF, THIRD = diag_state(1.0, 0.0), diag_state(0.5, 0.5), diag_state(1 / 3, 1 / 3, 1 / 3)
PLUS = DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (2,))
# (state, field of its report, expected value, bound on |value - expected|); HALF is also the
# reduction of a Bell pair, eye(2) / 2
REPORT_VALUES = [
    (PURE, "s_vn", 0.0, EXACT), (HALF, "s_vn", 1.0, 1e-12), (THIRD, "s_vn", math.log2(3), 1e-12),
    (diag_state(0.1, 0.9), "s_vn", 0.4689, 2e-4), (diag_state(0.25, 0.75), "s_vn", 0.8112, 2e-4),
    (PURE, "s_l", 0.0, EXACT), (HALF, "s_l", 0.5, 1e-12),
    (diag_state(0.3, 0.7), "c_re", 0.0, EXACT), (PLUS, "c_re", 1.0, 1e-12), (HALF, "c_re", 0.0, EXACT),
    (diag_state(0.4, 0.6), "c_hs", 0.0, EXACT), (PLUS, "c_hs", 0.5, 1e-12), (HALF, "c_hs", 0.0, EXACT),
    (HALF, "p_vn", 0.0, 1e-12), (PURE, "p_vn", 1.0, 1e-12), (diag_state(0.99, 0.01), "p_vn", 0.9192, 1e-4),
    (THIRD, "p_vn", 0.0, 1e-12), (diag_state(1.0, 0.0, 0.0), "p_vn", math.log2(3), 1e-12),
    (HALF, "p_l", 0.0, 1e-12), (PURE, "p_l", 0.5, 1e-12),
    (HALF, "vn_sum", 1.0, 1e-12), (HALF, "l_sum", 0.5, 1e-12), (HALF, "dim", 2, EXACT),
]


@pytest.mark.parametrize("state, field, expected, bound", REPORT_VALUES)
def test_report_values_of_fixed_states(state, field, expected, bound):
    value = getattr(report(state), field)
    assert value == expected if bound == EXACT else abs(value - expected) < bound
    if field == "s_vn":
        assert svn(state) == value


def test_svn_basis_invariant():
    # unitary rotation leaves the spectrum alone
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rho = np.diag([0.2, 0.8]).astype(complex)
    rotated = DensityMatrix(u @ rho @ u.T, (2,))
    assert abs(svn(rotated) - svn(diag_state(0.2, 0.8))) < 1e-12


def test_sl_on_a_grid_matches_the_purity_oracle():
    for q in np.linspace(0.0, 1.0, 101):
        rho = diag_state(q, 1.0 - q)
        direct = 1.0 - float(np.trace(rho.matrix @ rho.matrix).real)
        s_l = report(rho).s_l
        assert abs(s_l - direct) < 1e-15
        assert abs(s_l - 2.0 * q * (1.0 - q)) < 1e-12


def test_diagonal_part():
    # report reads the diagonal part's spectrum off the diagonal; an explicit
    # diagonal part, eigensolved like any state, must give the same numbers
    rho = random_qubit_density(4)
    diag = DensityMatrix(np.diag(np.diag(rho.matrix)), rho.dims)
    full, part = report(rho), report(diag)
    assert abs(full.c_re + full.s_vn - part.s_vn) < 1e-12
    assert full.p_vn == part.p_vn and full.p_l == part.p_l
    assert part.c_re == 0.0 and part.c_hs == 0.0


def test_coherences_invariant_under_phase_rotations():
    rho = random_qubit_density(3)
    u = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2,))
    assert abs(report(rotated).c_re - report(rho).c_re) < 1e-12
    assert abs(report(rotated).c_hs - report(rho).c_hs) < 1e-12


def test_pl_on_a_grid_matches_its_closed_form():
    for q in np.linspace(0.0, 1.0, 101):
        expected = 0.5 - 2.0 * q * (1.0 - q)
        assert abs(report(diag_state(q, 1.0 - q)).p_l - expected) < 1e-12


def test_predictabilities_strictly_positive_off_uniform():
    for populations in ((0.6, 0.4), (0.9, 0.1), (0.5, 0.3, 0.2)):
        rep = report(diag_state(*populations))
        assert rep.p_vn > 1e-3
        assert rep.p_l > 1e-3


def test_entropies_schur_concave_on_diagonal_qubits():
    qs = np.linspace(0.0, 0.5, 51)
    svn_vals = [svn(diag_state(q, 1.0 - q)) for q in qs]
    sl_vals = [report(diag_state(q, 1.0 - q)).s_l for q in qs]
    assert all(b >= a - 1e-12 for a, b in zip(svn_vals, svn_vals[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(sl_vals, sl_vals[1:]))


def test_report_sums_are_the_component_sums():
    rep = report(random_qubit_density(8))
    assert rep.vn_sum == rep.c_re + rep.p_vn + rep.s_vn
    assert rep.l_sum == rep.c_hs + rep.p_l + rep.s_l


def test_report_fields_never_meaningfully_negative():
    for seed in range(10):
        rep = report(random_qubit_density(500 + seed))
        for value in (rep.c_re, rep.p_vn, rep.s_vn, rep.c_hs, rep.p_l, rep.s_l):
            assert value >= -1e-10


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([(2, 2), (3, 2), (4, 2)]))
def test_triality_sums_on_haar_reductions(seed, dims):
    da, db = dims
    rho = oracles.reduced(haar_state(da, db, seed=seed), {0})
    rep = report(rho)
    assert abs(rep.vn_sum - math.log2(da)) < 1e-10
    assert abs(rep.l_sum - (da - 1) / da) < 1e-10


def test_entropy_keeps_a_dead_column_to_itself():
    # a dead branch family's NaN column stays NaN and does not touch a live one
    s = measures._entropy(np.array([[0.5, np.nan], [0.5, np.nan]]))
    assert s[0] == 1.0 and np.isnan(s[1])


# weights log-uniform in [5e-324, 1e-3], where a closed form's small eigenvalue lies
log_weights = st.floats(-323.3, -3.0).map(lambda e: 10.0**e)
# the same range log-spaced, the weight the clamp cost most (3.96e-11) and the clamp itself
EDGE_WEIGHTS = [*np.geomspace(5e-324, 1e-3, 64).tolist(), 9.93e-13, 1e-12]


@settings(max_examples=30)
@given(st.lists(log_weights, min_size=1, max_size=6))
@example(EDGE_WEIGHTS)
def test_closed_form_entropies_are_within_2_ulp_of_a_60_digit_reference(weights):
    # the spectra of `swap`, the figures and `post_entropies` are exact, so their entropies
    # keep every w log w term: worst 1.02 ulp(1) measured, against 1.8e5 with the clamp
    w = np.array(weights)
    tol = 2.0 * np.spacing(1.0)
    populations = np.stack([w, 1.0 - w])
    reference = [oracles.entropy_digits(column) for column in populations.T]
    assert np.abs(measures._diagonal_vn(populations)[0] - reference).max() <= tol
    for q in cli.FIGURE_Q_SET:
        for family, s in enumerate(swap.post_entropies(w, q)):
            reference = [oracles.entropy_digits(oracles.family_digits(x, q, family)) for x in w]
            assert np.abs(s - reference).max() <= tol, (q, family)
    # figure 2b at q = w, on its line p = 1 - q as the figure forms it in doubles
    rows, p = cli._figure_rows("2b", w), 1.0 - w
    s_initial = np.array([oracles.entropy_digits([x, 1.0 - x]) for x in p])
    s_psi = np.array([oracles.entropy_digits(oracles.family_digits(x, y, 1)) for x, y in zip(p, w)])
    expected = np.stack([w, s_initial, 1.0 - s_initial, s_psi, 1.0 - s_psi], axis=1)
    assert np.abs(rows - expected).max() <= tol


def test_report_counts_a_population_below_the_clamp_as_zero():
    # the solved spectrum and the sorted populations take the same rule, so a diagonal
    # matrix keeps C_re = 0.0, and S_vn is the entropy of the clamped populations
    w = np.array([5e-324, 1e-300, 1e-20, 1e-13, 9.93e-13, 1e-12, 1e-3])
    populations = np.stack([w, 1.0 - w], axis=1)
    rep = report(populations[:, :, None] * np.eye(2))
    assert (oracles.bits(rep.c_re) == 0).all()
    expected = oracles.entropy_columns(oracles.clamped(populations))
    assert oracles.bits(rep.s_vn).tolist() == oracles.bits(expected).tolist()


def test_report_on_a_stack_matches_each_matrix_alone_bit_for_bit():
    matrices = [oracles.reduced(haar_state(3, 2, seed=21, index=k), {0}).matrix for k in range(6)]
    matrices.append(np.diag([0.2, 0.3, 0.5]).astype(complex))
    batch = report(np.stack(matrices))
    for k, m in enumerate(matrices):
        one = report(DensityMatrix(m, (3,)))
        for field in ("c_re", "p_vn", "s_vn", "vn_sum", "c_hs", "p_l", "s_l", "l_sum"):
            assert getattr(batch, field)[k] == getattr(one, field)
        assert batch.dim == one.dim == 3


def test_report_on_an_empty_stack_gives_empty_fields():
    for d in (2, 3):
        rep = report(np.zeros((0, d, d), dtype=complex))
        for field in ("c_re", "p_vn", "s_vn", "vn_sum", "c_hs", "p_l", "s_l", "l_sum"):
            assert getattr(rep, field).shape == (0,)
        assert rep.dim == d


def test_report_of_a_density_matrix_does_not_check_it_again(monkeypatch):
    rho = oracles.reduced(haar_state(3, 2, seed=23), {0})
    expected = report(rho)

    def refuse(*args):
        raise AssertionError("a density matrix was checked again")

    for module, name in ((linalg, "_check_hermitian"), (linalg, "_check_density"), (measures, "_check_density")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="checked again"):
        report(rho.matrix[None])  # a bare stack is checked, so the patch is on report's path
    assert report(rho) == expected


FIELDS = ("c_re", "p_vn", "s_vn", "vn_sum", "c_hs", "p_l", "s_l", "l_sum")
VN_FIELDS = ("c_re", "p_vn", "s_vn", "vn_sum")


def kernel_spectrum(monkeypatch, psi):
    """The report of `oracles.pure_report` and the spectrum (N, k) it takes through `_eigenvalues`."""
    real_eigenvalues = measures._eigenvalues
    seen = []

    def spy(re, im):
        seen.append(real_eigenvalues(re, im))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(measures, "_eigenvalues", spy)
        rep = oracles.pure_report(psi)
    (lam,) = seen
    return rep, lam.T


@pytest.mark.parametrize("da, db", [(da, db) for da, db in VERIFY_DIMS if db < da])
def test_pure_report_takes_rho_b_spectrum_with_the_moments_of_rho_a(monkeypatch, da, db):
    # the moments come from rho_A's entries alone, so they stay independent of any eigensolver
    psi, rho_a = haar_psi(da, db, seed=61, count=10_000)
    rep, lam = kernel_spectrum(monkeypatch, psi)
    assert lam.shape == (len(psi), db)
    trace = np.trace(rho_a, axis1=1, axis2=2).real
    purity = np.einsum("nij,nji->n", rho_a, rho_a).real
    assert np.abs(lam.sum(axis=1) - trace).max() <= 1e-12
    assert np.abs((lam * lam).sum(axis=1) - purity).max() <= 1e-12
    reference = oracles.entropy_columns(oracles.clamped(oracles.eigvalsh_eigenvalues(rho_a)))
    assert np.abs(rep.s_vn - reference).max() <= 1e-14


@pytest.mark.parametrize("da, db", [(da, db) for da, db in VERIFY_DIMS if db >= da])
def test_pure_report_at_db_not_below_da_is_the_report_of_rho_a(da, db):
    psi, rho_a = haar_psi(da, db, seed=62, count=2000)
    kernel, direct = oracles.pure_report(psi), report(rho_a)
    for field in FIELDS:
        assert np.array_equal(getattr(kernel, field), getattr(direct, field))
    assert kernel.dim == direct.dim == da


def swap_stacks():
    """The 2x2 amplitude stacks `swap` reduces: Schmidt pairs and live branches on a weight grid."""
    w = np.linspace(0.0, 1.0, 41)
    yield np.sqrt(np.stack([w, 0 * w, 0 * w, 1.0 - w], axis=1)).reshape(-1, 2, 2)
    amps = swap._branches(*(a.ravel() for a in np.meshgrid(w, w)))[2].reshape(-1, 4)
    yield amps[np.isfinite(amps).all(axis=1)].reshape(-1, 2, 2)


def test_pure_report_keeps_the_einsum_kernel_bits_on_swap_states():
    for psi in swap_stacks():
        kernel, reference = oracles.pure_report(psi), oracles.pure_report_einsum(psi)
        for field in VN_FIELDS:
            assert np.array_equal(getattr(kernel, field), getattr(reference, field)), field
        for field in FIELDS:
            assert np.abs(getattr(kernel, field) - getattr(reference, field)).max() <= 2e-15, field


@pytest.mark.parametrize("da, db", VERIFY_DIMS)
def test_pure_report_agrees_with_the_einsum_kernel(da, db):
    # the von Neumann fields keep their bits, so verify's max_vn_residual does;
    # the linear ones now come from the purity and move in their last bits
    psi, _ = haar_psi(da, db, seed=64, count=3000)
    kernel, reference = oracles.pure_report(psi), oracles.pure_report_einsum(psi)
    for field in VN_FIELDS:
        assert np.array_equal(getattr(kernel, field), getattr(reference, field)), field
    for field in FIELDS:
        assert np.abs(getattr(kernel, field) - getattr(reference, field)).max() <= 2e-15, field
    assert kernel.dim == reference.dim == da


@pytest.mark.parametrize("da, db", VERIFY_DIMS)
def test_pure_report_on_a_stack_matches_each_state_alone_bit_for_bit(da, db):
    psi, _ = haar_psi(da, db, seed=65, count=9)
    batch = oracles.pure_report(psi)
    for k in range(len(psi)):
        one = oracles.pure_report(psi[k:k + 1])
        for field in FIELDS:
            assert getattr(batch, field)[k] == getattr(one, field)[0], field


@pytest.mark.parametrize("da, db", VERIFY_DIMS)
def test_plane_report_keeps_its_bits_in_any_planes_layout(da, db):
    # `_plane_gram` reads a C-ordered complex stack in place and copies any other to one:
    # complex, real, a strided real view and a strided complex view each report the
    # bits of the C-ordered complex stack of the same amplitudes
    psi = haar_states(da, db, 70, 700).reshape(700, da, db)
    for x in (psi, psi.real.copy(), psi.real, np.repeat(psi, 2, axis=0)[::2]):
        stack = np.array(x, dtype=complex, order="C")
        kernel, copied = oracles.pure_report(x), oracles.pure_report(stack)
        for field in FIELDS:
            assert np.array_equal(oracles.bits(getattr(kernel, field)), oracles.bits(getattr(copied, field))), field


@pytest.mark.parametrize("bad", [np.nan, complex(0.5, np.nan)])
def test_pure_report_fails_closed_on_a_nan_amplitude(bad):
    # nothing checks the amplitudes: the NaN reaches `_gram_report`'s check, or LAPACK's
    for da, db in ((2, 2), (3, 2), (2, 3), (3, 3)):
        psi, _ = haar_psi(da, db, seed=66, count=4)
        psi[2, da - 1, 0] = bad
        with pytest.raises(ValueError):
            oracles.pure_report(psi)


def assert_the_column_tail(rep, populations, lam, purity):
    """`rep` has the bits of the report tail over (N, d) columns on the same C-ordered inputs."""
    reference = oracles.report_columns(np.ascontiguousarray(populations), np.ascontiguousarray(lam), purity)
    for field in FIELDS:
        assert np.array_equal(oracles.bits(getattr(rep, field)), oracles.bits(getattr(reference, field))), field
    assert rep.dim == reference.dim


@pytest.mark.parametrize("da, db", VERIFY_DIMS)
def test_row_tail_keeps_the_bits_of_the_column_tail(monkeypatch, da, db):
    real_report = measures._gram_report
    seen = []

    def spy(re, im, populations):
        seen.append((re, im, populations, real_report(re, im, populations)))
        return seen[-1][-1]

    monkeypatch.setattr(measures, "_gram_report", spy)
    psi, _ = haar_psi(da, db, seed=68, count=3000)
    oracles.pure_report(psi)
    ((re, im, populations, rep),) = seen
    lam, purity = measures._eigenvalues(re, im), measures._purity(re, im)
    assert populations.shape == (da, len(psi)) and lam.shape == (min(da, db), len(psi))
    assert_the_column_tail(rep, populations.T, lam.T, purity)


def density_stack(d, seed, count=500):
    """Random full-rank density matrices, then diagonal ones with tied and zero populations."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(count, d, d)) + 1j * gen.normal(size=(count, d, d))
    m = x @ x.conj().swapaxes(1, 2)
    m /= np.trace(m, axis1=1, axis2=2)[:, None, None]
    levels = gen.choice([0.0, 1.0, 2.0, 3.0], size=(count, d))
    levels[:, 0] += 1.0  # no all-zero diagonal
    levels /= levels.sum(axis=1, keepdims=True)
    return np.concatenate([m, levels[:, :, None] * np.eye(d)])


@pytest.mark.parametrize("d", [2, 3, 8])
def test_report_of_a_stack_keeps_the_bits_of_the_column_tail(d):
    m = density_stack(d, seed=69 + d)
    planes = m.transpose(1, 2, 0)
    purity = measures._purity(planes.real, planes.imag)
    populations = np.diagonal(m, axis1=1, axis2=2).real
    assert_the_column_tail(report(m), populations, hermitian_eigenvalues(m), purity)


@pytest.mark.parametrize("da, db", VERIFY_DIMS)
def test_pure_report_memory_stays_within_a_few_stacks(da, db):
    # the growth per state from 1024 to 2048 states: 2.750 of a state's bytes at 2,2, at most 2.167 elsewhere
    psi = haar_states(da, db, 67, 2048).reshape(2048, da, db)
    peaks = [oracles.peak_bytes(lambda: oracles.pure_report(psi[:n])) for n in (1024, 2048)]
    assert (peaks[1] - peaks[0]) / 1024 <= 2.8 * 16 * da * db, peaks
