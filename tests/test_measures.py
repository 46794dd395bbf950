import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entswap import linalg, measures, swap
from entswap.linalg import DensityMatrix, NonHermitianError, hermitian_eigenvalues
from entswap.measures import report, svn
from entswap.states import PureState, haar_states
from oracles import VERIFY_DIMS


def haar_state(da, db, seed, index=0):
    return PureState(haar_states(da, db, seed, 1, start=index)[0], (da, db))


def haar_psi(da, db, seed, count):
    """Amplitude matrices psi[N, DA, DB] of `count` Haar states and their rho_A."""
    psi = haar_states(da, db, seed, count).reshape(count, da, db)
    return psi, oracles.reduced_stack(psi)


def cre(rho):
    return report(rho).c_re


def chs(rho):
    return report(rho).c_hs


def pvn(rho):
    return report(rho).p_vn


def pl(rho):
    return report(rho).p_l


def sl(rho):
    return report(rho).s_l


def diag_state(*populations):
    return DensityMatrix(np.diag(populations).astype(complex), (len(populations),))


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex), (2,))


def random_qubit_density(seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    m = x @ x.conj().T
    return DensityMatrix(m / m.trace(), (2,))


def test_svn_pure_and_mixed_poles():
    assert svn(diag_state(1.0, 0.0)) == 0.0
    assert abs(svn(diag_state(0.5, 0.5)) - 1.0) < 1e-12
    assert abs(svn(diag_state(1 / 3, 1 / 3, 1 / 3)) - math.log2(3)) < 1e-12


def test_svn_known_binary_values():
    assert abs(svn(diag_state(0.1, 0.9)) - 0.4689) < 2e-4
    assert abs(svn(diag_state(0.25, 0.75)) - 0.8112) < 2e-4


def test_svn_basis_invariant():
    # unitary rotation leaves the spectrum alone
    theta = 0.7
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rho = np.diag([0.2, 0.8]).astype(complex)
    rotated = DensityMatrix(u @ rho @ u.T, (2,))
    assert abs(svn(rotated) - svn(diag_state(0.2, 0.8))) < 1e-12


def test_sl_values_and_grid_oracle():
    assert sl(diag_state(1.0, 0.0)) == 0.0
    assert abs(sl(diag_state(0.5, 0.5)) - 0.5) < 1e-12
    for q in np.linspace(0.0, 1.0, 101):
        rho = diag_state(q, 1.0 - q)
        direct = 1.0 - float(np.trace(rho.matrix @ rho.matrix).real)
        assert abs(sl(rho) - direct) < 1e-15
        assert abs(sl(rho) - 2.0 * q * (1.0 - q)) < 1e-12


def test_diagonal_part():
    # report reads the diagonal part's spectrum off the diagonal; an explicit
    # diagonal part, eigensolved like any state, must give the same numbers
    rho = random_qubit_density(4)
    diag = DensityMatrix(np.diag(np.diag(rho.matrix)), rho.dims)
    full, part = report(rho), report(diag)
    assert abs(full.c_re + full.s_vn - part.s_vn) < 1e-12
    assert full.p_vn == part.p_vn and full.p_l == part.p_l
    assert part.c_re == 0.0 and part.c_hs == 0.0


def test_cre_diagonal_is_zero():
    assert cre(diag_state(0.3, 0.7)) == 0.0


def test_cre_plus_state_is_one_bit():
    assert abs(cre(plus_state()) - 1.0) < 1e-12


def test_chs_values():
    assert chs(diag_state(0.4, 0.6)) == 0.0
    assert abs(chs(plus_state()) - 0.5) < 1e-12


def test_coherences_invariant_under_phase_rotations():
    rho = random_qubit_density(3)
    u = np.diag([np.exp(0.3j), np.exp(-1.1j)])
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2,))
    assert abs(cre(rotated) - cre(rho)) < 1e-12
    assert abs(chs(rotated) - chs(rho)) < 1e-12


def test_pvn_poles_and_known_value():
    assert abs(pvn(diag_state(0.5, 0.5))) < 1e-12
    assert abs(pvn(diag_state(1.0, 0.0)) - 1.0) < 1e-12
    assert abs(pvn(diag_state(0.99, 0.01)) - 0.9192) < 1e-4
    assert abs(pvn(diag_state(1 / 3, 1 / 3, 1 / 3))) < 1e-12
    assert abs(pvn(diag_state(1.0, 0.0, 0.0)) - math.log2(3)) < 1e-12


def test_pl_poles_and_grid():
    assert abs(pl(diag_state(0.5, 0.5))) < 1e-12
    assert abs(pl(diag_state(1.0, 0.0)) - 0.5) < 1e-12
    for q in np.linspace(0.0, 1.0, 101):
        expected = 0.5 - 2.0 * q * (1.0 - q)
        assert abs(pl(diag_state(q, 1.0 - q)) - expected) < 1e-12


def test_predictabilities_strictly_positive_off_uniform():
    for populations in ((0.6, 0.4), (0.9, 0.1), (0.5, 0.3, 0.2)):
        assert pvn(diag_state(*populations)) > 1e-3
        assert pl(diag_state(*populations)) > 1e-3


def test_entropies_schur_concave_on_diagonal_qubits():
    qs = np.linspace(0.0, 0.5, 51)
    svn_vals = [svn(diag_state(q, 1.0 - q)) for q in qs]
    sl_vals = [sl(diag_state(q, 1.0 - q)) for q in qs]
    assert all(b >= a - 1e-12 for a, b in zip(svn_vals, svn_vals[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(sl_vals, sl_vals[1:]))


def test_report_on_bell_reduction():
    red = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,))
    rep = report(red)
    assert rep.c_re == 0.0
    assert abs(rep.p_vn) < 1e-12
    assert abs(rep.s_vn - 1.0) < 1e-12
    assert abs(rep.vn_sum - 1.0) < 1e-12
    assert rep.c_hs == 0.0
    assert abs(rep.p_l) < 1e-12
    assert abs(rep.s_l - 0.5) < 1e-12
    assert abs(rep.l_sum - 0.5) < 1e-12
    assert rep.dim == 2


def test_report_maximally_mixed_presented_alone():
    rep = report(diag_state(0.5, 0.5))
    assert abs(rep.vn_sum - 1.0) < 1e-12  # the sum saturates regardless of provenance


def test_report_sums_are_the_component_sums():
    rep = report(random_qubit_density(8))
    assert rep.vn_sum == rep.c_re + rep.p_vn + rep.s_vn
    assert rep.l_sum == rep.c_hs + rep.p_l + rep.s_l


def test_report_fields_never_meaningfully_negative():
    for seed in range(10):
        rep = report(random_qubit_density(500 + seed))
        for value in (rep.c_re, rep.p_vn, rep.s_vn, rep.c_hs, rep.p_l, rep.s_l):
            assert value >= -1e-10


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([(2, 2), (3, 2), (4, 2)]))
def test_triality_sums_on_haar_reductions(seed, dims):
    da, db = dims
    rho = oracles.reduced(haar_state(da, db, seed=seed), {0})
    rep = report(rho)
    assert abs(rep.vn_sum - math.log2(da)) < 1e-10
    assert abs(rep.l_sum - (da - 1) / da) < 1e-10


def test_entropy_rejects_clearly_negative_spectrum():
    # bypass the DensityMatrix guard to hit the measure-level check
    from entswap.measures import _entropy

    with pytest.raises(ValueError):
        _entropy(np.array([[0.5, 0.5], [-0.1, 1.1]]))


def test_entropy_check_sees_past_a_nan_column():
    # a dead branch family's NaN column must not blind the check for a live one
    from entswap.measures import _entropy

    with pytest.raises(ValueError):
        _entropy(np.array([[-0.5, np.nan], [1.5, np.nan]]))
    s = _entropy(np.array([[0.5, np.nan], [0.5, np.nan]]))
    assert s[0] == 1.0 and np.isnan(s[1])


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


def test_report_rejects_malformed_stacks():
    good = np.stack([np.eye(2, dtype=complex) / 2] * 3)
    with pytest.raises(ValueError):
        report(good[0])  # one bare matrix is not a stack
    with pytest.raises(ValueError):
        report(good * 2.0)  # trace 2
    for entry in ((1, 0, 0), (1, 0, 1)):
        for value in (np.nan, np.inf):
            bad = good.copy()
            bad[entry] = value
            with pytest.raises(ValueError, match="non-finite"):
                report(bad)
    skew = good.copy()
    skew[1, 1, 0] = 0.25  # unit traces, finite, but not Hermitian
    with pytest.raises(NonHermitianError):
        report(skew)


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
    assert np.abs(rep.s_vn - oracles.entropy_columns(oracles.eigvalsh_eigenvalues(rho_a))).max() <= 1e-14


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
    amps = swap._post_amplitudes(swap._products(*(a.ravel() for a in np.meshgrid(w, w)))).reshape(-1, 4)
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
    # verify's planes run over the Gram side first; a C-ordered copy must report the same bits
    planes = measures._planes(haar_states(da, db, 70, 700).reshape(700, da, db))
    assert not planes.flags.c_contiguous
    kernel = measures._gram_report(*measures._plane_gram(planes))
    copied = measures._gram_report(*measures._plane_gram(np.ascontiguousarray(planes)))
    for field in FIELDS:
        assert np.array_equal(oracles.bits(getattr(kernel, field)), oracles.bits(getattr(copied, field))), field


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan), complex(np.inf, 0.5)])
def test_pure_report_rejects_non_finite_amplitudes(bad):
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
    planes = measures._planes(haar_states(da, db, 67, 1024).reshape(1024, da, db))
    measures._gram_report(*measures._plane_gram(planes))  # first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        measures._gram_report(*measures._plane_gram(planes))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * planes.nbytes, (peak, planes.nbytes)  # 2.776 measured at 2,2, at most 2.18 elsewhere
