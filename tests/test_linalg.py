import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entswap.linalg import DensityMatrix, _row_sums, hermitian_eigenvalues, partial_trace
from oracles import kron


def random_hermitian(d, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return (x + x.conj().T) / 2


def random_density(d, seed, dims=None):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    m = x @ x.conj().T
    return DensityMatrix(m / m.trace(), dims or (d,))


def test_kron_identity_blocks():
    i2 = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    out = kron(i2, x)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1
    assert np.abs(out - expected).max() == 0.0


def test_kron_basis_vectors():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    v = kron(e0, e1)
    assert np.array_equal(v, np.array([0, 1, 0, 0], dtype=complex))


def test_kron_mixed_product_property():
    gen = np.random.default_rng(11)
    for _ in range(5):
        a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        b = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        c = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        d = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_kron_associativity():
    gen = np.random.default_rng(12)
    a = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    b = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    c = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12


def test_partial_trace_product_state_factorizes():
    # rho_A (x) rho_B traced over B gives back rho_A, and vice versa
    for seed in range(4):
        rho_a = random_density(2, 100 + seed)
        rho_b = random_density(3, 200 + seed)
        joint = DensityMatrix(kron(rho_a.matrix, rho_b.matrix), (2, 3))
        back_a = partial_trace(joint, {0})
        back_b = partial_trace(joint, {1})
        assert np.abs(back_a.matrix - rho_a.matrix).max() < 1e-12
        assert np.abs(back_b.matrix - rho_b.matrix).max() < 1e-12


def test_partial_trace_matches_index_summation_oracle():
    gen = np.random.default_rng(42)
    for dims in ((2, 2), (2, 3), (2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3)):
        d = int(np.prod(dims))
        x = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        m = x @ x.conj().T
        rho = DensityMatrix(m / m.trace(), dims)
        n = len(dims)
        # the middle and the outer pair of three are the keeps a label mix-up would garble
        for keep in ({0}, {n - 1}, set(range(n - 1)), {n // 2}, {0, n - 1}):
            mine = partial_trace(rho, keep).matrix
            ref = oracles.partial_trace_loops(rho.matrix, dims, keep)
            assert np.abs(mine - ref).max() < 1e-12


def test_partial_trace_keep_all_is_identity():
    rho = random_density(4, 6, dims=(2, 2))
    assert partial_trace(rho, {0, 1}) is rho


def test_eigenvalues_diagonal_passthrough():
    for diagonal in ([0.5, 0.1, 0.4], [0.7, 0.1], [0.1, 0.7], [0.3, 0.3], [0.0, 1.0], [1.0, 0.0],
                     [-2.5, 1e-300]):
        vals = hermitian_eigenvalues(np.diag(diagonal).astype(complex))
        assert np.abs(vals - np.sort(diagonal)).max() == 0.0


def test_eigenvalues_match_charpoly_bisection_oracle():
    for d, seed in ((2, 21), (3, 22), (4, 23), (4, 24)):
        h = random_hermitian(d, seed)
        mine = hermitian_eigenvalues(h)
        ref = sorted(oracles.charpoly_eigenvalues(h))
        assert len(ref) == d
        assert np.abs(mine - np.array(ref)).max() < 1e-9


def test_eigenvalues_complex_phases():
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    vals = hermitian_eigenvalues(h)
    assert np.abs(vals - np.array([-1.0, 1.0])).max() < 1e-14


def test_density_matrix_spectrum_is_a_distribution():
    for seed in range(6):
        rho = random_density(4, 300 + seed, dims=(2, 2))
        vals = hermitian_eigenvalues(rho.matrix)
        assert vals.min() >= -1e-10
        assert abs(vals.sum() - 1.0) < 1e-10
        assert np.all(np.diff(vals) >= 0.0)


_ENTRY = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    re = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(_ENTRY, min_size=n * n, max_size=n * n))).reshape(n, n)
    x = re + 1j * im
    return (x + x.conj().T) / 2


def _degenerate_and_diagonal_cases():
    rot = np.linalg.qr(random_hermitian(3, 31) + 3 * np.eye(3))[0]
    return [
        np.array([[0.7]]),
        np.array([[0.25 + 0j]]),
        np.diag([0.5, 0.1, 0.4]).astype(complex),
        np.eye(4, dtype=complex) / 4,
        np.diag([0.2, 0.2, 0.6]).astype(complex),
        rot @ np.diag([0.25, 0.25, 0.5]) @ rot.conj().T,
        np.full((2, 2), 0.5, dtype=complex),
        np.zeros((3, 3), dtype=complex),
    ]


@settings(max_examples=200)
@given(hermitian_matrices())
def test_eigenvalues_match_scalar_jacobi_oracle(h):
    mine = hermitian_eigenvalues(h)
    assert np.abs(mine - oracles.jacobi_eigenvalues(h)).max() < 1e-13


def test_eigenvalues_match_scalar_jacobi_oracle_on_special_inputs():
    for h in _degenerate_and_diagonal_cases():
        assert np.abs(hermitian_eigenvalues(h) - oracles.jacobi_eigenvalues(h)).max() < 1e-13


def test_stack_gives_each_matrix_its_own_eigenvalues_bit_for_bit():
    # random, degenerate and diagonal matrices share one stack; each must
    # get exactly the eigenvalues a solve on its own gives
    for n in (1, 2, 3, 4):
        stack = [random_hermitian(n, 40 + n + k) for k in range(5)]
        stack += [h for h in _degenerate_and_diagonal_cases() if h.shape == (n, n)]
        batched = hermitian_eigenvalues(np.stack(stack))
        assert batched.shape == (len(stack), n)
        for row, h in zip(batched, stack):
            assert np.array_equal(row, hermitian_eigenvalues(h))


def test_nearly_hermitian_input_is_solved_from_its_lower_triangle():
    # Hermitian only within 1e-12: the lower triangle holds 9e-13, the upper
    # 0. The solver reads the lower triangle alone, as LAPACK does, so the
    # off-diagonal is 9e-13 here and 0 in the transpose
    h = np.array([[0.5, 0.0], [9e-13, 0.5]])
    expected = np.array([0.5 - 9e-13, 0.5 + 9e-13])
    assert np.abs(hermitian_eigenvalues(h) - expected).max() < 1e-15
    assert hermitian_eigenvalues(h.T).tolist() == [0.5, 0.5]
    # the same block inside a 3x3 goes to LAPACK and gets the same pair
    big = np.zeros((3, 3))
    big[:2, :2] = h
    big[2, 2] = 2.0
    assert np.abs(hermitian_eigenvalues(big) - np.append(expected, 2.0)).max() < 1e-15


@st.composite
def qubit_stacks(draw):
    # magnitudes from subnormal to 1e6, so the half gap and |b| span many scales
    entry = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    n = draw(st.integers(min_value=0, max_value=6))
    x = np.array(draw(st.lists(entry, min_size=8 * n, max_size=8 * n))).reshape(n, 2, 2, 2)
    x = x[..., 0] + 1j * x[..., 1]
    return (x + x.conj().swapaxes(-1, -2)) / 2


@settings(max_examples=300)
@given(qubit_stacks())
def test_qubit_eigenvalues_match_eigvalsh(stack):
    mine = hermitian_eigenvalues(stack)
    ref = oracles.eigvalsh_eigenvalues(stack)
    assert mine.shape == ref.shape == (len(stack), 2)
    norms = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    assert (np.abs(mine - ref).max(axis=1, initial=0.0) <= 1e-14 * norms).all()


def test_qubit_eigenvalues_resolve_small_off_diagonals():
    # beside a gap of 1, an off-diagonal of 1e-9 moves the eigenvalues by
    # 1e-18, below the resolution at norm 1: the error must stay within it
    for h in ([[0.0, 1e-9], [1e-9, 1.0]], [[1.0, 1e-9j], [-1e-9j, 0.0]]):
        vals = hermitian_eigenvalues(np.array(h, dtype=complex))
        assert np.abs(vals - np.array([-1e-18, 1.0 + 1e-18])).max() <= 2.3e-16
    # with no gap at all, the off-diagonal alone splits the pair, however small
    for b in (1e-300, 1e-300j, 5e-324):
        h = np.array([[0.0, b], [np.conj(b), 0.0]])
        assert np.array_equal(hermitian_eigenvalues(h), np.array([-abs(b), abs(b)]))


def test_qubit_eigenvalues_of_rank_one_projectors():
    # the projector onto |+> as written, then projectors onto cos(theta)|0> + e^(i phi) sin(theta)|1>
    projectors = [np.full((2, 2), 0.5, dtype=complex)]
    for theta, phi in ((np.pi / 4, 0.0), (np.pi / 4, np.pi / 2), (0.3, 1.1), (1.2, -2.0), (1e-4, 0.5)):
        v = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        projectors.append(np.outer(v, v.conj()))
    for m in projectors:
        assert np.abs(hermitian_eigenvalues(m) - np.array([0.0, 1.0])).max() < 1e-15, m


def test_qubit_eigenvalues_do_not_overflow():
    cases = [
        ([[1e308, 0.0], [0.0, -1e308]], [-1e308, 1e308]),
        ([[0.0, 1e308], [1e308, 0.0]], [-1e308, 1e308]),
        ([[-1e308, 1e308j], [-1e308j, 1e308]], [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308]),
    ]
    for h, expected in cases:
        vals = hermitian_eigenvalues(np.array(h, dtype=complex))
        assert np.isfinite(vals).all()
        assert np.abs(vals / np.array(expected) - 1.0).max() < 1e-15


def test_eigenvalues_of_larger_matrices_do_not_overflow():
    vals = hermitian_eigenvalues(np.diag([1e308, -1e308, 0.0]))
    assert vals.tolist() == [-1e308, 0.0, 1e308]
    chain = np.array([[0.0, 1e308, 0.0], [1e308, 0.0, 1e308], [0.0, 1e308, 0.0]])
    vals = hermitian_eigenvalues(chain)
    assert np.isfinite(vals).all()
    expected = np.array([-np.sqrt(2), 0.0, np.sqrt(2)]) * 1e308
    assert np.abs(vals - expected).max() < 1e-15 * np.sqrt(2) * 1e308


@pytest.mark.parametrize("d", range(1, 17))
def test_row_sums_add_in_the_order_of_numpys_sum(d):
    # magnitudes 1e-8, 1 and 1e8 with both signs make any change of order show in the last bits
    gen = np.random.default_rng(d)
    x = gen.choice([-1e8, -1.0, -1e-8, 1e-8, 1.0, 1e8], size=(4096, d)) * gen.uniform(1.0, 2.0, size=(4096, d))
    x[:4] = gen.choice([-0.0, 0.0], size=(4, d))  # rows of signed zeros sum to +0.0
    expected = oracles.bits(x.sum(axis=-1))
    assert np.array_equal(oracles.bits(_row_sums(x.T)), expected)
    assert np.array_equal(oracles.bits(_row_sums(np.ascontiguousarray(x.T))), expected)
