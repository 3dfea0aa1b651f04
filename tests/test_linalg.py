import numpy as np
import pytest

from unruh_steering.linalg import (
    hermiticity_defect,
    partial_trace,
    psd_sqrt,
)
from unruh_steering.model import initial_state, tensor_order


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_psd(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m @ m.conj().T


def random_density(rng, dim):
    m = random_psd(rng, dim)
    return m / m.trace()


class TestPartialTrace:
    def test_qutrit_marginal_of_initial_state(self):
        for p in np.linspace(0.0, 0.5, 6):
            rho = tensor_order(initial_state(float(p)).matrix)
            qubit = partial_trace(rho, (2, 4), keep=(0,))
            assert np.allclose(qubit, np.eye(2) / 2, atol=1e-14)

    def test_qubit_marginal_of_initial_state(self):
        p = 0.3
        qutrit = partial_trace(tensor_order(initial_state(p).matrix), (2, 4), keep=(1,))
        assert np.allclose(qutrit, np.diag([(1 - p) / 2, p, (1 - p) / 2, 0.0]), atol=1e-14)

    def test_product_state_factorization(self):
        rng = np.random.default_rng(11)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), keep=(0,)), rho_a, atol=1e-13)
        assert np.allclose(partial_trace(joint, (2, 3), keep=(1,)), rho_b, atol=1e-13)

    def test_complementary_traces_of_kron(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(rng, 3)
        b = random_hermitian(rng, 4)
        joint = np.kron(a, b)
        assert np.allclose(partial_trace(joint, (3, 4), keep=(0,)), b.trace() * a, atol=1e-12)
        assert np.allclose(partial_trace(joint, (3, 4), keep=(1,)), a.trace() * b, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(13)
        m = random_density(rng, 8)
        reduced = partial_trace(m, (2, 4), keep=(1,))
        assert reduced.trace() == pytest.approx(m.trace(), abs=1e-13)
        assert hermiticity_defect(reduced) < 1e-13

    def test_four_factor_trace(self):
        rng = np.random.default_rng(14)
        parts = [random_density(rng, d) for d in (2, 2, 3)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        kept = partial_trace(joint, (2, 2, 3), keep=(0, 2))
        assert np.allclose(kept, np.kron(parts[0], parts[2]), atol=1e-13)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(6), (2, 2), keep=(0,))

    @pytest.mark.parametrize("keep", [(), (0, 1), (2,)])
    def test_bad_keep_raises(self, keep):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(6), (2, 3), keep=keep)


class TestPsdSqrt:
    def test_diagonal_roots(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0, 0.0])), np.diag([2.0, 3.0, 0.0]), atol=1e-14)

    def test_pure_projector_is_idempotent(self):
        v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
        proj = np.outer(v, v.conj())
        assert np.abs(psd_sqrt(proj) - proj).max() < 1e-14

    def test_scaled_identity(self):
        assert np.allclose(psd_sqrt(np.eye(6) / 6), np.eye(6) / np.sqrt(6), atol=1e-14)

    def test_square_reconstructs_random_psd(self):
        rng = np.random.default_rng(23)
        dims = (2, 3, 6, 8)
        for i in range(1000):
            m = random_psd(rng, dims[i % 4])
            m /= m.trace().real  # keep entries O(1)
            root = psd_sqrt(m)
            assert np.abs(root @ root - m).max() < 1e-10
            assert hermiticity_defect(root) < 1e-12

    def test_clamps_tiny_negative_eigenvalues(self):
        root = psd_sqrt(np.diag([1.0, -5e-11]))
        assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-14)

    def test_rejects_genuinely_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            psd_sqrt(np.diag([1.0, -1e-9]))

    def test_non_hermitian_raises(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0)])
    def test_nan_raises(self, cell):
        m = np.eye(2, dtype=complex) / 2
        m[cell] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            psd_sqrt(m)
