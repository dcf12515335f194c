import numpy as np
import pytest
from scipy import sparse

from femfct import Factorization, SolverError, solve


def random_dominant_system(seed, n=20):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.abs(a) < 0.8] = 0.0
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    rhs = rng.standard_normal(n)
    return sparse.csr_matrix(a), rhs


class TestDirect:
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(
            solve(sparse.identity(3, format="csr"), rhs), rhs
        )

    def test_diagonal(self):
        a = sparse.diags([2.0, 4.0]).tocsr()
        np.testing.assert_allclose(solve(a, np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_dominant_residual(self):
        a, rhs = random_dominant_system(11)
        u = solve(a, rhs)
        assert np.linalg.norm(a @ u - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_singular_matrix_raises(self):
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            solve(a, np.array([1.0, 2.0]))


class TestFactorization:
    def test_reuse(self):
        a, _ = random_dominant_system(3)
        fac = Factorization(a)
        rng = np.random.default_rng(0)
        for _ in range(3):
            rhs = rng.standard_normal(a.shape[0])
            u = fac.solve(rhs)
            assert np.linalg.norm(a @ u - rhs) < 1e-12 * np.linalg.norm(rhs)

