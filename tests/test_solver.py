import numpy as np
import pytest
from scipy import sparse

import femfct.solver
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

    @staticmethod
    def spy_on_orderings(monkeypatch):
        specs = []
        splu = femfct.solver.splu

        def recording_splu(matrix, permc_spec, **options):
            specs.append(permc_spec)
            return splu(matrix, permc_spec=permc_spec, **options)

        monkeypatch.setattr(femfct.solver, "splu", recording_splu)
        return specs

    def test_acyclic_graph_factors_in_downwind_order(self, monkeypatch):
        # edges j -> i for a_ij != 0: 2 -> 0 and 0 -> 1; the stored zero
        # a_20 is no edge, so 0 -> 2 closes no cycle
        rows, cols = [0, 1, 2, 0, 1, 2], [0, 1, 2, 2, 0, 0]
        vals = [4.0, 4.0, 4.0, -1.0, -1.0, 0.0]
        a = sparse.coo_matrix((vals, (rows, cols)), shape=(3, 3)).tocsr()
        assert a.nnz == 6
        specs = self.spy_on_orderings(monkeypatch)
        fac = Factorization(a)
        assert specs == ["NATURAL"]
        np.testing.assert_array_equal(fac.order[2], [2, 0, 1])
        # every pivot on the diagonal
        np.testing.assert_array_equal(fac._lu.perm_r[fac.order[2]], np.arange(3))
        rhs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(a @ fac.solve(rhs), rhs, rtol=1e-15)

    def test_cycle_takes_colamd(self, monkeypatch):
        # 0 -> 1 -> 2 -> 0: no downwind order exists
        a = sparse.csr_matrix(
            np.array([[4.0, 0.0, -1.0], [-1.0, 4.0, 0.0], [0.0, -1.0, 4.0]])
        )
        specs = self.spy_on_orderings(monkeypatch)
        fac = Factorization(a)
        assert specs == ["COLAMD"]
        np.testing.assert_array_equal(fac.order[2], np.argsort(fac._lu.perm_c))
        rhs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(a @ fac.solve(rhs), rhs, rtol=1e-15)

    def test_reuses_column_order_of_same_structure(self):
        a, rhs = random_dominant_system(5, n=40)
        first = Factorization(a)
        cols = first.order[2]
        np.testing.assert_array_equal(np.sort(cols), np.arange(40))
        # new values on the same structure: factored in the same order
        b = a.copy()
        b.data *= 1.5
        second = Factorization(b, order=first.order)
        assert second.order[2] is cols
        u = second.solve(rhs)
        assert np.linalg.norm(b @ u - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_orders_columns_afresh_for_other_structure(self):
        a, rhs = random_dominant_system(5, n=40)
        first = Factorization(a)
        b = a.tolil()
        b[0, 39] = b[39, 0] = 0.25
        b = b.tocsr()
        second = Factorization(b, order=first.order)
        assert second.order[2] is not first.order[2]
        np.testing.assert_array_equal(second.order[1], b.tocsc().indices)
        u = second.solve(rhs)
        assert np.linalg.norm(b @ u - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_one_column_panels_only_in_downwind_order(self, monkeypatch):
        panels = []
        splu = femfct.solver.splu

        def recording_splu(matrix, **options):
            panels.append(options.get("panel_size"))
            return splu(matrix, **options)

        monkeypatch.setattr(femfct.solver, "splu", recording_splu)
        acyclic = sparse.csr_matrix(np.array([[4.0, 0.0], [-1.0, 4.0]]))
        downwind = Factorization(acyclic)
        Factorization(acyclic * 2.0, order=downwind.order)
        a, _ = random_dominant_system(5, n=40)
        colamd = Factorization(a)
        assert colamd.order[3] is False
        Factorization(a * 2.0, order=colamd.order)
        # the triangular LU, fresh and reused, takes one-column panels; a
        # COLAMD order, fresh and reused, SuperLU's default
        assert panels == [1, 1, None, None]
