import numpy as np
import pytest
from scipy import sparse

import femfct.solver
from femfct import Factorization, SolverError
from helpers import on_order


def random_dominant_system(seed, n=20):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a[np.abs(a) < 0.8] = 0.0
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    rhs = rng.standard_normal(n)
    return sparse.csr_matrix(a), rhs


def random_acyclic_system(seed, n=40):
    """A diagonally dominant matrix whose graph (an edge j -> i for every
    a_ij != 0, i != j) is a random DAG on randomly labelled nodes, and a
    right-hand side."""
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((n, n)), k=-1)
    a[np.abs(a) < 0.8] = 0.0
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    # node rank[k] is the k-th in topological order
    rank = rng.permutation(n)
    relabelled = np.empty_like(a)
    relabelled[np.ix_(rank, rank)] = a
    return sparse.csr_matrix(relabelled), rng.standard_normal(n)


def assert_downwind(matrix, order):
    """order is a permutation in which every edge j -> i runs forward."""
    n = matrix.shape[0]
    np.testing.assert_array_equal(np.sort(order), np.arange(n))
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    coo = sparse.coo_matrix(matrix)
    edge = (coo.row != coo.col) & (coo.data != 0.0)
    assert np.all(position[coo.col[edge]] < position[coo.row[edge]])


class TestDirect:
    # one solve of a fresh factorization
    def test_identity(self):
        rhs = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(
            Factorization(sparse.identity(3, format="csr")).solve(rhs), rhs
        )

    def test_diagonal(self):
        a = sparse.diags([2.0, 4.0]).tocsr()
        np.testing.assert_allclose(Factorization(a).solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_dominant_residual(self):
        a, rhs = random_dominant_system(11)
        u = Factorization(a).solve(rhs)
        assert np.linalg.norm(a @ u - rhs) < 1e-12 * np.linalg.norm(rhs)

    def test_singular_matrix_raises(self):
        a = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SolverError):
            Factorization(a).solve(np.array([1.0, 2.0]))


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
        assert fac.order is None
        rhs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(a @ fac.solve(rhs), rhs, rtol=1e-15)

    def test_matrix_on_the_orders_permuted_arrays_factors_as_it_is(self, monkeypatch):
        # new values on the order's own arrays of A[:, cols]: no fresh
        # order, the order handed on, and the factors and solves of a fresh
        # factorization of the same values handed over as A
        a, rhs = random_acyclic_system(5)
        first = Factorization(a)
        assert_downwind(a, first.order[2])
        b = a.tocsc()
        b.data *= 1.5
        ref = Factorization(b)
        np.testing.assert_array_equal(ref.order[2], first.order[2])
        monkeypatch.setattr(femfct.solver, "_downwind_order", None)
        second = Factorization(on_order(b, first.order), order=first.order)
        assert second.order is first.order
        for name in ("L", "U"):
            for part in ("data", "indices", "indptr"):
                new, old = (getattr(getattr(f._lu, name), part) for f in (second, ref))
                assert new.tobytes() == old.tobytes()
        assert second.solve(rhs).tobytes() == ref.solve(rhs).tobytes()

    def test_one_column_panels_only_in_downwind_order(self, monkeypatch):
        panels = []
        splu = femfct.solver.splu

        def recording_splu(matrix, **options):
            panels.append(options.get("panel_size"))
            return splu(matrix, **options)

        monkeypatch.setattr(femfct.solver, "splu", recording_splu)
        acyclic = sparse.csr_matrix(np.array([[4.0, 0.0], [-1.0, 4.0]]))
        downwind = Factorization(acyclic)
        Factorization(on_order(acyclic * 2.0, downwind.order), order=downwind.order)
        a, _ = random_dominant_system(5, n=40)
        colamd = Factorization(a)
        assert colamd.order is None
        Factorization(a * 2.0, order=colamd.order)
        # the triangular LU, fresh and on its order's arrays, takes
        # one-column panels; a COLAMD order, which is never reused,
        # SuperLU's default
        assert panels == [1, 1, None, None]

    def test_matrix_off_the_orders_arrays_rejected(self):
        # with an order, only a CSC matrix on that order's own arrays: the
        # same values sliced into equal but other arrays, the unpermuted
        # matrix and a CSR on the order's indptr all raise
        a, _ = random_acyclic_system(5)
        order = Factorization(a).order
        permuted = a.tocsc()[:, order[2]]
        np.testing.assert_array_equal(permuted.indptr, order[0])
        csr = sparse.csr_matrix((permuted.data, order[1], order[0]), shape=a.shape)
        for matrix in (permuted, a, a.tocsc(), csr):
            with pytest.raises(ValueError, match="order's arrays"):
                Factorization(matrix, order=order)


class TestDownwindOrder:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dag_orders_every_edge_forward(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        # a random lower-triangular pattern, some diagonals not stored
        # (no self-loop), under a random labelling
        lower = np.tril(rng.random((n, n)) < rng.uniform(0.01, 0.3), k=-1)
        loops = rng.random(n) < 0.5
        rank = rng.permutation(n)
        pattern = np.zeros((n, n), dtype=bool)
        pattern[np.ix_(rank, rank)] = lower | np.diag(loops)
        a = sparse.csc_matrix(np.where(pattern, rng.uniform(0.5, 1.5, (n, n)), 0.0))
        assert_downwind(a, femfct.solver._downwind_order(a))

    def test_cycle_gives_none(self):
        # 0 -> 1 -> 2 -> 3 -> 1
        rows, cols = [0, 1, 2, 3, 1], [0, 0, 1, 2, 3]
        a = sparse.csc_matrix(([1.0] * 5, (rows, cols)), shape=(4, 4))
        assert femfct.solver._downwind_order(a) is None

    def test_stored_zero_is_no_edge(self):
        # 0 -> 1 and a stored zero a_01, which would close a cycle
        a = sparse.csc_matrix(np.array([[2.0, 1.0], [-1.0, 2.0]]))
        a.data[a.data == 1.0] = 0.0
        data, indices = a.data.copy(), a.indices.copy()
        np.testing.assert_array_equal(femfct.solver._downwind_order(a), [0, 1])
        # the matrix keeps its stored zero
        assert a.nnz == 4
        np.testing.assert_array_equal(a.data, data)
        np.testing.assert_array_equal(a.indices, indices)

    def test_labels_that_are_not_topological_give_none(self, monkeypatch):
        # 0 -> 1 -> 2, labelled sources first, the reverse of scipy's order
        a = sparse.csc_matrix(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(femfct.solver._downwind_order(a), [0, 1, 2])
        monkeypatch.setattr(
            femfct.solver, "connected_components", lambda graph, **kwargs: (3, np.arange(3))
        )
        assert femfct.solver._downwind_order(a) is None
