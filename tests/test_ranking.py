import numpy as np
import pytest
from scipy import sparse

import wtnrank as w
from wtnrank.errors import ConvergenceError

from conftest import dense_pagerank_oracle, product_slice


def two_node_google():
    """alpha=0.5 damping of the swap matrix with personalization (0.75, 0.25)."""
    links = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    stoch = w.GoogleMatrix(
        links=links, dangling=np.zeros(2, bool), personalization=np.full(2, 0.5), alpha=1.0, total=2
    )
    return w.assemble_google(stoch, np.array([0.75, 0.25]), 0.5)


def pagerank_from(matrix, start, tol=1e-12, max_iter=10000):
    """The power iteration of `w.pagerank` on a Google matrix, from the
    distribution `start` instead of the uniform one."""
    x = np.asarray(start, dtype=np.float64)
    if x.shape != (matrix.size,) or np.any(x < 0) or x.sum() <= 0:
        raise ValueError("start must be a nonnegative vector of matching size")
    x = x / x.sum()
    for _ in range(max_iter + 1):
        y = matrix.matvec(x)
        if np.abs(y - x).sum() < tol:
            return x
        x = y / y.sum()
    raise ConvergenceError("power iteration did not converge", max_iter, np.inf)


class TestOrderIndices:
    def test_basic_order(self):
        assert list(w.order_indices(np.array([0.2, 0.5, 0.3]))) == [1, 2, 0]

    def test_all_equal_is_identity(self):
        assert list(w.order_indices(np.full(5, 0.2))) == [0, 1, 2, 3, 4]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            w.order_indices(np.array([0.1, np.nan]))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vectors_sorted(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.random(40).round(1)  # rounding forces ties
        order = w.order_indices(vec)
        assert np.all(np.diff(vec[order]) <= 0)
        assert sorted(order) == list(range(40))


class TestPagerank:
    def test_rank_one_fixed_point(self):
        weight = np.array([0.1, 0.6, 0.3])
        dense = np.tile(weight[:, None], (1, 3))
        result = w.pagerank(dense)
        np.testing.assert_allclose(result.probabilities, weight, atol=1e-12)

    def test_two_node_value(self):
        # oracle: dense eigensolver; hand solution of the fixed point is
        # p0 = 0.875 / 1.5 = 7/12
        g = two_node_google()
        expected = dense_pagerank_oracle(g.to_dense())
        np.testing.assert_allclose(expected, [7.0 / 12.0, 5.0 / 12.0], atol=1e-14)
        result = w.pagerank(g)
        np.testing.assert_allclose(result.probabilities, expected, atol=1e-11)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_eigensolver(self, seed):
        tensor = w.synth_tensor(seed, 4 + seed % 3, 2 + seed % 4, 0.6)
        g, _ = w.build_trade_pair(tensor)
        assert g.size <= 50
        expected = dense_pagerank_oracle(g.to_dense())
        result = w.pagerank(g)
        assert np.abs(result.probabilities - expected).sum() < 1e-8

    def test_residual_contract(self):
        g = two_node_google()
        result = w.pagerank(g, tol=1e-13)
        direct = np.abs(g.matvec(result.probabilities) - result.probabilities).sum()
        assert direct < 1e-13
        assert result.residual == pytest.approx(direct, abs=1e-15)

    def test_positivity_floor(self):
        tensor = w.synth_tensor(3, 5, 2, 0.4)
        g, _ = w.build_trade_pair(tensor, alpha=0.5)
        result = w.pagerank(g)
        floor = (1.0 - g.alpha) * g.personalization.min()
        assert np.all(result.probabilities >= floor - 1e-15)

    def test_start_invariance(self):
        tensor = w.synth_tensor(4, 6, 3, 0.5)
        g, _ = w.build_trade_pair(tensor)
        tol = 1e-12
        uniform = w.pagerank(g, tol=tol)
        rng = np.random.default_rng(0)
        random_start = rng.random(g.size)
        other = pagerank_from(g, random_start, tol=tol)
        assert np.abs(uniform.probabilities - other).sum() < 2 * tol

    def test_non_convergence_raises_with_residual(self):
        g = two_node_google()
        with pytest.raises(ConvergenceError) as err:
            w.pagerank(g, tol=1e-15, max_iter=2)
        assert err.value.residual > 0
        assert err.value.iterations == 2

    def test_bad_arguments(self):
        g = two_node_google()
        for tol in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                w.pagerank(g, tol=tol)
        with pytest.raises(ValueError):
            w.pagerank(g, max_iter=0)
        with pytest.raises(ValueError):
            pagerank_from(g, np.array([1.0, -1.0]))


class TestTrace:
    def test_uniform(self):
        reg = w.Registry(countries=("AA", "BB"), products=("10", "20", "30"))
        p = np.full(6, 1.0 / 6.0)
        np.testing.assert_allclose(w.trace(p, "country", reg), [0.5, 0.5])
        np.testing.assert_allclose(w.trace(p, "product", reg), [1 / 3] * 3)

    def test_concentrated(self):
        reg = w.Registry(countries=("AA", "BB"), products=("10", "20"))
        p = np.zeros(4)
        p[reg.node_id("BB", "10")] = 1.0
        np.testing.assert_allclose(w.trace(p, "country", reg), [0.0, 1.0])
        np.testing.assert_allclose(w.trace(p, "product", reg), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_of_unity(self, seed):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("10", "20"))
        rng = np.random.default_rng(seed)
        p = rng.random(reg.size)
        p /= p.sum()
        assert abs(w.trace(p, "country", reg).sum() - 1.0) < 1e-12
        assert abs(w.trace(p, "product", reg).sum() - 1.0) < 1e-12

    def test_bad_axis(self):
        reg = w.Registry(countries=("AA",), products=("10",))
        with pytest.raises(ValueError):
            w.trace(np.array([1.0]), "nope", reg)

    def test_product_slice(self):
        reg = w.Registry(countries=("AA", "BB"), products=("10", "20"))
        p = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_allclose(product_slice(p, reg, "20"), [0.2, 0.4])


class TestExports:
    def test_node_csv_schema_and_order(self, tmp_path):
        reg = w.Registry(countries=("AA", "BB"), products=("10",))
        probs = np.array([0.25, 0.75])
        path = tmp_path / "ranks.csv"
        from wtnrank.ranking import write_node_ranks

        write_node_ranks(path, probs, reg)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,country,product,probability,rank_index"
        assert lines[1] == "1,BB,10,0.75,1"
        assert lines[2] == "0,AA,10,0.25,2"

    def test_marginal_csv(self, tmp_path):
        from wtnrank.ranking import write_marginal_ranks

        path = tmp_path / "m.csv"
        write_marginal_ranks(path, np.array([0.4, 0.6]), ("AA", "BB"), "country")
        lines = path.read_text().splitlines()
        assert lines[0] == "country,probability,rank_index"
        assert lines[1] == "BB,0.6,1"
