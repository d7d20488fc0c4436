from types import SimpleNamespace

import numpy as np
import pytest

import wtnrank as w
from wtnrank.gmatrix import DIRECT, INVERTED

from conftest import column, column_sums, dump_google, from_product_matrices


class TestBuildStochastic:
    def test_two_country_columns(self, two_country_tensor):
        s = w.build_stochastic(two_country_tensor, DIRECT)
        dense = s.to_dense()
        # column of B's node: B exports 10 to A -> all mass at A's row
        np.testing.assert_allclose(dense[:, 1], [1.0, 0.0])
        np.testing.assert_allclose(dense[:, 0], [0.0, 1.0])

    def test_inverted_two_country(self, two_country_tensor):
        s = w.build_stochastic(two_country_tensor, INVERTED)
        dense = s.to_dense()
        # A imports only from B: inverted column of A points at B
        np.testing.assert_allclose(dense[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(dense[:, 1], [1.0, 0.0])

    def test_dangling_column_uniform(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("01",))
        m = np.zeros((3, 3))
        m[0, 1] = 5.0  # only B exports; C exports nothing
        tensor = from_product_matrices(reg, 2016, [m])
        s = w.build_stochastic(tensor, DIRECT)
        assert s.dangling[reg.node_id("CC", "01")]
        np.testing.assert_allclose(column(s, reg.node_id("CC", "01")), np.full(3, 1 / 3))

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_columns_stochastic(self, seed, direction):
        tensor = w.synth_tensor(seed, 6, 3, 0.5)
        s = w.build_stochastic(tensor, direction)
        assert np.abs(column_sums(s) - 1.0).max() < 1e-12

    def test_product_block_structure(self):
        tensor = w.synth_tensor(5, 5, 3, 0.7)
        reg = tensor.registry
        s = w.build_stochastic(tensor, DIRECT)
        dense = s.to_dense()
        for j in range(reg.size):
            if s.dangling[j]:
                continue
            p_col = j % reg.n_products
            for i in range(reg.size):
                if i % reg.n_products != p_col:
                    assert dense[i, j] == 0.0

    def test_matvec_matches_dense(self):
        tensor = w.synth_tensor(2, 5, 2, 0.4)
        s = w.build_stochastic(tensor, DIRECT)
        rng = np.random.default_rng(0)
        x = rng.random(s.size)
        np.testing.assert_allclose(s.matvec(x), s.to_dense() @ x, atol=1e-13)
        np.testing.assert_allclose(s.rmatvec(x), s.to_dense().T @ x, atol=1e-13)


class TestPersonalization:
    def test_two_countries_one_product(self, two_country_tensor):
        v = w.personalization_volume(two_country_tensor, DIRECT)
        np.testing.assert_allclose(v, [0.5, 0.5])

    def test_single_product_block(self):
        reg = w.Registry(countries=("AA", "BB"), products=("01", "02"))
        m1 = np.array([[0.0, 7.0], [0.0, 0.0]])  # AA imports product 01 only
        m2 = np.array([[0.0, 0.0], [3.0, 0.0]])  # BB imports product 02 only
        tensor = from_product_matrices(reg, 2016, [m1, m2])
        v = w.personalization_volume(tensor, DIRECT)
        np.testing.assert_allclose(v, [0.5, 0.0, 0.0, 0.5])

    def test_zero_volume_country_uniform_block(self, caplog):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("01",))
        m = np.zeros((3, 3))
        m[0, 1] = 5.0  # CC neither imports nor exports
        tensor = from_product_matrices(reg, 2016, [m])
        with caplog.at_level("WARNING", logger="wtnrank.gmatrix"):
            v = w.personalization_volume(tensor, DIRECT)
        assert v[reg.node_id("CC", "01")] == pytest.approx(1.0 / 3.0)
        assert abs(v.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("direction", [DIRECT, INVERTED])
    def test_normalized(self, direction):
        tensor = w.synth_tensor(7, 6, 4, 0.5)
        v = w.personalization_volume(tensor, direction)
        assert abs(v.sum() - 1.0) < 1e-12

    def test_direction_checked_before_the_volumes_are_read(self):
        """An unknown direction is refused before the tensor is read at all."""
        with pytest.raises(ValueError, match="direction must be"):
            w.personalization_volume(SimpleNamespace(), "sideways")

    def test_rank_personalization_single_product(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("01",))
        v = w.rank_personalization(np.array([1.0]), reg)
        np.testing.assert_allclose(v, np.full(3, 1 / 3))

    def test_rank_personalization_two_products(self):
        reg = w.Registry(countries=("AA", "BB"), products=("01", "02"))
        v = w.rank_personalization(np.array([0.5, 0.5]), reg)
        np.testing.assert_allclose(v, np.full(4, 0.25))

    def test_rank_personalization_rejects_unnormalized(self):
        reg = w.Registry(countries=("AA",), products=("01", "02"))
        with pytest.raises(ValueError):
            w.rank_personalization(np.array([0.5, 0.4]), reg)


class TestAssemble:
    def test_alpha_one_reproduces_stochastic(self):
        tensor = w.synth_tensor(1, 4, 2, 0.6)
        s = w.build_stochastic(tensor, DIRECT)
        g = w.assemble_google(s, np.full(s.size, 1.0 / s.size), alpha=1.0)
        np.testing.assert_array_equal(g.to_dense(), s.to_dense())

    def test_uniform_stays_uniform(self):
        from scipy import sparse

        n = 4
        links = sparse.csr_matrix(np.full((n, n), 1.0 / n))
        s = w.GoogleMatrix(
            links=links, dangling=np.zeros(n, bool), personalization=np.full(n, 1.0 / n),
            alpha=1.0, total=n,
        )
        g = w.assemble_google(s, np.full(n, 1.0 / n), alpha=0.5)
        np.testing.assert_allclose(column(g, 0), np.full(n, 1.0 / n))

    def test_hand_evaluated_column(self):
        from scipy import sparse

        links = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = w.GoogleMatrix(
            links=links, dangling=np.zeros(2, bool), personalization=np.full(2, 0.5),
            alpha=1.0, total=2,
        )
        g = w.assemble_google(s, np.array([0.75, 0.25]), alpha=0.5)
        np.testing.assert_allclose(column(g, 0), [0.375, 0.625])

    def test_bad_arguments(self):
        tensor = w.synth_tensor(1, 3, 1, 1.0)
        s = w.build_stochastic(tensor, DIRECT)
        ok = np.full(s.size, 1.0 / s.size)
        with pytest.raises(ValueError):
            w.assemble_google(s, ok, alpha=0.0)
        with pytest.raises(ValueError):
            w.assemble_google(s, ok, alpha=1.5)
        with pytest.raises(ValueError):
            w.assemble_google(s, ok[:-1], alpha=0.5)
        with pytest.raises(ValueError):
            w.assemble_google(s, ok * 2.0, alpha=0.5)

    def test_lazy_matvec_matches_dense(self):
        tensor = w.synth_tensor(6, 20, 10, 0.3)
        g, g_star = w.build_trade_pair(tensor)
        assert g.size == 200
        rng = np.random.default_rng(1)
        for matrix in (g, g_star):
            dense = matrix.to_dense()
            for _ in range(3):
                x = rng.random(matrix.size)
                assert np.abs(matrix.matvec(x) - dense @ x).max() < 1e-13


class TestBlock:
    @pytest.mark.parametrize("seed, n_c, n_p, density", [(4, 8, 3, 0.3), (11, 12, 5, 0.15)])
    def test_block_is_dense_slice(self, seed, n_c, n_p, density):
        tensor = w.synth_tensor(seed, n_c, n_p, density)
        stochastic = w.build_stochastic(tensor, DIRECT)
        assert stochastic.dangling.any()
        rng = np.random.default_rng(seed)
        for matrix in (stochastic, *w.build_trade_pair(tensor)):
            dense = matrix.to_dense()
            for _ in range(3):
                rows = np.sort(rng.choice(matrix.size, rng.integers(1, matrix.size), replace=False))
                cols = rng.permutation(matrix.size)[: rng.integers(1, matrix.size)]
                block = matrix.block(rows, cols)
                expected = dense[np.ix_(rows, cols)]
                assert block.shape == expected.shape
                np.testing.assert_array_equal(block.dangling, matrix.dangling[cols])
                x = rng.random(cols.shape[0])
                xs = rng.random((cols.shape[0], 4))
                y = rng.random(rows.shape[0])
                assert np.abs(block.matvec(x) - expected @ x).max() < 1e-13
                assert np.abs(block.matvec(xs) - expected @ xs).max() < 1e-13
                assert np.abs(block.rmatvec(y) - expected.T @ y).max() < 1e-13
                assert np.abs(block.to_dense() - expected).max() < 1e-15
                two_columns = block.block(slice(None), slice(1, 3)).to_dense()
                assert np.abs(two_columns - expected[:, 1:3]).max() < 1e-15
                low_rank = expected - matrix.alpha * block.links.toarray()
                assert np.abs(block.u @ block.v.T - low_rank).max() < 1e-15


class TestBuildTradePair:
    def test_default_alpha(self):
        assert w.DEFAULT_ALPHA == 0.5
        tensor = w.synth_tensor(1, 3, 1, 1.0)
        g, _ = w.build_trade_pair(tensor)
        assert g.alpha == 0.5

    def test_single_product_equals_uniform_personalization(self):
        tensor = w.synth_tensor(2, 4, 1, 0.9)
        g, _ = w.build_trade_pair(tensor)
        s = w.build_stochastic(tensor, DIRECT)
        uniform = w.assemble_google(s, np.full(s.size, 1.0 / s.size), alpha=0.5)
        np.testing.assert_allclose(g.to_dense(), uniform.to_dense(), atol=1e-15)

    def test_pair_columns_stochastic(self):
        tensor = w.synth_tensor(1, 5, 3, 0.5)
        g, g_star = w.build_trade_pair(tensor)
        for matrix in (g, g_star):
            sums = np.array([column(matrix, j).sum() for j in range(matrix.size)])
            assert np.abs(sums - 1.0).max() < 1e-12

    def test_zero_tensor_rejected(self):
        reg = w.Registry(countries=("AA", "BB"), products=("01",))
        tensor = from_product_matrices(reg, 2016, [np.zeros((2, 2))])
        with pytest.raises(w.TradeDataError):
            w.build_trade_pair(tensor)

    def test_alpha_variation_keeps_top5(self):
        # qualitative smoke check: leading nodes stay on top across damping
        tensor = w.synth_tensor(23, 8, 3, 0.6)
        tops = []
        for alpha in (0.5, 0.7, 0.9):
            g, _ = w.build_trade_pair(tensor, alpha=alpha)
            p = w.pagerank(g)
            tops.append(tuple(w.order_indices(p.probabilities)[:5]))
        assert tops[0] == tops[1] == tops[2]

    def test_orderings_insensitive_to_tighter_tol(self):
        tensor = w.synth_tensor(12, 6, 3, 0.5)
        g, _ = w.build_trade_pair(tensor)
        loose = w.order_indices(w.pagerank(g, tol=1e-12).probabilities)
        tight = w.order_indices(w.pagerank(g, tol=1e-13).probabilities)
        assert list(loose) == list(tight)


class TestDump:
    def test_dump_files(self, tmp_path):
        tensor = w.synth_tensor(1, 3, 2, 1.0)
        g, _ = w.build_trade_pair(tensor)
        triples = tmp_path / "links.csv"
        sidecar = tmp_path / "meta.txt"
        dump_google(g, triples, sidecar)
        lines = triples.read_text().splitlines()
        assert lines[0] == "row,col,value"
        # reconstruct and compare against the dense form
        dense = np.zeros((g.size, g.size))
        for line in lines[1:]:
            r, c, v = line.split(",")
            dense[int(r), int(c)] = float(v)
        hanging = sidecar.read_text().splitlines()[1].split(" ")[1]
        for j in (int(i) for i in hanging.split(",") if i):
            dense[:, j] = 1.0 / g.size
        meta = sidecar.read_text().splitlines()
        alpha = float(meta[0].split(" ")[1])
        v = np.array([float(x) for x in meta[2:]])
        rebuilt = alpha * dense + (1 - alpha) * v[:, None]
        np.testing.assert_allclose(rebuilt, g.to_dense(), atol=1e-15)
