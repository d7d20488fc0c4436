import dataclasses

import numpy as np
import pytest
from scipy import sparse

import wtnrank as w
from wtnrank.regomax import write_diagnostics, write_reduced_csv

from conftest import ORACLE_CAP, reduce_dense_oracle, reduce_single_lu_reference


def pair_for(seed, n_c, n_p, density, alpha=0.5):
    tensor = w.synth_tensor(seed, n_c, n_p, density)
    g, g_star = w.build_trade_pair(tensor, alpha=alpha)
    return g, g_star


def spread_selection(total, count, offset=0):
    step = max(1, total // count)
    ids = tuple(range(offset, total, step))[:count]
    return w.Selection(node_ids=ids, total=total)


class TestSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            w.Selection(node_ids=(), total=5)
        with pytest.raises(ValueError):
            w.Selection(node_ids=(0, 0), total=5)
        with pytest.raises(ValueError):
            w.Selection(node_ids=(5,), total=5)

    def test_complement(self):
        sel = w.Selection(node_ids=(1, 3), total=5)
        assert sel.n_selected == 2
        assert sel.n_complement == 3
        assert list(sel.complement) == [0, 2, 4]

    def test_for_countries_order_and_labels(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("10", "20"))
        sel = w.Selection.for_countries(reg, ("CC", "AA"), extra_nodes=(reg.node_id("BB", "20"),))
        assert sel.node_ids == (4, 5, 0, 1, 3)
        assert sel.labels(reg) == ("CC:10", "CC:20", "AA:10", "AA:20", "BB:20")


class TestTrivialSelection:
    def test_all_nodes_returns_dense(self):
        g, _ = pair_for(1, 6, 2, 0.5)
        sel = w.Selection(node_ids=tuple(range(g.size)), total=g.size)
        result = w.reduce(g, sel)
        assert np.abs(result.reduced - g.to_dense()).max() < 1e-13
        assert not result.projector_part.any()
        assert not result.indirect_part.any()

    def test_all_nodes_oracle(self):
        g, _ = pair_for(1, 5, 2, 0.5)
        sel = w.Selection(node_ids=tuple(range(g.size)), total=g.size)
        np.testing.assert_array_equal(reduce_dense_oracle(g, sel), g.to_dense())


class TestDenseCap:
    def test_refuses_before_allocating(self, monkeypatch):
        g, _ = pair_for(1, 6, 2, 0.5)
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", 6 * 8 * 4**2)
        w.reduce(g, w.Selection(node_ids=(0, 1, 2, 3), total=g.size))  # exactly at the cap
        for ids in ((0, 1, 2, 3, 4), tuple(range(g.size))):
            with pytest.raises(ValueError, match=f"{len(ids)} nodes .* {len(ids)} x {len(ids)}"):
                w.reduce(g, w.Selection(node_ids=ids, total=g.size))


class TestSingleHiddenNode:
    def test_scalar_closed_form(self):
        g, _ = pair_for(4, 4, 1, 1.0)
        n = g.size
        hidden = 2
        kept = tuple(i for i in range(n) if i != hidden)
        sel = w.Selection(node_ids=kept, total=n)
        dense = g.to_dense()
        rows = np.asarray(kept)
        g_rr = dense[np.ix_(rows, rows)]
        g_rs = dense[rows, hidden][:, None]
        g_sr = dense[hidden, rows][None, :]
        closed = g_rr + g_rs @ g_sr / (1.0 - dense[hidden, hidden])
        result = w.reduce(g, sel)
        assert np.abs(result.reduced - closed).max() < 1e-12
        assert np.abs(reduce_dense_oracle(g, sel) - closed).max() < 1e-12
        # a one-node complement is its own eigenvector: deflation leaves nothing
        assert not result.indirect_part.any()


# (seed, countries, products, density, n_r) instances used across checks
INSTANCES = [
    (1, 10, 10, 0.30, 12),
    (2, 15, 20, 0.20, 20),
    (3, 20, 15, 0.10, 16),
    (4, 12, 25, 0.25, 10),
    (5, 25, 12, 0.15, 18),
    (6, 10, 30, 0.20, 14),
    (7, 30, 10, 0.10, 20),
    (8, 16, 16, 0.30, 8),
    (9, 14, 20, 0.25, 15),
    (10, 20, 15, 0.35, 12),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES)
    def test_matches_dense_oracle(self, seed, n_c, n_p, density, n_r):
        g, _ = pair_for(seed, n_c, n_p, density)
        assert g.size <= 300
        sel = spread_selection(g.size, n_r, offset=seed % 3)
        result = w.reduce(g, sel)
        oracle = reduce_dense_oracle(g, sel)
        assert np.abs(result.reduced - oracle).max() < 1e-10

    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES[:4])
    def test_inverted_direction_matches(self, seed, n_c, n_p, density, n_r):
        _, g_star = pair_for(seed, n_c, n_p, density)
        sel = spread_selection(g_star.size, n_r)
        result = w.reduce(g_star, sel)
        oracle = reduce_dense_oracle(g_star, sel)
        assert np.abs(result.reduced - oracle).max() < 1e-10


class TestDecomposition:
    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES[:5])
    def test_identity_and_stochasticity(self, seed, n_c, n_p, density, n_r):
        g, _ = pair_for(seed, n_c, n_p, density)
        sel = spread_selection(g.size, n_r)
        r = w.reduce(g, sel)
        recomposed = r.direct_part + r.projector_part + r.indirect_part
        assert np.abs(recomposed - r.reduced).max() < 1e-10
        assert np.abs(r.reduced.sum(axis=0) - 1.0).max() < 1e-10
        assert r.reduced.min() >= -1e-12

    @pytest.mark.parametrize("general", [True, False], ids=["general", "all-nodes"])
    def test_stores_two_dense_matrices_and_derives_the_rest(self, general):
        g, _ = pair_for(2, 8, 4, 0.4)
        sel = spread_selection(g.size, 10 if general else g.size)
        r = w.reduce(g, sel)
        n = sel.n_selected
        stored = [getattr(r, f.name) for f in dataclasses.fields(r)]
        dense = [v for v in stored if isinstance(v, np.ndarray) and v.shape == (n, n)]
        assert len(dense) == 2
        assert dense[0] is r.reduced and dense[1] is r.indirect_part
        rows = np.asarray(sel.node_ids)
        np.testing.assert_array_equal(r.direct_part, g.block(rows, rows).to_dense())
        rank_one = np.outer(r.projector_column, r.projector_row) / (1.0 - r.complement_eigenvalue)
        np.testing.assert_array_equal(r.projector_part, rank_one)
        assert general == bool(r.projector_part.any())

    def test_split_exact(self):
        g, _ = pair_for(2, 8, 4, 0.4)
        sel = spread_selection(g.size, 10)
        r = w.reduce(g, sel)
        np.testing.assert_array_equal(r.indirect_diag + r.indirect_offdiag, r.indirect_part)
        assert not np.diag(r.indirect_offdiag).any()

    def test_projector_part_is_rank_one(self):
        g, _ = pair_for(3, 10, 5, 0.3)
        sel = spread_selection(g.size, 8)
        r = w.reduce(g, sel)
        singular = np.linalg.svd(r.projector_part, compute_uv=False)
        assert singular[1] < 1e-12 * max(1.0, singular[0])

    def test_weights(self):
        g, _ = pair_for(2, 12, 6, 0.3)
        sel = spread_selection(g.size, 9)
        r = w.reduce(g, sel)
        weights = r.weights
        assert abs(weights["reduced"] - 1.0) < 1e-10
        total = weights["direct"] + weights["projector"] + weights["indirect"]
        assert abs(total - 1.0) < 1e-10

    def test_projector_distance_diagnostic_finite(self):
        g, _ = pair_for(2, 10, 4, 0.3)
        sel = spread_selection(g.size, 8)
        r = w.reduce(g, sel)
        assert 0.0 <= r.projector_column_distance < 2.0


class TestRankConsistency:
    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES[:6])
    def test_restricted_pagerank(self, seed, n_c, n_p, density, n_r):
        g, _ = pair_for(seed, n_c, n_p, density)
        sel = spread_selection(g.size, n_r)
        r = w.reduce(g, sel)
        global_p = w.pagerank(g, tol=1e-13).probabilities[list(sel.node_ids)]
        global_p = global_p / global_p.sum()
        local_p = w.pagerank(r.reduced, tol=1e-13).probabilities
        assert np.abs(global_p - local_p).sum() < 1e-8


class TestExactSolve:
    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES)
    def test_solve_residual_both_directions(self, seed, n_c, n_p, density, n_r):
        g, g_star = pair_for(seed, n_c, n_p, density)
        sel = spread_selection(g.size, n_r, offset=seed % 3)
        for matrix in (g, g_star):
            r = w.reduce(matrix, sel)
            assert 0.0 <= r.solve_residual < 1e-12

    def test_closed_complement_raises(self):
        # at alpha = 1 the other products never leak into the selection
        tensor = w.synth_tensor(1, 10, 4, 0.4)
        g, g_star = w.build_trade_pair(tensor, alpha=1.0)
        reg = tensor.registry
        sel = w.Selection.for_countries(reg, reg.countries, products=reg.products[:1])
        for matrix in (g, g_star):
            with pytest.raises(w.ConvergenceError, match="substochastic"):
                w.reduce(matrix, sel)


def flow_pair(flows, alpha, seed):
    """(direct, inverted) matrices of a dense flow matrix (flows[i, j] runs
    from j to i), normalized by column and by row, with random positive
    personalizations; all-zero columns are dangling."""
    rng = np.random.default_rng(seed)
    size = flows.shape[0]
    pair = []
    for f in (flows, flows.T):
        sums = f.sum(axis=0)
        links = np.divide(f, sums, out=np.zeros_like(f), where=sums > 0)
        v = rng.random(size) + 0.1
        pair.append(w.GoogleMatrix(
            links=sparse.csr_matrix(links), dangling=sums == 0,
            personalization=v / v.sum(), alpha=alpha, total=size,
        ))
    return tuple(pair)


def random_flows(rng, size, density):
    flows = rng.random((size, size)) * (rng.random((size, size)) < density)
    np.fill_diagonal(flows, 0.0)
    return flows


def mixed_products(rng):
    """Links across all nodes: the complement is one component."""
    sel = tuple(sorted(rng.choice(40, 8, replace=False).tolist()))
    return random_flows(rng, 40, 0.4), sel, 1


def singletons_only(rng):
    """No link between two complement nodes (a few self-links): every
    complement node is its own component, all factored as one diagonal block."""
    flows = random_flows(rng, 30, 0.5)
    flows[6:, 6:] = 0.0
    hidden = rng.choice(np.arange(6, 30), 5, replace=False)
    flows[hidden, hidden] = rng.random(5)
    return flows, tuple(range(6)), 1


def unreached_blocks(rng):
    """Four disjoint blocks, selection inside the first: no selected column
    reaches the other three."""
    flows = np.zeros((40, 40))
    for b in range(4):
        flows[b * 10:(b + 1) * 10, b * 10:(b + 1) * 10] = random_flows(rng, 10, 0.6)
    return flows, (0, 3, 7), 4


def closed_columns(rng):
    """Selected columns 0-3 link only inside the selection, 4-5 are dangling."""
    flows = random_flows(rng, 30, 0.4)
    flows[6:, :4] = 0.0
    flows[:, 4:6] = 0.0
    return flows, tuple(range(6)), 1


EDGE_CASES = [mixed_products, singletons_only, unreached_blocks, closed_columns]


class TestComplementEdgeCases:
    """Complements the trade pipeline never or rarely produces, against the dense oracle."""

    @staticmethod
    def check(matrix, sel):
        r = w.reduce(matrix, sel)
        assert np.abs(r.reduced - reduce_dense_oracle(matrix, sel)).max() <= 1e-10
        assert 0.0 <= r.solve_residual < 1e-12
        return r

    @pytest.mark.parametrize("alpha", [0.5, 0.85])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", EDGE_CASES, ids=lambda case: case.__name__)
    def test_matches_dense_oracle(self, case, seed, alpha):
        flows, ids, blocks = case(np.random.default_rng(seed))
        sel = w.Selection(node_ids=ids, total=flows.shape[0])
        for matrix in flow_pair(flows, alpha, seed):
            assert self.check(matrix, sel).complement_blocks == blocks

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dangling_source(self, seed):
        tensor = w.synth_tensor(seed, 10, 4, 0.4)
        reg = tensor.registry
        mats = [m.toarray() for m in tensor.flows]
        mats[1][:, reg.country_index("AH")] = 0.0  # AH exports nothing of product 01
        tensor = w.MoneyTensor.from_product_matrices(reg, tensor.year, mats)
        source = reg.node_id("AH", reg.products[1])
        sel = w.Selection.for_countries(reg, ("AA", "AB", "AC"), extra_nodes=(source,))
        direct, inverted = w.build_trade_pair(tensor)
        assert direct.dangling[source]
        for matrix in (direct, inverted):
            self.check(matrix, sel)

    def test_residual_flags_a_wrong_partition(self, monkeypatch):
        """Splitting one component in two drops the links between the halves
        from the solve; the residual is taken with the whole complement matrix,
        so it must show the fault."""
        from scipy.sparse import csgraph

        flows, ids, _ = mixed_products(np.random.default_rng(0))
        sel = w.Selection(node_ids=ids, total=flows.shape[0])
        monkeypatch.setattr(
            csgraph, "connected_components",
            lambda graph, **kw: (2, np.arange(graph.shape[0]) % 2),
        )
        for matrix in flow_pair(flows, 0.85, 0):
            result = w.reduce(matrix, sel)
            assert result.complement_blocks == 2
            assert result.solve_residual > 1e-3


class TestAgainstSingleLU:
    def test_shock_mid_shape(self):
        # 12 countries x 61 products + source out of 6 100 nodes, beyond the dense oracle
        tensor = w.synth_tensor(1, 100, 61, 0.25)
        reg = tensor.registry
        source = reg.node_id(reg.countries[-2], reg.products[1])
        sel = w.Selection.for_countries(reg, reg.countries[:12], extra_nodes=(source,))
        assert sel.n_selected == 733 and reg.size > ORACLE_CAP
        for matrix in w.build_trade_pair(tensor):
            result = w.reduce(matrix, sel)
            assert result.complement_blocks == reg.n_products
            for name, expected in reduce_single_lu_reference(matrix, sel).items():
                assert np.abs(getattr(result, name) - expected).max() <= 1e-13, name


class TestComponentWeight:
    def test_stochastic_matrix_weight_one(self):
        g, _ = pair_for(1, 5, 2, 0.6)
        dense = g.to_dense()
        assert w.component_weight(dense) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert w.component_weight(np.zeros((4, 4))) == 0.0


class TestSplitDiagonal:
    def test_diagonal_only(self):
        m = np.diag([1.0, 2.0, 3.0])
        diag, off = w.split_diagonal(m)
        assert not off.any()
        np.testing.assert_array_equal(diag, m)

    def test_hollow(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        diag, off = w.split_diagonal(m)
        assert not diag.any()
        np.testing.assert_array_equal(off, m)

    def test_exact_restore(self):
        rng = np.random.default_rng(0)
        m = rng.random((6, 6))
        diag, off = w.split_diagonal(m)
        assert np.array_equal(diag + off, m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            w.split_diagonal(np.zeros((2, 3)))


class TestOracleGuards:
    def test_cap_refusal(self):
        g, _ = pair_for(1, 8, 4, 0.4)
        sel = spread_selection(g.size, 4)
        with pytest.raises(ValueError, match="cap"):
            reduce_dense_oracle(g, sel, cap=10)

    def test_size_mismatch(self):
        g, _ = pair_for(1, 4, 2, 0.6)
        sel = w.Selection(node_ids=(0, 1), total=g.size + 1)
        with pytest.raises(ValueError):
            w.reduce(g, sel)


class TestExports:
    def test_reduced_csv_and_diagnostics(self, tmp_path):
        tensor = w.synth_tensor(3, 5, 2, 0.6)
        g, _ = w.build_trade_pair(tensor)
        sel = w.Selection.for_countries(tensor.registry, ("AA", "AB"))
        r = w.reduce(g, sel)
        matrix_path = tmp_path / "reduced.csv"
        write_reduced_csv(matrix_path, r.reduced, sel.labels(tensor.registry))
        lines = matrix_path.read_text().splitlines()
        assert lines[0] == "AA:00,AA:01,AB:00,AB:01"
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, r.reduced)
        diag_path = tmp_path / "diag.txt"
        write_diagnostics(diag_path, r)
        text = diag_path.read_text()
        assert "lambda_c" in text and "solve_residual" in text and "weight_projector" in text
        # complement AC, AD, AE: all linked in product 00; in product 01 AC and
        # AD are linked and AE:01 has no link, so it is the link-free batch
        assert r.complement_blocks == 3
        assert f"complement_blocks {r.complement_blocks}\n" in text
