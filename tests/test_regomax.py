import ctypes
import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import wtnrank as w
from wtnrank.regomax import _leading_pair, _power, write_diagnostics, write_reduced_csv

from conftest import (
    CLOSED_PAIR,
    NEARLY_CLOSED_PAIR,
    ORACLE_CAP,
    from_product_matrices,
    projector_distance_oracle,
    reduce_dense_oracle,
    reduce_single_lu_reference,
    shock_mid,
    shock_vectors,
    small_shocks,
    split_diagonal,
)


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
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", w.regomax.DENSE_ARRAYS * 8 * 4**2)
        w.reduce(g, w.Selection(node_ids=(0, 1, 2, 3), total=g.size))  # exactly at the cap
        for ids in ((0, 1, 2, 3, 4), tuple(range(g.size))):
            with pytest.raises(ValueError, match=f"{len(ids)} nodes .* {len(ids)} x {len(ids)}"):
                w.reduce(g, w.Selection(node_ids=ids, total=g.size))

    def test_component_refused_before_allocating(self, monkeypatch):
        """A 2-node selection on a 600-node cycle leaves one 598-node component,
        whose dense block alone passes a cap that the selection is far under."""
        size = 600
        cycle = sparse.csr_matrix(
            (np.ones(size), (np.roll(np.arange(size), -1), np.arange(size))), shape=(size, size)
        )
        g = w.GoogleMatrix(
            links=cycle, dangling=np.zeros(size, dtype=bool),
            personalization=np.full(size, 1.0 / size), alpha=0.5, total=size,
        )
        sel = w.Selection(node_ids=(0, 1), total=size)
        block = 8 * 598**2
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", block - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="component of 598 nodes .* MiB cap"):
                w.reduce(g, sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block / 4
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", block)  # exactly at the cap
        assert w.reduce(g, sel).complement_blocks == 1

    @pytest.mark.parametrize("n, admitted", [(11585, True), (11586, False)])
    def test_largest_admitted_selection(self, monkeypatch, n, admitted):
        """Two n x n float64 arrays fit the 2 GiB cap up to 11 585 nodes."""
        monkeypatch.setattr(w.regomax, "_trivial_reduction", lambda *args: "admitted")
        empty = w.GoogleMatrix(
            links=sparse.csr_matrix((n, n)), dangling=np.ones(n, dtype=bool),
            personalization=np.full(n, 1.0 / n), alpha=0.5, total=n,
        )
        sel = w.Selection(node_ids=tuple(range(n)), total=n)
        if admitted:
            assert w.reduce(empty, sel) == "admitted"
        else:
            with pytest.raises(ValueError, match=f"{n} nodes .* 2 dense {n} x {n} arrays"):
                w.reduce(empty, sel)

    def test_paper_size_all_products_refused(self, monkeypatch):
        # 227 countries x 61 products, every node selected; fail rather than
        # allocate if the cap lets it through
        monkeypatch.setattr(w.regomax, "_trivial_reduction", lambda *args: pytest.fail("admitted"))
        size = 227 * 61
        empty = w.GoogleMatrix(
            links=sparse.csr_matrix((size, size)), dangling=np.ones(size, dtype=bool),
            personalization=np.full(size, 1.0 / size), alpha=0.5, total=size,
        )
        with pytest.raises(ValueError, match=f"{size} nodes .* MiB cap"):
            w.reduce(empty, w.Selection(node_ids=tuple(range(size)), total=size))


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

    def test_undamped_node_without_self_link(self):
        # at alpha = 1 a non-dangling node without a self-link has G_ss = 0:
        # lambda_c = 0, nothing is deflated and the whole G_rs G_sr is indirect
        g, _ = pair_for(4, 4, 1, 1.0, alpha=1.0)
        n = g.size
        hidden = 2
        dense = g.to_dense()
        assert dense[hidden, hidden] == 0.0
        kept = tuple(i for i in range(n) if i != hidden)
        sel = w.Selection(node_ids=kept, total=n)
        rows = np.asarray(kept)
        through = dense[rows, hidden][:, None] @ dense[hidden, rows][None, :]
        result = w.reduce(g, sel)
        assert result.complement_eigenvalue == 0.0
        assert np.abs(result.indirect_part - through).max() < 1e-15
        assert np.abs(result.reduced - (dense[np.ix_(rows, rows)] + through)).max() < 1e-15
        np.testing.assert_allclose(result.reduced.sum(axis=0), 1.0, atol=1e-14)


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
    def test_stores_one_dense_matrix_and_derives_the_rest(self, general):
        g, _ = pair_for(2, 8, 4, 0.4)
        sel = spread_selection(g.size, 10 if general else g.size)
        r = w.reduce(g, sel)
        n = sel.n_selected
        stored = [getattr(r, f.name) for f in dataclasses.fields(r)]
        dense = [v for v in stored if isinstance(v, np.ndarray) and v.shape == (n, n)]
        assert len(dense) == 1 and dense[0] is r.reduced
        rank = 5 if general else 0
        links, left, right = r._parts["indirect"]
        assert sparse.issparse(links) and links.shape == (n, n)
        assert left.shape == (n, rank) and right.shape == (rank, n)
        rows = np.asarray(sel.node_ids)
        np.testing.assert_array_equal(r.direct_part, g.block(rows, rows).to_dense())
        assert r._parts["projector"][0].nnz == 0
        rank_one = np.zeros((n, n))
        if general:  # G_rs psi_r times psi_l^T G_sr / (1 - lam), from the complement's eigenpair
            s = sel.complement
            lam, psi_r, psi_l, _ = _leading_pair(g.block(s, s))
            assert lam == r.complement_eigenvalue
            column, row = g.block(rows, s).matvec(psi_r), g.block(s, rows).rmatvec(psi_l)
            rank_one = column[:, None] @ (row / (1.0 - lam))[None, :]
        np.testing.assert_array_equal(r.projector_part, rank_one)
        assert general == bool(r.projector_part.any())
        # the sparse part densified, then the whole rank-five product added in
        indirect = links.toarray()
        indirect += left @ right
        np.testing.assert_array_equal(r.indirect_part, indirect)
        assert general == bool(indirect.any())
        if general:  # clipped at zero and divided by the column sums
            summed = unclipped_sum(r)
            np.clip(summed, 0.0, None, out=summed)
            summed /= summed.sum(axis=0)
        else:  # the all-nodes selection returns the block of G itself
            summed = r.direct_part
        np.testing.assert_array_equal(r.reduced, summed)

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

    @pytest.mark.parametrize("seed,n_c,n_p,density,n_r", INSTANCES[:5])
    def test_closed_form_weights_match_dense_parts(self, seed, n_c, n_p, density, n_r):
        """The weights summed from the factors equal `component_weight` on the
        dense parts, for a spread selection, a one-node complement and the
        trivial all-nodes selection, in both directions."""
        for g in pair_for(seed, n_c, n_p, density):
            everything = tuple(range(g.size))
            for ids in (spread_selection(g.size, n_r).node_ids, everything[1:], everything):
                r = w.reduce(g, w.Selection(node_ids=ids, total=g.size))
                parts = {
                    "reduced": r.reduced,
                    "direct": r.direct_part,
                    "projector": r.projector_part,
                    "indirect": r.indirect_part,
                    "indirect_offdiag": r.indirect_offdiag,
                }
                assert list(r.weights) == list(parts)
                for name, part in parts.items():
                    assert abs(r.weights[name] - w.component_weight(part)) <= 1e-13, name

    def test_projector_distance_diagnostic_finite(self):
        g, _ = pair_for(2, 10, 4, 0.3)
        sel = spread_selection(g.size, 8)
        r = w.reduce(g, sel)
        assert 0.0 <= r.projector_column_distance < 2.0

    def test_projector_distance_is_nan_when_the_stationary_vector_stalls(self, monkeypatch):
        g, _ = pair_for(2, 10, 4, 0.3)
        r = w.reduce(g, spread_selection(g.size, 8))

        def stalls(*args, **kwargs):
            raise w.ConvergenceError("power iteration did not converge", 1, 1.0)

        monkeypatch.setattr(w.regomax, "pagerank", stalls)
        assert np.isnan(r.projector_column_distance)


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
            with pytest.raises(
                w.ConvergenceError, match=r"capacitance .* singular .*\(condition number "
            ):
                w.reduce(matrix, sel)


def flow_pair(flows, alpha, seed, n_products=1):
    """(direct, inverted) matrices of a dense flow matrix (flows[i, j] runs
    from j to i), normalized by column and by row, with random positive
    personalizations and `n_products` declared; all-zero columns are dangling."""
    rng = np.random.default_rng(seed)
    size = flows.shape[0]
    pair = []
    for f in (flows, flows.T):
        sums = f.sum(axis=0)
        links = np.divide(f, sums, out=np.zeros_like(f), where=sums > 0)
        v = rng.random(size) + 0.1
        pair.append(w.GoogleMatrix(
            links=sparse.csr_matrix(links), dangling=sums == 0,
            personalization=v / v.sum(), alpha=alpha, total=size, n_products=n_products,
        ))
    return tuple(pair)


def random_flows(rng, size, density):
    flows = rng.random((size, size)) * (rng.random((size, size)) < density)
    np.fill_diagonal(flows, 0.0)
    return flows


def mixed_products(rng):
    """Links across all nodes, declared as one product."""
    sel = tuple(sorted(rng.choice(40, 8, replace=False).tolist()))
    return random_flows(rng, 40, 0.4), sel, 1


def singletons_only(rng):
    """No link between two complement nodes (a few self-links): the link-free
    complement is solved as its one product's block."""
    flows = random_flows(rng, 30, 0.5)
    flows[6:, 6:] = 0.0
    hidden = rng.choice(np.arange(6, 30), 5, replace=False)
    flows[hidden, hidden] = rng.random(5)
    return flows, tuple(range(6)), 1


def unreached_blocks(rng):
    """Ten countries of four products (node = country * 4 + product), with
    links only inside each product, selection inside product 0: no selected
    column reaches the other three."""
    flows = np.zeros((40, 40))
    for p in range(4):
        flows[p::4, p::4] = random_flows(rng, 10, 0.6)
    return flows, (0, 12, 28), 4


def closed_columns(rng):
    """Selected columns 0-3 link only inside the selection, 4-5 are dangling."""
    flows = random_flows(rng, 30, 0.4)
    flows[6:, :4] = 0.0
    flows[:, 4:6] = 0.0
    return flows, tuple(range(6)), 1


# each case gives (flows, selection, n_products); every product keeps a complement
# node, so the solve factors one block per product
EDGE_CASES = [mixed_products, singletons_only, unreached_blocks, closed_columns]


def near_orthogonal_case():
    """A direct matrix at alpha = 1 whose complement's leading left and right
    eigenvectors nearly cancel (psi_l . psi_r is tiny before scaling), and a
    two-node selection of it."""
    flows = np.zeros((7, 7))  # flows[importer, exporter]
    for (imp, exp), value in {
        (0, 3): 1.0, (0, 4): 2.5, (0, 6): 2.5, (1, 0): 1.0, (2, 1): 1.0, (2, 3): 1e-6,
        (2, 5): 1e-6, (3, 1): 1e-6, (3, 2): 1.0, (3, 4): 1e-6, (4, 0): 100.0, (4, 1): 2.5,
        (4, 2): 1e-6, (4, 3): 1.0, (4, 5): 1e-6, (4, 6): 1.0, (5, 0): 1e6, (5, 1): 1.0,
        (5, 4): 100.0, (5, 6): 2.5, (6, 0): 100.0, (6, 1): 2.5, (6, 2): 1.0, (6, 4): 1e-6,
        (6, 5): 1e6,
    }.items():
        flows[imp, exp] = value
    reg = w.Registry(countries=tuple(f"C{i}" for i in range(7)), products=("00",))
    tensor = from_product_matrices(reg, 2016, [flows])
    sel = w.Selection.for_countries(reg, ("C1",), extra_nodes=(reg.node_id("C6", "00"),))
    direct, _ = w.build_trade_pair(tensor, alpha=1.0)
    return direct, sel


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
        flows, ids, n_products = case(np.random.default_rng(seed))
        sel = w.Selection(node_ids=ids, total=flows.shape[0])
        for matrix in flow_pair(flows, alpha, seed, n_products):
            assert self.check(matrix, sel).complement_blocks == n_products

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dangling_source(self, seed):
        tensor = w.synth_tensor(seed, 10, 4, 0.4)
        reg = tensor.registry
        source = reg.node_id("AH", reg.products[1])
        flows = tensor.matrix.toarray()
        flows[:, source] = 0.0  # AH exports nothing of product 01
        tensor = w.MoneyTensor(tensor.year, reg, sparse.csr_matrix(flows))
        sel = w.Selection.for_countries(reg, ("AA", "AB", "AC"), extra_nodes=(source,))
        direct, inverted = w.build_trade_pair(tensor)
        assert direct.dangling[source]
        for matrix in (direct, inverted):
            self.check(matrix, sel)

    def test_product_blocks_hold_several_components(self):
        """The complement's 254 nodes form 23 weak components, 7 of them
        link-free, in 15 products: one block per product solves them all."""
        from scipy.sparse.csgraph import connected_components  # test-only oracle

        tensor = w.synth_tensor(3, 20, 15, 0.1)
        reg = tensor.registry
        sel = w.Selection.for_countries(reg, ("AA", "AB", "AC"), extra_nodes=(reg.node_id("AS", "02"),))
        s = sel.complement
        assert (sel.n_selected, s.size) == (46, 254)
        for matrix in w.build_trade_pair(tensor):
            n_comp, labels = connected_components(matrix.links[s][:, s], connection="weak")
            assert (n_comp, int((np.bincount(labels) == 1).sum())) == (23, 7)
            assert self.check(matrix, sel).complement_blocks == reg.n_products == 15

    def test_residual_flags_a_wrong_partition(self):
        """Declaring two products on links that join them splits the complement
        by node parity and drops the links between the halves from the solve;
        the residual is taken with the whole complement matrix, so it must
        show the fault."""
        flows, ids, _ = mixed_products(np.random.default_rng(0))
        sel = w.Selection(node_ids=ids, total=flows.shape[0])
        for matrix in flow_pair(flows, 0.85, 0, n_products=2):
            result = w.reduce(matrix, sel)
            assert result.complement_blocks == 2
            assert result.solve_residual > 1e-3

    def test_alpha_one_with_near_orthogonal_eigenvectors(self):
        """At alpha = 1, `reduce` refuses or matches the dense block solve."""
        direct, sel = near_orthogonal_case()
        try:
            reduced = w.reduce(direct, sel).reduced
        except w.ConvergenceError:
            return
        assert np.abs(reduced - reduce_dense_oracle(direct, sel)).max() < 1e-10


class TestSplitError:
    def test_is_the_gap_between_reduced_and_its_split(self, tmp_path):
        """`reduced` comes from the solve alone, so the eigenpair's error shows
        only as the rank-one gap between it and direct + projector + indirect;
        here it is large, and `split_error` gives it from the factors."""
        direct, sel = near_orthogonal_case()
        r = w.reduce(direct, sel)
        gap = np.abs(r.direct_part + r.projector_part + r.indirect_part - r.reduced).max()
        assert r.split_error > 1e-4
        # the projector and indirect parts cancel at their own scale, where the dense sum rounds
        assert abs(r.split_error - gap) <= 1e-15 * np.abs(r.projector_part).max()
        write_diagnostics(tmp_path / "diag.txt", r)
        assert f"split_error {r.split_error!r}\n" in (tmp_path / "diag.txt").read_text()


class TestSmallShocks:
    @settings(max_examples=100, deadline=None)
    @given(small_shocks(), st.sampled_from([0.5, 0.85, 1.0]))
    @example(CLOSED_PAIR, 1.0)
    @example(NEARLY_CLOSED_PAIR, 1.0)
    def test_refused_or_matches_dense_oracle(self, case, alpha):
        """Each reduction of a random shock selection is refused cleanly, or
        matches the dense block solve to the solve's own accuracy, with unit
        column sums and no negative entry. The reduction runs no eigenvector
        iteration, so near-periodic complements at alpha = 1 reduce too.

        `reduce` divides each column by its sum; the oracle's columns miss 1
        by the rounding of the float input, amplified by a nearly closed
        complement, so that defect is the most the division moves an entry."""
        tensor, spec, _ = case
        reg = tensor.registry
        source = reg.node_id(spec.source_country, spec.source_product)
        sel = w.Selection.for_countries(reg, spec.group, extra_nodes=(source,))
        try:
            pair = w.build_trade_pair(tensor, alpha=alpha)
        except (w.ConvergenceError, w.TradeDataError, ValueError):
            return
        for matrix in pair:
            try:
                r = w.reduce(matrix, sel)
            except w.ConvergenceError:
                continue
            oracle = reduce_dense_oracle(matrix, sel)
            defect = np.abs(1.0 - oracle.sum(axis=0)).max()
            error = np.abs(r.reduced - oracle).max()
            assert error <= 1e-12 + 10.0 * r.solve_residual + defect
            assert np.abs(r.reduced.sum(axis=0) - 1.0).max() <= 1e-14
            assert r.reduced.min() >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(small_shocks(), st.sampled_from([0.5, 0.85, 1.0]))
    @example(CLOSED_PAIR, 1.0)
    @example(NEARLY_CLOSED_PAIR, 1.0)
    def test_projector_distance_matches_dense_oracle(self, case, alpha):
        """Every live projector column, once normalized, is c / sum(c): the
        closed form equals the dense maximum over columns, for the shock
        selection, a one-node complement and the all-nodes selection."""
        tensor, spec, _ = case
        reg = tensor.registry
        source = reg.node_id(spec.source_country, spec.source_product)
        shock = w.Selection.for_countries(reg, spec.group, extra_nodes=(source,)).node_ids
        everything = tuple(range(reg.size))
        try:
            pair = w.build_trade_pair(tensor, alpha=alpha)
        except (w.ConvergenceError, w.TradeDataError, ValueError):
            return
        for matrix in pair:
            for ids in (shock, everything[1:], everything):
                try:
                    r = w.reduce(matrix, w.Selection(node_ids=ids, total=reg.size))
                    r.split_error
                except w.ConvergenceError:
                    continue
                expected, actual = projector_distance_oracle(r), r.projector_column_distance
                if np.isnan(expected):
                    assert np.isnan(actual)
                else:
                    assert abs(actual - expected) <= 1e-14

    def test_projector_distance_with_zero_row_entries(self):
        """At alpha = 1 a selected node that trades only inside the selection
        has a zero projector row entry, so its column is not live; the other
        columns still give the distance. AA -> BB -> CC -> AA, and in the
        complement CC -> DD -> CC and CC -> DD -> EE -> CC, so no chain is
        periodic; selection {AA, BB}: AA exports only to BB, BB imports only
        from AA."""
        reg = w.Registry(countries=("AA", "BB", "CC", "DD", "EE"), products=("00",))
        flows = np.zeros((5, 5))  # flows[importer, exporter]
        for importer, exporter in ((1, 0), (2, 1), (0, 2), (3, 2), (2, 3), (4, 3), (2, 4)):
            flows[importer, exporter] = 1.0
        tensor = from_product_matrices(reg, 2016, [flows])
        sel = w.Selection(node_ids=(0, 1), total=5)
        for matrix in w.build_trade_pair(tensor, alpha=1.0):
            r = w.reduce(matrix, sel)
            row = r._parts["projector"][2]
            assert (row == 0.0).any() and (row > 0.0).any()
            assert 0.0 < r.projector_column_distance < 2.0
            assert abs(r.projector_column_distance - projector_distance_oracle(r)) <= 1e-14


def unclipped_sum(r) -> np.ndarray:
    """alpha (A_rr + A_rs Y) + [U_r, G_rs Z] [V_r^T + V_s^T Y; W], as `reduce`
    sums it before the clip: the first four indirect factor pairs, with
    G_rr's V_r^T added to V_s^T Y, and the direct links added to alpha A_rs Y."""
    block = r.direct_block
    links, left, right = r._parts["indirect"]
    right = right[:4].copy()
    right[:2] += block.v.T
    summed = left[:, :4] @ right
    summed += (links + block.alpha * block.links).toarray()
    return summed


class TestClamp:
    def test_clamped_columns_nonnegative_and_stochastic(self):
        """At alpha = 1 this reduction has tiny negative entries: `reduce`
        clips them and divides every column by its sum."""
        tensor = w.synth_tensor(1, 10, 4, 0.4)
        reg = tensor.registry
        source = reg.node_id(reg.countries[-2], reg.products[1])
        sel = w.Selection.for_countries(reg, reg.countries[:2], extra_nodes=(source,))
        for result in w.regomax.reduce_trade_pair(tensor, sel, alpha=1.0):
            assert (unclipped_sum(result) < 0).any()
            assert (result.reduced >= 0).all()
            assert np.abs(result.reduced.sum(axis=0) - 1.0).max() <= 1e-15


def links_only(m: np.ndarray) -> w.GoogleMatrix:
    """The block whose products with a vector are those of the dense `m`:
    alpha = 1 and no dangling column, so the rank-two term is zero."""
    n = m.shape[0]
    return w.GoogleMatrix(sparse.csr_matrix(m), np.zeros(n, dtype=bool), np.zeros(n), 1.0, n)


class TestLeadingPair:
    def test_nilpotent_complement_absorbs_everything(self):
        chain = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        lam, psi_r, psi_l, iterations = _leading_pair(links_only(chain))
        assert (lam, iterations) == (0.0, 3)  # the third product is zero
        assert np.array_equal(psi_r, [0.0, 0.0, 1.0])
        assert np.array_equal(psi_l, np.zeros(3))

    def test_uniform_eigenvector_settles_in_one_call(self):
        """Equal row sums make the uniform start an eigenvector."""
        m = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        lam, x, calls = _power(links_only(m).matvec, 3, "eigenvector")
        assert (lam, calls) == (1.0, 1)
        assert np.array_equal(x, np.full(3, 1.0 / 3.0))

    @pytest.mark.parametrize("transpose, vector", [(False, "eigenvector"), (True, "left-eigenvector")])
    def test_period_two_stalls_naming_its_vector(self, monkeypatch, transpose, vector):
        """On the transpose the right iteration settles at once (the uniform
        vector is its eigenvector), and the left one meets period 2. Its L1
        step stays 2/3, so any iteration cap is reached; a small one is set."""
        monkeypatch.setattr(w.regomax, "DEFAULT_EIG_MAX_ITER", 1000)
        m = np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        with pytest.raises(w.ConvergenceError, match=f"^complement {vector} iteration stalled") as exc:
            _leading_pair(links_only(m.T if transpose else m))
        assert exc.value.iterations == 1000
        assert exc.value.residual == pytest.approx(2.0 / 3.0)


class TestTradePair:
    @pytest.mark.parametrize("ids", [(0, 1, 2), (5,)])
    def test_each_direction_matches_a_standalone_reduce(self, ids):
        tensor = w.synth_tensor(1, 10, 4, 0.4)
        sel = w.Selection(node_ids=ids, total=tensor.registry.size)
        pair = list(w.regomax.reduce_trade_pair(tensor, sel))
        for result, matrix in zip(pair, w.build_trade_pair(tensor)):
            expected = w.reduce(matrix, sel)
            assert np.array_equal(result.reduced, expected.reduced)
            assert result.complement_blocks == expected.complement_blocks


class TestBlasThreads:
    def test_solve_on_one_thread_and_count_restored(self, monkeypatch):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get is None:
            pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
        seen = []
        solve = w.regomax._solve_components

        def watching(*args):
            seen.append(get())
            return solve(*args)

        monkeypatch.setattr(w.regomax, "_solve_components", watching)
        before = get()
        g, _ = pair_for(1, 6, 2, 0.5)
        w.reduce(g, spread_selection(g.size, 3))
        assert seen == [1] and get() == before

    def test_another_blas_is_left_alone(self, monkeypatch):
        """A library without OpenBLAS's thread calls (MKL, say) is not touched."""
        g, _ = pair_for(1, 6, 2, 0.5)
        sel = spread_selection(g.size, 3)
        expected = w.reduce(g, sel).reduced
        monkeypatch.setattr(w.regomax, "ctypes", SimpleNamespace(CDLL=lambda path: object()))
        assert np.array_equal(w.reduce(g, sel).reduced, expected)


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


class TestPaperScale:
    def test_quotient_property_and_restricted_pagerank(self):
        """At the paper shape (13 847 nodes), beyond the dense oracle: reducing
        onto B and then eliminating B - A densely gives the reduction onto A
        (Meyer, SIAM Rev. 31, 1989; Crabtree & Haynsworth, Proc. AMS 22,
        1969), and R_A keeps the restricted stationary vector of G."""
        tensor = w.synth_tensor(1, 227, 61, 0.25)
        reg = tensor.registry
        source = reg.node_id(reg.countries[-2], reg.products[1])
        sel_a = w.Selection.for_countries(reg, reg.countries[:27], extra_nodes=(source,))
        wider = w.Selection.for_countries(reg, reg.countries[27:30]).node_ids
        sel_b = w.Selection(node_ids=sel_a.node_ids + wider, total=reg.size)
        k = sel_a.n_selected
        assert (k, sel_b.n_selected) == (1648, 1831)
        for matrix in w.build_trade_pair(tensor):
            r_a = w.reduce(matrix, sel_a)
            weights = r_a.weights
            assert abs(weights["reduced"] - 1.0) < 1e-13
            assert abs(weights["direct"] + weights["projector"] + weights["indirect"] - 1.0) < 1e-13
            r_b = w.reduce(matrix, sel_b).reduced
            inner = np.eye(sel_b.n_selected - k) - r_b[k:, k:]
            eliminated = r_b[:k, :k] + r_b[:k, k:] @ np.linalg.solve(inner, r_b[k:, :k])
            assert np.abs(eliminated - r_a.reduced).max() <= 1e-15
            restricted = w.pagerank(matrix, tol=1e-14).probabilities[list(sel_a.node_ids)]
            local = w.pagerank(r_a.reduced, tol=1e-14).probabilities
            assert np.abs(restricted / restricted.sum() - local).sum() < 1e-13


def traced_peak(fn):
    """fn() and the peak of traced allocations while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks in units of one n x n float64 array at the shock-mid shape, or of
    G's links at the paper network selection."""

    def test_reduce_peak_at_paper_network_selection(self):
        """At 28 of 13 847 nodes the complement holds nearly all of G's links:
        one reduction holds at most two copies of them at once."""
        tensor = w.synth_tensor(1, 227, 61, 0.25)
        reg = tensor.registry
        source = reg.node_id(reg.countries[-2], reg.products[1])
        sel = w.Selection.for_countries(
            reg, reg.countries[:27], products=(reg.products[1],), extra_nodes=(source,)
        )
        matrix = w.build_trade_pair(tensor)[0]
        links = sum(a.nbytes for a in (matrix.links.data, matrix.links.indices, matrix.links.indptr))
        _, peak = traced_peak(lambda: w.reduce(matrix, sel))
        assert peak <= 2 * links

    def test_reduce_peak_at_shock_mid_shape(self):
        """Only the reduced matrix is stored dense and no second n x n array
        is made beside it (before it, one residual block of at most n x n
        elements): one reduction peaks under 2.2 arrays."""
        tensor, _, sel = shock_mid()
        unit = 8 * sel.n_selected**2
        matrix = w.build_trade_pair(tensor)[0]
        result, peak = traced_peak(lambda: w.reduce(matrix, sel))
        assert peak <= 2.2 * unit
        result.split_error  # the split's eigenpair is computed on its first read, not here
        _, peak = traced_peak(lambda: result.weights)
        assert peak < 0.1 * unit  # summed from factors: no n x n array

    def test_projector_distance_peak_at_paper_selection(self):
        """Every live projector column, normalized, is the same vector, so once
        the split is read the distance allocates less than one n x n array
        at the 1 648-node paper selection."""
        tensor = w.synth_tensor(1, 227, 61, 0.25)
        reg = tensor.registry
        source = reg.node_id(reg.countries[-2], reg.products[1])
        sel = w.Selection.for_countries(reg, reg.countries[:27], extra_nodes=(source,))
        assert sel.n_selected == 1648
        result = w.reduce(w.build_trade_pair(tensor)[0], sel)
        result.split_error
        distance, peak = traced_peak(lambda: result.projector_column_distance)
        assert 0.0 < distance < 2.0
        assert peak < 8 * sel.n_selected**2

    def test_indirect_diag_peak_at_shock_mid_shape(self):
        """The indirect part is freed before its diagonal matrix is made: one
        read of `indirect_diag` peaks at about one array."""
        tensor, _, sel = shock_mid()
        result = w.reduce(w.build_trade_pair(tensor)[0], sel)
        _, peak = traced_peak(lambda: result.indirect_diag)
        assert peak <= 1.1 * 8 * sel.n_selected**2

    def test_shocked_solves_make_no_copy(self):
        """A shocked stationary vector is solved on an operator over the
        stored reduced matrix: each solve allocates under 0.1 arrays."""
        tensor, spec, sel = shock_mid()
        for k, matrix in enumerate(w.build_trade_pair(tensor)):  # direct, then inverted
            reduced = w.reduce(matrix, sel).reduced
            a, b = shock_vectors(reduced)[k]
            result, peak = traced_peak(
                lambda: w.pagerank(w.sensitivity._shock(reduced, a, b, spec.delta))
            )
            assert result.residual < 1e-12
            assert peak < 0.1 * 8 * sel.n_selected**2

    def test_sensitivity_peak_at_shock_mid_shape(self):
        """One direction at a time: its reduction, its shocked copies (one at
        a time) and its linear response, then it is freed before the other
        direction is reduced. The whole method stays under 3.4 arrays."""
        tensor, spec, sel = shock_mid()
        report, peak = traced_peak(lambda: w.reduced_balance_sensitivity(tensor, spec))
        assert np.isfinite(report.metadata["fd_error"])
        assert peak <= 3.4 * 8 * sel.n_selected**2


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
        diag, off = split_diagonal(m)
        assert not off.any()
        np.testing.assert_array_equal(diag, m)

    def test_hollow(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        diag, off = split_diagonal(m)
        assert not diag.any()
        np.testing.assert_array_equal(off, m)

    def test_exact_restore(self):
        rng = np.random.default_rng(0)
        m = rng.random((6, 6))
        diag, off = split_diagonal(m)
        assert np.array_equal(diag + off, m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            split_diagonal(np.zeros((2, 3)))


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
        # complement AC, AD, AE in products 00 and 01: one block per product,
        # link-free AE:01 included in its product's block
        assert r.complement_blocks == 2
        assert f"complement_blocks {r.complement_blocks}\n" in text
