import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings

import wtnrank as w
from wtnrank.errors import ConvergenceError, TradeDataError
from wtnrank.sensitivity import _shock, _shock_rhs, _volume_exact_derivative, write_report

from conftest import (
    apply_direct_shock,
    apply_inverted_shock,
    brute_force_derivative,
    build_shock_matrices,
    close_reports,
    from_product_matrices,
    linear_response_oracle,
    make_toy3,
    reduce_pair,
    reduced_sensitivity_oracle,
    shock_mid,
    shock_pair,
    shock_vectors,
    small_shocks,
)


class TestBalance:
    def test_equal_marginals(self):
        np.testing.assert_array_equal(w.balance(np.array([0.3]), np.array([0.3])), [0.0])

    def test_double_export(self):
        assert w.balance(np.array([0.4]), np.array([0.2]))[0] == pytest.approx(1 / 3)

    def test_boundary(self):
        assert w.balance(np.array([0.4]), np.array([0.0]))[0] == 1.0
        assert w.balance(np.array([0.0]), np.array([0.4]))[0] == -1.0

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            w.balance(np.array([0.0, 0.1]), np.array([0.0, 0.1]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            w.balance(np.array([-0.1]), np.array([0.1]))

    @pytest.mark.parametrize("seed", range(3))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        e, i = rng.random(6) + 0.01, rng.random(6) + 0.01
        np.testing.assert_allclose(w.balance(e, i), -w.balance(i, e), atol=1e-15)


class TestShockSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            w.ShockSpec("AA", "00", ())
        with pytest.raises(ValueError):
            w.ShockSpec("AA", "00", ("AA", "BB"))
        with pytest.raises(ValueError):
            w.ShockSpec("AA", "00", ("BB", "BB"))
        with pytest.raises(ValueError):
            w.ShockSpec("AA", "00", ("BB",), delta=0.0)
        with pytest.raises(ValueError):
            w.ShockSpec("AA", "00", ("BB",), delta=1.0)

    def test_source_label(self):
        assert w.ShockSpec("AA", "33", ("BB",)).source_label == "AA:33"


class TestApplyShocks:
    # source column (index 2) with exact dyadic entries summing to 1
    MATRIX = np.array(
        [
            [0.25, 0.00, 0.50],
            [0.25, 0.75, 0.25],
            [0.50, 0.25, 0.25],
        ]
    )

    def test_direct_hand_computed(self):
        group = np.array([0, 1])
        shocked = apply_direct_shock(self.MATRIX, 2, group, 0.1)
        scaled = np.array([0.55, 0.275, 0.25])
        expected = scaled / scaled.sum()
        np.testing.assert_allclose(shocked[:, 2], expected, atol=1e-15)

    def test_direct_zero_delta_bit_exact(self):
        shocked = apply_direct_shock(self.MATRIX, 2, np.array([0, 1]), 0.0)
        assert np.array_equal(shocked, self.MATRIX)

    def test_direct_locality(self):
        shocked = apply_direct_shock(self.MATRIX, 2, np.array([0, 1]), 0.3)
        assert np.array_equal(shocked[:, :2], self.MATRIX[:, :2])

    def test_direct_column_renormalized_and_diag_share_drops(self):
        shocked = apply_direct_shock(self.MATRIX, 2, np.array([0, 1]), 0.2)
        assert abs(shocked[:, 2].sum() - 1.0) < 1e-12
        assert shocked[2, 2] < self.MATRIX[2, 2]

    def test_direct_zero_group_entries_noop(self):
        # a source column with no mass at group rows: scaling touches nothing
        m = np.array(
            [
                [0.25, 0.00, 0.00],
                [0.25, 0.75, 0.00],
                [0.50, 0.25, 1.00],
            ]
        )
        shocked = apply_direct_shock(m, 2, np.array([0, 1]), 0.25)
        assert np.array_equal(shocked, m)

    def test_inverted_hand_computed(self):
        group = np.array([0, 1])
        shocked = apply_inverted_shock(self.MATRIX, 2, group, 0.1)
        col0 = np.array([0.25, 0.25, 0.55])
        col1 = np.array([0.0, 0.75, 0.275])
        np.testing.assert_allclose(shocked[:, 0], col0 / col0.sum(), atol=1e-15)
        np.testing.assert_allclose(shocked[:, 1], col1 / col1.sum(), atol=1e-15)
        assert np.array_equal(shocked[:, 2], self.MATRIX[:, 2])

    def test_inverted_zero_delta_bit_exact(self):
        shocked = apply_inverted_shock(self.MATRIX, 2, np.array([0, 1]), 0.0)
        assert np.array_equal(shocked, self.MATRIX)

    def test_inverted_zero_row_entries_noop(self):
        # source row 0 carries no mass at the group columns 1 and 2
        m = np.array(
            [
                [0.25, 0.00, 0.00],
                [0.25, 1.00, 0.50],
                [0.50, 0.00, 0.50],
            ]
        )
        shocked = apply_inverted_shock(m, 0, np.array([1, 2]), 0.4)
        assert np.array_equal(shocked, m)

    @pytest.mark.parametrize(
        "shock, source, group",
        [(apply_direct_shock, 0, [1, 2]), (apply_inverted_shock, 2, [0, 1])],
        ids=["direct", "inverted"],
    )
    def test_shocked_column_without_mass_raises(self, shock, source, group):
        m = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])  # columns 0, 1 empty
        with pytest.raises(ValueError, match="no mass"):
            shock(m, source, np.array(group), 0.1)

    def test_rejects_delta_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            apply_direct_shock(self.MATRIX, 2, np.array([0, 1]), -1.0)
        with pytest.raises(ValueError):
            apply_inverted_shock(self.MATRIX, 2, np.array([0, 1]), -1.5)


def random_stochastic(seed: int) -> np.ndarray:
    """A random column-stochastic n x n matrix, the source last, with zero
    entries, among them some of the source column's and source row's group
    entries (all of them for seed 0)."""
    rng = np.random.default_rng(seed)
    n = 2 + 3 * seed
    m = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    keep = rng.random((2, n - 1)) < 0.5 if seed else np.zeros((2, n - 1), dtype=bool)
    m[:-1, -1] *= keep[0]
    m[-1, :-1] *= keep[1]
    m[np.diag_indices(n)] += 0.1  # every column keeps some mass
    return m / m.sum(axis=0)


class TestShockOperators:
    """One operator on the stored R serves both shocks: its products are those
    of each shock's dense oracle, the shocked copy."""

    ORACLES = (apply_direct_shock, apply_inverted_shock)

    @staticmethod
    def point(seed, n):
        x = np.random.default_rng(seed + 100).random(n)
        return x / x.sum()

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("delta", [1e-3, -1e-3, 0.4])
    def test_matvec_matches_the_dense_oracle(self, seed, delta):
        m = random_stochastic(seed)
        s = m.shape[0] - 1
        x = self.point(seed, s + 1)
        for (a, b), oracle in zip(shock_vectors(m), self.ORACLES):
            operator = _shock(m, a, b, delta)
            assert operator.size == s + 1
            assert np.abs(operator.matvec(x) - oracle(m, s, np.arange(s), delta) @ x).max() <= 1e-15

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_delta_is_the_stored_matrix_bit_for_bit(self, seed):
        """The unshocked solve runs on the same operator: at delta == 0 the
        scale is exactly 1 and the added term +0.0, so each product is R x."""
        m = random_stochastic(seed)
        x = self.point(seed, m.shape[0])
        for a, b in shock_vectors(m):
            assert _shock(m, a, b, 0.0).matvec(x).tobytes() == (m @ x).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_rhs_is_the_oracles_central_difference(self, seed):
        """R'(0) p against (R'(h) - R'(-h)) p / 2h of the dense oracles; the
        shocked columns stay stochastic, so it sums to zero."""
        m = random_stochastic(seed)
        s, h = m.shape[0] - 1, 1e-5
        p = self.point(seed, s + 1)
        for (a, b), oracle in zip(shock_vectors(m), self.ORACLES):
            rhs = _shock_rhs(m, a, b, p)
            shocked = (oracle(m, s, np.arange(s), dv) @ p for dv in (h, -h))
            assert np.abs(rhs - (next(shocked) - next(shocked)) / (2.0 * h)).max() <= 1e-9
            assert abs(rhs.sum()) <= 1e-15

    def test_zero_group_entries_leave_the_products(self):
        """A source column (row) with no group mass: neither shock moves R x
        beyond the renormalization's rounding."""
        m = random_stochastic(0)
        assert not m[:-1, -1].any() and not m[-1, :-1].any()
        x = np.full(m.shape[0], 1.0 / m.shape[0])
        for a, b in shock_vectors(m):
            assert np.abs(_shock(m, a, b, 0.3).matvec(x) - m @ x).max() <= 1e-16


class TestBuildShockMatrices:
    def test_zero_delta_bit_exact(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        pair = [r.reduced for r in reduce_pair(toy3, spec)]
        direct, inverted = shock_pair(*pair, 0.0)
        assert np.array_equal(direct, pair[0])
        assert np.array_equal(inverted, pair[1])

    def test_shocked_columns_stochastic(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        direct, inverted = build_shock_matrices(toy3, spec, 1e-3)
        assert np.abs(direct.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(inverted.sum(axis=0) - 1.0).max() < 1e-12

    def test_signature_equivalence(self, toy3):
        """`reduce_for_shock` yields the direct, then the inverted reduced
        matrix, as the pair helpers build them."""
        spec = w.ShockSpec("AA", "00", ("XX",))
        yielded = [r.reduced for r in w.reduce_for_shock(toy3, spec)]
        direct, inverted = build_shock_matrices(toy3, spec, 2e-3)
        via_package = shock_pair(*yielded, 2e-3)
        assert np.array_equal(via_package[0], direct)
        assert np.array_equal(via_package[1], inverted)


class TestReducedSensitivity:
    def test_no_reduced_set_alive_in_the_difference_loop(self, toy3, monkeypatch, live_reduced_sets):
        """Each reduction's `ReducedSet` is freed before the next reduction
        runs, and only its reduced matrix is kept for the shocked PageRank
        solves."""
        spec = w.ShockSpec("AA", "00", ("XX",))
        counts = {"reduce": [], "pagerank": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name].append(live_reduced_sets())
                return fn(*args, **kwargs)

            return wrapper

        for module, name in ((w.regomax, "reduce"), (w.sensitivity, "pagerank")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        w.reduced_balance_sensitivity(toy3, spec)
        assert counts["reduce"] == [0, 0]
        assert len(counts["pagerank"]) == 6 and set(counts["pagerank"]) == {0}

    def test_one_reduced_matrix_alive_at_a_time(self, monkeypatch):
        """The direct reduced matrix, and the direct Google matrix it came
        from, are freed before the inverted one is reduced."""
        spec = w.ShockSpec("AS", "02", ("AA", "AB", "AC"))
        alive = []
        seen = []
        reduce = w.regomax.reduce

        def watching(matrix, sel, *labels):
            alive.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(matrix))
            result = reduce(matrix, sel, *labels)
            seen.append(weakref.ref(result.reduced))
            return result

        monkeypatch.setattr(w.regomax, "reduce", watching)
        w.reduced_balance_sensitivity(w.synth_tensor(3, 20, 15, 0.1), spec)
        assert alive == [0, 0]

    def test_matches_the_pair_oracle_at_shock_mid_shape(self):
        """The report of both reduced matrices held at once and shocked as
        dense copies, up to the rounding of the shock operators."""
        tensor, spec, _ = shock_mid()
        report = w.reduced_balance_sensitivity(tensor, spec)
        assert close_reports(report, reduced_sensitivity_oracle(tensor, spec))

    def test_pure_importer_negative_derivative(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec)
        assert report.derivative[0] < 0
        assert report.method == "regomax"
        assert abs(report.balance[0]) <= 1.0

    def test_sign_agrees_with_brute_force_at_default_alpha(self, toy3):
        # magnitudes structurally diverge at alpha=0.5 (teleportation is
        # exempt from the tensor-level shock); only the sign is asserted
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.5)
        brute = brute_force_derivative(toy3, spec, 0.5)
        assert np.sign(report.derivative[0]) == np.sign(brute[0]) == -1.0

    def test_magnitude_matches_brute_force_at_weak_damping(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.99, max_iter=50000)
        brute = brute_force_derivative(toy3, spec, 0.99)
        rel = abs(report.derivative[0] - brute[0]) / abs(brute[0])
        assert rel < 0.05

    def test_fd_error_quadratic_decay(self, toy3):
        errors = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            spec = w.ShockSpec("AA", "00", ("XX",), delta=delta)
            report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.99, max_iter=50000)
            errors.append(report.metadata["fd_error"])
        # halving delta divides the distance from the exact derivative by 4
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.2)

    def test_fd_error_within_one_percent(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.99, max_iter=50000)
        rel = report.metadata["fd_error"] / abs(report.derivative[0])
        assert rel < 0.01

    def test_richer_toy_against_brute_force(self):
        toy = make_toy3(a=500.0, b=1000.0, c=300.0, yx=100.0)
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy, spec, alpha=0.99, max_iter=50000)
        brute = brute_force_derivative(toy, spec, 0.99)
        assert np.sign(report.derivative[0]) == np.sign(brute[0])
        assert abs(report.derivative[0] - brute[0]) / abs(brute[0]) < 0.05

    def test_no_unique_stationary_vector_gives_infinite_fd_error(self):
        # at alpha = 1, XX<->YY and AA<->ZZ are closed classes: both reduced
        # matrices are the 2 x 2 identity, so the response system is singular
        reg = w.Registry(countries=("AA", "XX", "YY", "ZZ"), products=("00",))
        m = np.zeros((4, 4))
        m[2, 1] = m[1, 2] = m[3, 0] = m[0, 3] = 1.0
        tensor = from_product_matrices(reg, 2016, [m])
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(tensor, spec, alpha=1.0)
        assert np.array_equal(report.derivative, [0.0])
        assert report.metadata["fd_error"] == np.inf

    def test_baseline_reproducible_from_marginals(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec)
        rebuilt = w.balance(report.export_probability, report.import_probability)
        np.testing.assert_allclose(rebuilt, report.balance, atol=1e-15)


class TestImportExportSensitivity:
    def test_untouched_country_exact_zero(self):
        # ZZ trades only with YY: no direct link to the source at all
        reg = w.Registry(countries=("AA", "XX", "YY", "ZZ"), products=("00",))
        m = np.zeros((4, 4))
        m[1, 0] = 200.0  # X imports from A
        m[2, 1] = 80.0   # Y imports from X, keeping B_X off the -1 boundary
        m[2, 0] = 300.0  # Y imports from A
        m[0, 2] = 300.0  # A imports from Y
        m[3, 2] = 50.0   # Z imports from Y
        m[2, 3] = 40.0   # Y imports from Z
        tensor = from_product_matrices(reg, 2016, [m])
        spec = w.ShockSpec("AA", "00", ("XX", "ZZ"))
        report = w.import_export_sensitivity(tensor, spec)
        assert report.derivative[1] == 0.0
        assert report.derivative[0] < 0

    def test_closed_form_derivative(self):
        # X imports a=200 from the source and exports yx=100 to Y:
        # B_X(d) = (100 - 200(1+d)) / (100 + 200(1+d)), dB/dd at 0 = -4/9
        toy = make_toy3(a=200.0, b=300.0, c=300.0, yx=100.0)
        spec = w.ShockSpec("AA", "00", ("XX",), delta=1e-3)
        report = w.import_export_sensitivity(toy, spec)
        assert report.derivative[0] == pytest.approx(-4.0 / 9.0, abs=1e-5)
        assert report.balance[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
        exact = _volume_exact_derivative(toy, spec)
        assert exact[0] == pytest.approx(-4.0 / 9.0, abs=1e-15)
        assert report.metadata["fd_error"] == abs(report.derivative[0] - exact[0])

    def test_method_tag(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.import_export_sensitivity(toy3, spec)
        assert report.method == "import-export"


class TestGlobalPriceSensitivity:
    def test_single_product_derivative_vanishes(self, toy3):
        report = w.global_price_sensitivity(toy3, "00", group=("XX", "YY"))
        assert np.abs(report.derivative).max() < 1e-9

    def test_zero_delta(self, toy3):
        with pytest.raises(ValueError, match="delta must be nonzero"):
            w.global_price_sensitivity(toy3, "00", group=("XX",), delta=0.0)

    def test_no_error_estimate(self, toy3):
        report = w.global_price_sensitivity(toy3, "00", group=("XX", "YY"))
        assert report.metadata == {"alpha": w.DEFAULT_ALPHA}

    def test_repeated_group_country_rejected(self, toy3):
        with pytest.raises(ValueError, match="duplicate country"):
            w.global_price_sensitivity(toy3, "00", group=("XX", "XX"))

    def test_two_product_toy_matches_extrapolated_brute_force(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("10", "20"))
        m10 = np.array([[0, 50, 20], [30, 0, 10], [5, 15, 0]], dtype=float)
        m20 = np.array([[0, 5, 40], [25, 0, 0], [10, 30, 0]], dtype=float)
        tensor = from_product_matrices(reg, 2016, [m10, m20])

        def brute_balance(dv):
            t = tensor.scaled_product("10", 1 + dv) if dv else tensor
            direct, inverted = w.build_trade_pair(t)
            p = w.pagerank(direct).probabilities.reshape(3, 2).sum(axis=1)
            ps = w.pagerank(inverted).probabilities.reshape(3, 2).sum(axis=1)
            return (ps - p) / (ps + p)

        coarse = (brute_balance(1e-2) - brute_balance(-1e-2)) / 2e-2
        fine = (brute_balance(1e-3) - brute_balance(-1e-3)) / 2e-3
        extrapolated = (100.0 * fine - coarse) / 99.0
        report = w.global_price_sensitivity(tensor, "10", delta=1e-3)
        assert np.abs(report.derivative - extrapolated).max() < 1e-6

    def test_unknown_product(self, toy3):
        with pytest.raises(w.TradeDataError):
            w.global_price_sensitivity(toy3, "99")


# product, exporter, importer, value: a shock where both sensitivity paths, each
# solving PageRank at tol 1e-12, differ by up to 3.2e-10 in dB/ddelta (their
# shocked solves stop one iteration apart)
FD_GAP_ROWS = (
    "00,C0,C3,100 00,C0,C5,1e-06 00,C0,C6,2.5 00,C1,C3,100 00,C1,C4,1 00,C1,C5,1 "
    "00,C2,C0,1 00,C3,C1,1 00,C3,C5,2.5 00,C4,C0,1e+06 00,C4,C1,1 00,C5,C3,1e+06 "
    "00,C6,C0,1 00,C6,C2,2.5 00,C6,C4,1e+06 01,C0,C4,100 01,C0,C5,1 01,C0,C6,2.5 "
    "01,C1,C6,1 01,C2,C6,1e+06 01,C3,C1,1 01,C3,C5,1 01,C3,C6,2.5 01,C4,C3,100 "
    "01,C4,C6,1 01,C5,C0,1 01,C5,C6,1 01,C6,C0,100 01,C6,C1,100 01,C6,C5,1e+06 "
    "02,C0,C4,1e+06 02,C1,C0,2.5 02,C1,C2,100 02,C1,C5,1e+06 02,C2,C0,1e+06 02,C2,C5,1e+06 "
    "02,C3,C1,1 02,C3,C4,2.5 02,C4,C3,1e+06 02,C5,C3,1e+06 02,C6,C1,1e+06 02,C6,C3,1e+06"
)


def fd_gap_case():
    """`small_shocks`' form of the FD_GAP_ROWS tensor (7 countries x 3
    products), shocked at C3:02 as seen by the other six, at alpha = 0.85."""
    reg = w.Registry(countries=tuple(f"C{i}" for i in range(7)), products=("00", "01", "02"))
    flows = np.zeros((3, 7, 7))  # [product, importer, exporter]
    for row in FD_GAP_ROWS.split():
        product, exporter, importer, value = row.split(",")
        flows[int(product), reg.country_index(importer), reg.country_index(exporter)] = float(value)
    tensor = from_product_matrices(reg, 2016, list(flows))
    return tensor, w.ShockSpec("C3", "02", ("C1", "C0", "C2", "C5", "C4", "C6")), 0.85


class TestRandomTensors:
    @settings(max_examples=60, deadline=None)
    @given(small_shocks())
    def test_balances_bounded_and_fd_error_quadratic(self, case):
        tensor, spec, alpha = case
        for method in (
            lambda: w.reduced_balance_sensitivity(tensor, spec, alpha=alpha),
            lambda: w.import_export_sensitivity(tensor, spec),
        ):
            try:
                report = method()
            except (ConvergenceError, TradeDataError, ValueError):
                continue
            assert np.all(np.abs(report.balance) <= 1.0)
            bound = spec.delta**2 * max(1.0, np.abs(report.derivative).max())
            assert report.metadata["fd_error"] <= bound

    @settings(max_examples=60, deadline=None)
    @given(small_shocks())
    def test_reductions_nonnegative_and_stochastic(self, case):
        tensor, spec, alpha = case
        try:
            for reduced in w.reduce_for_shock(tensor, spec, alpha=alpha):
                assert reduced.reduced.min() >= 0.0
                assert np.abs(reduced.reduced.sum(axis=0) - 1.0).max() <= 1e-12
        except (ConvergenceError, TradeDataError, ValueError):
            pass

    @settings(max_examples=60, deadline=None)
    @given(small_shocks())
    @example(fd_gap_case())
    def test_reduced_matches_the_pair_oracle(self, case):
        """One direction at a time, shocked through operators, gives the
        report (or the error) of both reduced matrices held at once and
        shocked as dense copies, up to rounding.

        Both solve at tol 1e-11. Where the two paths' shocked PageRank
        solves stop one iteration apart, the central difference magnifies
        their gap by 1 / (2 delta), past `close_reports`' bound (3.2e-10 on
        the pinned example at tol 1e-12). That happens when a residual lands
        within rounding of tol, so the nearer tol is to the rounding floor,
        the likelier: 0, 3, 6 and 73 of 3 000 examples at 1e-11 to 1e-14."""
        tensor, spec, alpha = case
        outcomes = []
        for method in (w.reduced_balance_sensitivity, reduced_sensitivity_oracle):
            try:
                outcomes.append(method(tensor, spec, alpha=alpha, tol=1e-11))
            except (ConvergenceError, TradeDataError, ValueError) as exc:
                outcomes.append(type(exc))
        first, second = outcomes
        if isinstance(first, type) or isinstance(second, type):
            assert first == second
        else:
            assert close_reports(first, second)


def slow_response_tensor():
    """4 countries x 3 products whose reduced matrix at alpha = 0.85 has a
    slowly decaying response: a stop on the step alone (step < tol) leaves
    an error of 1.3e-12."""
    reg = w.Registry(countries=("C0", "C1", "C2", "C3"), products=("00", "01", "02"))
    flows = [
        [[0, 100, 0, 0], [2.5, 0, 1e6, 0], [0, 0, 0, 1e6], [2.5, 1, 1, 0]],
        [[0, 1e-6, 0, 0], [100, 0, 0, 2.5], [2.5, 0, 0, 0], [100, 1e6, 1e6, 0]],
        [[0, 0, 0, 100], [1e-6, 0, 0, 0], [100, 0, 0, 1e6], [1e-6, 0, 1e-6, 0]],
    ]
    return from_product_matrices(reg, 2016, [np.array(m, float) for m in flows])


def response_errors(tensor, spec, alpha, max_iter=10000):
    """The report of `reduced_balance_sensitivity` and, for each linear
    response it took, the max distance from the dense solve."""
    errors = []
    iterative = w.sensitivity._linear_response

    def both(matrix, p, rhs, tol, max_iter):
        dp = iterative(matrix, p, rhs, tol, max_iter)
        errors.append(float(np.abs(dp - linear_response_oracle(matrix, p, rhs)).max()))
        return dp

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(w.sensitivity, "_linear_response", both)
        report = w.reduced_balance_sensitivity(tensor, spec, alpha=alpha, max_iter=max_iter)
    return report, errors


class TestLinearResponse:
    @pytest.mark.parametrize(
        "tensor, spec, alpha",
        [
            (make_toy3(), w.ShockSpec("AA", "00", ("XX",)), 0.5),
            (make_toy3(), w.ShockSpec("AA", "00", ("XX",)), 0.99),
            (make_toy3(500.0, 1000.0, 300.0, 100.0), w.ShockSpec("AA", "00", ("XX",)), 0.99),
            (w.synth_tensor(3, 20, 15, 0.1), w.ShockSpec("AS", "02", ("AA", "AB", "AC")), 0.5),
            (w.synth_tensor(3, 20, 15, 0.1), w.ShockSpec("AS", "02", ("AA", "AB", "AC")), 0.85),
            (w.synth_tensor(5, 12, 25, 0.25), w.ShockSpec("AK", "01", ("AA", "AB")), 0.85),
            (slow_response_tensor(), w.ShockSpec("C3", "00", ("C0", "C1", "C2")), 0.85),
        ],
        ids=[
            "toy3-0.5", "toy3-0.99", "toy3-richer-0.99", "20x15-0.5", "20x15-0.85",
            "12x25-0.85", "slow-4x3-0.85",
        ],
    )
    def test_iteration_matches_dense_solve(self, tensor, spec, alpha):
        _, errors = response_errors(tensor, spec, alpha, max_iter=50000)
        assert len(errors) == 2 and max(errors) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(small_shocks())
    def test_iteration_matches_dense_solve_on_random_tensors(self, case):
        tensor, spec, alpha = case
        try:
            _, errors = response_errors(tensor, spec, alpha)
        except (ConvergenceError, TradeDataError, ValueError):
            return
        assert len(errors) in (0, 2) and max(errors, default=0.0) <= 1e-12

    def test_probe_keeps_a_zero_rhs_from_passing(self):
        """rhs == 0 converges at once; the probe column does not when the
        stationary vector is not unique, so the iteration refuses."""
        identity = np.eye(3)
        p = np.full(3, 1.0 / 3.0)
        with pytest.raises(ConvergenceError):
            w.sensitivity._linear_response(identity, p, np.zeros(3), 1e-12, 100)
        cycle_free = np.full((3, 3), 1.0 / 3.0)
        dp = w.sensitivity._linear_response(cycle_free, p, np.zeros(3), 1e-12, 100)
        assert not dp.any()


class TestReport:
    def test_csv_schema(self, tmp_path, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.import_export_sensitivity(toy3, spec)
        path = tmp_path / "report.csv"
        write_report(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "country,balance,dB_ddelta,method,source,delta"
        fields = lines[1].split(",")
        assert fields[0] == "XX"
        assert fields[3] == "import-export"
        assert fields[4] == "AA:00"
        assert float(fields[5]) == spec.delta

    def test_report_validation(self):
        with pytest.raises(ValueError):
            w.SensitivityReport(
                method="regomax",
                source="AA:00",
                delta=1e-3,
                countries=("XX",),
                balance=np.array([2.0]),
                derivative=np.array([0.0]),
                import_probability=np.array([0.5]),
                export_probability=np.array([0.5]),
            )


class TestCloseReports:
    @staticmethod
    def report(fd_error):
        return w.SensitivityReport(
            "regomax", "AA:00", 1e-3, ("XX",), np.array([0.1]), np.array([0.2]),
            np.array([0.3]), np.array([0.4]), {"fd_error": fd_error},
        )

    def test_two_infinite_fd_errors_are_equal(self):
        assert close_reports(self.report(np.inf), self.report(np.inf))

    @pytest.mark.parametrize("first, second", [(np.inf, 1.0), (1.0, np.inf), (np.inf, -np.inf)])
    def test_infinite_and_other_fd_error_differ(self, first, second):
        assert not close_reports(self.report(first), self.report(second))

    def test_fd_errors_within_the_bound_are_near(self):
        assert close_reports(self.report(1.0), self.report(1.0 + 1e-10))
        assert not close_reports(self.report(1.0), self.report(1.0 + 1e-8))
