import numpy as np
import pytest

import wtnrank as w
from wtnrank.sensitivity import (
    apply_direct_shock,
    apply_inverted_shock,
    write_report,
)

from conftest import (
    brute_force_derivative,
    build_shock_matrices,
    live_reduced_sets,
    make_toy3,
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

    def test_rejects_delta_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            apply_direct_shock(self.MATRIX, 2, np.array([0, 1]), -1.0)
        with pytest.raises(ValueError):
            apply_inverted_shock(self.MATRIX, 2, np.array([0, 1]), -1.5)


class TestBuildShockMatrices:
    def test_zero_delta_bit_exact(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        pair = w.reduce_for_shock(toy3, spec)
        direct, inverted = w.shock_pair(pair, 0.0)
        assert np.array_equal(direct, pair.direct)
        assert np.array_equal(inverted, pair.inverted)

    def test_shocked_columns_stochastic(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        direct, inverted = build_shock_matrices(toy3, spec, 1e-3)
        assert np.abs(direct.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(inverted.sum(axis=0) - 1.0).max() < 1e-12

    def test_signature_equivalence(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        pair = w.reduce_for_shock(toy3, spec)
        via_pair = w.shock_pair(pair, 2e-3)
        direct, inverted = build_shock_matrices(toy3, spec, 2e-3)
        assert np.array_equal(via_pair[0], direct)
        assert np.array_equal(via_pair[1], inverted)


class TestReducedSensitivity:
    def test_no_reduced_set_alive_in_the_difference_loop(self, toy3, monkeypatch):
        """Each reduction's `ReducedSet` is freed before the next reduction
        runs, and only its reduced matrix, eigenvalue and weights are kept
        for the shocked PageRank solves."""
        spec = w.ShockSpec("AA", "00", ("XX",))
        counts = {"reduce": [], "pagerank": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name].append(live_reduced_sets())
                return fn(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(w.sensitivity, name, counting(name, getattr(w.sensitivity, name)))
        report = w.reduced_balance_sensitivity(toy3, spec)
        assert counts["reduce"] == [0, 0]
        assert len(counts["pagerank"]) == 10 and set(counts["pagerank"]) == {0}
        sel = w.Selection.for_countries(
            toy3.registry, spec.group, extra_nodes=(toy3.registry.node_id("AA", "00"),)
        )
        for tag, matrix in zip(("direct", "inverted"), w.build_trade_pair(toy3)):
            result = w.reduce(matrix, sel)
            assert report.metadata[f"complement_eigenvalue_{tag}"] == result.complement_eigenvalue
            assert report.metadata[f"weights_{tag}"] == result.weights

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

    def test_richardson_quadratic_decay(self, toy3):
        errors = []
        for delta in (1e-2, 5e-3, 2.5e-3):
            spec = w.ShockSpec("AA", "00", ("XX",), delta=delta)
            report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.99, max_iter=50000)
            errors.append(report.metadata["richardson_error"])
        # halving delta divides the central-difference error by ~4
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_half_step_within_one_percent(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec, alpha=0.99, max_iter=50000)
        rel = report.metadata["richardson_error"] / abs(report.derivative[0])
        assert rel < 0.01

    def test_richer_toy_against_brute_force(self):
        toy = make_toy3(a=500.0, b=1000.0, c=300.0, yx=100.0)
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy, spec, alpha=0.99, max_iter=50000)
        brute = brute_force_derivative(toy, spec, 0.99)
        assert np.sign(report.derivative[0]) == np.sign(brute[0])
        assert abs(report.derivative[0] - brute[0]) / abs(brute[0]) < 0.05

    def test_baseline_reproducible_from_marginals(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.reduced_balance_sensitivity(toy3, spec)
        rebuilt = w.balance(report.export_probability, report.import_probability)
        np.testing.assert_allclose(rebuilt, report.balance, atol=1e-15)


class TestImportExportSensitivity:
    def test_zero_delta_zero_derivative(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.import_export_sensitivity(toy3, spec, delta=0.0)
        assert np.array_equal(report.derivative, np.zeros(1))

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
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [m])
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

    def test_method_tag(self, toy3):
        spec = w.ShockSpec("AA", "00", ("XX",))
        report = w.import_export_sensitivity(toy3, spec)
        assert report.method == "import-export"


class TestGlobalPriceSensitivity:
    def test_single_product_derivative_vanishes(self, toy3):
        report = w.global_price_sensitivity(toy3, "00", group=("XX", "YY"))
        assert np.abs(report.derivative).max() < 1e-9

    def test_zero_delta(self, toy3):
        report = w.global_price_sensitivity(toy3, "00", group=("XX",), delta=0.0)
        assert np.array_equal(report.derivative, np.zeros(1))

    def test_two_product_toy_matches_extrapolated_brute_force(self):
        reg = w.Registry(countries=("AA", "BB", "CC"), products=("10", "20"))
        m10 = np.array([[0, 50, 20], [30, 0, 10], [5, 15, 0]], dtype=float)
        m20 = np.array([[0, 5, 40], [25, 0, 0], [10, 30, 0]], dtype=float)
        tensor = w.MoneyTensor.from_product_matrices(reg, 2016, [m10, m20])

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
