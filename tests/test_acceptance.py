"""Acceptance suite. Each criterion is one test printing a PASS/FAIL line;
run with `pytest tests/test_acceptance.py -v -s` for the full report.

The real-data criterion runs only when WTNRANK_COMTRADE_2016 points to a
2016 extract in the input CSV format (optionally WTNRANK_COMTRADE_REGISTRY
to a registry file fixing the node order).
"""
import filecmp
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wtnrank as w
from wtnrank.cli import main as cli_main

from conftest import (
    apply_direct_shock,
    apply_inverted_shock,
    brute_force_derivative,
    column,
    column_sums,
    dense_pagerank_oracle,
    make_toy3,
    product_slice,
    reduce_dense_oracle,
)

FIXTURE = Path(__file__).parent / "data" / "fixture_small.csv"


def report(number: int, name: str, ok: bool = True) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}", file=sys.stderr, flush=True)


def criterion(number, name):
    """Print the pass/fail line even when an assertion fires."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            report(number, name, ok=exc_type is None)
            return False

    return _Reporter()


# ---------------------------------------------------------------- criterion 1

STOCHASTICITY_TENSORS = [
    # (seed, countries, products, density); largest is N = 50 * 40 = 2000
    (1, 2, 1, 1.0), (2, 3, 2, 1.0), (3, 4, 1, 0.8), (4, 5, 3, 0.5),
    (5, 6, 2, 0.6), (6, 8, 4, 0.4), (7, 10, 5, 0.3), (8, 12, 6, 0.3),
    (9, 15, 8, 0.25), (10, 16, 10, 0.2), (11, 20, 10, 0.2), (12, 20, 15, 0.15),
    (13, 25, 12, 0.15), (14, 25, 20, 0.1), (15, 30, 20, 0.1), (16, 32, 25, 0.1),
    (17, 36, 30, 0.08), (18, 40, 35, 0.06), (19, 45, 40, 0.05), (20, 50, 40, 0.05),
]


def test_c1_stochasticity_suite():
    with criterion(1, "stochasticity-suite"):
        started = time.monotonic()
        for seed, n_c, n_p, density in STOCHASTICITY_TENSORS:
            tensor = w.synth_tensor(seed, n_c, n_p, density)
            reg = tensor.registry
            assert reg.size <= 2000
            s = w.build_stochastic(tensor, "direct")
            s_star = w.build_stochastic(tensor, "inverted")
            assert np.abs(column_sums(s) - 1.0).max() < 1e-12
            assert np.abs(column_sums(s_star) - 1.0).max() < 1e-12

            direct, inverted = w.build_trade_pair(tensor)
            g_sums = np.array([column(direct, j).sum() for j in range(direct.size)])
            assert np.abs(g_sums - 1.0).max() < 1e-12

            group = reg.countries[: min(3, reg.n_countries - 1)]
            source = reg.countries[-1]
            spec = w.ShockSpec(source, reg.products[0], group)
            sel = w.Selection.for_countries(
                reg, group, extra_nodes=(reg.node_id(source, reg.products[0]),)
            )
            reduced_direct = w.reduce(direct, sel)
            reduced_inverted = w.reduce(inverted, sel)
            for reduced in (reduced_direct, reduced_inverted):
                assert np.abs(reduced.reduced.sum(axis=0) - 1.0).max() < 1e-10

            source_pos = sel.n_selected - 1
            group_pos = np.arange(sel.n_selected - 1)
            shocked_d = apply_direct_shock(reduced_direct.reduced, source_pos, group_pos, spec.delta)
            shocked_i = apply_inverted_shock(
                reduced_inverted.reduced, source_pos, group_pos, spec.delta
            )
            assert np.abs(shocked_d.sum(axis=0) - 1.0).max() < 1e-10
            assert np.abs(shocked_i.sum(axis=0) - 1.0).max() < 1e-10
            # the renormalized columns themselves are tighter
            assert abs(shocked_d[:, source_pos].sum() - 1.0) < 1e-12
            assert np.abs(shocked_i[:, group_pos].sum(axis=0) - 1.0).max() < 1e-12
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"stochasticity suite took {elapsed:.1f}s"


# ---------------------------------------------------------------- criterion 2

PAGERANK_INSTANCES = [
    (1, 3, 2, 1.0), (2, 4, 3, 0.8), (3, 5, 2, 0.7), (4, 6, 4, 0.5),
    (5, 7, 7, 0.4), (6, 8, 6, 0.4), (7, 10, 5, 0.3), (8, 12, 4, 0.3),
    (9, 9, 5, 0.5), (10, 10, 4, 0.6),
]


def test_c2_pagerank_dense_eigensolver_oracle():
    with criterion(2, "pagerank-oracle"):
        for seed, n_c, n_p, density in PAGERANK_INSTANCES:
            tensor = w.synth_tensor(seed, n_c, n_p, density)
            direct, inverted = w.build_trade_pair(tensor)
            assert direct.size <= 50
            for matrix in (direct, inverted):
                expected = dense_pagerank_oracle(matrix.to_dense())
                got = w.pagerank(matrix).probabilities
                assert np.abs(got - expected).sum() < 1e-8


# ---------------------------------------------------------- criteria 3, 4, 7

REDUCE_INSTANCES = [
    (1, 10, 10, 0.30, 12), (2, 15, 20, 0.20, 20), (3, 20, 15, 0.10, 16),
    (4, 12, 25, 0.25, 10), (5, 25, 12, 0.15, 18), (6, 10, 30, 0.20, 14),
    (7, 30, 10, 0.10, 20), (8, 16, 16, 0.30, 8), (9, 14, 20, 0.25, 15),
    (10, 20, 15, 0.35, 12),
]


@pytest.fixture(scope="module")
def reduced_instances():
    out = []
    for seed, n_c, n_p, density, n_r in REDUCE_INSTANCES:
        tensor = w.synth_tensor(seed, n_c, n_p, density)
        direct, _ = w.build_trade_pair(tensor)
        assert direct.size <= 300 and n_r <= 20
        step = max(1, direct.size // n_r)
        sel = w.Selection(node_ids=tuple(range(0, direct.size, step))[:n_r], total=direct.size)
        out.append((direct, sel, w.reduce(direct, sel)))
    return out


def test_c3_regomax_oracle_equivalence(reduced_instances):
    with criterion(3, "regomax-oracle-equivalence"):
        for matrix, sel, reduced in reduced_instances:
            oracle = reduce_dense_oracle(matrix, sel)
            assert np.abs(reduced.reduced - oracle).max() < 1e-10
            recomposed = reduced.direct_part + reduced.projector_part + reduced.indirect_part
            assert np.abs(recomposed - reduced.reduced).max() < 1e-10


def test_c4_rank_consistency(reduced_instances):
    with criterion(4, "rank-consistency"):
        for matrix, sel, reduced in reduced_instances:
            global_rank = w.pagerank(matrix, tol=1e-13).probabilities[list(sel.node_ids)]
            global_rank = global_rank / global_rank.sum()
            local_rank = w.pagerank(reduced.reduced, tol=1e-13).probabilities
            assert np.abs(global_rank - local_rank).sum() < 1e-8


def test_c7_weight_identities(reduced_instances):
    with criterion(7, "weight-identities"):
        for _, _, reduced in reduced_instances:
            weights = reduced.weights
            assert abs(weights["reduced"] - 1.0) < 1e-10
            total = weights["direct"] + weights["projector"] + weights["indirect"]
            assert abs(total - 1.0) < 1e-10


# ---------------------------------------------------------------- criterion 5

def test_c5_trivial_selection_identity():
    with criterion(5, "trivial-selection-identity"):
        tensor = w.synth_tensor(6, 6, 3, 0.5)
        direct, inverted = w.build_trade_pair(tensor)
        for matrix in (direct, inverted):
            sel = w.Selection(node_ids=tuple(range(matrix.size)), total=matrix.size)
            reduced = w.reduce(matrix, sel)
            assert np.abs(reduced.reduced - matrix.to_dense()).max() < 1e-13
            assert not reduced.projector_part.any()
            assert not reduced.indirect_part.any()


# ---------------------------------------------------------------- criterion 6

def test_c6_sensitivity_convergence_and_brute_force():
    with criterion(6, "sensitivity-convergence"):
        # 3-country toy at weak damping: teleportation is negligible, so the
        # tensor-level oracle and the reduced-matrix shock measure the same
        # effect (see notes on the alpha=0.5 structural gap in the module
        # tests). X imports only from the source and exports nothing.
        toy = make_toy3(a=200.0, b=300.0, c=300.0, yx=0.0)
        alpha = 0.99
        spec = w.ShockSpec("AA", "00", ("XX",), delta=1e-3)
        rep = w.reduced_balance_sensitivity(toy, spec, alpha=alpha, max_iter=50000)
        derivative = rep.derivative[0]
        # the central difference is within 1% of the exact derivative
        assert rep.metadata["fd_error"] / abs(derivative) < 0.01
        # the pure importer suffers from the price increase
        assert derivative < 0
        brute = brute_force_derivative(toy, spec, alpha)[0]
        assert np.sign(brute) == np.sign(derivative)
        assert abs(derivative - brute) / abs(brute) < 0.05


# the c3 sizes with a 3-country group, then the benchmark's shock-mid shape:
# 100 countries x 61 products and a 12-country group, 733 reduced nodes
FD_BOUND_INSTANCES = [
    (seed, n_c, n_p, density, 3) for seed, n_c, n_p, density, _ in REDUCE_INSTANCES
] + [(41, 100, 61, 0.25, 12)]


@pytest.mark.parametrize("seed, n_c, n_p, density, n_group", FD_BOUND_INSTANCES)
def test_c6_fd_error_within_quadratic_bound(seed, n_c, n_p, density, n_group):
    """|FD - exact| <= delta^2 max(1, max|dB/ddelta|) for both node-shock
    methods, with the source at the second-to-last country's second product."""
    tensor = w.synth_tensor(seed, n_c, n_p, density)
    reg = tensor.registry
    spec = w.ShockSpec(reg.countries[-2], reg.products[1], reg.countries[:n_group])
    reports = (w.reduced_balance_sensitivity(tensor, spec), w.import_export_sensitivity(tensor, spec))
    for rep in reports:
        bound = spec.delta**2 * max(1.0, np.abs(rep.derivative).max())
        assert rep.metadata["fd_error"] <= bound, rep.method


# ---------------------------------------------------------------- criterion 8

def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def test_c8_cli_determinism(tmp_path):
    with criterion(8, "cli-determinism"):
        fixture = FIXTURE
        runs = {
            "synth": lambda out: run_cli(
                "synth", "--seed", 5, "--n-countries", 4, "--n-products", 2,
                "--density", 0.7, "--out", out / "tensor.csv",
            ),
            "rank": lambda out: run_cli("rank", "--input", fixture, "--out-dir", out),
            "reduce": lambda out: run_cli(
                "reduce", "--input", fixture, "--group", "AA,AB",
                "--source-country", "AC", "--source-product", "01", "--out-dir", out,
            ),
            "sensitivity": lambda out: run_cli(
                "sensitivity", "--input", fixture, "--group", "AA,AB",
                "--source-country", "AC", "--source-product", "01",
                "--methods", "regomax,import-export,global-price", "--out-dir", out,
            ),
            "network": lambda out: run_cli(
                "network", "--input", fixture, "--group", "AA,AB",
                "--source-country", "AC", "--source-product", "01",
                "--k", 2, "--out-dir", out,
            ),
        }
        for name, invoke in runs.items():
            first = tmp_path / f"{name}_1"
            second = tmp_path / f"{name}_2"
            first.mkdir()
            second.mkdir()
            assert invoke(first) == 0, name
            assert invoke(second) == 0, name
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
            assert not mismatch and not errors, (name, mismatch, errors)
            assert match, name


# ---------------------------------------------------- criterion 9 (real data)

REAL_DATA = os.environ.get("WTNRANK_COMTRADE_2016")
REAL_REGISTRY = os.environ.get("WTNRANK_COMTRADE_REGISTRY")

# The 27 EU member states as of 2008 (ISO 3166-1 alpha-2).
EU27_2008 = (
    "AT", "BE", "BG", "CY", "CZ", "DE", "DK", "EE", "ES", "FI",
    "FR", "GB", "GR", "HU", "IE", "IT", "LT", "LU", "LV", "MT",
    "NL", "PL", "PT", "RO", "SE", "SI", "SK",
)

PETROLEUM_TOP10 = {
    "pagerank": ["US", "SG", "NL", "IN", "FR", "DE", "ES", "GB", "IT", "BE"],
    "cheirank": ["RU", "US", "AE", "IN", "SG", "SA", "NL", "BE", "GR", "NG"],
    "importrank": ["US", "NL", "IN", "SG", "DE", "IT", "FR", "GB", "BE", "ES"],
    "exportrank": ["RU", "SA", "US", "AE", "NL", "CA", "IQ", "SG", "KW", "NG"],
}
PETROLEUM_TABLE_COUNTRIES = set(EU27_2008) | {
    "US", "RU", "AE", "IN", "SG", "SA", "NG", "CA", "IQ", "KW"
}

GAS_TOP10 = {
    "pagerank": ["NL", "BE", "FR", "IT", "GB", "ES", "HU", "US", "DE", "PT"],
    "cheirank": ["US", "CA", "RU", "QA", "NO", "AU", "NL", "GB", "DZ", "AE"],
    "importrank": ["FR", "IT", "GB", "US", "DE", "BE", "ES", "NL", "AE", "CA"],
    "exportrank": ["QA", "NO", "RU", "US", "AU", "DZ", "MY", "BE", "CA", "AE"],
}
GAS_TABLE_COUNTRIES = set(EU27_2008) | {
    "QA", "NO", "RU", "US", "AU", "DZ", "MY", "CA", "AE", "ID"
}

PETROLEUM_WEIGHTS = {"projector": 0.651568, "direct": 0.30849, "indirect": 0.039942,
                     "indirect_offdiag": 0.036512}
PETROLEUM_WEIGHTS_INVERTED = {"projector": 0.6051, "direct": 0.34379, "indirect": 0.05111,
                              "indirect_offdiag": 0.047}


def _table_ordering(probabilities, registry, product, table_countries):
    slice_ = product_slice(probabilities, registry, product)
    rows = [
        (c, slice_[i]) for i, c in enumerate(registry.countries) if c in table_countries
    ]
    rows.sort(key=lambda t: -t[1])  # stable: ties keep registry order
    return [c for c, _ in rows]


@pytest.mark.skipif(REAL_DATA is None, reason="set WTNRANK_COMTRADE_2016 to run")
def test_c9_real_data_reproduction():
    with criterion(9, "real-data-reproduction"):
        started = time.monotonic()
        registry = w.load_registry(REAL_REGISTRY) if REAL_REGISTRY else None
        tensor = w.load_money_tensor(REAL_DATA, 2016, registry=registry)
        reg = tensor.registry
        assert reg.size == 13847, f"expected 227x61 nodes, got {reg.size}"

        direct, inverted = w.build_trade_pair(tensor)
        p = w.pagerank(direct).probabilities
        p_star = w.pagerank(inverted).probabilities
        vol = tensor.volumes

        for product, expected, countries in (
            ("33", PETROLEUM_TOP10, PETROLEUM_TABLE_COUNTRIES),
            ("34", GAS_TOP10, GAS_TABLE_COUNTRIES),
        ):
            by_method = {
                "pagerank": p,
                "cheirank": p_star,
                "importrank": (vol.import_vol / vol.total).ravel(),
                "exportrank": (vol.export_vol / vol.total).ravel(),
            }
            for method, probs in by_method.items():
                ordering = _table_ordering(probs, reg, product, countries)
                assert ordering[:10] == expected[method], (product, method)

        # petroleum reduction weights (27 EU x {33} + RU:33)
        sel = w.Selection.for_countries(
            reg, EU27_2008, products=("33",), extra_nodes=(reg.node_id("RU", "33"),)
        )
        reduced_direct = w.reduce(direct, sel)
        reduced_inverted = w.reduce(inverted, sel)
        for got, expected in (
            (reduced_direct.weights, PETROLEUM_WEIGHTS),
            (reduced_inverted.weights, PETROLEUM_WEIGHTS_INVERTED),
        ):
            for name, value in expected.items():
                assert abs(got[name] - value) < 1e-3, (name, got[name], value)

        # full-scale sensitivity to the RU petroleum node: N_r = 27*61 + 1
        spec = w.ShockSpec("RU", "33", EU27_2008)
        report_ru = w.reduced_balance_sensitivity(tensor, spec)
        assert report_ru.countries == EU27_2008
        for country in ("NL", "IT", "GR"):
            idx = EU27_2008.index(country)
            assert report_ru.derivative[idx] < 0, country

        elapsed = time.monotonic() - started
        assert elapsed < 1800.0, f"full-scale run took {elapsed:.0f}s"
