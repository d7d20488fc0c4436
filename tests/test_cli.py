import csv
import filecmp
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wtnrank as w
from wtnrank.cli import main

from conftest import live_reduced_sets

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_small.csv"
GOLDEN_RANK = DATA / "golden_rank"
SHOCK = ("--input", FIXTURE, "--group", "AA,AB", "--source-country", "AC", "--source-product", "01")


def run(*argv):
    return main([str(a) for a in argv])


def run_python(*args) -> subprocess.CompletedProcess:
    """Run the interpreter in a fresh process that imports this wtnrank."""
    src = str(Path(w.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestExitCodes:
    def test_missing_input_names_path(self, tmp_path, caplog):
        rc = run("rank", "--input", tmp_path / "absent.csv", "--out-dir", tmp_path)
        assert rc == 2
        assert any("absent.csv" in r.message for r in caplog.records)

    def test_zero_delta_rejected(self, tmp_path):
        rc = run(
            "sensitivity", "--input", FIXTURE, "--delta", "0",
            "--group", "AA", "--source-country", "AC", "--source-product", "01",
            "--out-dir", tmp_path,
        )
        assert rc == 2

    def test_negative_delta_accepted_for_global_price_alone(self, tmp_path):
        rc = run(
            "sensitivity", *SHOCK, "--methods", "global-price", "--delta", "-0.5",
            "--out-dir", tmp_path,
        )
        assert rc == 0
        assert (tmp_path / "sensitivity_global_price.csv").exists()

    def test_bad_alpha_rejected(self, tmp_path):
        rc = run("rank", "--input", FIXTURE, "--alpha", "1.5", "--out-dir", tmp_path)
        assert rc == 2

    def test_unknown_method(self, tmp_path):
        rc = run(
            "sensitivity", "--input", FIXTURE, "--methods", "voodoo",
            "--group", "AA", "--source-country", "AC", "--source-product", "01",
            "--out-dir", tmp_path,
        )
        assert rc == 2

    def test_success_is_zero(self, tmp_path):
        assert run("rank", "--input", FIXTURE, "--out-dir", tmp_path) == 0

    @pytest.mark.parametrize("argv, config, bad", [
        (("sensitivity", *SHOCK, "--methods", "regomax,voodoo"), "", "'voodoo'"),
        (("sensitivity", *SHOCK), "methods = regomax,voodoo", "'voodoo'"),
        (("network", *SHOCK, "--k", 1, "--format", "xml"), "", "'xml'"),
        (("network", *SHOCK, "--k", 1), "fmt = xml", "'xml'"),
        (("sensitivity", *SHOCK, "--methods", ""), "", "methods must name at least one"),
        (("sensitivity", *SHOCK), "methods =", "methods must name at least one"),
        (("sensitivity", *SHOCK, "--delta", "1.5"), "", "delta must be in (0, 1)"),
        (("sensitivity", *SHOCK), "delta = 1.5", "delta must be in (0, 1)"),
        (("sensitivity", *SHOCK, "--methods", "regomax", "--delta", "-0.5"), "",
         "delta must be in (0, 1)"),
        (("sensitivity", *SHOCK, "--methods", "global-price", "--delta", "-1.5"), "",
         "delta must be in (-1, 1)"),
        (("sensitivity", *SHOCK, "--methods", "global-price"), "delta = 1",
         "delta must be in (-1, 1)"),
    ], ids=[
        "methods-flag", "methods-config", "format-flag", "format-config",
        "empty-methods-flag", "empty-methods-config", "delta-flag", "delta-config",
        "negative-delta-regomax", "delta-global-price-flag", "delta-global-price-config",
    ])
    def test_bad_choice_exits_2_before_any_work(
        self, tmp_path, caplog, monkeypatch, argv, config, bad
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("input read before the options were checked")

        monkeypatch.setattr(w.ingest, "load_money_tensor", unreachable)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run(*argv, "--config", cfg, "--out-dir", out) == 2
        assert list(out.iterdir()) == []
        assert any(bad in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("argv", [
        ("sensitivity", *SHOCK, "--products", "01"),
        ("synth", "--alpha", "0.9"),
    ], ids=["sensitivity-products", "synth-alpha"])
    def test_flag_the_command_does_not_read_is_rejected(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out-dir", tmp_path)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, config", [
        (("--input", FIXTURE, "--year", "abc"), ""),
        ((), f"input = {FIXTURE}\nyear = abc"),
    ], ids=["flag", "config"])
    def test_unconvertible_value_names_option_and_value(self, tmp_path, caplog, flags, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        assert run("rank", *flags, "--config", cfg, "--out-dir", tmp_path / "out") == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and "year" in errors[0] and "'abc'" in errors[0]


class TestSynth:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run("synth", "--seed", 9, "--n-countries", 4, "--n-products", 2,
                 "--density", 0.8, "--out", out)
        assert rc == 0
        tensor = w.load_money_tensor(out, 2016)
        expected = w.synth_tensor(9, 4, 2, 0.8)
        assert tensor.same_trade(expected)

    def test_registry_output(self, tmp_path):
        out = tmp_path / "t.csv"
        reg_path = tmp_path / "registry.txt"
        rc = run("synth", "--seed", 1, "--n-countries", 3, "--n-products", 2,
                 "--density", 1.0, "--out", out, "--registry", reg_path)
        assert rc == 0
        reg = w.load_registry(reg_path)
        assert reg.countries == ("AA", "AB", "AC")


class TestRankGolden:
    def test_matches_golden_files(self, tmp_path):
        rc = run("rank", "--input", FIXTURE, "--out-dir", tmp_path)
        assert rc == 0
        golden = sorted(p.name for p in GOLDEN_RANK.iterdir())
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == golden
        for name in golden:
            assert (tmp_path / name).read_bytes() == (GOLDEN_RANK / name).read_bytes(), name

    def test_golden_importrank_against_independent_sum(self):
        # recompute one probability from the raw fixture with the csv module
        by_node = {}
        total = 0.0
        with open(FIXTURE, encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                value = float(row["value_usd"])
                total += value
                key = (row["importer"], row["product"])
                by_node[key] = by_node.get(key, 0.0) + value
        with open(GOLDEN_RANK / "importrank_nodes.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["country"] == "AC" and rows[0]["product"] == "00"
        expected = by_node[("AC", "00")] / total
        assert float(rows[0]["probability"]) == pytest.approx(expected, rel=1e-12)

    def test_golden_pagerank_against_eigensolver(self):
        from conftest import dense_pagerank_oracle

        tensor = w.load_money_tensor(FIXTURE, 2016)
        direct, _ = w.build_trade_pair(tensor)
        oracle = dense_pagerank_oracle(direct.to_dense())
        with open(GOLDEN_RANK / "pagerank_nodes.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["probability"]) == pytest.approx(
                oracle[int(row["node"])], abs=1e-10
            )


class TestReduce:
    def test_trivial_selection_equals_dense(self, tmp_path):
        rc = run("reduce", "--input", FIXTURE, "--products", "all", "--out-dir", tmp_path)
        assert rc == 0
        tensor = w.load_money_tensor(FIXTURE, 2016)
        direct, inverted = w.build_trade_pair(tensor)
        for tag, matrix in (("import", direct), ("export", inverted)):
            lines = (tmp_path / f"{tag}_reduced_full.csv").read_text().splitlines()
            parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert np.abs(parsed - matrix.to_dense()).max() < 1e-13
            projector = (tmp_path / f"{tag}_projector.csv").read_text().splitlines()[1:]
            assert all(float(x) == 0.0 for line in projector for x in line.split(","))

    def test_complement_blocks_in_diagnostics_and_log(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="wtnrank"):
            assert run("reduce", "--input", FIXTURE, "--group", "AA,AB", "--out-dir", tmp_path) == 0
        tensor = w.load_money_tensor(FIXTURE, 2016)
        sel = w.Selection.for_countries(tensor.registry, ("AA", "AB"))
        for tag, matrix in zip(("import", "export"), w.build_trade_pair(tensor)):
            blocks = w.reduce(matrix, sel).complement_blocks
            assert blocks >= 1
            text = (tmp_path / f"{tag}_diagnostics.txt").read_text()
            assert f"complement_blocks {blocks}\n" in text
            assert any(
                r.getMessage().startswith(f"{tag} reduction")
                and f"over {blocks} complement block(s)" in r.getMessage()
                for r in caplog.records
            )

    def test_selection_over_dense_cap_exits_2(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", 1024)
        rc = run("reduce", "--input", FIXTURE, "--products", "all", "--out-dir", tmp_path)
        assert rc == 2
        assert any("MiB cap" in r.message for r in caplog.records)
        assert list(tmp_path.iterdir()) == []

    def test_products_all_widens_source_selection(self, tmp_path):
        rc = run(
            "reduce", "--input", FIXTURE, "--group", "AA,AB", "--source-country", "AC",
            "--source-product", "01", "--products", "all", "--out-dir", tmp_path,
        )
        assert rc == 0
        header = (tmp_path / "import_reduced_full.csv").read_text().splitlines()[0]
        reg = w.load_money_tensor(FIXTURE, 2016).registry
        expected = [f"{c}:{p}" for c in ("AA", "AB") for p in reg.products] + ["AC:01"]
        assert header.split(",") == expected

    def test_weights_sum_to_one(self, tmp_path):
        rc = run(
            "reduce", "--input", FIXTURE, "--group", "AA,AB",
            "--source-country", "AC", "--source-product", "01", "--out-dir", tmp_path,
        )
        assert rc == 0
        text = (tmp_path / "import_diagnostics.txt").read_text()
        values = dict(line.split(" ", 1) for line in text.splitlines())
        total = (
            float(values["weight_direct"])
            + float(values["weight_projector"])
            + float(values["weight_indirect"])
        )
        assert abs(total - 1.0) < 1e-10
        assert abs(float(values["weight_reduced"]) - 1.0) < 1e-10

    def test_source_selection_has_source_node_last(self, tmp_path):
        rc = run(
            "reduce", "--input", FIXTURE, "--group", "AA,AB",
            "--source-country", "AC", "--source-product", "01", "--out-dir", tmp_path,
        )
        assert rc == 0
        header = (tmp_path / "import_reduced_full.csv").read_text().splitlines()[0]
        assert header == "AA:01,AB:01,AC:01"

    def test_removed_series_flags_warn_and_do_nothing(self, tmp_path, caplog, capsys):
        args = ("reduce", "--input", FIXTURE, "--group", "AA,AB",
                "--source-country", "AC", "--source-product", "01")
        assert run(*args, "--out-dir", tmp_path / "plain") == 0
        with caplog.at_level(logging.WARNING, logger="wtnrank"):
            rc = run(*args, "--max-terms", 2, "--out-dir", tmp_path / "old")
        assert rc == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "--max-terms is deprecated and has no effect: the reduction is an exact solve"
        ]
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        _, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "plain", tmp_path / "old", names, shallow=False
        )
        assert not mismatch and not errors
        with pytest.raises(SystemExit):
            run("reduce", "--help")
        help_text = capsys.readouterr().out
        assert "--max-terms" not in help_text and "--series-tol" not in help_text


@pytest.mark.parametrize("command, extra", [("reduce", ()), ("network", ("--k", 2))])
def test_one_direction_reduced_at_a_time(tmp_path, monkeypatch, command, extra):
    """The import direction's `ReducedSet` is gone before the export
    direction's reduction starts."""
    reduce = w.regomax.reduce
    seen = []

    def counting(*args, **kwargs):
        seen.append(live_reduced_sets())
        return reduce(*args, **kwargs)

    monkeypatch.setattr(w.regomax, "reduce", counting)
    assert run(command, *SHOCK, *extra, "--out-dir", tmp_path) == 0
    assert seen == [0, 0]


class TestSensitivityCommand:
    def test_reports_match_module(self, tmp_path):
        rc = run(
            "sensitivity", "--input", FIXTURE, "--group", "AA,AB",
            "--source-country", "AC", "--source-product", "01", "--out-dir", tmp_path,
            "--methods", "regomax,import-export,global-price",
        )
        assert rc == 0
        tensor = w.load_money_tensor(FIXTURE, 2016)
        spec = w.ShockSpec("AC", "01", ("AA", "AB"))
        expected = w.reduced_balance_sensitivity(tensor, spec)
        with open(tmp_path / "sensitivity_regomax.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["country"] for r in rows] == ["AA", "AB"]
        for i, row in enumerate(rows):
            assert float(row["dB_ddelta"]) == pytest.approx(expected.derivative[i], rel=1e-9)
        assert (tmp_path / "sensitivity_import_export.csv").exists()
        assert (tmp_path / "sensitivity_global_price.csv").exists()

    def test_requires_selection_flags(self, tmp_path):
        rc = run("sensitivity", "--input", FIXTURE, "--out-dir", tmp_path)
        assert rc == 2


class TestNetworkCommand:
    def test_default_k_is_four(self, tmp_path):
        rc = run(
            "network", "--input", FIXTURE, "--products", "all", "--out-dir", tmp_path,
        )
        assert rc == 0
        edges = w.parse_edge_csv(tmp_path / "network_import.csv")
        assert edges.k == 4
        assert edges.view == "import"

    def test_round_trip_matches_top_links(self, tmp_path):
        rc = run(
            "network", "--input", FIXTURE, "--group", "AA,AB",
            "--source-country", "AC", "--source-product", "01",
            "--k", 2, "--out-dir", tmp_path,
        )
        assert rc == 0
        tensor = w.load_money_tensor(FIXTURE, 2016)
        direct, _ = w.build_trade_pair(tensor)
        sel = w.Selection.for_countries(
            tensor.registry, ("AA", "AB"), products=("01",),
            extra_nodes=(tensor.registry.node_id("AC", "01"),),
        )
        reduced = w.reduce(direct, sel)
        expected = w.top_links(reduced.reduced, sel.labels(tensor.registry), 2, view="import")
        assert w.parse_edge_csv(tmp_path / "network_import.csv") == expected


    def test_k_not_below_selection_size_exits_2_before_the_matrix_pair(
        self, tmp_path, caplog, monkeypatch
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("matrix pair built before k was checked")

        monkeypatch.setattr(w.gmatrix, "build_trade_pair", unreachable)
        rc = run(
            "network", "--input", FIXTURE, "--group", "AA",
            "--source-country", "AC", "--source-product", "01", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert any(
            "k=4 must be smaller than the matrix size 2" in r.getMessage()
            for r in caplog.records
        )


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nsource-country = AC\nsource_product = 01\ngroup = AA,AB\n")
        out = tmp_path / "out"
        rc = run("network", "--input", FIXTURE, "--config", cfg, "--k", 1, "--out-dir", out)
        assert rc == 0
        edges = w.parse_edge_csv(out / "network_import.csv")
        assert edges.k == 1  # flag beat the config file

    def test_config_supplies_missing_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\n")
        out = tmp_path / "out"
        assert run("rank", "--config", cfg, "--out-dir", out) == 0

    def test_unknown_key_rejected(self, tmp_path, caplog):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\nalpah = 0.3\n")
        assert run("rank", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert any("alpah" in r.getMessage() for r in caplog.records)

    def test_removed_series_key_warns(self, tmp_path, caplog):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\nmax_terms = 50\n")
        with caplog.at_level(logging.WARNING, logger="wtnrank"):
            assert run("rank", "--config", cfg, "--out-dir", tmp_path / "out") == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "--max-terms is deprecated and has no effect: the reduction is an exact solve"
        ]


_INPUT_FLAGS = {"--input", "--registry", "--year", "--alpha", "--tol", "--max-iter", "--out-dir"}
_SHOCK_FLAGS = {"--group", "--source-country", "--source-product"}
_HELP_FLAGS = {
    "synth": {"--registry", "--year", "--out-dir", "--seed", "--n-countries", "--n-products",
              "--density", "--out"},
    "rank": _INPUT_FLAGS,
    "reduce": _INPUT_FLAGS | _SHOCK_FLAGS | {"--products"},
    "sensitivity": _INPUT_FLAGS | _SHOCK_FLAGS | {"--delta", "--methods", "--global-product"},
    "network": _INPUT_FLAGS | _SHOCK_FLAGS | {"--products", "--k", "--format"},
}


@pytest.mark.parametrize("command", sorted(_HELP_FLAGS))
def test_module_entry_point_help_lists_only_the_command_options(command):
    proc = run_python("-m", "wtnrank", command, "--help")
    assert proc.returncode == 0, proc.stderr
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", proc.stdout))
    assert shown == _HELP_FLAGS[command] | {"--help", "--config", "--verbose"}


class TestStartup:
    @staticmethod
    def loaded_after_cli_import(module: str) -> bool:
        code = f"import sys, wtnrank.cli; sys.exit({module!r} in sys.modules)"
        return run_python("-c", code).returncode != 0

    # both are imported on first use: either would slow every CLI start
    def test_cli_import_leaves_sparse_linalg_unloaded(self):
        assert not self.loaded_after_cli_import("scipy.sparse.linalg")

    def test_cli_import_leaves_csgraph_unloaded(self):
        assert not self.loaded_after_cli_import("scipy.sparse.csgraph")


class TestDeterminism:
    def test_rank_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("rank", "--input", FIXTURE, "--out-dir", a) == 0
        assert run("rank", "--input", FIXTURE, "--out-dir", b) == 0
        match, mismatch, errors = filecmp.cmpfiles(
            a, b, [p.name for p in a.iterdir()], shallow=False
        )
        assert not mismatch and not errors
