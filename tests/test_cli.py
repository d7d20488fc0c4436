import csv
import filecmp
import hashlib
import logging
import logging.handlers
import os
import re
import resource
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtnrank as w
from wtnrank.cli import main

from conftest import (
    CLOSED_PAIR,
    assert_same_tensor,
    closed_classes,
    parse_edge_csv,
    reduce_dense_oracle,
    same_trade,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture_small.csv"
GOLDEN_RANK = DATA / "golden_rank"
SOLVER_MODULES = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
SHOCK = ("--input", FIXTURE, "--group", "AA,AB", "--source-country", "AC", "--source-product", "01")


def run(*argv):
    return main([str(a) for a in argv])


def run_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter in a fresh process that imports this wtnrank, with
    `env` added to this process's environment."""
    src = str(Path(w.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


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

    def test_field_over_csv_size_limit_is_one_error_line(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("year,product,exporter,importer,value_usd\n2016,01,AA,BB,5\n"
                        "2016,01,AB,BB," + "9" * 200_000 + "\n")
        proc = run_python("-m", "wtnrank", "rank", "--input", str(path),
                          "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert re.fullmatch(r"ERROR wtnrank: field larger than field limit \(\d+\)\n", proc.stderr)

    def test_endless_line_is_one_error_line_in_bounded_memory(self, tmp_path):
        """/dev/zero has no line end and no end: it is refused after a capped
        read, not read until memory runs out. The child may map 1 GiB, and
        uses one BLAS thread so that it starts no thread beside its own."""
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = run_python(
            "-m", "wtnrank", "rank", "--input", "/dev/zero", "--out-dir", str(tmp_path),
            env={"OPENBLAS_NUM_THREADS": "1"}, timeout=60, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert re.fullmatch(r"ERROR wtnrank: line 1: longer than \d+ characters, the most a row can hold\n",
                            proc.stderr)

    def test_code_with_a_separator_is_one_error_line(self, tmp_path):
        """A quoted code such as "A," would shift every field after it in the
        `rank` files and in `network`'s edge CSV."""
        path = tmp_path / "comma.csv"
        path.write_text('year,product,exporter,importer,value_usd\n2016,01,BB,AB,5\n'
                        '2016,01,"A,",BB,7\n', encoding="utf-8")
        proc = run_python("-m", "wtnrank", "rank", "--input", str(path),
                          "--out-dir", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == "ERROR wtnrank: line 3: country codes must be 2 letters or digits\n"

    @pytest.mark.parametrize("rows, message", [
        (("AA,BB,1e308", "CC,BB,1e308", "BB,AA,1"), "import volume of node BB:01 is not finite"),
        (("AA,BB,1e308", "BB,CC,1e308", "CC,AA,1e308"), "total trade volume is not finite"),
    ], ids=["node", "total"])
    def test_overflowing_volume_is_one_error_line(self, tmp_path, caplog, rows, message):
        """Each value is finite, but their sum is not: the tensor is refused
        before any volume reaches a division."""
        path = tmp_path / "huge.csv"
        path.write_text("year,product,exporter,importer,value_usd\n"
                        + "".join(f"2016,01,{row}\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("rank", "--input", path, "--out-dir", tmp_path / "out")
        assert rc == 2
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("ERROR", message)]

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
        (("rank", "--input", FIXTURE, "--tol", "inf"), "", "tol must be finite and positive"),
        (("rank", "--input", FIXTURE, "--tol", "nan"), "", "tol must be finite and positive"),
        (("rank", "--input", FIXTURE), "tol = inf", "tol must be finite and positive"),
        (("rank", "--input", FIXTURE), "tol = nan", "tol must be finite and positive"),
        (("sensitivity", *SHOCK, "--methods", "global-price", "--group", "AA,AA"), "",
         "group repeats 'AA'"),
        (("sensitivity", *SHOCK[:2], *SHOCK[4:], "--methods", "global-price"),
         "group = AA,AB,AA", "group repeats 'AA'"),
        (("sensitivity", *SHOCK, "--methods", "regomax,regomax"), "",
         "methods repeats 'regomax'"),
        (("sensitivity", *SHOCK), "methods = regomax,import-export,regomax",
         "methods repeats 'regomax'"),
        (("reduce", *SHOCK, "--group", "AA,AA"), "", "group repeats 'AA'"),
        (("reduce", *SHOCK, "--products", "01,01"), "", "products repeats '01'"),
        (("network", *SHOCK), "products = 01,02,01", "products repeats '01'"),
    ], ids=[
        "methods-flag", "methods-config", "format-flag", "format-config",
        "empty-methods-flag", "empty-methods-config", "delta-flag", "delta-config",
        "negative-delta-regomax", "delta-global-price-flag", "delta-global-price-config",
        "tol-inf-flag", "tol-nan-flag", "tol-inf-config", "tol-nan-config",
        "repeated-group-flag", "repeated-group-config", "repeated-methods-flag",
        "repeated-methods-config", "repeated-group-reduce", "repeated-products-flag",
        "repeated-products-config",
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

    def test_sensitivity_without_a_unique_reduced_vector_exits_1(self, tmp_path, caplog):
        """At alpha = 1 the closed classes XX <-> YY and AA <-> ZZ leave no
        unique reduced stationary vector: the balance would depend on the
        start vector, so no report is written and one error line names why."""
        tensor, spec = closed_classes()
        w.serialize_tensor(tensor, tmp_path / "trade.csv")
        out = tmp_path / "out"
        rc = run(
            "sensitivity", "--input", tmp_path / "trade.csv", "--group", ",".join(spec.group),
            "--source-country", spec.source_country, "--source-product", spec.source_product,
            "--alpha", 1, "--methods", "regomax", "--out-dir", out,
        )
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].startswith("numerical failure: linear response")
        assert "not unique, or the reduced matrix is periodic" in errors[0]
        assert not (out / "sensitivity_regomax.csv").exists()

    def test_singular_complement_block_exits_1(self, tmp_path, caplog):
        """At alpha = 1 the complement C2 <-> C3 is closed: its product block
        is singular, and one error line names it, with no iteration count:
        an LU has none."""
        tensor, spec, _ = CLOSED_PAIR
        w.serialize_tensor(tensor, tmp_path / "trade.csv")
        w.save_registry(tensor.registry, tmp_path / "registry.txt")
        rc = run(
            "network", "--input", tmp_path / "trade.csv", "--registry", tmp_path / "registry.txt",
            "--group", ",".join(spec.group), "--source-country", spec.source_country,
            "--source-product", spec.source_product, "--alpha", 1, "--k", 1,
            "--out-dir", tmp_path / "out",
        )
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            "numerical failure: complement block of product index 0 (2 nodes) is singular"
        ]

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
        assert same_trade(tensor, expected)

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
        # every node of the 3 x 2 fixture: 6 x 6 arrays, one byte over the cap
        monkeypatch.setattr(w.regomax, "DENSE_CAP_BYTES", w.regomax.DENSE_ARRAYS * 8 * 6**2 - 1)
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

    @pytest.mark.parametrize("command", ["reduce", "sensitivity", "network"])
    @pytest.mark.parametrize("flag", ["--max-terms", "--series-tol"])
    def test_removed_series_flags_are_unknown(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(command, *SHOCK, flag, 2, "--out-dir", tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, extra", [("reduce", ()), ("network", ("--k", 2))])
def test_one_direction_reduced_at_a_time(
    tmp_path, monkeypatch, live_reduced_sets, command, extra
):
    """The import direction's `ReducedSet`, and the Google matrix it was
    reduced from, are gone before the export direction's reduction starts."""
    reduce = w.regomax.reduce
    seen = []
    alive = []
    matrices = []

    def counting(matrix, sel):
        seen.append(live_reduced_sets())
        alive.append(sum(ref() is not None for ref in matrices))
        matrices.append(weakref.ref(matrix))
        return reduce(matrix, sel)

    monkeypatch.setattr(w.regomax, "reduce", counting)
    assert run(command, *SHOCK, *extra, "--out-dir", tmp_path) == 0
    assert seen == [0, 0]
    assert alive == [0, 0]


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """OpenBLAS's threaded LU rounds the component solves differently at each
    thread count: with them threaded, every network file of this input, and
    its reduced, indirect and diagnostics files, differed between one and two
    threads. The solves, and the `reduce` command's split, run on one thread."""
    data = tmp_path / "trade.csv"
    assert run("synth", "--seed", 1, "--n-countries", 230, "--n-products", 3,
               "--density", 0.25, "--out", data) == 0
    countries = w.load_money_tensor(data, 2016).registry.countries
    shock = ("--input", str(data), "--group", ",".join(countries[:5]),
             "--source-country", countries[-2], "--source-product", "01")
    for command in ("network", "reduce"):
        outs = [tmp_path / f"{command}-{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            proc = run_python("-m", "wtnrank", command, *shock, "--out-dir", str(out),
                              env={"OPENBLAS_NUM_THREADS": str(threads)})
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[0].iterdir())
        _, mismatch, errors = filecmp.cmpfiles(*outs, names, shallow=False)
        assert names and not mismatch and not errors, (command, mismatch, errors)


def test_only_reduce_computes_the_complement_eigenpair(tmp_path, monkeypatch):
    """`network` and `sensitivity` read only the reduced matrices, so they never
    run the complement's eigenvector iteration; `reduce` writes the split, so it does."""

    def unreachable(block):
        raise AssertionError("complement eigenpair computed")

    monkeypatch.setattr(w.regomax, "_leading_pair", unreachable)
    assert run("network", *SHOCK, "--k", 2, "--out-dir", tmp_path / "network") == 0
    out_dir = tmp_path / "sensitivity"
    assert run("sensitivity", *SHOCK, "--methods", "regomax", "--out-dir", out_dir) == 0
    with pytest.raises(AssertionError, match="complement eigenpair computed"):
        run("reduce", *SHOCK, "--out-dir", tmp_path / "reduce")


def test_reduce_computes_each_weight_once(tmp_path, monkeypatch):
    """The log line and the diagnostics file share one computation of the
    weights per direction: one sum of the stored reduced matrix, and one sum
    of factors for each of the direct, projector and indirect parts."""
    calls = {"component_weight": [], "_factor_sum": []}

    def counting(name, fn):
        def wrapper(*args):
            calls[name].append(args[0].shape)
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(w.regomax, name, counting(name, getattr(w.regomax, name)))
    assert run("reduce", *SHOCK, "--out-dir", tmp_path) == 0
    assert len(calls["component_weight"]) == 1 * 2
    assert len(calls["_factor_sum"]) == 3 * 2


class TestSensitivityCommand:
    def test_reports_match_module(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="wtnrank"):
            rc = run(
                "sensitivity", "--input", FIXTURE, "--group", "AA,AB",
                "--source-country", "AC", "--source-product", "01", "--out-dir", tmp_path,
                "--methods", "regomax,import-export,global-price",
            )
        assert rc == 0
        logged = [r.getMessage().split(" finite-difference error ") for r in caplog.records]
        errors = {m[0]: float(m[1]) for m in logged if len(m) == 2}
        assert sorted(errors) == ["import-export", "regomax"]
        tensor = w.load_money_tensor(FIXTURE, 2016)
        spec = w.ShockSpec("AC", "01", ("AA", "AB"))
        expected = w.reduced_balance_sensitivity(tensor, spec)
        assert errors["regomax"] == float(f"{expected.metadata['fd_error']:.3e}")
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

    def test_unknown_global_product_fails_before_any_report(self, tmp_path):
        """The global-price product is checked against the registry before the
        first method runs, so the regomax report is not written either."""
        rc, records = run_logged(
            "sensitivity", *SHOCK, "--methods", "regomax,global-price",
            "--global-product", "ZZ", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert len([r for r in records if r.levelno >= logging.ERROR]) == 1
        assert not list(tmp_path.glob("sensitivity_*.csv"))

    def test_tiny_shares_give_a_finite_fd_error(self, tmp_path, caplog):
        """Flows of 1e-300 give CC a volume share whose square underflows: both
        exact derivatives divide by E + I before they multiply."""
        path = tmp_path / "tiny.csv"
        path.write_text("year,product,exporter,importer,value_usd\n2016,01,AA,BB,1\n"
                        "2016,01,BB,AA,2.5\n2016,01,CC,BB,1e-300\n2016,01,AA,CC,1e-300\n")
        with warnings.catch_warnings(), caplog.at_level(logging.INFO, logger="wtnrank"):
            warnings.simplefilter("error")
            rc = run(
                "sensitivity", "--input", path, "--group", "CC", "--source-country", "AA",
                "--source-product", "01", "--methods", "import-export,regomax",
                "--out-dir", tmp_path / "out",
            )
        assert rc == 0
        assert all(r.levelno < logging.WARNING for r in caplog.records)
        logged = [r.getMessage().split(" finite-difference error ") for r in caplog.records]
        errors = {m[0]: float(m[1]) for m in logged if len(m) == 2}
        assert sorted(errors) == ["import-export", "regomax"]
        assert np.isfinite(list(errors.values())).all()


def run_logged(*argv):
    """`run` with every warning an error; returns the exit code and the
    `wtnrank` log records at INFO and above."""
    logger, handler = logging.getLogger("wtnrank"), logging.handlers.BufferingHandler(10_000)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(*argv), handler.buffer
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def write_trade(path, rows) -> Path:
    """A trade CSV of year 2016 from `product,exporter,importer,value` rows."""
    path.write_text("year,product,exporter,importer,value_usd\n"
                    + "".join(f"2016,{row}\n" for row in rows), encoding="utf-8")
    return path


NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])")


def check_run(rc, records, out_dir):
    """The contract of any run: exit 0, 1 or 2; a failure logs exactly one
    ERROR line; a success logs none, writes no NaN or infinity and logs only
    finite `fd_error`s, at alpha = 1 too (an undefined response is refused
    with exit 1)."""
    assert rc in (0, 1, 2)
    errors = [r.getMessage() for r in records if r.levelno >= logging.ERROR]
    assert len(errors) == (rc != 0), errors
    if rc:
        return
    for path in out_dir.iterdir():
        assert not NON_FINITE.search(path.read_text(encoding="utf-8").lower()), path.name
    logged = [r.getMessage().split(" finite-difference error ") for r in records]
    for method, value in (m for m in logged if len(m) == 2):
        assert np.isfinite(float(value)), method


def every_command(path, out_dir, group, source, alpha=0.5):
    """(argv, output directory) of `rank`, `network` and `sensitivity` with all
    three methods, on the trade CSV `path`."""
    shock = ("--input", path, "--alpha", alpha, "--group", ",".join(group),
             "--source-country", source, "--source-product", "01")
    return [
        (("rank", "--input", path, "--alpha", alpha), out_dir / "rank"),
        (("network", *shock, "--k", 1), out_dir / "network"),
        (("sensitivity", *shock, "--methods", "regomax,import-export,global-price"),
         out_dir / "sensitivity"),
    ]


class TestExtremeValues:
    def test_volume_times_country_count_overflows(self, tmp_path):
        """Every volume is finite, but AA's direct teleport weight divides its
        volume by n_countries * 1.7e308, which overflows: such rows divide twice."""
        path = write_trade(tmp_path / "huge.csv", ("01,AA,BB,1.7e308", "01,BB,AA,1", "01,CC,AA,1"))
        for argv, out_dir in every_command(path, tmp_path, ("BB", "CC"), "AA"):
            rc, records = run_logged(*argv, "--out-dir", out_dir, "-v")
            assert rc == 0
            check_run(rc, records, out_dir)

    def test_shares_that_underflow_give_a_finite_import_export_fd_error(self, tmp_path):
        """AA's and CC's volumes are shares of 1e308 that underflow to 0: the
        closed-form derivative is taken on raw volumes."""
        path = write_trade(
            tmp_path / "tiny.csv", ("01,AA,CC,1e-300", "01,BB,AA,1e308", "01,BB,CC,5e-324")
        )
        out_dir = tmp_path / "out"
        rc, records = run_logged(
            "sensitivity", "--input", path, "--group", "BB,CC", "--source-country", "AA",
            "--source-product", "01", "--methods", "import-export", "--out-dir", out_dir, "-v",
        )
        assert rc == 0
        check_run(rc, records, out_dir)
        assert any("import-export finite-difference error" in r.getMessage() for r in records)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_tiny_input_exits_cleanly(self, data):
        """Tiny CSVs of extreme values at any alpha: every command ends in
        `check_run`'s contract."""
        countries = ("AA", "AB", "AC", "AD")[: data.draw(st.integers(2, 4))]
        products = ("01", "02")[: data.draw(st.integers(1, 2))]
        values = st.sampled_from((0.0, 5e-324, 1e-300, 1.0, 1e6, 1e308, 1.7e308))
        rows = [
            f"{p},{e},{i},{data.draw(values)!r}"
            for p in products for e in countries for i in countries if e != i
        ]
        group = data.draw(st.lists(st.sampled_from(countries[:-1]), min_size=1, unique=True))
        alpha = data.draw(st.sampled_from((0.5, 0.85, 1.0)))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = write_trade(tmp / "trade.csv", rows)
            for argv, out_dir in every_command(path, tmp, group, countries[-1], alpha):
                rc, records = run_logged(*argv, "--out-dir", out_dir, "-v")
                check_run(rc, records, out_dir)


class TestNetworkCommand:
    def test_default_k_is_four(self, tmp_path):
        rc = run(
            "network", "--input", FIXTURE, "--products", "all", "--out-dir", tmp_path,
        )
        assert rc == 0
        edges = parse_edge_csv(tmp_path / "network_import.csv")
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
        assert parse_edge_csv(tmp_path / "network_import.csv") == expected


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


    def test_near_periodic_complement_at_alpha_one_reduces(self, tmp_path):
        """At alpha = 1 the inverted complement's eigenvector iteration stalls
        (at the default 100 000 steps after about 3 s), but `network` never
        runs it: it exits 0, and the exact solve matches the dense oracle."""
        path = write_trade(tmp_path / "trade.csv", (
            "00,C0,C1,100", "00,C0,C3,100", "00,C1,C2,1e6", "00,C1,C3,2.5", "00,C2,C0,100",
            "00,C2,C1,2.5", "00,C2,C3,1e6", "00,C3,C0,2.5", "00,C3,C1,100", "00,C3,C2,2.5",
            "01,C1,C0,100", "01,C1,C3,1e6", "01,C2,C0,1e6", "01,C3,C1,1e-6", "01,C3,C2,2.5",
            "02,C0,C1,1", "02,C0,C2,2.5", "02,C1,C3,1", "02,C2,C3,1e6", "02,C3,C2,1e-6",
        ))
        rc = run(
            "network", "--input", path, "--alpha", 1, "--group", "C0,C1", "--source-country", "C2",
            "--source-product", "02", "--products", "all", "--k", 1, "--out-dir", tmp_path / "out",
        )
        assert rc == 0
        tensor = w.load_money_tensor(path, 2016)
        reg = tensor.registry
        sel = w.Selection.for_countries(reg, ("C0", "C1"), extra_nodes=(reg.node_id("C2", "02"),))
        for matrix in w.build_trade_pair(tensor, alpha=1.0):
            error = np.abs(w.reduce(matrix, sel).reduced - reduce_dense_oracle(matrix, sel)).max()
            assert error <= 1e-12


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\nsource-country = AC\nsource_product = 01\ngroup = AA,AB\n")
        out = tmp_path / "out"
        rc = run("network", "--input", FIXTURE, "--config", cfg, "--k", 1, "--out-dir", out)
        assert rc == 0
        edges = parse_edge_csv(out / "network_import.csv")
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

    @pytest.mark.parametrize("key", ["max_terms", "series-tol"])
    def test_removed_series_key_is_unknown(self, tmp_path, caplog, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {FIXTURE}\n{key} = 50\n")
        assert run("rank", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()
        assert any(
            "unknown config key(s)" in r.getMessage() and key.replace("-", "_") in r.getMessage()
            for r in caplog.records
        )


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

    @pytest.mark.parametrize("command, extra", [("sensitivity", ()), ("network", ("--k", 2))])
    def test_reducing_commands_never_load_sparse_solvers(self, tmp_path, command, extra):
        """The complement solve uses numpy alone, so a whole `sensitivity` or
        `network` run never pays for importing scipy's solver modules."""
        argv = [command, *map(str, SHOCK + extra), "--out-dir", str(tmp_path)]
        code = (
            "import sys; from wtnrank.cli import main; rc = main(%r); "
            "print([m for m in %r if m in sys.modules]); sys.exit(rc)"
        ) % (argv, SOLVER_MODULES)
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def assert_same_outputs(a: Path, b: Path) -> None:
    """The output directories `a` and `b` hold the same files, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


def never_parse(monkeypatch):
    """Make either CSV reader of `ingest` fail the test when it is called."""
    def unreachable(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(w.ingest, "_read_blocks", unreachable)
    monkeypatch.setattr(w.ingest, "_read_rows", unreachable)


def count_parses(monkeypatch) -> list:
    """A list that gains one item each time `ingest` parses a CSV."""
    calls, read = [], w.ingest._read_blocks

    def read_blocks(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(w.ingest, "_read_blocks", read_blocks)
    return calls


def cache_entries(cache_home: Path) -> list[Path]:
    return sorted((cache_home / "wtnrank").glob("*.npz"))


# the extra flags of each command that reads a trade CSV
_READING_COMMANDS = {
    "rank": (),
    "network": (*SHOCK[2:], "--k", 2),
    "sensitivity": (*SHOCK[2:], "--methods", "regomax,import-export,global-price"),
    "reduce": (*SHOCK[2:], "--products", "all"),
}


class TestDeterminism:
    def test_rank_twice_byte_identical(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        parses = count_parses(monkeypatch)
        assert run("rank", "--input", FIXTURE, "--out-dir", a) == 0
        assert run("rank", "--input", FIXTURE, "--out-dir", b) == 0
        assert_same_outputs(a, b)
        assert len(parses) == 2  # outside the cache tests, every run parses its input

    @pytest.mark.parametrize("command", sorted(_READING_COMMANDS))
    def test_cache_hit_writes_the_bytes_of_a_parse(self, tmp_path, monkeypatch, caplog, command):
        """The first run parses and stores the tensor, the second reads it
        back without a CSV reader; both log the same self-trade warning."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        path = tmp_path / "trade.csv"
        path.write_text(FIXTURE.read_text(encoding="utf-8") + "2016,00,AA,AA,5\n", encoding="utf-8")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        for out, reader in ((tmp_path / "parse", "byte path"), (tmp_path / "hit", "cache")):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="wtnrank.ingest"):
                rc = run(command, "--input", path, *_READING_COMMANDS[command], "--out-dir", out)
            assert rc == 0
            assert [r.getMessage() for r in caplog.records if r.name == "wtnrank.ingest"] == [
                f"{path}: dropped 1 self-trade row(s)",
                f"trade.csv (sha256 {digest}): 10 rows kept, from the {reader}",
            ]
            never_parse(monkeypatch)
        assert_same_outputs(tmp_path / "parse", tmp_path / "hit")
        assert len(cache_entries(tmp_path / "cache")) == 1

    def test_cache_hit_is_the_parsed_tensor_at_paper_size(self, tmp_path, monkeypatch):
        path = tmp_path / "paper.csv"
        w.serialize_tensor(w.synth_tensor(1, 227, 61, 0.25), path)
        parse = w.load_money_tensor(path, 2016)
        w.load_money_tensor(path, 2016, cache_dir=tmp_path / "cache")
        never_parse(monkeypatch)
        assert_same_tensor(w.load_money_tensor(path, 2016, cache_dir=tmp_path / "cache"), parse)


def rewrite_entry(entry: Path, **changes) -> None:
    """Store the cache entry `entry` again with each named array replaced by
    its function of the array; a function that returns None drops it."""
    with np.load(entry) as npz:
        arrays = dict(npz)
    for name, change in changes.items():
        arrays[name] = change(arrays[name])
    np.savez(entry, **{name: a for name, a in arrays.items() if a is not None})


def drop(array):
    return None


class TestTensorCache:
    """A fault of the tensor cache never changes a run: the CSV is parsed as
    without the cache, the run exits 0 and nothing more reaches stderr."""

    @staticmethod
    def quiet_rank(tmp_path, name, caplog, capfd, *flags) -> Path:
        """Run `rank` on the fixture into `tmp_path / name` and check that it
        succeeds with nothing logged at WARNING or above or written to stderr."""
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="wtnrank.ingest"):
            assert run("rank", "--input", FIXTURE, *flags, "--out-dir", tmp_path / name) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert capfd.readouterr().err == ""
        return tmp_path / name

    @pytest.mark.parametrize("spoil", [
        lambda entry: entry.write_bytes(b""),
        lambda entry: entry.write_bytes(entry.read_bytes()[:100]),
        lambda entry: entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2]),
        lambda entry: entry.write_bytes(entry.read_bytes()[:-1]),
        lambda entry: rewrite_entry(entry, data=drop),
        lambda entry: rewrite_entry(entry, dropped=drop),
        lambda entry: rewrite_entry(entry, data=lambda a: a.astype(np.float32)),
        lambda entry: rewrite_entry(entry, indices=lambda a: a.astype(np.float64)),
        lambda entry: rewrite_entry(entry, products=lambda a: np.arange(a.size)),
        lambda entry: rewrite_entry(entry, data=lambda a: -a),
        lambda entry: rewrite_entry(entry, indices=lambda a: a + 10**6),
        lambda entry: rewrite_entry(entry, indptr=lambda a: a[:-1]),
        lambda entry: rewrite_entry(entry, countries=lambda a: np.repeat(a[:1], a.size)),
        lambda entry: rewrite_entry(entry, rows=lambda a: np.arange(2)),
    ], ids=["empty", "cut-at-100-bytes", "half", "last-byte-cut", "no-data", "no-dropped",
            "float32-data", "float-indices", "integer-codes", "negative-values",
            "index-out-of-range", "short-indptr", "repeated-country", "two-row-counts"])
    def test_unsound_entry_is_parsed_again(self, tmp_path, monkeypatch, caplog, capfd, spoil):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        first = self.quiet_rank(tmp_path, "first", caplog, capfd)
        (entry,) = cache_entries(tmp_path / "cache")
        spoil(entry)
        parses = count_parses(monkeypatch)
        assert_same_outputs(first, self.quiet_rank(tmp_path, "second", caplog, capfd))
        assert len(parses) == 1
        never_parse(monkeypatch)  # the parse stored a sound entry in its place
        assert_same_outputs(first, self.quiet_rank(tmp_path, "third", caplog, capfd))

    def test_unwritable_cache_directory(self, tmp_path, monkeypatch, caplog, capfd):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "wtnrank").write_text("a file, not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        parses = count_parses(monkeypatch)
        first = self.quiet_rank(tmp_path, "first", caplog, capfd)
        assert_same_outputs(first, self.quiet_rank(tmp_path, "second", caplog, capfd))
        assert len(parses) == 2
        assert os.listdir(tmp_path / "cache") == ["wtnrank"]

    def test_no_home_and_no_cache_home(self, tmp_path, monkeypatch, caplog, capfd):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
        calls = []
        load = w.ingest.load_money_tensor
        monkeypatch.setattr(w.ingest, "load_money_tensor",
                            lambda *args, **kwargs: calls.append(kwargs) or load(*args, **kwargs))
        self.quiet_rank(tmp_path, "out", caplog, capfd)
        assert calls == [{"registry": None, "cache_dir": None}]

    def test_relative_cache_home_falls_back_to_home(self, tmp_path, monkeypatch, caplog, capfd):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        self.quiet_rank(tmp_path, "out", caplog, capfd)
        assert not (tmp_path / "relative").exists()
        assert len(cache_entries(tmp_path / "home" / ".cache")) == 1

    def test_faulty_csv_fails_the_same_each_time_and_stores_nothing(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        path = tmp_path / "faulty.csv"
        path.write_text(FIXTURE.read_text(encoding="utf-8") + "2016,00,AA,AB,-1\n", encoding="utf-8")
        logged = []
        for _ in range(2):
            caplog.clear()
            assert run("rank", "--input", path, "--out-dir", tmp_path / "out") == 2
            logged.append([r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING])
        assert logged == [["line 12: value '-1' is negative or not finite"]] * 2
        assert cache_entries(tmp_path / "cache") == []

    @pytest.mark.parametrize("change", ["one-byte-edit", "year", "registry"])
    def test_other_input_misses(self, tmp_path, monkeypatch, change):
        """After a run on one input, a run on a changed input parses it
        again: its outputs are those of a run with an empty cache."""
        path = tmp_path / "trade.csv"
        text = FIXTURE.read_text(encoding="utf-8")
        body = text.split("\n", 1)[1].replace("2016,", "2015,")
        path.write_text(text + body.replace(",38350.24320803484", ",99999999.0"), encoding="utf-8")
        flags = ("--input", path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert run("rank", *flags, "--out-dir", tmp_path / "first") == 0
        if change == "one-byte-edit":
            path.write_text(path.read_text(encoding="utf-8").replace(",38350.", ",38351.", 1),
                            encoding="utf-8")
        elif change == "year":
            flags += ("--year", 2015)
        else:
            registry = tmp_path / "registry.txt"
            registry.write_text("[countries]\nAC\nAB\nAA\n[products]\n01\n00\n", encoding="utf-8")
            flags += ("--registry", registry)
        parses = count_parses(monkeypatch)
        assert run("rank", *flags, "--out-dir", tmp_path / "second") == 0
        assert len(parses) == 1
        assert len(cache_entries(tmp_path / "cache")) == 2
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        assert run("rank", *flags, "--out-dir", tmp_path / "fresh") == 0
        assert_same_outputs(tmp_path / "second", tmp_path / "fresh")
        assert not filecmp.cmp(tmp_path / "first" / "pagerank_nodes.csv",
                               tmp_path / "second" / "pagerank_nodes.csv", shallow=False)
