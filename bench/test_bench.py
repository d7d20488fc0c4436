"""Self-test of the benchmark on tiny inputs; it asserts nothing about speed.

    python3 -m pytest bench

Every metric BENCHMARK.json names is emitted with its unit, the output
checks pass on real outputs and reject tampered ones, and a directory
without the wtnrank sources makes the benchmark fail.
"""
import json
import shutil
import subprocess
import sys
import time

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# the real workloads' commands on 12 countries x 4 products
TINY = {
    "rank-paper": run.Workload("rank", 12, 4),
    "shock-mid": run.Workload("sensitivity", 12, 4, group_size=3),
    "network-paper": run.Workload("network", 12, 4, group_size=5),
}


def _edit_first_row(path, column, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    fields = lines[1].split(",")
    i = header.index(column)
    fields[i] = repr(change(float(fields[i])))
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _append_row(path, row):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")


TAMPER = {
    "rank-paper": lambda out: _edit_first_row(out / "pagerank_nodes.csv", "probability",
                                              lambda p: p * 1.001),
    "shock-mid": lambda out: _edit_first_row(out / "sensitivity_regomax.csv", "balance",
                                             lambda b: b + 1e-6),
    "network-paper": lambda out: _append_row(out / "network_import.csv", "ZZ:99,AA:00,0.5"),
}


@pytest.fixture(autouse=True)
def _few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_tiny_workloads_mirror_the_real_ones():
    assert set(TINY) == set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, tiny in TINY.items():
        assert tiny.command == run.WORKLOADS[name].command


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(name, trace):
    result = run.run(f"selftest-{name}", TINY[name], seed=3, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_checks_pass_real_outputs_and_reject_tampered_ones(name, tmp_path):
    case = run.prepare(TINY[name], 5, tmp_path)
    out = tmp_path / "out"
    deadline = time.monotonic_ns() + 60 * 10**9
    proc = run.spawn(case, "plain", out, tmp_path / "record.jsonl", run.child_env(), deadline)
    assert proc.problems == ()
    assert proc.setup_s is not None and 0 < proc.setup_s < proc.wall_s
    TAMPER[name](out)
    assert case.check(out)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
