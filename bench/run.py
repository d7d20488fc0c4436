"""Benchmark of the wtnrank command line, end to end and layer by layer.

Run from anywhere; it uses the wtnrank sources of the checkout it sits in:

    python3 bench/run.py --workload rank-paper --seed 1 --seconds 30 --trace 0

A run makes the workload's trade CSV from the seed with `synth_tensor` and
`serialize_tensor` and computes reference results from it, all before any
timing. Then, for --seconds, it spawns the workload's wtnrank command in a
fresh process, one at a time (a closed loop with one client), and checks each
command's outputs after it exits. The command receives only the file.

--trace 0 prints the end-to-end metrics, measured untraced:
  wall_s       median time from spawn to exit of one command
  setup_s      median time from spawn until the command is about to read its
               input (wtnrank.cli, numpy and scipy imported), over SETUP_PROBES
               processes that stop there
  peak_rss_mb  median peak RSS of the command's own process (wait4 rusage)
--trace 1 runs the same loop, then one traced command with the default BLAS
threads and one with BLAS limited to one thread, and prints the per-layer
metrics of both (the second with the suffix `-1t`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `attempted` counts every
process spawned; `failed` those that exited non-zero or whose outputs failed
a check. Lines before it, starting with `#`, give the input sizes and digest,
the library versions and the sample counts.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PROBES = 10
RUN_LIMIT_S = 170  # a run must exit within 180 s: commands still going then are killed
K = 4  # partners per node for the network workload
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# spans whose self time is reported; process.startup runs from spawn to cli.main
SELF_TIMED = (
    "ingest.load_money_tensor",
    "gmatrix.build_trade_pair",
    "ranking.pagerank",
    "ranking.write",
    "regomax.reduce",
    "sensitivity.reduce_for_shock",
    "sensitivity.reduced_balance_sensitivity",
    "sensitivity.import_export_sensitivity",
    "netexport.top_links",
    "netexport.serialize_graph",
    "cli.main",
    "process.startup",
)


@dataclass(frozen=True)
class Workload:
    """A synthetic input and the wtnrank command run on it.

    The shock group is the first `group_size` countries in code order; the
    shock source is the second-to-last country's second product.
    """

    command: str
    n_countries: int
    n_products: int
    group_size: int = 0
    density: float = 0.25


WORKLOADS = {
    # the paper-sized input (13 847 nodes, ~782k rows) with no reduction: CSV
    # ingest does most of the work and a solver change must not move it
    "rank-paper": Workload("rank", 227, 61),
    # 6 100 nodes; 12 countries x 61 products + source = 733 selected nodes,
    # so regomax.reduce works on many columns and dominates the wall time
    "shock-mid": Workload("sensitivity", 100, 61, group_size=12),
    # the paper-sized input with a 28-node selection (27 countries at the
    # source product + source): few columns over a 13 819-node complement,
    # so the fixed per-call costs of reduce and the ingest show
    "network-paper": Workload("network", 227, 61, group_size=27),
}


@dataclass(frozen=True)
class Case:
    """A prepared workload: the command line, its output check and sizes."""

    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]
    rows: int
    links_nnz: int  # stored links of the direct plus the inverted matrix
    complement_nnz: int  # stored links of one matrix inside the selection's complement
    info: dict


@dataclass(frozen=True)
class Process:
    """One spawned command as the benchmark saw it."""

    start_ns: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    cpu_s: float
    out_bytes: int
    spans: tuple[dict, ...]
    problems: tuple[str, ...]


def _wtnrank_ingest():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wtnrank import ingest

    return ingest


def prepare(workload: Workload, seed: int, work: Path) -> Case:
    """Write the input CSV for `seed` and compute the references its check uses."""
    ingest = _wtnrank_ingest()
    path = work / "trade.csv"
    tensor = ingest.synth_tensor(seed, workload.n_countries, workload.n_products, workload.density)
    ingest.serialize_tensor(tensor, path)
    trade = checks.read_trade_csv(path)
    argv = [workload.command, "--input", str(path)]
    selected = np.empty(0, dtype=np.int64)
    if workload.command == "rank":
        check = partial(checks.check_rank, ref=checks.rank_reference(trade))
    else:
        group = trade.countries[: workload.group_size]
        source = (trade.countries[-2], trade.products[1])
        argv += ["--group", ",".join(group), "--source-country", source[0],
                 "--source-product", source[1]]
        if workload.command == "sensitivity":
            argv += ["--methods", "regomax,import-export"]
            selected = checks.shock_selection(trade, group, source)
            check = partial(checks.check_shock, ref=checks.shock_reference(trade, group, source))
        else:
            argv += ["--k", str(K)]
            selected = checks.network_selection(trade, group, source)
            labels = frozenset(trade.label(n) for n in selected)
            check = partial(checks.check_network, ref=checks.NetworkReference(labels, K))
    rows = int(trade.value.shape[0])
    links_nnz = 2 * rows  # one stored link per positive off-diagonal flow and direction
    complement_nnz = trade.complement_links(selected) if selected.size else 0
    return Case(
        argv=tuple(argv),
        check=check,
        rows=rows,
        links_nnz=links_nnz,
        complement_nnz=complement_nnz,
        info={
            "nodes": trade.size,
            "rows": rows,
            "bytes": path.stat().st_size,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "selected": int(selected.size),
            "links_nnz": links_nnz,
            "complement_links_nnz": complement_nnz,
        },
    )


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env(threads: int | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if threads is not None:
        env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    return env


def _read_record(path: Path) -> tuple[int | None, tuple[dict, ...]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0])["ready_ns"], tuple(json.loads(line) for line in lines[1:])


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def spawn(case: Case, mode: str, out: Path, record: Path, env: dict, deadline_ns: int) -> Process:
    """Run one command to its end and check what it wrote (the check is untimed)."""
    out.mkdir()
    cmd = [sys.executable, str(CHILD), str(record), mode, *case.argv, "--out-dir", str(out)]
    err_path = out.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, (deadline_ns - start) / 1e9), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    ready_ns, spans = None, ()
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        problems.append(f"exit code {proc.returncode}: {' | '.join(tail)}")
    else:
        try:
            ready_ns, spans = _read_record(record)
            if ready_ns is None:
                problems.append("the command never read its input")
            elif mode != "setup":
                problems.extend(case.check(out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"output check could not run: {exc!r}")
    return Process(
        start_ns=start,
        wall_s=(end - start) / 1e9,
        setup_s=None if ready_ns is None else (ready_ns - start) / 1e9,
        rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        out_bytes=_tree_bytes(out),
        spans=spans,
        problems=tuple(problems),
    )


def self_times(spans) -> dict[str, float]:
    """Seconds per span name: each span's duration minus what its children cover.

    Layer calls are synchronous, so children lie inside their parent's
    interval and never overlap one another.
    """
    child_ns: dict[int, int] = {}
    for s in spans:
        child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own / 1e9
    return totals


def layer_metrics(case: Case, proc: Process) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command."""
    main = next(s for s in proc.spans if s["name"] == "cli.main")
    startup = {"name": "process.startup", "id": -1, "parent": 0,
               "start_ns": proc.start_ns, "end_ns": main["start_ns"]}
    spans = (*proc.spans, startup)
    own = self_times(spans)
    calls = Counter(s["name"] for s in spans)

    def count(name: str, key: str) -> int:
        return sum(s.get("counts", {}).get(key, 0) for s in spans if s["name"] == name)

    reduces = [s for s in spans if s["name"] == "regomax.reduce"]
    m = {f"{name}.self_s": (own.get(name, 0.0), "s") for name in SELF_TIMED}
    m.update({
        "ingest.rows_per_s": (case.rows / own["ingest.load_money_tensor"], "1/s"),
        "gmatrix.links_nnz": (calls["gmatrix.build_trade_pair"] * case.links_nnz, "count"),
        "ranking.pagerank.calls": (calls["ranking.pagerank"], "count"),
        "ranking.pagerank.iterations": (count("ranking.pagerank", "iterations"), "count"),
        "regomax.reduce.calls": (len(reduces), "count"),
        "regomax.reduce.cpu_s": (sum(s["cpu_ns"] for s in reduces) / 1e9, "s"),
        "regomax.selected": (max((s["counts"]["selected"] for s in reduces), default=0), "count"),
        "regomax.series_terms": (count("regomax.reduce", "series_terms"), "count"),
        # a model, not a measurement: one sparse A_ss product per series term and
        # one for the first term, over every selected column
        "regomax.matvec_flops": (sum(
            2 * case.complement_nnz * s["counts"]["selected"] * (s["counts"]["series_terms"] + 1)
            for s in reduces), "flop-computed"),
        "netexport.edges": (count("netexport.top_links", "edges"), "count"),
        "cli.output_bytes": (proc.out_bytes, "B"),
        "process.cpu_s": (proc.cpu_s, "s"),
        "trace.wall_s": (proc.wall_s, "s"),
        "trace.unaccounted_s": (proc.wall_s - sum(own.values()), "s"),
    })
    return m


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic_ns() + int(RUN_LIMIT_S * 1e9)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK))
    spawned: list[Process] = []
    try:
        case = prepare(workload, seed, work)
        print("# input " + json.dumps(case.info, sort_keys=True), flush=True)
        print("# env " + json.dumps(environment(), sort_keys=True), flush=True)

        def command(mode: str, env: dict, record: Path | None = None) -> Process:
            out = work / f"out{len(spawned)}"
            record = record or work / f"record{len(spawned)}.jsonl"
            proc = spawn(case, mode, out, record, env, deadline)
            shutil.rmtree(out)
            for problem in proc.problems:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
            spawned.append(proc)
            return proc

        env = child_env()
        window_end = time.monotonic_ns() + int(seconds * 1e9)
        probes = [command("setup", env) for _ in range(SETUP_PROBES)]
        timed = [command("plain", env)]
        while time.monotonic_ns() < window_end:
            timed.append(command("plain", env))
        wall = _median(p.wall_s for p in timed)
        print("# samples " + json.dumps({"wall_s": [round(p.wall_s, 3) for p in timed],
                                         "setup_s": [round(p.setup_s or 0, 3) for p in probes]}))
        if trace:
            metrics = {}
            for suffix, threads in (("", None), ("-1t", 1)):
                proc = command("trace", child_env(threads),
                               traces / f"{name}-seed{seed}{suffix}.jsonl")
                if proc.problems or not proc.spans:
                    continue
                metrics.update({f"{k}{suffix}": v for k, v in layer_metrics(case, proc).items()})
                if not suffix:
                    metrics["trace.overhead_s"] = (proc.wall_s - wall, "s")
        else:
            metrics = {
                "wall_s": (wall, "s"),
                "setup_s": (_median(p.setup_s for p in probes), "s"),
                "peak_rss_mb": (_median(p.rss_mb for p in timed), "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for p in spawned if p.problems)
    return {
        "correct": failed == 0,
        "attempted": len(spawned),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wtnrank" / "cli.py").is_file():
        print(f"error: no wtnrank sources in {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
