"""One wtnrank CLI command, run by the benchmark in a process of its own.

    python3 bench/child.py RECORD MODE wtnrank-arguments...

In every MODE the process stamps the monotonic clock the first time the
command calls `ingest.load_money_tensor`: wtnrank.cli, numpy and scipy are
imported and the arguments parsed, so set-up is over. MODE `setup` exits at
that stamp, `plain` runs the command with nothing else added, and `trace`
also records a span around each layer function named in `_layers`.

RECORD receives JSON lines when the process ends: `{"ready_ns": ...}`, then
one line per span with its name, id, parent id (0 for none), start and end
(monotonic ns), process CPU time spent inside it, and counts.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time

MODES = ("setup", "plain", "trace")


def _pagerank_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _reduce_counts(args, kwargs, result):
    sel = args[1] if len(args) > 1 else kwargs["sel"]
    # an exact solver has no series; it counts as zero terms
    return {"selected": sel.n_selected, "series_terms": getattr(result, "series_terms", 0)}


def _top_links_counts(args, kwargs, result):
    return {"edges": len(result.edges)}


def _layers() -> dict:
    """Layer function -> (span name, counter of its call)."""
    from wtnrank import gmatrix, ingest, netexport, ranking, regomax, sensitivity

    return {
        ingest.load_money_tensor: ("ingest.load_money_tensor", None),
        gmatrix.build_trade_pair: ("gmatrix.build_trade_pair", None),
        ranking.pagerank: ("ranking.pagerank", _pagerank_counts),
        ranking.write_node_ranks: ("ranking.write", None),
        ranking.write_marginal_ranks: ("ranking.write", None),
        regomax.reduce: ("regomax.reduce", _reduce_counts),
        sensitivity.reduce_for_shock: ("sensitivity.reduce_for_shock", None),
        sensitivity.reduced_balance_sensitivity: ("sensitivity.reduced_balance_sensitivity", None),
        sensitivity.import_export_sensitivity: ("sensitivity.import_export_sensitivity", None),
        netexport.top_links: ("netexport.top_links", _top_links_counts),
        netexport.serialize_graph: ("netexport.serialize_graph", None),
    }


def _rebind(fn, replacement) -> None:
    """Replace `fn` under every name a wtnrank module looks it up by."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "wtnrank" and not name.startswith("wtnrank."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, replacement)


class Tracer:
    """Spans of one process, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack = [0]
        self._next_id = 0

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span = {"name": name, "id": self._next_id, "parent": self._stack[-1]}
            self._stack.append(span["id"])
            span["start_ns"] = time.monotonic_ns()
            cpu = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.monotonic_ns()
                span["cpu_ns"] = time.process_time_ns() - cpu
                self._stack.pop()
                self.spans.append(span)
            span["counts"] = counter(args, kwargs, result) if counter else {}
            return result

        return traced


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in MODES:
        print(f"usage: child.py RECORD {{{','.join(MODES)}}} wtnrank-arguments...", file=sys.stderr)
        return 2
    record, mode, cli_args = argv[0], argv[1], argv[2:]
    from wtnrank import cli, ingest

    ready: list[int] = []
    tracer = Tracer() if mode == "trace" else None

    def write_record() -> None:
        with open(record, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ready_ns": ready[0] if ready else None}) + "\n")
            for span in tracer.spans if tracer else ():
                fh.write(json.dumps(span) + "\n")

    if tracer:
        for fn, (name, counter) in _layers().items():
            _rebind(fn, tracer.wrap(name, fn, counter))

    read = ingest.load_money_tensor

    @functools.wraps(read)
    def stamped(*args, **kwargs):
        if not ready:
            ready.append(time.monotonic_ns())
            if mode == "setup":
                write_record()
                os._exit(0)
        return read(*args, **kwargs)

    _rebind(read, stamped)
    run = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    code = run(cli_args)
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
