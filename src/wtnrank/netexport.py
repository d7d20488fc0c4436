"""Top-k partner extraction from reduced matrices and graph serialization.

For each node's column, the k strongest off-diagonal entries are kept.
Edges point along the trade flow: in the import view (direct reduction)
column c lists who imports from c, so edges run c -> partner; in the export
view (inverted reduction) column c lists who supplies c, so edges run
partner -> c.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VIEW_IMPORT = "import"
VIEW_EXPORT = "export"
_BLOCKS = 32  # column blocks that the partner selection works through


@dataclass(frozen=True)
class TradeEdgeList:
    """Directed weighted edges plus the extraction parameters."""

    edges: tuple[tuple[str, str, float], ...]
    view: str
    k: int


def check_k(k: int, n: int) -> None:
    """Raise ValueError unless `top_links` can take k partners of n nodes."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the matrix size {n}")


def top_links(matrix: np.ndarray, labels, k: int, view: str = VIEW_IMPORT) -> TradeEdgeList:
    """Select each column's k largest off-diagonal entries as edges.

    Ties break toward the smaller partner index; exact-zero entries are
    never emitted. k must be smaller than the matrix size.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[1] != n:
        raise ValueError("expected a square matrix")
    if len(labels) != n:
        raise ValueError("one label per node required")
    if view not in (VIEW_IMPORT, VIEW_EXPORT):
        raise ValueError(f"view must be {VIEW_IMPORT!r} or {VIEW_EXPORT!r}")
    check_k(k, n)
    # stable sort of each column: weight descending, index ascending on ties;
    # a block of columns at a time, so each temporary is a slice of n x n
    step = -(-n // _BLOCKS)
    rows, cols = [], []
    for start in range(0, n, step):
        block = matrix[:, start : start + step]
        order = np.argsort(-block, axis=0, kind="stable")
        keep = np.take_along_axis(block, order, axis=0) > 0.0
        keep &= order != np.arange(start, start + block.shape[1])
        keep &= np.cumsum(keep, axis=0) <= k
        col, rank = np.nonzero(keep.T)  # column by column, strongest first
        rows.append(order[rank, col])
        cols.append(col + start)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    weights = matrix[rows, cols].tolist()
    src, dst = (cols, rows) if view == VIEW_IMPORT else (rows, cols)
    edges = [(labels[a], labels[b], w) for a, b, w in zip(src.tolist(), dst.tolist(), weights)]
    return TradeEdgeList(edges=tuple(edges), view=view, k=k)


def serialize_graph(edge_list: TradeEdgeList, fmt: str, path) -> None:
    """Write edges as `dot` or `edge-csv`; output is byte-deterministic."""
    if fmt == "dot":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("digraph trade {\n")
            fh.write(f"  // view={edge_list.view} k={edge_list.k}\n")
            for src, dst, w in edge_list.edges:
                fh.write(f'  "{src}" -> "{dst}" [weight={w!r}, label="{w:.3g}"];\n')
            fh.write("}\n")
    elif fmt == "edge-csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# view={edge_list.view},k={edge_list.k}\n")
            fh.write("from,to,weight\n")
            for src, dst, w in edge_list.edges:
                fh.write(f"{src},{dst},{w!r}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
