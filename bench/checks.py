"""Reference results and output checks for the benchmark.

Every reference is computed from the trade CSV with numpy and scipy alone,
so no check depends on the wtnrank layer whose output it judges. The checks
compare with tolerances, not bytes: the reduced matrices differ in their
last bits with the number of BLAS threads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

ALPHA = 0.5  # the CLI's documented default damping factor
ORACLE_TOL = 1e-14  # L1 step at which the reference power iteration stops

PROB_ATOL = 1e-10  # CLI PageRank vs reference; both solve to an L1 residual of 1e-12
SHARE_RTOL = 1e-12  # volume shares: the same sums in another order
BALANCE_ATOL = 1e-9  # regomax balance vs full-network balance (5e-13 seen at seed 1)
# import-export central difference vs the closed form: the difference of a
# rational function is off by a relative (delta * f / (E + I))**2 <= delta**2,
# plus cancellation of order eps / delta
DERIV_RTOL = 1e-6
DERIV_ATOL = 1e-12

_CSV_DTYPE = np.dtype(
    [("year", "i8"), ("product", "U2"), ("exporter", "U2"), ("importer", "U2"), ("value", "f8")]
)


@dataclass(frozen=True)
class Trade:
    """Flows of one trade CSV, with codes in sorted order as the CLI sees them.

    Node id = country index * n_products + product index.
    """

    countries: tuple[str, ...]
    products: tuple[str, ...]
    product: np.ndarray
    exporter: np.ndarray
    importer: np.ndarray
    value: np.ndarray

    @property
    def size(self) -> int:
        return len(self.countries) * len(self.products)

    def node(self, country: str, product: str) -> int:
        return self.countries.index(country) * len(self.products) + self.products.index(product)

    def label(self, node: int) -> str:
        n_p = len(self.products)
        return f"{self.countries[node // n_p]}:{self.products[node % n_p]}"

    @property
    def source_nodes(self) -> np.ndarray:
        return self.exporter * len(self.products) + self.product

    @property
    def target_nodes(self) -> np.ndarray:
        return self.importer * len(self.products) + self.product

    def volumes(self) -> tuple[np.ndarray, np.ndarray]:
        """(import, export) volume per node, shaped (countries, products)."""
        shape = (len(self.countries), len(self.products))
        imp = np.bincount(self.target_nodes, weights=self.value, minlength=self.size)
        exp = np.bincount(self.source_nodes, weights=self.value, minlength=self.size)
        return imp.reshape(shape), exp.reshape(shape)

    def complement_links(self, selected: np.ndarray) -> int:
        """Stored links with both end nodes outside `selected` (node ids)."""
        inside = np.zeros(self.size, dtype=bool)
        inside[selected] = True
        return int(np.count_nonzero(~inside[self.source_nodes] & ~inside[self.target_nodes]))


def read_trade_csv(path: Path) -> Trade:
    """Parse a CSV written by `serialize_tensor` (no duplicate or self-trade rows)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=_CSV_DTYPE, encoding="utf-8", ndmin=1)
    countries, country_idx = np.unique(
        np.concatenate([rows["exporter"], rows["importer"]]), return_inverse=True
    )
    products, product_idx = np.unique(rows["product"], return_inverse=True)
    n = rows.shape[0]
    return Trade(
        countries=tuple(str(c) for c in countries),
        products=tuple(str(p) for p in products),
        product=product_idx.astype(np.int64),
        exporter=country_idx[:n].astype(np.int64),
        importer=country_idx[n:].astype(np.int64),
        value=rows["value"],
    )


def _stationary(links: sparse.csr_matrix, dangling: np.ndarray, teleport: np.ndarray) -> np.ndarray:
    n = teleport.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(10_000):
        y = ALPHA * (links @ x) + ALPHA * x[dangling].sum() / n + (1.0 - ALPHA) * teleport
        y /= y.sum()
        if np.abs(y - x).sum() < ORACLE_TOL:
            return y
        x = y
    raise RuntimeError("reference power iteration did not converge")


def stationary_pair(trade: Trade) -> tuple[np.ndarray, np.ndarray]:
    """Second-round stationary vectors of the direct and inverted matrices.

    Direct: column (exporter, p) spreads over importers by value, normalised
    by the exporter's export volume of p; inverted: the reverse. Round one
    teleports by each country's own import (direct) or export (inverted) mix,
    weighted 1/n_countries per country; round two teleports by the product
    marginal of round one, uniform across countries.
    """
    n_c, n_p = len(trade.countries), len(trade.products)
    imp, exp = trade.volumes()
    src, dst = trade.source_nodes, trade.target_nodes
    pair = []
    for rows, cols, own_vol, mix_vol in ((dst, src, exp, imp), (src, dst, imp, exp)):
        own = own_vol.ravel()
        links = sparse.csr_matrix(
            (trade.value / own[cols], (rows, cols)), shape=(trade.size, trade.size)
        )
        dangling = own == 0
        totals = mix_vol.sum(axis=1)
        first = np.full(mix_vol.shape, 1.0 / trade.size)  # countries without volume
        active = totals > 0
        first[active] = mix_vol[active] / (n_c * totals[active, None])
        p = _stationary(links, dangling, first.ravel())
        marginal = p.reshape(n_c, n_p).sum(axis=0)
        pair.append(_stationary(links, dangling, np.tile(marginal / n_c, n_c)))
    return pair[0], pair[1]


# ------------------------------------------------------------------ outputs


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _node_ranks(path: Path, expected: np.ndarray, atol: float, rtol: float) -> list[str]:
    """Problems in a `<method>_nodes.csv` against expected node probabilities."""
    rows = _read_rows(path)
    nodes = np.array([int(r["node"]) for r in rows])
    prob = np.array([float(r["probability"]) for r in rows])
    rank = np.array([int(r["rank_index"]) for r in rows])
    problems = []
    if sorted(nodes.tolist()) != list(range(expected.shape[0])):
        return [f"{path.name}: nodes are not 0..{expected.shape[0] - 1}"]
    if not np.array_equal(rank, np.arange(1, len(rows) + 1)):
        problems.append(f"{path.name}: rank_index is not 1..N in file order")
    # best first, ties toward the smaller node id
    later = (prob[1:] < prob[:-1]) | ((prob[1:] == prob[:-1]) & (nodes[1:] > nodes[:-1]))
    if not later.all():
        problems.append(f"{path.name}: rank order does not follow the probabilities")
    if abs(prob.sum() - 1.0) > 1e-9:
        problems.append(f"{path.name}: probabilities sum to {prob.sum()!r}")
    err = np.abs(prob - expected[nodes])
    if np.any(err > atol + rtol * expected[nodes]):
        problems.append(f"{path.name}: probabilities off the reference by up to {err.max():.3e}")
    return problems


@dataclass(frozen=True)
class RankReference:
    pagerank: np.ndarray
    cheirank: np.ndarray
    import_share: np.ndarray
    export_share: np.ndarray


def rank_reference(trade: Trade) -> RankReference:
    imp, exp = trade.volumes()
    total = trade.value.sum()
    p, p_star = stationary_pair(trade)
    return RankReference(p, p_star, (imp / total).ravel(), (exp / total).ravel())


def check_rank(out: Path, ref: RankReference) -> list[str]:
    return (
        _node_ranks(out / "pagerank_nodes.csv", ref.pagerank, PROB_ATOL, 0.0)
        + _node_ranks(out / "cheirank_nodes.csv", ref.cheirank, PROB_ATOL, 0.0)
        + _node_ranks(out / "importrank_nodes.csv", ref.import_share, 0.0, SHARE_RTOL)
        + _node_ranks(out / "exportrank_nodes.csv", ref.export_share, 0.0, SHARE_RTOL)
    )


@dataclass(frozen=True)
class ShockReference:
    group: tuple[str, ...]
    regomax_balance: np.ndarray
    volume_balance: np.ndarray
    volume_derivative: np.ndarray


def shock_selection(trade: Trade, group, source: tuple[str, str]) -> np.ndarray:
    """Group countries with all their products, then the source node."""
    ids = [trade.node(c, p) for c in group for p in trade.products]
    return np.array(ids + [trade.node(*source)])


def shock_reference(trade: Trade, group, source: tuple[str, str]) -> ShockReference:
    """Balances and the import-export derivative for a shock on `source`.

    The stationary vectors of the reduced pair are the full-network ones
    restricted to the selection and renormalised, so the regomax baseline
    balance follows from the full PageRank and CheiRank.
    """
    n_p = len(trade.products)
    sel = shock_selection(trade, group, source)
    rows = [trade.countries.index(c) for c in group]
    p, p_star = stationary_pair(trade)
    imp = p.reshape(-1, n_p)[rows].sum(axis=1) / p[sel].sum()
    exp = p_star.reshape(-1, n_p)[rows].sum(axis=1) / p_star[sel].sum()

    imp_vol, exp_vol = (v[rows].sum(axis=1) for v in trade.volumes())
    src_c, src_p = trade.countries.index(source[0]), trade.products.index(source[1])
    shocked = (trade.exporter == src_c) & (trade.product == src_p)
    into = np.bincount(trade.importer[shocked], weights=trade.value[shocked],
                       minlength=len(trade.countries))[rows]
    s = exp_vol + imp_vol
    return ShockReference(
        group=tuple(group),
        regomax_balance=(exp - imp) / (exp + imp),
        volume_balance=(exp_vol - imp_vol) / s,
        volume_derivative=-2.0 * exp_vol * into / s**2,
    )


def _report(path: Path, group) -> tuple[np.ndarray, np.ndarray, list[str]]:
    rows = _read_rows(path)
    countries = tuple(r["country"] for r in rows)
    balance = np.array([float(r["balance"]) for r in rows])
    derivative = np.array([float(r["dB_ddelta"]) for r in rows])
    if countries != tuple(group):
        return balance, derivative, [f"{path.name}: countries {countries} != group"]
    if not np.all(np.isfinite(derivative)):
        return balance, derivative, [f"{path.name}: derivative not finite"]
    return balance, derivative, []


def check_shock(out: Path, ref: ShockReference) -> list[str]:
    balance, _, problems = _report(out / "sensitivity_regomax.csv", ref.group)
    if not problems:
        err = np.abs(balance - ref.regomax_balance).max()
        if err > BALANCE_ATOL:
            problems.append(f"sensitivity_regomax.csv: balance off the full network by {err:.3e}")
    balance, derivative, more = _report(out / "sensitivity_import_export.csv", ref.group)
    if not more:
        err = np.abs(balance - ref.volume_balance).max()
        if err > BALANCE_ATOL:
            more.append(f"sensitivity_import_export.csv: balance off the volumes by {err:.3e}")
        err = np.abs(derivative - ref.volume_derivative)
        if np.any(err > DERIV_ATOL + DERIV_RTOL * np.abs(ref.volume_derivative)):
            more.append("sensitivity_import_export.csv: dB_ddelta off the closed form"
                        f" by {err.max():.3e}")
    return problems + more


@dataclass(frozen=True)
class NetworkReference:
    labels: frozenset[str]
    k: int


def network_selection(trade: Trade, group, source: tuple[str, str]) -> np.ndarray:
    """Group countries at the source product, then the source node."""
    return np.array([trade.node(c, source[1]) for c in group] + [trade.node(*source)])


def check_network(out: Path, ref: NetworkReference) -> list[str]:
    problems = []
    for view in ("import", "export"):
        path = out / f"network_{view}.csv"
        rows = _read_rows(path)
        if not rows:
            problems.append(f"{path.name}: no edges")
            continue
        per_node: dict[str, int] = {}
        for r in rows:
            src, dst, w = r["from"], r["to"], float(r["weight"])
            if src == dst:
                problems.append(f"{path.name}: self-loop at {src}")
            if not 0.0 < w <= 1.0:
                problems.append(f"{path.name}: weight {w!r} outside (0, 1]")
            if src not in ref.labels or dst not in ref.labels:
                problems.append(f"{path.name}: edge {src}->{dst} leaves the selection")
            column = src if view == "import" else dst
            per_node[column] = per_node.get(column, 0) + 1
        if max(per_node.values()) > ref.k:
            problems.append(f"{path.name}: a node has more than k={ref.k} partners")
        dot = (out / f"network_{view}.dot").read_text(encoding="utf-8")
        if dot.count(" -> ") != len(rows):
            problems.append(f"network_{view}.dot: edge count differs from the CSV")
    return problems
