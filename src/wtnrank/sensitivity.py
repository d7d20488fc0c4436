"""Trade-balance computation and price-shock sensitivity.

Three methods share the balance definition B_c = (E_c - I_c)/(E_c + I_c)
on per-country export/import probabilities:

* reduced: shock applied inside the reduced matrices of the selection
  "group countries x all products, plus the source node"; probabilities are
  the stationary vectors of the shocked reduced pair.
* import-export: shock applied to the raw bilateral flows; probabilities are
  the normalized volume marginals.
* global-price: every flow of one product is rescaled and the full matrix
  pair is rebuilt; probabilities are the full-network stationary marginals.

Derivatives are central finite differences at +/- delta.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .gmatrix import DEFAULT_ALPHA, build_trade_pair
from .ingest import MoneyTensor, Registry, volumes
from .ranking import pagerank, trace
from .regomax import ReducedSet, Selection, reduce

log = logging.getLogger(__name__)

DEFAULT_DELTA = 1e-3

METHOD_REDUCED = "regomax"
METHOD_IMPORT_EXPORT = "import-export"
METHOD_GLOBAL_PRICE = "global-price"


@dataclass(frozen=True)
class ShockSpec:
    """A (1 + delta) price shock on one exporter-product node, observed by a
    group of countries. The source country must not belong to the group."""

    source_country: str
    source_product: str
    group: tuple[str, ...]
    delta: float = DEFAULT_DELTA

    def __post_init__(self):
        if not self.group:
            raise ValueError("shock group is empty")
        if self.source_country in self.group:
            raise ValueError("source country cannot be part of the observed group")
        if len(set(self.group)) != len(self.group):
            raise ValueError("duplicate country in shock group")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")

    @property
    def source_label(self) -> str:
        return f"{self.source_country}:{self.source_product}"


@dataclass(frozen=True)
class SensitivityReport:
    """Baseline balances and their price-shock derivatives per group country."""

    method: str
    source: str
    delta: float
    countries: tuple[str, ...]
    balance: np.ndarray
    derivative: np.ndarray
    import_probability: np.ndarray
    export_probability: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.countries)
        for name in ("balance", "derivative", "import_probability", "export_probability"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
        if np.any(np.abs(self.balance) > 1.0 + 1e-12):
            raise ValueError("balance outside [-1, 1]")
        if not np.all(np.isfinite(self.derivative)):
            raise ValueError("derivative is not finite")


def balance(export_marginal: np.ndarray, import_marginal: np.ndarray) -> np.ndarray:
    """Normalized export-minus-import indicator, in [-1, 1] per country."""
    e = np.asarray(export_marginal, dtype=np.float64)
    i = np.asarray(import_marginal, dtype=np.float64)
    if e.shape != i.shape:
        raise ValueError("marginal shapes differ")
    if np.any(e < 0) or np.any(i < 0):
        raise ValueError("marginals must be nonnegative")
    denom = e + i
    dead = denom == 0
    if np.any(dead):
        raise ValueError(f"balance undefined for entries {np.flatnonzero(dead).tolist()}")
    return (e - i) / denom


def apply_direct_shock(
    matrix: np.ndarray, source_col: int, group_rows: np.ndarray, delta: float
) -> np.ndarray:
    """Scale the source column's group-row entries by (1 + delta) and
    renormalize that column to unit sum. delta == 0 returns an exact copy."""
    if 1.0 + delta <= 0.0:
        raise ValueError("1 + delta must be positive")
    out = matrix.copy()
    if delta == 0.0:
        return out
    col = out[:, source_col]
    col[group_rows] *= 1.0 + delta
    total = col.sum()
    if total <= 0.0:
        raise ValueError("shocked column has no mass to renormalize")
    col /= total
    return out


def apply_inverted_shock(
    matrix: np.ndarray, source_row: int, group_cols: np.ndarray, delta: float
) -> np.ndarray:
    """Scale the source row's entries at group columns by (1 + delta) and
    renormalize each touched column to unit sum. delta == 0 is an exact copy."""
    if 1.0 + delta <= 0.0:
        raise ValueError("1 + delta must be positive")
    out = matrix.copy()
    if delta == 0.0:
        return out
    out[source_row, group_cols] *= 1.0 + delta
    sums = out[:, group_cols].sum(axis=0)
    if np.any(sums <= 0.0):
        raise ValueError("shocked column has no mass to renormalize")
    out[:, group_cols] /= sums
    return out


@dataclass(frozen=True)
class ReducedTradePair:
    """Baseline reduced direct/inverted matrices for a shock selection.

    Node order: group countries (in the order given in the shock spec) x all
    products (registry order), then the source node last.
    """

    registry: Registry
    spec: ShockSpec
    selection: Selection
    direct_set: ReducedSet
    inverted_set: ReducedSet

    @property
    def direct(self) -> np.ndarray:
        return self.direct_set.reduced

    @property
    def inverted(self) -> np.ndarray:
        return self.inverted_set.reduced

    @property
    def source_pos(self) -> int:
        return self.selection.n_selected - 1

    @property
    def group_positions(self) -> np.ndarray:
        return np.arange(self.selection.n_selected - 1)

    def group_marginals(self, probabilities: np.ndarray) -> np.ndarray:
        """Per-group-country sums of reduced node probabilities."""
        n_p = self.registry.n_products
        grid = probabilities[: len(self.spec.group) * n_p].reshape(-1, n_p)
        return grid.sum(axis=1)


def reduce_for_shock(
    tensor: MoneyTensor,
    spec: ShockSpec,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> ReducedTradePair:
    """Build the matrix pair and reduce both onto the shock selection."""
    reg = tensor.registry
    source_node = reg.node_id(spec.source_country, spec.source_product)
    sel = Selection.for_countries(reg, spec.group, extra_nodes=(source_node,))
    direct, inverted = build_trade_pair(tensor, alpha=alpha, tol=tol, max_iter=max_iter)
    return ReducedTradePair(
        registry=reg,
        spec=spec,
        selection=sel,
        direct_set=reduce(direct, sel),
        inverted_set=reduce(inverted, sel),
    )


def shock_pair(pair: ReducedTradePair, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Apply the price shock to both baseline reduced matrices."""
    direct = apply_direct_shock(pair.direct, pair.source_pos, pair.group_positions, delta)
    inverted = apply_inverted_shock(pair.inverted, pair.source_pos, pair.group_positions, delta)
    return direct, inverted


def _central_difference(balance_at, delta: float, richardson: bool):
    """Central difference of `balance_at(dv) -> (balance, imports, exports)`.

    Returns the baseline triple, dB/ddelta from the +/- delta evaluations
    (zero when delta == 0), and metadata with the half-step Richardson error
    estimate when `richardson` is set.
    """
    baseline = balance_at(0.0)
    metadata = {}
    if delta == 0.0:
        return baseline, np.zeros_like(baseline[0]), metadata
    derivative = (balance_at(delta)[0] - balance_at(-delta)[0]) / (2.0 * delta)
    if richardson:
        half = (balance_at(delta / 2.0)[0] - balance_at(-delta / 2.0)[0]) / delta
        metadata["richardson_error"] = float(np.abs(derivative - half).max())
    return baseline, derivative, metadata


def _pair_balance(pair: ReducedTradePair, delta: float, tol: float, max_iter: int):
    direct, inverted = shock_pair(pair, delta)
    p_imp = pagerank(direct, tol=tol, max_iter=max_iter).probabilities
    p_exp = pagerank(inverted, tol=tol, max_iter=max_iter).probabilities
    imp = pair.group_marginals(p_imp)
    exp = pair.group_marginals(p_exp)
    return balance(exp, imp), imp, exp


def reduced_balance_sensitivity(
    tensor: MoneyTensor,
    spec: ShockSpec,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 10000,
    richardson: bool = True,
) -> SensitivityReport:
    """Balance sensitivity through the reduced matrices of the selection.

    The reduction runs once; +/- delta shocks are applied to the reduced
    matrices. When `richardson` is set, the derivative is recomputed at
    delta/2 and the difference reported in metadata as an error estimate.
    """
    pair = reduce_for_shock(tensor, spec, alpha=alpha, tol=tol, max_iter=max_iter)
    delta = spec.delta
    (b_base, imp0, exp0), derivative, extra = _central_difference(
        lambda dv: _pair_balance(pair, dv, tol, max_iter), delta, richardson
    )
    metadata = {
        "alpha": alpha,
        "pagerank_tol": tol,
        "complement_eigenvalue_direct": pair.direct_set.complement_eigenvalue,
        "complement_eigenvalue_inverted": pair.inverted_set.complement_eigenvalue,
        "weights_direct": pair.direct_set.weights,
        "weights_inverted": pair.inverted_set.weights,
        **extra,
    }
    return SensitivityReport(
        method=METHOD_REDUCED,
        source=spec.source_label,
        delta=delta,
        countries=spec.group,
        balance=b_base,
        derivative=derivative,
        import_probability=imp0,
        export_probability=exp0,
        metadata=metadata,
    )


def _volume_balance(tensor: MoneyTensor, spec: ShockSpec, delta: float):
    if delta == 0.0:
        shocked = tensor
    else:
        shocked = tensor.scaled_flows(
            spec.source_product, spec.source_country, spec.group, 1.0 + delta
        )
    vol = volumes(shocked)
    total = vol.total
    if total <= 0:
        raise ValueError("total trade volume is zero")
    idx = [shocked.registry.country_index(c) for c in spec.group]
    imp_vol = vol.country_import[idx]
    exp_vol = vol.country_export[idx]
    # balance on raw volumes: the grand total cancels in the ratio, so a
    # country untouched by the shock keeps a bit-identical balance
    return balance(exp_vol, imp_vol), imp_vol / total, exp_vol / total


def import_export_sensitivity(
    tensor: MoneyTensor,
    spec: ShockSpec,
    delta: float | None = None,
    richardson: bool = True,
) -> SensitivityReport:
    """Balance sensitivity from raw bilateral volumes (no network effects).

    Only the direct flows from the source into the group are rescaled, so a
    group country with no such flow has exactly zero derivative.
    """
    if delta is None:
        delta = spec.delta
    if not -1.0 < delta < 1.0:
        raise ValueError("delta must be in (-1, 1)")
    (b_base, imp0, exp0), derivative, metadata = _central_difference(
        lambda dv: _volume_balance(tensor, spec, dv), delta, richardson
    )
    return SensitivityReport(
        method=METHOD_IMPORT_EXPORT,
        source=spec.source_label,
        delta=delta,
        countries=spec.group,
        balance=b_base,
        derivative=derivative,
        import_probability=imp0,
        export_probability=exp0,
        metadata=metadata,
    )


def global_price_sensitivity(
    tensor: MoneyTensor,
    product: str,
    group=None,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    tol: float = 1e-12,
    max_iter: int = 10000,
    richardson: bool = False,
) -> SensitivityReport:
    """Balance sensitivity to a worldwide price change of one product.

    All flows of the product are rescaled by (1 + delta) and the full matrix
    pair rebuilt, so each evaluation costs a complete pipeline run.
    """
    reg = tensor.registry
    if not -1.0 < delta < 1.0:
        raise ValueError("delta must be in (-1, 1)")
    reg.product_index(product)  # validate early
    countries = tuple(group) if group else reg.countries
    idx = [reg.country_index(c) for c in countries]

    def balance_at(dv: float):
        shocked = tensor if dv == 0.0 else tensor.scaled_product(product, 1.0 + dv)
        direct, inverted = build_trade_pair(shocked, alpha=alpha, tol=tol, max_iter=max_iter)
        p = pagerank(direct, tol=tol, max_iter=max_iter)
        p_star = pagerank(inverted, tol=tol, max_iter=max_iter)
        imp = trace(p, "country", reg)[idx]
        exp = trace(p_star, "country", reg)[idx]
        return balance(exp, imp), imp, exp

    (b_base, imp0, exp0), derivative, extra = _central_difference(balance_at, delta, richardson)
    metadata = {"alpha": alpha, **extra}
    return SensitivityReport(
        method=METHOD_GLOBAL_PRICE,
        source=product,
        delta=delta,
        countries=countries,
        balance=b_base,
        derivative=derivative,
        import_probability=imp0,
        export_probability=exp0,
        metadata=metadata,
    )


def write_report(path, report: SensitivityReport) -> None:
    """CSV export `country,balance,dB_ddelta,method,source,delta`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("country,balance,dB_ddelta,method,source,delta\n")
        for i, country in enumerate(report.countries):
            fh.write(
                f"{country},{float(report.balance[i])!r},{float(report.derivative[i])!r},"
                f"{report.method},{report.source},{float(report.delta)!r}\n"
            )
