"""Trade-balance computation and price-shock sensitivity.

Three methods share the balance definition B_c = (E_c - I_c)/(E_c + I_c)
on per-country export/import probabilities:

* reduced: shock applied inside the reduced matrices R of the selection
  "group countries x all products, plus the source node"; probabilities are
  the stationary vectors of the shocked reduced pair. The pair is reduced one
  direction at a time by `regomax.reduce_trade_pair`, and each direction is
  shocked and solved before the other is reduced. A shocked R' is never
  built: it is an operator on the stored R. Both shocks raise the source's
  flows into the group by 1 + delta and divide each column they reach by its
  new sum, and R's columns sum to 1, so both have one form:
  R' = (R + delta a b^T) diag(1 + delta (1^T a) b)^-1. The direct shock takes
  a = R's source column on the group (0 at the source) and b = e_s; the
  inverted one a = e_s and b = R's source row on the group (0 at the source).
* import-export: shock applied to the raw bilateral flows; probabilities are
  the normalized volume marginals.
* global-price: every flow of one product is rescaled and the full matrix
  pair is rebuilt; probabilities are the full-network stationary marginals.

Derivatives are central finite differences at +/- delta. The reduced and
import-export reports put in metadata["fd_error"] their largest distance
from the exact dB/ddelta at delta = 0: the linear response of both reduced
stationary vectors, and a closed form in the volumes. The reduced method
reads only each reduced matrix, never the split of its `ReducedSet`, so the
complement eigenpair is never computed: its metadata holds alpha, the
PageRank tol and fd_error, and no lambda_c or component weights (the
`reduce` command writes those).
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import ConvergenceError
from .gmatrix import DEFAULT_ALPHA, build_trade_pair
from .ingest import MoneyTensor
from .ranking import pagerank, trace
from .regomax import ReducedSet, Selection, reduce_trade_pair

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


def reduce_for_shock(
    tensor: MoneyTensor,
    spec: ShockSpec,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> Iterator[ReducedSet]:
    """The reductions of the direct, then the inverted matrix onto the shock
    selection, one at a time as `reduce_trade_pair` yields them. An unknown
    source node fails here, before the matrix pair is built.

    Node order: group countries (in the order given in the shock spec) x all
    products (registry order), then the source node last.
    """
    reg = tensor.registry
    source_node = reg.node_id(spec.source_country, spec.source_product)
    sel = Selection.for_countries(reg, spec.group, extra_nodes=(source_node,))
    return reduce_trade_pair(tensor, sel, alpha=alpha, tol=tol, max_iter=max_iter)


def _central_difference(balance_at, delta: float):
    """`balance_at(0.0)` and dB/ddelta from the +/- delta evaluations, for a
    nonzero delta; the first item `balance_at` returns is the balance."""
    baseline = balance_at(0.0)
    return baseline, (balance_at(delta)[0] - balance_at(-delta)[0]) / (2.0 * delta)


def _report(method, source, delta, countries, baseline, derivative, metadata, exact=None):
    """The report of a central difference, with `fd_error`, its largest distance
    from the exact dB/ddelta at delta = 0 that `exact()` gives, if given."""
    if exact is not None:
        metadata["fd_error"] = float(np.abs(derivative - exact()).max())
    b, imp, exp = baseline[:3]
    return SensitivityReport(method, source, delta, countries, b, derivative, imp, exp, metadata)


def _linear_response(
    matrix: np.ndarray, p: np.ndarray, rhs: np.ndarray, tol: float, max_iter: int
) -> np.ndarray:
    """dp of the stationary vector p of `matrix` R where R'(0) p = rhs:
    (I - R + p 1^T) dp = rhs, so sum(dp) == 0 (Meyer, SIAM Rev. 1975).

    Iterates x <- R x - p (1^T x) + rhs from x = 0: R - p 1^T has the
    spectrum of R with the unit eigenvalue of p taken out. The L1 steps
    shrink by a ratio r each, so the error left after a step is about
    step * r / (1 - r); the iteration stops once that and the step are both
    below `tol`. A sum-zero probe e_k - p is iterated beside rhs, so that a
    second unit eigenvalue of R (p not the unique stationary vector) ends in
    ConvergenceError even where rhs alone would converge at once (rhs == 0).
    """
    probe = -p
    probe[np.argmin(p)] += 1.0
    b = (rhs, probe)
    x = [rhs, probe]  # the first step from x = 0
    step = np.inf
    for _ in range(max_iter):
        previous, step = step, 0.0
        for k in range(2):
            # one matvec per column: a two-column product is slower on a dense R
            new = matrix @ x[k] - p * x[k].sum() + b[k]
            step = max(step, float(np.abs(new - x[k]).sum()))
            x[k] = new
        ratio = step / previous
        if step < tol and step * ratio < tol * (1.0 - ratio):
            return x[0]
    raise ConvergenceError("linear response iteration did not converge", max_iter, step)


def _shock(matrix: np.ndarray, a: np.ndarray, b: np.ndarray, delta: float) -> SimpleNamespace:
    """R' = (R + delta a b^T) diag(1 + delta (1^T a) b)^-1 as an operator on
    the stored R: R'x = R z + delta (b . z) a with z = x / (1 + delta (1^T a) b),
    see the module docstring. At delta == 0 its products are R x exactly."""
    scale = 1.0 + delta * a.sum() * b

    def matvec(x):
        z = x / scale
        return matrix @ z + delta * (b @ z) * a

    return SimpleNamespace(size=len(a), matvec=matvec)


def _shock_rhs(matrix: np.ndarray, a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R'(0) p of `_shock(matrix, a, b, delta)`: a (b . p) - (1^T a) R (b p)."""
    return a * (b @ p) - a.sum() * (matrix @ (b * p))


def reduced_balance_sensitivity(
    tensor: MoneyTensor,
    spec: ShockSpec,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> SensitivityReport:
    """Balance sensitivity through the reduced matrices of the selection.

    One direction at a time: its reduction runs once, its reduced matrix is
    shocked at 0 and +/- delta, its linear response is taken, and it is freed
    before the other direction is reduced. `fd_error` is measured against
    the exact linear response of both.
    """
    reductions = reduce_for_shock(tensor, spec, alpha=alpha, tol=tol, max_iter=max_iter)
    n_products = tensor.registry.n_products
    deltas = (0.0, spec.delta, -spec.delta)
    responses = []  # per direction: group marginals per delta, exact derivative
    settled = True  # the inverted response is only taken when the direct one settled
    for direct in (True, False):
        matrix = next(reductions).reduced  # the rest of the reduction is dropped here
        s = matrix.shape[0] - 1
        source = np.zeros(s + 1)
        source[s] = 1.0
        flows = np.append(matrix[:s, s] if direct else matrix[s, :s], 0.0)
        a, b = (flows, source) if direct else (source, flows)
        # each delta, 0 too, solves an operator on the stored R, not a copy
        p = {
            dv: pagerank(_shock(matrix, a, b, dv), tol=tol, max_iter=max_iter).probabilities
            for dv in deltas
        }
        derivative = None
        if settled:
            try:
                dp = _linear_response(matrix, p[0.0], _shock_rhs(matrix, a, b, p[0.0]), tol, max_iter)
                derivative = dp[:s].reshape(-1, n_products).sum(axis=1)
            except ConvergenceError:  # p not unique, or R periodic: the iteration cannot settle
                settled = False
        del matrix  # before the next reduction
        marginals = {dv: x[:s].reshape(-1, n_products).sum(axis=1) for dv, x in p.items()}
        responses.append((marginals, derivative))
    (imp, d_imp), (exp, d_exp) = responses

    def balance_at(dv):
        return balance(exp[dv], imp[dv]), imp[dv], exp[dv]

    def exact():
        if d_imp is None or d_exp is None:
            return np.inf  # the response is undefined: infinitely far
        i, e = imp[0.0], exp[0.0]
        total = e + i  # divided before the products: (e + i)^2 underflows for tiny shares
        return 2.0 * ((i / total) * (d_exp / total) - (e / total) * (d_imp / total))

    baseline, derivative = _central_difference(balance_at, spec.delta)
    return _report(
        METHOD_REDUCED, spec.source_label, spec.delta, spec.group, baseline, derivative,
        {"alpha": alpha, "pagerank_tol": tol}, exact=exact,
    )


def _volume_balance(tensor: MoneyTensor, spec: ShockSpec, delta: float):
    shocked = tensor if delta == 0.0 else tensor.scaled_flows(
        spec.source_product, spec.source_country, spec.group, 1.0 + delta
    )
    vol = shocked.volumes
    total = vol.total
    if total <= 0:
        raise ValueError("total trade volume is zero")
    idx = [shocked.registry.country_index(c) for c in spec.group]
    imp_vol = vol.country_import[idx]
    exp_vol = vol.country_export[idx]
    # balance on raw volumes: the grand total cancels in the ratio, so a
    # country untouched by the shock keeps a bit-identical balance
    return balance(exp_vol, imp_vol), imp_vol / total, exp_vol / total


def _volume_exact_derivative(tensor: MoneyTensor, spec: ShockSpec) -> np.ndarray:
    """dB_g = -2 E_g f_g / (E_g + I_g)^2 on raw volumes, with f_g the source's
    flow of the product into g: the shock adds delta * f_g to I_g and leaves
    E_g alone. The grand total cancels, as in `_volume_balance`, so no share
    of it can underflow."""
    reg = tensor.registry
    source = reg.node_id(spec.source_country, spec.source_product)
    into = tensor.matrix[:, [source]].toarray()[:, 0]
    f = into[[reg.node_id(c, spec.source_product) for c in spec.group]]
    vol = tensor.volumes
    idx = [reg.country_index(c) for c in spec.group]
    exp, imp = vol.country_export[idx], vol.country_import[idx]
    total = exp + imp  # divided before the product: (E + I)^2 can over- or underflow
    return -2.0 * (exp / total) * (f / total)


def import_export_sensitivity(tensor: MoneyTensor, spec: ShockSpec) -> SensitivityReport:
    """Balance sensitivity from raw bilateral volumes (no network effects).

    Only the direct flows from the source into the group are rescaled, by
    1 +/- spec.delta, so a group country with no such flow has exactly zero
    derivative; `fd_error` is measured against the closed form.
    """
    baseline, derivative = _central_difference(
        lambda dv: _volume_balance(tensor, spec, dv), spec.delta
    )
    return _report(
        METHOD_IMPORT_EXPORT, spec.source_label, spec.delta, spec.group, baseline, derivative, {},
        exact=lambda: _volume_exact_derivative(tensor, spec),
    )


def global_price_sensitivity(
    tensor: MoneyTensor,
    product: str,
    group=None,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> SensitivityReport:
    """Balance sensitivity to a worldwide price change of one product.

    All flows of the product are rescaled by 1 +/- delta, delta nonzero in
    (-1, 1), and the full matrix pair rebuilt, so each evaluation costs a
    complete pipeline run.
    """
    reg = tensor.registry
    if delta == 0.0 or not -1.0 < delta < 1.0:
        raise ValueError("delta must be nonzero and in (-1, 1)")
    reg.product_index(product)  # validate early
    countries = tuple(group) if group else reg.countries
    if len(set(countries)) != len(countries):
        raise ValueError(f"duplicate country in group {','.join(countries)}")
    idx = [reg.country_index(c) for c in countries]

    def balance_at(dv: float):
        shocked = tensor if dv == 0.0 else tensor.scaled_product(product, 1.0 + dv)
        direct, inverted = build_trade_pair(shocked, alpha=alpha, tol=tol, max_iter=max_iter)
        p = pagerank(direct, tol=tol, max_iter=max_iter)
        p_star = pagerank(inverted, tol=tol, max_iter=max_iter)
        imp = trace(p, "country", reg)[idx]
        exp = trace(p_star, "country", reg)[idx]
        return balance(exp, imp), imp, exp

    baseline, derivative = _central_difference(balance_at, delta)
    return _report(
        METHOD_GLOBAL_PRICE, product, delta, countries, baseline, derivative, {"alpha": alpha}
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
