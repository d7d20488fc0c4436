import csv
import gc
import logging

import numpy as np
import pytest
from scipy import sparse

import wtnrank as w
from wtnrank.errors import ParseError, TradeDataError
from wtnrank.ingest import CSV_HEADER
from wtnrank.regomax import _leading_pair, split_diagonal

logging.getLogger("wtnrank").setLevel(logging.ERROR)
for name in ("ingest", "gmatrix", "regomax", "sensitivity"):
    logging.getLogger(f"wtnrank.{name}").setLevel(logging.ERROR)


@pytest.fixture
def two_country_tensor():
    """Two countries, one product: A imports 10 from B, B imports 30 from A."""
    reg = w.Registry(countries=("AA", "BB"), products=("01",))
    m = np.array([[0.0, 10.0], [30.0, 0.0]])
    return w.MoneyTensor.from_product_matrices(reg, 2016, [m])


def live_reduced_sets() -> int:
    """Count of `ReducedSet` objects alive in the process."""
    return sum(isinstance(o, w.ReducedSet) for o in gc.get_objects())


def make_toy3(a=200.0, b=300.0, c=300.0, yx=0.0):
    """3-country, 1-product toy: source A, pure importer X, intermediary Y.

    M[X<-A]=a, M[Y<-A]=b, M[A<-Y]=c, M[Y<-X]=yx. With yx=0 country X
    exports nothing and its node is dangling in the direct matrix.
    """
    reg = w.Registry(countries=("AA", "XX", "YY"), products=("00",))
    m = np.zeros((3, 3))
    m[1, 0] = a
    m[2, 0] = b
    m[0, 2] = c
    m[2, 1] = yx
    return w.MoneyTensor.from_product_matrices(reg, 2016, [m])


@pytest.fixture
def toy3():
    return make_toy3()


ORACLE_CAP = 2000


def reduce_dense_oracle(matrix, sel, cap: int = ORACLE_CAP) -> np.ndarray:
    """Reference reduction by dense block solve; for verification only."""
    if matrix.size > cap:
        raise ValueError(f"oracle refuses size {matrix.size} > cap {cap}")
    dense = matrix.to_dense()
    r = np.asarray(sel.node_ids)
    if sel.n_complement == 0:
        return dense[np.ix_(r, r)]
    s = sel.complement
    g_rr = dense[np.ix_(r, r)]
    g_rs = dense[np.ix_(r, s)]
    g_sr = dense[np.ix_(s, r)]
    g_ss = dense[np.ix_(s, s)]
    x = np.linalg.solve(np.eye(s.shape[0]) - g_ss, g_sr)
    return g_rr + g_rs @ x


def reduce_single_lu_reference(matrix, sel, block: int = 256) -> dict:
    """The six reduced matrices of `regomax.reduce`, named as its fields, from
    one sparse LU of the whole complement with every selected column solved as
    a dense right-hand side and checked by the direct residual max-norm.
    Verification only."""
    from scipy.sparse.linalg import splu

    n = sel.n_selected
    r = np.asarray(sel.node_ids)
    s = sel.complement
    b_rs, b_sr, b_ss = matrix.block(r, s), matrix.block(s, r), matrix.block(s, s)
    lam, psi_r, psi_l, _ = _leading_pair(b_ss)
    lu = splu(sparse.identity(s.shape[0], format="csc") - (b_ss.alpha * b_ss.links).tocsc())
    z = lu.solve(b_ss.u)
    capacitance = np.eye(2) - b_ss.v.T @ z
    projector = np.outer(b_rs.matvec(psi_r), b_sr.rmatvec(psi_l)) / (1.0 - lam)
    indirect = np.empty((n, n))
    for start in range(0, n, block):
        cols = slice(start, start + block)
        x = lu.solve(b_sr.alpha * b_sr.links[:, cols].toarray())
        x += z @ np.linalg.solve(capacitance, b_ss.v.T @ x + b_sr.v[cols].T)
        assert np.abs(x - b_ss.matvec(x) - b_sr.to_dense(cols)).max() < 1e-12
        x -= np.outer(psi_r, psi_l @ x)
        indirect[:, cols] = b_rs.matvec(x)
    direct = matrix.block(r, r).to_dense()
    reduced = direct + projector + indirect
    negative_cols = np.unique(np.nonzero(reduced < 0)[1])
    np.clip(reduced, 0.0, None, out=reduced)
    reduced[:, negative_cols] /= reduced[:, negative_cols].sum(axis=0)
    diag, offdiag = split_diagonal(indirect)
    return {
        "reduced": reduced,
        "direct_part": direct,
        "projector_part": projector,
        "indirect_part": indirect,
        "indirect_diag": diag,
        "indirect_offdiag": offdiag,
    }


def dump_google(matrix, triples_path, sidecar_path) -> None:
    """Debug dump: `row,col,value` triples of the stored stochastic links plus
    a sidecar with alpha, the dangling columns and the personalization vector."""
    coo = matrix.links.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(triples_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("row,col,value\n")
        for k in order:
            fh.write(f"{coo.row[k]},{coo.col[k]},{float(coo.data[k])!r}\n")
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        fh.write(f"alpha {float(matrix.alpha)!r}\n")
        hanging = ",".join(str(i) for i in np.flatnonzero(matrix.dangling))
        fh.write(f"dangling {hanging}\n")
        for value in matrix.personalization:
            fh.write(f"{float(value)!r}\n")


def build_shock_matrices(tensor, spec, delta, alpha=w.DEFAULT_ALPHA):
    """Reduced (direct, inverted) matrices with the shock applied at delta."""
    return w.shock_pair(w.reduce_for_shock(tensor, spec, alpha=alpha), delta)


def dense_pagerank_oracle(dense: np.ndarray) -> np.ndarray:
    """Unit-eigenvalue eigenvector via the dense eigensolver, L1-normalized."""
    vals, vecs = np.linalg.eig(dense)
    i = int(np.argmin(np.abs(vals - 1.0)))
    assert abs(vals[i] - 1.0) < 1e-9
    vec = vecs[:, i]
    vec = np.real(vec / vec.sum())
    assert np.all(vec > -1e-12)
    vec = np.clip(vec, 0.0, None)
    return vec / vec.sum()


def brute_force_balance(tensor, spec, alpha, dv, max_iter=200000):
    """Tensor-level shock oracle: rescale the source's flows into the group,
    rebuild the full pair, restrict the full stationary vectors to the shock
    selection, renormalize, and balance the group marginals."""
    reg = tensor.registry
    source_node = reg.node_id(spec.source_country, spec.source_product)
    nodes = [reg.node_id(c, p) for c in spec.group for p in reg.products] + [source_node]
    n_p = reg.n_products
    ng = len(spec.group)
    shocked = tensor if dv == 0 else tensor.scaled_flows(
        spec.source_product, spec.source_country, spec.group, 1.0 + dv
    )
    direct, inverted = w.build_trade_pair(shocked, alpha=alpha, max_iter=max_iter)
    p = w.pagerank(direct, max_iter=max_iter).probabilities[nodes]
    ps = w.pagerank(inverted, max_iter=max_iter).probabilities[nodes]
    p = p / p.sum()
    ps = ps / ps.sum()
    imp = p[: ng * n_p].reshape(-1, n_p).sum(axis=1)
    exp = ps[: ng * n_p].reshape(-1, n_p).sum(axis=1)
    return (exp - imp) / (exp + imp)


def brute_force_derivative(tensor, spec, alpha, delta=None):
    d = spec.delta if delta is None else delta
    plus = brute_force_balance(tensor, spec, alpha, +d)
    minus = brute_force_balance(tensor, spec, alpha, -d)
    return (plus - minus) / (2.0 * d)


def _parse_rows_reference(fh, year):
    """Yield (lineno, product, exporter, importer, value) for matching rows."""
    reader = csv.reader(fh)
    header_seen = False
    for lineno, row in enumerate(reader, start=1):
        if not row or (row[0].lstrip().startswith("#")):
            continue
        if not header_seen:
            if tuple(c.strip() for c in row) != CSV_HEADER:
                raise ParseError(
                    f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", lineno
                )
            header_seen = True
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 columns, got {len(row)}", lineno)
        y_s, product, exporter, importer, value_s = (c.strip() for c in row)
        try:
            y = int(y_s)
        except ValueError:
            raise ParseError(f"bad year {y_s!r}", lineno) from None
        if len(product) != 2:
            raise ParseError(f"product code {product!r} is not 2 characters", lineno)
        if len(exporter) != 2 or len(importer) != 2:
            raise ParseError("country codes must be 2 characters", lineno)
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(f"bad value {value_s!r}", lineno) from None
        if not np.isfinite(value) or value < 0:
            raise ParseError(f"value {value_s!r} is negative or not finite", lineno)
        if y != year:
            continue
        yield lineno, product, exporter, importer, value
    if not header_seen:
        raise TradeDataError("no records: file is empty")


def load_money_tensor_reference(path, year, registry=None):
    """Row-by-row loader: every row is checked and indexed on its own, and
    each product's matrix is built in its own pass. Verification only."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(_parse_rows_reference(fh, year))
    dropped_self = 0
    records = []
    for lineno, product, exporter, importer, value in rows:
        if exporter == importer:
            dropped_self += 1
            continue
        records.append((lineno, product, exporter, importer, value))
    if dropped_self:
        logging.getLogger("wtnrank.ingest").warning(
            "%s: dropped %d self-trade row(s)", path, dropped_self
        )
    if not records:
        raise TradeDataError(f"no records for year {year} in {path}")

    if registry is None:
        countries = sorted({r[2] for r in records} | {r[3] for r in records})
        products = sorted({r[1] for r in records})
        registry = w.Registry(countries=tuple(countries), products=tuple(products))

    p_idx = np.empty(len(records), dtype=np.int64)
    imp_idx = np.empty(len(records), dtype=np.int64)
    exp_idx = np.empty(len(records), dtype=np.int64)
    values = np.empty(len(records), dtype=np.float64)
    for k, (lineno, product, exporter, importer, value) in enumerate(records):
        try:
            p_idx[k] = registry.product_index(product)
            exp_idx[k] = registry.country_index(exporter)
            imp_idx[k] = registry.country_index(importer)
        except TradeDataError as exc:
            raise TradeDataError(f"line {lineno}: {exc}") from None
        values[k] = value
    n = registry.n_countries
    flows = []
    for p in range(registry.n_products):
        mask = p_idx == p
        m = sparse.coo_matrix(
            (values[mask], (imp_idx[mask], exp_idx[mask])), shape=(n, n)
        ).tocsr()
        m.sum_duplicates()
        m.eliminate_zeros()
        flows.append(m)
    return w.MoneyTensor(year=year, registry=registry, flows=tuple(flows))
