import csv
import gc
import logging

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy import sparse

import wtnrank as w
from wtnrank.errors import ConvergenceError, ParseError, TradeDataError
from wtnrank.ingest import CSV_HEADER
from wtnrank.sensitivity import _linear_response

logging.getLogger("wtnrank").setLevel(logging.ERROR)
for name in ("ingest", "gmatrix", "regomax", "sensitivity"):
    logging.getLogger(f"wtnrank.{name}").setLevel(logging.ERROR)


def from_product_matrices(registry, year: int, matrices) -> w.MoneyTensor:
    """A tensor from one (importer, exporter) matrix per product, scattered
    into the node matrix: row i of product p is node row i * n_p + p."""
    n, n_p = registry.n_countries, registry.n_products
    mats = [sparse.csr_matrix(m) for m in matrices]
    if len(mats) != n_p or any(m.shape != (n, n) for m in mats):
        raise TradeDataError(f"one ({n}, {n}) flow matrix per product required")
    counts = np.column_stack([np.diff(m.indptr) for m in mats])  # [i, p]: row i * n_p + p
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices, data = np.empty(indptr[-1], np.int32), np.empty(indptr[-1])
    for p, m in enumerate(mats):
        dest = np.repeat(indptr[p:-1:n_p] - m.indptr[:-1], counts[:, p]) + np.arange(m.nnz)
        indices[dest], data[dest] = m.indices * n_p + p, m.data
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(registry.size, registry.size))
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return w.MoneyTensor(year=year, registry=registry, matrix=matrix)


@pytest.fixture
def two_country_tensor():
    """Two countries, one product: A imports 10 from B, B imports 30 from A."""
    reg = w.Registry(countries=("AA", "BB"), products=("01",))
    m = np.array([[0.0, 10.0], [30.0, 0.0]])
    return from_product_matrices(reg, 2016, [m])


def _count_reduced_sets() -> int:
    return sum(isinstance(o, w.ReducedSet) for o in gc.get_objects())


@pytest.fixture
def live_reduced_sets():
    """Count of `ReducedSet` objects alive in the process beyond those alive
    when the test started (an earlier failed test's traceback may hold one)."""
    baseline = _count_reduced_sets()
    return lambda: _count_reduced_sets() - baseline


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
    return from_product_matrices(reg, 2016, [m])


@pytest.fixture
def toy3():
    return make_toy3()


@st.composite
def small_shocks(draw):
    """A random tensor of 4-8 countries and 1-3 products, with empty products,
    dangling countries and sources, and a shock on one node of it, seen by
    every other country or by a random group of them."""
    n_c, n_p = draw(st.integers(4, 8)), draw(st.integers(1, 3))
    reg = w.Registry(
        countries=tuple(f"C{i}" for i in range(n_c)),
        products=tuple(f"{p:02d}" for p in range(n_p)),
    )
    value = st.sampled_from([0.0, 0.0, 0.0, 1e-6, 1.0, 2.5, 100.0, 1e6])
    flows = np.array(draw(st.lists(value, min_size=n_p * n_c * n_c, max_size=n_p * n_c * n_c)))
    flows = flows.reshape(n_p, n_c, n_c) * (1.0 - np.eye(n_c))
    tensor = from_product_matrices(reg, 2016, list(flows))
    source = draw(st.sampled_from(reg.countries))
    others = [c for c in reg.countries if c != source]
    if draw(st.booleans()):
        group = tuple(others)
    else:
        group = tuple(draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
    spec = w.ShockSpec(source, draw(st.sampled_from(reg.products)), group)
    return tensor, spec, draw(st.sampled_from([0.5, 0.85]))


def same_trade(a, b) -> bool:
    """Exact equality of two tensors' registries, years and stored flow values."""
    if a.registry != b.registry or a.year != b.year:
        return False
    return list(a.to_records()) == list(b.to_records())


def assert_same_tensor(actual, expected):
    """The same year and registry, and the same CSR arrays: dtypes and bytes."""
    assert actual.year == expected.year
    assert actual.registry == expected.registry
    a, b = actual.matrix, expected.matrix
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def total_value(tensor) -> float:
    return float(tensor.matrix.sum())


def flow_value(tensor, product: str, importer: str, exporter: str) -> float:
    """The flow of `product` from `exporter` to `importer`."""
    reg = tensor.registry
    return float(tensor.matrix[reg.node_id(importer, product), reg.node_id(exporter, product)])


def column(matrix, j: int) -> np.ndarray:
    """Column j of a `GoogleMatrix`, dense."""
    return matrix.block(slice(None), slice(j, j + 1)).to_dense()[:, 0]


def parse_edge_csv(path) -> w.TradeEdgeList:
    """Read back an edge-csv file written by serialize_graph."""
    view = ""
    k = 0
    edges = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                meta = dict(part.split("=", 1) for part in line[1:].strip().split(","))
                view = meta.get("view", "")
                k = int(meta.get("k", 0))
                continue
            if line == "from,to,weight":
                continue
            src, dst, weight = line.split(",")
            edges.append((src, dst, float(weight)))
    return w.TradeEdgeList(edges=tuple(edges), view=view, k=k)


def column_sums(matrix) -> np.ndarray:
    """Column sums of a `GoogleMatrix`, without densifying it."""
    return matrix.rmatvec(np.ones(matrix.shape[0]))


def product_slice(probabilities, registry, product: str) -> np.ndarray:
    """Per-country probabilities of a single product (local product ranking)."""
    grid = np.asarray(probabilities).reshape(registry.n_countries, registry.n_products)
    return grid[:, registry.product_index(product)].copy()


ORACLE_CAP = 2000


def split_diagonal(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into its diagonal and off-diagonal parts."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    return np.diag(np.diag(matrix)), off


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


def projector_distance_oracle(reduced) -> float:
    """The largest L1 distance between a live (positive-sum) column of the
    dense projector part, divided by its sum, and the stationary vector of
    `reduced.reduced`: 0.0 with no live column, NaN when that PageRank does
    not converge. Verification only."""
    projector = reduced.projector_part
    sums = projector.sum(axis=0)
    live = sums > 0
    if not live.any():
        return 0.0
    try:
        stationary = w.pagerank(reduced.reduced, tol=1e-10, max_iter=50000).probabilities
    except ConvergenceError:
        return float("nan")
    columns = projector[:, live] / sums[live]
    return float(np.abs(columns - stationary[:, None]).sum(axis=0).max())


def arpack_leading_pair(block):
    """(eigenvalue, right vector, left vector) of the leading eigenpair of a
    `GoogleMatrix` block from ARPACK, normalized as `regomax` does: the right
    vector to L1 norm 1, the left vector so that left . right = 1."""
    from scipy.sparse.linalg import LinearOperator, eigs

    n = block.shape[0]

    def leading(apply):
        operator = LinearOperator((n, n), matvec=apply, dtype=np.float64)
        values, vectors = eigs(operator, k=1, which="LR", v0=np.full(n, 1.0 / n))
        return values[0].real, vectors[:, 0].real

    lam, right = leading(block.matvec)
    _, left = leading(block.rmatvec)
    right /= right.sum()
    return lam, right, left / (left @ right)


def reduce_single_lu_reference(matrix, sel, block: int = 256) -> dict:
    """The six reduced matrices of `regomax.reduce`, named as its fields, from
    one sparse LU of the whole complement with every selected column solved as
    a dense right-hand side and checked by the direct residual max-norm, and
    the complement eigenpair from ARPACK. Verification only."""
    from scipy.sparse.linalg import splu

    n = sel.n_selected
    r = np.asarray(sel.node_ids)
    s = sel.complement
    b_rs, b_sr, b_ss = matrix.block(r, s), matrix.block(s, r), matrix.block(s, s)
    lam, psi_r, psi_l = arpack_leading_pair(b_ss)
    lu = splu(sparse.identity(s.shape[0], format="csc") - (b_ss.alpha * b_ss.links).tocsc())
    z = lu.solve(b_ss.u)
    capacitance = np.eye(2) - b_ss.v.T @ z
    projector = np.outer(b_rs.matvec(psi_r), b_sr.rmatvec(psi_l)) / (1.0 - lam)
    indirect = np.empty((n, n))
    for start in range(0, n, block):
        cols = slice(start, start + block)
        x = lu.solve(b_sr.alpha * b_sr.links[:, cols].toarray())
        x += z @ np.linalg.solve(capacitance, b_ss.v.T @ x + b_sr.v[cols].T)
        assert np.abs(x - b_ss.matvec(x) - b_sr.block(slice(None), cols).to_dense()).max() < 1e-12
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


def shock_mid():
    """The shock-mid benchmark's shape: 12 countries x 61 products + source
    out of 100 x 61 = 6 100 nodes."""
    tensor = w.synth_tensor(1, 100, 61, 0.25)
    reg = tensor.registry
    spec = w.ShockSpec(reg.countries[-2], reg.products[1], reg.countries[:12])
    source = reg.node_id(spec.source_country, spec.source_product)
    sel = w.Selection.for_countries(reg, spec.group, extra_nodes=(source,))
    assert sel.n_selected == 733
    return tensor, spec, sel


def reduce_pair(tensor, spec, alpha=w.DEFAULT_ALPHA, tol=1e-12, max_iter=10000):
    """The (direct, inverted) `ReducedSet`s of a shock's selection, both held
    at once. Verification only."""
    reg = tensor.registry
    source = reg.node_id(spec.source_country, spec.source_product)
    sel = w.Selection.for_countries(reg, spec.group, extra_nodes=(source,))
    pair = w.build_trade_pair(tensor, alpha=alpha, tol=tol, max_iter=max_iter)
    return tuple(w.reduce(matrix, sel) for matrix in pair)


def _shocked_copy(matrix, rows, cols, delta):
    """A copy of `matrix` with the entries at `rows` x `cols` scaled by
    1 + delta and the columns `cols` renormalized. delta == 0 is an exact copy."""
    if 1.0 + delta <= 0.0:
        raise ValueError("1 + delta must be positive")
    out = matrix.copy()
    if delta == 0.0:
        return out
    out[np.ix_(rows, cols)] *= 1.0 + delta
    sums = out[:, cols].sum(axis=0)
    if np.any(sums <= 0.0):
        raise ValueError("column has no mass to renormalize")
    out[:, cols] /= sums
    return out


def apply_direct_shock(matrix, source_col, group_rows, delta):
    """Dense oracle of the direct shock: the source column's group rows
    scaled by 1 + delta, that column renormalized. Verification only."""
    return _shocked_copy(matrix, np.asarray(group_rows), [source_col], delta)


def apply_inverted_shock(matrix, source_row, group_cols, delta):
    """Dense oracle of the inverted shock: the source row's group columns
    scaled by 1 + delta, each of them renormalized. Verification only."""
    return _shocked_copy(matrix, [source_row], np.asarray(group_cols), delta)


def shock_vectors(matrix):
    """The (a, b) of `sensitivity._shock` on R = `matrix` (source last) for the
    direct, then the inverted shock: R's source column on the group and e_s,
    then e_s and R's source row on the group."""
    s = matrix.shape[0] - 1
    source = np.zeros(s + 1)
    source[s] = 1.0
    return (np.append(matrix[:s, s], 0.0), source), (source, np.append(matrix[s, :s], 0.0))


def shock_pair(direct: np.ndarray, inverted: np.ndarray, delta: float):
    """Apply the price shock to both baseline reduced matrices."""
    s = direct.shape[0] - 1
    group = np.arange(s)  # every node before the source
    return apply_direct_shock(direct, s, group, delta), apply_inverted_shock(inverted, s, group, delta)


def build_shock_matrices(tensor, spec, delta, alpha=w.DEFAULT_ALPHA):
    """Reduced (direct, inverted) matrices with the shock applied at delta."""
    direct, inverted = reduce_pair(tensor, spec, alpha=alpha)
    return shock_pair(direct.reduced, inverted.reduced, delta)


def reduced_sensitivity_oracle(tensor, spec, alpha=w.DEFAULT_ALPHA, tol=1e-12, max_iter=10000):
    """The `regomax` report from both reduced matrices held at once: each
    delta shocks both and solves both stationary vectors, then both linear
    responses are taken. Verification only."""
    r_direct, r_inverted = reduce_pair(tensor, spec, alpha, tol, max_iter)
    direct, inverted = r_direct.reduced, r_inverted.reduced
    n_p, s = tensor.registry.n_products, direct.shape[0] - 1

    def marginals(p):
        return p[: len(spec.group) * n_p].reshape(-1, n_p).sum(axis=1)

    def balance_at(dv):
        shocked = shock_pair(direct, inverted, dv)
        p_imp, p_exp = (w.pagerank(m, tol=tol, max_iter=max_iter).probabilities for m in shocked)
        imp, exp = marginals(p_imp), marginals(p_exp)
        return w.balance(exp, imp), imp, exp, p_imp, p_exp

    b, imp, exp, p_imp, p_exp = balance_at(0.0)
    derivative = (balance_at(spec.delta)[0] - balance_at(-spec.delta)[0]) / (2.0 * spec.delta)
    c = direct[:, s]
    rhs_imp = p_imp[s] * (np.append(c[:s], 0.0) - c[:s].sum() * c)
    moved = p_exp[:s] * inverted[s, :s]
    rhs_exp = np.append(np.zeros(s), moved.sum()) - inverted[:, :s] @ moved
    try:
        d_imp = marginals(_linear_response(direct, p_imp, rhs_imp, tol, max_iter))
        d_exp = marginals(_linear_response(inverted, p_exp, rhs_exp, tol, max_iter))
        total = exp + imp
        exact = 2.0 * ((imp / total) * (d_exp / total) - (exp / total) * (d_imp / total))
        fd_error = float(np.abs(derivative - exact).max())
    except ConvergenceError:
        fd_error = np.inf
    metadata = {"alpha": alpha, "pagerank_tol": tol, "fd_error": fd_error}
    return w.SensitivityReport(
        "regomax", spec.source_label, spec.delta, spec.group, b, derivative, imp, exp, metadata
    )


def close_reports(a, b) -> bool:
    """Two sensitivity reports agree: balances and probabilities within 1e-12,
    dB/ddelta and `fd_error` within 1e-12 + 1e-9 |value|, the rest equal."""

    def near(x, y, rel):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        differ = x != y  # equal values, inf too, are near with no difference taken
        x, y = x[differ], y[differ]
        finite = np.all(np.isfinite(x) & np.isfinite(y))
        return bool(finite and np.all(np.abs(x - y) <= 1e-12 + rel * np.abs(y)))

    arrays = ("balance", "import_probability", "export_probability")
    rest = [{k: v for k, v in r.metadata.items() if k != "fd_error"} for r in (a, b)]
    return (
        all(near(getattr(a, f), getattr(b, f), 0.0) for f in arrays)
        and near(a.derivative, b.derivative, 1e-9)
        and near(a.metadata["fd_error"], b.metadata["fd_error"], 1e-9)
        and repr((a.method, a.source, a.delta, a.countries, rest[0]))
        == repr((b.method, b.source, b.delta, b.countries, rest[1]))
    )


def linear_response_oracle(matrix: np.ndarray, p: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The response dp of the stationary vector p of `matrix` R to R'(0) p =
    rhs, from one dense LU of (I - R + p 1^T) dp = rhs. Verification only."""
    system = p[:, None] - matrix
    system[np.diag_indices_from(system)] += 1.0
    return np.linalg.solve(system, rhs)


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
        if not product.isalnum():
            raise ParseError(f"product code {product!r} is not 2 letters or digits", lineno)
        for code in (exporter, importer):
            if len(code) != 2:
                raise ParseError("country codes must be 2 characters", lineno)
            if not code.isalnum():
                raise ParseError("country codes must be 2 letters or digits", lineno)
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
    each product's matrix is built in its own pass, then mapped to node ids.
    Verification only."""
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
    n, n_p = registry.n_countries, registry.n_products
    rows, cols, data = [], [], []
    for p in range(n_p):
        mask = p_idx == p
        m = sparse.coo_matrix(
            (values[mask], (imp_idx[mask], exp_idx[mask])), shape=(n, n)
        ).tocsr()
        m.sum_duplicates()
        m.eliminate_zeros()
        m = m.tocoo()  # importer i, exporter e of product p -> nodes i * n_p + p, e * n_p + p
        rows.append(m.row.astype(np.int64) * n_p + p)
        cols.append(m.col.astype(np.int64) * n_p + p)
        data.append(m.data)
    matrix = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(registry.size, registry.size),
    ).tocsr()
    return w.MoneyTensor(year=year, registry=registry, matrix=matrix)
