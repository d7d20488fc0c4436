import logging

import numpy as np
import pytest

import wtnrank as w

logging.getLogger("wtnrank").setLevel(logging.ERROR)
for name in ("ingest", "gmatrix", "regomax", "sensitivity"):
    logging.getLogger(f"wtnrank.{name}").setLevel(logging.ERROR)


@pytest.fixture
def two_country_tensor():
    """Two countries, one product: A imports 10 from B, B imports 30 from A."""
    reg = w.Registry(countries=("AA", "BB"), products=("01",))
    m = np.array([[0.0, 10.0], [30.0, 0.0]])
    return w.MoneyTensor.from_product_matrices(reg, 2016, [m])


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
