"""Reduced Google matrix on a node selection, with component decomposition.

For selection blocks r (selected) and s (complement) of a column-stochastic
damped matrix G, the reduced matrix is

    R = G_rr + G_rs X,    X = (1 - G_ss)^(-1) G_sr ,

computed without ever forming the dense complement block. Every block of G
is sparse links plus a rank-two term, G_ss = alpha A_ss + U V_s^T and
G_sr = alpha A_sr + U V_r^T, so X is an exact solve with M = 1 - alpha A_ss
and a 2 x 2 capacitance system (Sherman-Morrison-Woodbury),

    X = Y + Z C^(-1) (V_s^T Y + V_r^T),
    Y = M^(-1) alpha A_sr,   Z = M^(-1) U,   C = 1 - V_s^T Z .

M is block-diagonal over the products of the node layout (node = country x
`n_products` + product): trade links never join two products, which mix
only through the rank-two term, so each block has at most one node per
country. With A_ss permuted into product order, each product's block is
one diagonal slice, densified and solved by one dense LU, with U and only
the columns of alpha A_sr that reach it as right-hand sides, so Y is kept
sparse. A node with no link inside the complement is solved in its
product's block.

With W = C^(-1) (V_s^T Y + V_r^T), and since G_rr = alpha A_rr + U_r V_r^T
shares U_r with G_rs = alpha A_rs + U_r V_s^T, the reduced matrix is one
sparse part plus one rank-four product, all nonnegative,

    R = alpha (A_rr + A_rs Y) + [U_r, G_rs Z] [V_r^T + V_s^T Y; W] ,

summed from the solve alone; its columns are clipped at zero and divided by
their sums. That moves an entry by LU rounding and by the column-sum defect
of the exact reduction of the float input, which a nearly closed complement
amplifies. A complement whose capacitance C is singular to working precision
(1-norm condition number above 1 / eps, or NaN), or with a product block
whose LU fails, is refused: 1 - G_ss is then singular too, or too close to
it for the solve.

The leading eigenpair of G_ss only splits R, and it is computed only when
the split is first read (the `reduce` command writes it; the reduced matrix
never needs it): with right/left eigenvectors psi_r, psi_l (normalized to
psi_l . psi_r = 1) and eigenvalue lam, the projector P = psi_r psi_l^T gives
the rank-one component G_rs psi_r psi_l^T G_sr / (1 - lam), and the deflated
rest G_rs (1 - P) X the indirect-pathway component, the sum above with one
more factor pair,

    alpha A_rs Y + [U_r, G_rs Z, -G_rs psi_r] [V_s^T Y; W; psi_l^T Y + (psi_l^T Z) W] .

So R = direct + projector + indirect holds up to rounding plus the rank-one
gap G_rs psi_r (psi_l^T G_sr / (1 - lam) - psi_l^T X), which vanishes for an
exact eigenpair; its max-norm is reported as `split_error`. A complement
with lam within 1e-12 of 1 has no split, and reading it raises.

Only the reduced matrix is stored dense. Each component is kept as one
(links, left, right) triple, sparse links plus a low-rank product (on trade
matrices alpha A_rs Y is block-diagonal by product); each is built when read,
and the component weights are summed from the triples without building any.
"""
from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .gmatrix import DEFAULT_ALPHA, GoogleMatrix, build_trade_pair
from .ingest import MoneyTensor, Registry
from .ranking import DEFAULT_MAX_ITER, DEFAULT_TOL, pagerank

DEFAULT_EIG_TOL = 1e-13
DEFAULT_EIG_MAX_ITER = 100000
# bytes allowed for the dense n x n float64 arrays alive at once (2 GiB: n up to 11 585).
# `reduce` holds one, the reduced matrix (before it, one residual block of at most n x n (or 2^19)
# elements). `reduce_trade_pair` reduces one direction at a time, so its callers hold
# one reduced matrix, and at most one more n x n array: the component the `reduce`
# command is writing (`sensitivity` shocks the reduced matrix without a copy).
# Larger selections are refused up front, and so is a complement product block whose one
# dense block would exceed it (on trade matrices it has at most one node per country;
# a matrix with no product layout solves its whole complement as one block)
DENSE_CAP_BYTES = 2 * 1024**3
DENSE_ARRAYS = 2


@dataclass(frozen=True)
class Selection:
    """Ordered distinct node ids; the order fixes reduced row/column order."""

    node_ids: tuple[int, ...]
    total: int

    def __post_init__(self):
        ids = self.node_ids
        if not ids:
            raise ValueError("selection is empty")
        if len(set(ids)) != len(ids):
            raise ValueError("selection contains duplicate node ids")
        if min(ids) < 0 or max(ids) >= self.total:
            raise ValueError("selection node id out of range")

    @property
    def n_selected(self) -> int:
        return len(self.node_ids)

    @property
    def n_complement(self) -> int:
        return self.total - len(self.node_ids)

    @cached_property
    def complement(self) -> np.ndarray:
        mask = np.ones(self.total, dtype=bool)
        mask[list(self.node_ids)] = False
        return np.flatnonzero(mask)

    @classmethod
    def for_countries(
        cls,
        registry: Registry,
        countries,
        products=None,
        extra_nodes=(),
    ) -> "Selection":
        """Selection of country x product nodes (given order) plus extras."""
        product_list = registry.products if products is None else tuple(products)
        ids = [
            registry.node_id(c, p)
            for c in countries
            for p in product_list
        ]
        for node in extra_nodes:
            if node not in ids:
                ids.append(node)
        return cls(node_ids=tuple(ids), total=registry.size)

    def labels(self, registry: Registry) -> tuple[str, ...]:
        return tuple(registry.node_label(i) for i in self.node_ids)


@dataclass(frozen=True)
class ReducedSet:
    """Reduced matrix, its components, and solver diagnostics.

    Only `reduced` is stored dense, summed from the complement solve alone (see
    the module docstring). `solve_residual` is the max-norm of
    (1 - G_ss) X - G_sr; `complement_blocks` counts the dense LU blocks the
    solve used, one per product that has a complement node.

    The split keeps each component as a (links, left, right) triple, read as
    links + left @ right: direct (alpha A_rr, U_r, V_r^T), projector (no links,
    G_rs psi_r, psi_l^T G_sr / (1 - lam)) and indirect (alpha A_rs Y, n x 5,
    5 x n). Its eigenpair runs on the first read of `complement_eigenvalue`,
    `split_error` or anything taken from the triples, and that read raises
    ConvergenceError when lam is within 1e-12 of 1 or the iteration stalls.
    Each read of a `*_part`, `indirect_diag` or `indirect_offdiag` builds a new
    dense n x n array; `weights` and `projector_column_distance` build none.

    `reduced == direct_part + projector_part + indirect_part` holds up to
    rounding plus `split_error`, the max-norm of the rank-one gap the
    eigenpair's error leaves between them; `indirect_part == indirect_diag +
    indirect_offdiag` is exact.
    """

    selection: Selection
    reduced: np.ndarray
    direct_block: GoogleMatrix
    solve_residual: float
    complement_blocks: int
    # what the split reads: the Google matrix, Y, Z, alpha A_rs Y and the four
    # factor pairs [U_r, G_rs Z] [V_s^T Y; W] (None with no complement)
    _solve: tuple | None

    @cached_property
    def _split(self) -> tuple[float, float, dict]:
        """(lam, split_error, each component's (links, left, right) triple by
        name), from the complement's leading eigenpair."""
        sel, block = self.selection, self.direct_block
        n = sel.n_selected
        parts = {"direct": (block.alpha * block.links, block.u, block.v.T),
                 "projector": _zero_part(n, 1), "indirect": _zero_part(n, 0)}
        if self._solve is None:
            return 0.0, 0.0, parts
        matrix, y, z, links, left, right = self._solve
        r, s = np.asarray(sel.node_ids), sel.complement
        lam, psi_r, psi_l, _ = _leading_pair(matrix.block(s, s))
        if 1.0 - lam < 1e-12:
            raise ConvergenceError(
                f"complement block is not strictly substochastic (1 - lambda_c = {1.0 - lam:.3e});"
                " no split"
            )
        column = matrix.block(r, s).matvec(psi_r)
        row = matrix.block(s, r).rmatvec(psi_l) / (1.0 - lam)
        parts["projector"] = (sparse.csr_matrix((n, n)), column[:, None], row[None, :])
        # the fifth factor pair, -G_rs psi_r and psi_l^T X, deflates G_rs X to the indirect part
        left = np.column_stack((left, -column))
        right = np.vstack((right, y.T @ psi_l + (psi_l @ z) @ right[2:]))
        # the rank-one gap c (r / (1 - lam) - psi_l^T X) between the sum and its split
        error = float(np.abs(column).max()) * float(np.abs(row - right[4]).max())
        if sel.n_complement > 1 or lam <= 0.0:
            # a one-node complement with lam > 0 is its own eigenvector, and deflation leaves
            # nothing (with lam == 0, psi_l == 0 and nothing is deflated: the general form)
            parts["indirect"] = (links, left, right)
        return lam, error, parts

    complement_eigenvalue = property(lambda self: self._split[0])
    split_error = property(lambda self: self._split[1])
    _parts = property(lambda self: self._split[2])

    @property
    def direct_part(self) -> np.ndarray:
        return self.direct_block.to_dense()

    @property
    def projector_part(self) -> np.ndarray:
        return _factored(*self._parts["projector"])

    @property
    def indirect_part(self) -> np.ndarray:
        return _factored(*self._parts["indirect"])

    @property
    def indirect_diag(self) -> np.ndarray:
        # the diagonal is copied out, so the indirect part is freed before the new array
        return np.diag(self.indirect_part.diagonal().copy())

    @property
    def indirect_offdiag(self) -> np.ndarray:
        off = self.indirect_part
        np.fill_diagonal(off, 0.0)
        return off

    @cached_property
    def weights(self) -> dict[str, float]:
        n = self.selection.n_selected
        sums = {name: float(links.sum()) + _factor_sum(left, right)
                for name, (links, left, right) in self._parts.items()}
        links, left, right = self._parts["indirect"]
        trace = float(links.diagonal().sum()) + float(np.einsum("ik,ki->", left, right))
        return {
            "reduced": component_weight(self.reduced),
            **{name: total / n for name, total in sums.items()},
            "indirect_offdiag": (sums["indirect"] - trace) / n,
        }

    @cached_property
    def projector_column_distance(self) -> float:
        """L1 distance ||c / sum(c) - pi||_1 between the projector's columns,
        each c = G_rs psi_r once normalized, and the reduced matrix's own
        stationary vector pi (closeness diagnostic); 0.0 with no live column."""
        _, column, row = self._parts["projector"]
        total = column.sum()
        if not (total > 0.0 and (row > 0.0).any()):
            return 0.0
        try:
            stationary = pagerank(self.reduced, tol=1e-10, max_iter=50000).probabilities
        except ConvergenceError:
            return float("nan")
        return float(np.abs(column[:, 0] / total - stationary).sum())


def component_weight(matrix: np.ndarray) -> float:
    """Sum of all elements divided by the matrix size."""
    matrix = np.asarray(matrix)
    return float(matrix.sum() / matrix.shape[0])


def _factor_sum(left: np.ndarray, right: np.ndarray) -> float:
    """Sum of all elements of left @ right, without forming it."""
    return float(left.sum(axis=0) @ right.sum(axis=1))


def _factored(links, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """links + left @ right as one n x n array. The product is taken whole:
    a column-blocked one rounds differently."""
    part = left @ right
    _add_sparse(part, links)
    return part


def _power(apply, n: int, name: str):
    """(eigenvalue, L1-normalized vector, calls of `apply`) of the power
    iteration of a nonnegative operator `apply` from the uniform vector: 0.0
    with the last iterate when the operator absorbs everything,
    ConvergenceError naming the `name` vector when the iteration stalls."""
    x = np.full(n, 1.0 / n)
    for it in range(DEFAULT_EIG_MAX_ITER):
        y = apply(x)
        lam = float(y.sum())
        if lam <= 0.0:
            return 0.0, x, it + 1
        residual = float(np.abs(y - lam * x).sum())
        x = y / lam
        if residual < DEFAULT_EIG_TOL:
            return lam, x, it + 1
    raise ConvergenceError(f"complement {name} iteration stalled", DEFAULT_EIG_MAX_ITER, residual)


def _leading_pair(block: GoogleMatrix):
    """Leading eigenvalue of a nonnegative block with right/left vectors.

    `_power` on the block and its transpose; vectors converge to the Perron
    pair when the block is irreducible (always true for damped matrices with
    positive teleportation). Right vector is L1-normalized, left vector
    scaled so left . right = 1.
    """
    n = block.shape[0]
    lam, x, it = _power(block.matvec, n, "eigenvector")
    norm, z, it_l = (0.0, None, 0) if lam == 0.0 else _power(block.rmatvec, n, "left-eigenvector")
    if norm == 0.0:
        # complement absorbs nothing: resolvent is a finite sum
        return 0.0, x, np.zeros(n), it + it_l
    overlap = float(z @ x)
    if overlap <= 1e-300:
        raise ConvergenceError(f"degenerate eigenvector overlap {overlap:.3e} in complement block")
    return lam, x, z / overlap, it + it_l


def _trivial_reduction(matrix: GoogleMatrix, sel: Selection) -> ReducedSet:
    order = np.asarray(sel.node_ids)
    block = matrix.block(order, order)
    return ReducedSet(sel, block.to_dense(), block, 0.0, 0, None)


def _zero_part(n: int, rank: int):
    """The (links, left, right) triple of a component that is exactly zero."""
    return sparse.csr_matrix((n, n)), np.zeros((n, rank)), np.zeros((rank, n))


def _add_sparse(dense: np.ndarray, matrix) -> None:
    """dense += matrix for a sparse matrix without duplicate entries."""
    coo = matrix.tocoo()
    dense[coo.row, coo.col] += coo.data


@contextmanager
def one_blas_thread():
    """Run on one thread of numpy's OpenBLAS, then restore the count."""
    # a threaded LU rounds differently at each thread count; another BLAS (MKL, say) is left alone
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # its symbol lookup reaches the BLAS it links
    get, put = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", lambda *_: None) for op in ("get", "set"))
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _solve_components(matrix: GoogleMatrix, r: np.ndarray, s: np.ndarray):
    """Y = M^(-1) alpha A_sr and Z = M^(-1) U with M = 1 - alpha A_ss, one
    product block of the complement (its nodes with one `s % n_products`) at
    a time, from one gather of G's complement rows in product order (see the
    module docstring).

    Returns Y (CSC) and Z (dense), the residual factors M Y - alpha A_sr and
    [M Z - U, U] with rows in product order, taken with the whole M so that
    a link joining two products shows there, and the number of blocks
    solved. A block that would exceed `DENSE_CAP_BYTES` raises ValueError
    before any block is allocated, and a singular one ConvergenceError.
    """
    m, n, alpha = s.size, r.size, matrix.alpha
    u = matrix.u[s]
    product = s % matrix.n_products
    products, counts = np.unique(product, return_counts=True)
    widest = int(counts.max())
    if 8 * widest * widest > DENSE_CAP_BYTES:
        raise ValueError(
            f"a complement component of {widest} nodes needs "
            f"{8 * widest * widest / 2**20:,.1f} MiB for its dense block, above the "
            f"{DENSE_CAP_BYTES / 2**20:,.1f} MiB cap"
        )
    nodes = np.argsort(product, kind="stable")  # block by block, ascending within
    starts = np.concatenate(([0], np.cumsum(counts)))

    # G's complement rows in block order: block k is rows starts[k]:starts[k + 1],
    # column j < m is complement node nodes[j] and column m + i selected node r[i].
    # Links between blocks fall outside each block's columns, so M Y shows them.
    where = np.argsort(np.concatenate((s[nodes], r))).astype(matrix.links.indices.dtype)
    rows = matrix.links[s[nodes]]
    gathered = sparse.csr_matrix((rows.data, where[rows.indices], rows.indptr), shape=(m, m + n))
    far = np.flatnonzero(gathered.indices >= m)  # the links to selected nodes: right-hand sides
    # their rows, selected nodes and values times alpha
    rhs = (np.searchsorted(gathered.indptr, far, "right") - 1, gathered.indices[far] - m,
           alpha * gathered.data[far])
    z = np.empty((m, 2))
    parts = []  # (rows, columns, values) of Y
    for k, p in enumerate(products):
        lo, hi = starts[k], starts[k + 1]
        size, idx = hi - lo, nodes[lo:hi]
        block = gathered[lo:hi, lo:hi].toarray()
        block *= -alpha
        block.flat[:: size + 1] += 1.0
        row, col, val = (part[slice(*np.searchsorted(rhs[0], (lo, hi)))] for part in rhs)
        reached, at = np.unique(col, return_inverse=True)
        b_k = np.zeros((size, 2 + reached.size))
        b_k[:, :2] = u[idx]
        np.add.at(b_k, (row - lo, 2 + at), val)
        try:
            x_k = np.linalg.solve(block, b_k)
        except np.linalg.LinAlgError as exc:
            message = f"complement block of product index {p} ({size} nodes) is singular"
            raise ConvergenceError(message) from exc
        z[idx] = x_k[:, :2]
        parts.append((np.repeat(idx, reached.size), np.tile(reached, size), x_k[:, 2:].ravel()))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    y = sparse.csc_matrix((vals, (rows, cols)), shape=(m, n))
    del parts, rows, cols, vals
    # in block order, A_ss X + A_sr = gathered @ [X; I] for X = Y, and with 0 for I, X = Z
    z_res = z[nodes] - alpha * (gathered @ np.vstack((z[nodes], np.zeros((n, 2))))) - u[nodes]
    y_p = y[nodes]
    y_res = gathered @ sparse.vstack((y_p, sparse.identity(n)), format="csr")
    del gathered  # the largest array here, freed before the sum
    return y, (y_p - alpha * y_res).tocsc(), z, np.hstack((z_res, u[nodes])), products.size


@one_blas_thread()
def reduce(matrix: GoogleMatrix, sel: Selection) -> ReducedSet:
    """Reduce a Google matrix onto a selection by the complement solve; the
    split into components waits for its first read (see `ReducedSet`).

    Args:
        matrix: the damped matrix to reduce.
        sel: ordered node selection (its order is the reduced index order).

    The trivial all-nodes selection returns the dense matrix itself with
    zero projector/indirect parts. A selection whose `DENSE_ARRAYS` dense
    n x n arrays would exceed `DENSE_CAP_BYTES` raises ValueError before any
    allocation. A complement whose Woodbury capacitance is singular to
    working precision, or with a singular product block, raises
    ConvergenceError. It runs on one BLAS thread.
    """
    if matrix.size != sel.total:
        raise ValueError("selection built for a different matrix size")
    n = sel.n_selected
    needed = DENSE_ARRAYS * 8 * n * n
    if needed > DENSE_CAP_BYTES:
        raise ValueError(
            f"a reduction to {n} nodes needs {needed / 2**20:,.1f} MiB for its "
            f"{DENSE_ARRAYS} dense {n} x {n} arrays, above the "
            f"{DENSE_CAP_BYTES / 2**20:,.1f} MiB cap; select fewer nodes"
        )
    if sel.n_complement == 0:
        return _trivial_reduction(matrix, sel)

    r, s = np.asarray(sel.node_ids), sel.complement
    y, y_res, z, left, blocks = _solve_components(matrix, r, s)
    v_s, v_r = matrix.v[s], matrix.v[r]
    capacitance = np.eye(2) - v_s.T @ z
    condition = np.linalg.cond(capacitance, 1)
    if not condition <= 1.0 / np.finfo(float).eps:  # NaN too
        raise ConvergenceError(
            "Woodbury capacitance of the complement block is singular to working precision"
            f" (condition number {condition:.1e})"
        )
    vy = (y.T @ v_s).T  # V_s^T Y
    w_rhs = vy + v_r.T
    w = np.linalg.solve(capacitance, w_rhs)
    # (1 - G_ss) X - G_sr = (M Y - alpha A_sr) + [M Z - U, U] [W; C W - V_s^T Y - V_r^T]
    right = np.vstack((w, capacitance @ w - w_rhs))
    residual = 0.0
    # a (complement, width) block is at most n x n elements, or 2^19 (4 MiB): a small n takes one block
    width = max(1, max(n * n, 1 << 19) // sel.n_complement)
    for start in range(0, n, width):
        cols = slice(start, start + width)
        res = left @ right[:, cols]
        _add_sparse(res, y_res[:, cols])
        residual = max(residual, float(res.max()), -float(res.min()))
        del res  # freed before the next block's: one (complement, width) array at a time
    del y_res

    b_rs = matrix.block(r, s)
    direct_block = matrix.block(r, r)
    # G_rs X = alpha A_rs Y + [U_r, G_rs Z] [V_s^T Y; W], with G_rs = alpha A_rs + U_r V_s^T
    links = b_rs.alpha * b_rs.links @ y  # CSR, one entry per place
    left = np.column_stack((b_rs.u, b_rs.matvec(z)))
    # G_rr + G_rs X = alpha (A_rr + A_rs Y) + [U_r, G_rs Z] [V_r^T + V_s^T Y; W],
    # since G_rr = alpha A_rr + U_r V_r^T shares U_r with G_rs
    reduced = _factored(links + direct_block.alpha * direct_block.links, left, np.vstack((w_rhs, w)))
    # every summand is nonnegative (M and C are M-matrices), so a negative entry
    # is LU rounding; the sums are renormalized whole, or they drift by ~1e-14
    np.clip(reduced, 0.0, None, out=reduced)
    reduced /= reduced.sum(axis=0)
    solve = (matrix, y, z, links, left, np.vstack((vy, w)))
    return ReducedSet(sel, reduced, direct_block, residual, blocks, solve)


def reduce_trade_pair(
    tensor: MoneyTensor,
    sel: Selection,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> Iterator[ReducedSet]:
    """Build the (direct, inverted) pair of `tensor` on first use and yield the
    reduction of each onto `sel`, the direct one first. The generator keeps no
    Google matrix past its reduction, but each yielded `ReducedSet` holds its
    own (in `_solve`, for the split) until the caller drops it. So a caller
    that drops each `ReducedSet` before the next holds one direction at a time
    (not under `zip`, whose reused result tuple keeps the last one alive)."""
    pair = list(build_trade_pair(tensor, alpha=alpha, tol=tol, max_iter=max_iter))
    while pair:
        yield reduce(pair.pop(0), sel)


def write_reduced_csv(path, matrix: np.ndarray, labels) -> None:
    """Dense CSV: header of node labels, then one row per node."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(labels) + "\n")
        for row in matrix:  # one row of Python floats at a time, not all n^2
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_diagnostics(path, reduced: ReducedSet) -> None:
    """Key-value sidecar with eigenvalue, solve-residual and weight diagnostics."""
    w = reduced.weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lambda_c {reduced.complement_eigenvalue!r}\n")
        fh.write(f"solve_residual {reduced.solve_residual!r}\n")
        fh.write(f"complement_blocks {reduced.complement_blocks}\n")
        fh.write(f"split_error {reduced.split_error!r}\n")
        fh.write(f"projector_column_distance {reduced.projector_column_distance!r}\n")
        for name in ("reduced", "direct", "projector", "indirect", "indirect_offdiag"):
            fh.write(f"weight_{name} {w[name]!r}\n")
