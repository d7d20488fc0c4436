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

M is block-diagonal over the weakly connected components of A_ss (on trade
matrices, one block per product, since products mix only through the
rank-two term). Each component is factored by its own sparse LU (nodes with
no link inside the complement are gathered into one diagonal block), and a
column of alpha A_sr is solved only on the components its links reach, so Y
is kept sparse.

The resolvent is split through the leading eigenpair of G_ss: with
right/left eigenvectors psi_r, psi_l (normalized to psi_l . psi_r = 1) and
eigenvalue lam, the projector P = psi_r psi_l^T gives the rank-one component
G_rs psi_r psi_l^T G_sr / (1 - lam), and the deflated rest G_rs (1 - P) X the
indirect-pathway component. Only the reduced matrix and the indirect part
are stored dense; the other components are built from factors when read.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import ConvergenceError
from .gmatrix import GoogleMatrix
from .ingest import Registry
from .ranking import pagerank

log = logging.getLogger(__name__)

DEFAULT_EIG_TOL = 1e-13
DEFAULT_EIG_MAX_ITER = 100000
_NEGATIVE_WARN = -1e-12
_COLUMN_BLOCK = 256  # selected columns solved at a time; bounds the dense work arrays
# bytes allowed for six dense n x n float64 matrices, the reduced matrix and its five
# components (2 GiB: n up to about 6 690): `reduce` holds the direct, projector and
# indirect parts and their sum at once. Larger selections are refused up front
DENSE_CAP_BYTES = 2 * 1024**3


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

    Only `reduced` and `indirect_part` are stored dense. Each read of
    `direct_part` (from the sparse block `direct_block` = G_rr),
    `projector_part` (the outer product of `projector_column` = G_rs psi_r and
    `projector_row` = psi_l^T G_sr, over 1 - lam), `indirect_diag` or
    `indirect_offdiag` builds a new dense n x n array.

    `reduced == direct_part + projector_part + indirect_part` holds by
    construction up to the clamping of tiny negative rounding residue;
    `indirect_part == indirect_diag + indirect_offdiag` is exact.
    `solve_residual` is the max-norm of (1 - G_ss) X - G_sr for the exact
    complement solve X; `complement_blocks` counts the sparse LU blocks it
    used (the batch of link-free complement nodes counts as one).
    """

    selection: Selection
    reduced: np.ndarray
    indirect_part: np.ndarray
    direct_block: GoogleMatrix
    projector_column: np.ndarray
    projector_row: np.ndarray
    complement_eigenvalue: float
    solve_residual: float
    complement_blocks: int

    @property
    def direct_part(self) -> np.ndarray:
        return self.direct_block.to_dense()

    @property
    def projector_part(self) -> np.ndarray:
        lam = self.complement_eigenvalue
        # the expression `reduce` sums, so the bytes match
        return np.outer(self.projector_column, self.projector_row) / (1.0 - lam)

    @property
    def indirect_diag(self) -> np.ndarray:
        return split_diagonal(self.indirect_part)[0]

    @property
    def indirect_offdiag(self) -> np.ndarray:
        return split_diagonal(self.indirect_part)[1]

    @property
    def weights(self) -> dict[str, float]:
        return {
            "reduced": component_weight(self.reduced),
            "direct": component_weight(self.direct_part),
            "projector": component_weight(self.projector_part),
            "indirect": component_weight(self.indirect_part),
            "indirect_offdiag": component_weight(self.indirect_offdiag),
        }

    @cached_property
    def projector_column_distance(self) -> float:
        """Max L1 distance between normalized projector columns and the
        reduced matrix's own stationary vector (closeness diagnostic)."""
        projector = self.projector_part
        sums = projector.sum(axis=0)
        live = sums > 0
        if not np.any(live):
            return 0.0
        try:
            stationary = pagerank(self.reduced, tol=1e-10, max_iter=50000).probabilities
        except ConvergenceError:
            return float("nan")
        cols = projector[:, live] / sums[live]
        return float(np.abs(cols - stationary[:, None]).sum(axis=0).max())


def component_weight(matrix: np.ndarray) -> float:
    """Sum of all elements divided by the matrix size."""
    matrix = np.asarray(matrix)
    return float(matrix.sum() / matrix.shape[0])


def split_diagonal(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into its diagonal and off-diagonal parts."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    diag = np.zeros_like(matrix)
    idx = np.arange(matrix.shape[0])
    diag[idx, idx] = matrix[idx, idx]
    return diag, matrix - diag


def _leading_pair(block: GoogleMatrix):
    """Leading eigenvalue of a nonnegative block with right/left vectors.

    Power iteration on the block and its transpose; vectors converge to the
    Perron pair when the block is irreducible (always true for damped
    matrices with positive teleportation). Right vector is L1-normalized,
    left vector scaled so left . right = 1.
    """
    n = block.shape[0]
    lam = 0.0
    x = np.full(n, 1.0 / n)
    for it in range(DEFAULT_EIG_MAX_ITER):
        y = block.matvec(x)
        lam = float(y.sum())
        if lam <= 0.0:
            # complement absorbs nothing: resolvent is a finite sum
            return 0.0, x, np.zeros(n), it
        residual = float(np.abs(y - lam * x).sum())
        x = y / lam
        if residual < DEFAULT_EIG_TOL:
            break
    else:
        raise ConvergenceError(
            "complement eigenvector iteration stalled", DEFAULT_EIG_MAX_ITER, residual
        )

    z = np.full(n, 1.0 / n)
    for it_l in range(DEFAULT_EIG_MAX_ITER):
        w = block.rmatvec(z)
        norm = float(np.abs(w).sum())
        if norm <= 0.0:
            return 0.0, x, np.zeros(n), it + it_l
        residual_l = float(np.abs(w - norm * z).sum())
        z = w / norm
        if residual_l < DEFAULT_EIG_TOL:
            break
    else:
        raise ConvergenceError(
            "complement left-eigenvector iteration stalled", DEFAULT_EIG_MAX_ITER, residual_l
        )

    overlap = float(z @ x)
    if overlap <= 1e-300:
        raise ConvergenceError(
            "degenerate left/right eigenvector overlap in complement block", it + it_l, overlap
        )
    return lam, x, z / overlap, it + it_l


def _trivial_reduction(matrix: GoogleMatrix, sel: Selection) -> ReducedSet:
    order = np.asarray(sel.node_ids)
    block = matrix.block(order, order)
    return ReducedSet(
        selection=sel,
        reduced=block.to_dense(),
        indirect_part=np.zeros(block.shape),
        direct_block=block,
        projector_column=np.zeros(sel.n_selected),
        projector_row=np.zeros(sel.n_selected),
        complement_eigenvalue=0.0,
        solve_residual=0.0,
        complement_blocks=0,
    )


def _add_sparse(dense: np.ndarray, matrix) -> None:
    """dense += matrix for a sparse matrix without duplicate entries."""
    coo = matrix.tocoo()
    dense[coo.row, coo.col] += coo.data


def _solve_components(b_ss: GoogleMatrix, b_sr: GoogleMatrix):
    """Y = M^(-1) alpha A_sr and Z = M^(-1) U with M = 1 - alpha A_ss, one
    weakly connected component of A_ss at a time (see the module docstring).

    Returns Y (CSC) and Z (dense), their residuals M Y - alpha A_sr and
    M Z - U taken with the whole M, so a wrong partition into components
    shows there, and the number of blocks factored.
    """
    # imported here: scipy.sparse.linalg and csgraph would slow every CLI start
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import splu

    m = b_ss.shape[0]
    mat = (sparse.identity(m, format="csr") - b_ss.alpha * b_ss.links).tocsr()
    rhs = (b_sr.alpha * b_sr.links).tocsr()
    u = b_ss.u
    n_comp, labels = connected_components(b_ss.links, directed=True, connection="weak")
    sizes = np.bincount(labels, minlength=n_comp)
    # nodes with no link inside the complement are gathered into one block
    labels = np.where(sizes[labels] > 1, labels, n_comp)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)

    z = np.empty((m, 2))
    rows, cols, vals = [], [], []
    for idx in blocks:
        lu = splu(mat[idx][:, idx].tocsc())
        z[idx] = lu.solve(u[idx])
        b_k = rhs[idx]
        reached = np.unique(b_k.indices)
        if reached.size:
            rows.append(np.repeat(idx, reached.size))
            cols.append(np.tile(reached, idx.size))
            vals.append(lu.solve(b_k[:, reached].toarray()).ravel())
    if vals:
        pattern = (np.concatenate(rows), np.concatenate(cols))
        y = sparse.csc_matrix((np.concatenate(vals), pattern), shape=rhs.shape)
    else:
        y = sparse.csc_matrix(rhs.shape)
    y_res = (mat @ y - rhs).tocsc()
    return y, y_res, z, mat @ z - u, len(blocks)


def reduce(matrix: GoogleMatrix, sel: Selection) -> ReducedSet:
    """Reduce a Google matrix onto a selection with full decomposition.

    Args:
        matrix: the damped matrix to reduce.
        sel: ordered node selection (its order is the reduced index order).

    The trivial all-nodes selection returns the dense matrix itself with
    zero projector/indirect parts. A selection whose six dense n x n matrices
    (`reduced` and its five components; two are stored, see `ReducedSet`)
    would exceed `DENSE_CAP_BYTES` raises ValueError before any allocation.
    """
    if matrix.size != sel.total:
        raise ValueError("selection built for a different matrix size")
    n = sel.n_selected
    needed = 6 * 8 * n * n
    if needed > DENSE_CAP_BYTES:
        raise ValueError(
            f"a reduction to {n} nodes needs {needed / 2**20:,.1f} MiB for its six dense "
            f"{n} x {n} matrices, above the {DENSE_CAP_BYTES / 2**20:,.1f} MiB cap; "
            "select fewer nodes"
        )
    if sel.n_complement == 0:
        return _trivial_reduction(matrix, sel)

    r = np.asarray(sel.node_ids)
    s = sel.complement
    b_rs = matrix.block(r, s)
    b_sr = matrix.block(s, r)
    b_ss = matrix.block(s, s)

    lam, psi_r, psi_l, _ = _leading_pair(b_ss)
    if 1.0 - lam < 1e-12:
        raise ConvergenceError(
            "complement block is not strictly substochastic; resolvent undefined", 0, 1.0 - lam
        )

    y, y_res, z, z_res, blocks = _solve_components(b_ss, b_sr)
    capacitance = np.eye(2) - b_ss.v.T @ z
    w_rhs = (y.T @ b_ss.v).T + b_sr.v.T
    w = np.linalg.solve(capacitance, w_rhs)
    w_res = capacitance @ w - w_rhs
    u = b_ss.u
    indirect_part = np.empty((n, n))
    residual = 0.0
    for start in range(0, n, _COLUMN_BLOCK):
        cols = slice(start, start + _COLUMN_BLOCK)
        # (1 - G_ss) X - G_sr = (M Y - alpha A_sr) + (M Z - U) W + U (C W - V_s^T Y - V_r^T)
        res = z_res @ w[:, cols]
        res += u @ w_res[:, cols]
        _add_sparse(res, y_res[:, cols])
        residual = max(residual, float(np.abs(res).max()))
        del res  # freed before x is built: one (complement, block) array at a time
        x = z @ w[:, cols]
        _add_sparse(x, y[:, cols])
        # deflate before G_rs: a one-node complement then leaves exactly zero
        x -= np.outer(psi_r, psi_l @ x)
        indirect_part[:, cols] = b_rs.matvec(x)

    direct_block = matrix.block(r, r)
    projector_column, projector_row = b_rs.matvec(psi_r), b_sr.rmatvec(psi_l)
    projector_part = np.outer(projector_column, projector_row) / (1.0 - lam)
    reduced = direct_block.to_dense() + projector_part + indirect_part

    worst = float(reduced.min())
    if worst < _NEGATIVE_WARN:
        log.warning("reduced matrix has negative entries down to %.3e", worst)
    negative_cols = np.unique(np.nonzero(reduced < 0)[1])
    if negative_cols.size:
        np.clip(reduced, 0.0, None, out=reduced)
        reduced[:, negative_cols] /= reduced[:, negative_cols].sum(axis=0)
        log.info("clamped tiny negatives in %d column(s)", negative_cols.size)

    return ReducedSet(
        selection=sel,
        reduced=reduced,
        indirect_part=indirect_part,
        direct_block=direct_block,
        projector_column=projector_column,
        projector_row=projector_row,
        complement_eigenvalue=lam,
        solve_residual=residual,
        complement_blocks=blocks,
    )


def write_reduced_csv(path, matrix: np.ndarray, labels) -> None:
    """Dense CSV: header of node labels, then one row per node."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(labels) + "\n")
        for row in matrix:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def write_diagnostics(path, reduced: ReducedSet) -> None:
    """Key-value sidecar with eigenvalue, solve-residual and weight diagnostics."""
    w = reduced.weights
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"lambda_c {reduced.complement_eigenvalue!r}\n")
        fh.write(f"solve_residual {reduced.solve_residual!r}\n")
        fh.write(f"complement_blocks {reduced.complement_blocks}\n")
        fh.write(f"projector_column_distance {reduced.projector_column_distance!r}\n")
        for name in ("reduced", "direct", "projector", "indirect", "indirect_offdiag"):
            fh.write(f"weight_{name} {w[name]!r}\n")
