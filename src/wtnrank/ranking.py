"""Stationary-vector computation and rank orderings.

`pagerank` works on anything exposing a column-stochastic transition: either
a plain square ndarray or an object with `size` and `matvec(x)`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError

if TYPE_CHECKING:
    from .ingest import Registry

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000


@dataclass(frozen=True)
class RankVector:
    """Probability vector over nodes plus solver metadata."""

    probabilities: np.ndarray
    iterations: int
    residual: float


def order_indices(vector: np.ndarray) -> np.ndarray:
    """Node order by decreasing value of a probability (or any finite)
    vector, ties by ascending node id: a stable sort."""
    vector = np.asarray(vector, dtype=np.float64)
    if not np.all(np.isfinite(vector)):
        raise ValueError("cannot rank non-finite values")
    return np.argsort(-vector, kind="stable")


def _as_operator(matrix):
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense operator must be a square matrix")
        return matrix.shape[0], lambda x: matrix @ x
    return matrix.size, matrix.matvec


def pagerank(
    matrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RankVector:
    """Power iteration for the stationary vector of a column-stochastic matrix.

    Args:
        matrix: square ndarray, or operator with `size` and `matvec`.
        tol: L1 bound on the fixed-point residual of the returned vector.
        max_iter: iteration cap before raising ConvergenceError.

    Returns:
        RankVector whose probabilities x satisfy sum(x) == 1 and
        ||matrix @ x - x||_1 < tol.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive: {tol!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n, matvec = _as_operator(matrix)
    x = np.full(n, 1.0 / n)
    residual = np.inf
    for it in range(max_iter + 1):
        y = matvec(x)
        residual = float(np.abs(y - x).sum())
        if residual < tol:
            return RankVector(probabilities=x, iterations=it, residual=residual)
        s = y.sum()
        if s <= 0:
            raise ConvergenceError("iteration collapsed to zero mass", it, residual)
        x = y / s  # renormalize to absorb floating-point drift
    raise ConvergenceError("power iteration did not converge", max_iter, residual)


def trace(vector, axis: str, registry: "Registry") -> np.ndarray:
    """Sum node probabilities to a per-country or per-product marginal."""
    probs = vector.probabilities if isinstance(vector, RankVector) else np.asarray(vector)
    grid = probs.reshape(registry.n_countries, registry.n_products)
    if axis == "country":
        return grid.sum(axis=1)
    if axis == "product":
        return grid.sum(axis=0)
    raise ValueError(f"axis must be 'country' or 'product', got {axis!r}")


def write_node_ranks(path, probabilities: np.ndarray, registry: "Registry") -> None:
    """CSV export `node,country,product,probability,rank_index`, best first."""
    order = order_indices(probabilities)
    labels = [f"{c},{p}" for c in registry.countries for p in registry.products]
    ranked = zip(order.tolist(), np.asarray(probabilities, dtype=np.float64)[order].tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("node,country,product,probability,rank_index\n")
        for pos, (node, prob) in enumerate(ranked, start=1):
            fh.write(f"{node},{labels[node]},{prob!r},{pos}\n")


def write_marginal_ranks(path, probabilities: np.ndarray, labels, label_name: str) -> None:
    """CSV export `<label>,probability,rank_index`, best first."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{label_name},probability,rank_index\n")
        for pos, i in enumerate(order_indices(probabilities), start=1):
            fh.write(f"{labels[i]},{float(probabilities[i])!r},{pos}\n")
