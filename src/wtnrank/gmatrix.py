"""Column-stochastic trade matrices and their damped Google matrices.

Both are a `GoogleMatrix`, which is never materialized. With stored sparse
links A, dangling indicator d (columns of zero source volume, uniform over
all N nodes), personalization v and damping alpha,

    G = alpha * A + U V^T,   U = [alpha/N * 1, (1 - alpha) * v],   V = [d, 1],

so the dangling and teleportation terms are one rank-two correction, and
every block G[rows, cols] has the same form on its sub-links. A plain
stochastic matrix is the case alpha = 1.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .errors import TradeDataError
from .ingest import MoneyTensor, Registry
from .ranking import pagerank, trace

log = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.5

DIRECT = "direct"
INVERTED = "inverted"


@dataclass(frozen=True)
class GoogleMatrix:
    """G = alpha * A + U V^T (see the module docstring), or a block of it.

    `links` holds A[rows, cols], `dangling` the flags of the columns and
    `personalization` v[rows]; `total` is the full node count N that a
    dangling column spreads over.
    """

    links: sparse.csr_matrix
    dangling: np.ndarray  # bool, per column
    personalization: np.ndarray  # per row
    alpha: float
    total: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.links.shape

    @property
    def size(self) -> int:
        return self.links.shape[0]

    @property
    def u(self) -> np.ndarray:
        uniform = np.full(self.shape[0], self.alpha / self.total)
        return np.column_stack((uniform, (1.0 - self.alpha) * self.personalization))

    @property
    def v(self) -> np.ndarray:
        return np.column_stack((self.dangling.astype(np.float64), np.ones(self.shape[1])))

    def block(self, rows, cols) -> "GoogleMatrix":
        return replace(
            self,
            links=self.links[rows][:, cols].tocsr(),
            dangling=self.dangling[cols],
            personalization=self.personalization[rows],
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply G to a vector or to the columns of a (cols, k) matrix."""
        x = np.asarray(x, dtype=np.float64)
        out = self.alpha * (self.links @ x + x[self.dangling].sum(axis=0) / self.total)
        return out + np.multiply.outer((1.0 - self.alpha) * self.personalization, x.sum(axis=0))

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return self.alpha * (self.links.T @ y) + self.v @ (self.u.T @ y)

    def to_dense(self) -> np.ndarray:
        """Dense matrix; a column block is `block(slice(None), cols).to_dense()`."""
        dense = self.links.toarray()
        dense[:, self.dangling] = 1.0 / self.total
        dense *= self.alpha
        dense += (1.0 - self.alpha) * self.personalization[:, None]
        return dense


def _check_personalization(v: np.ndarray, size: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"personalization size {v.shape} != ({size},)")
    if np.any(v < 0):
        raise ValueError("personalization entries must be nonnegative")
    if abs(v.sum() - 1.0) > 1e-8:
        raise ValueError("personalization must sum to 1")
    return v


def build_stochastic(tensor: MoneyTensor, direction: str = DIRECT) -> GoogleMatrix:
    """Normalize the node flow matrix into a column-stochastic matrix.

    Direct: column (exporter, p) of the flow matrix distributes over
    importers, normalized by the exporter's product export volume. Inverted:
    the transposed flows, columns normalized by import volume. Products never
    mix except through dangling columns, which are uniform over all nodes.
    The result is undamped (alpha = 1, uniform personalization).
    """
    if direction not in (DIRECT, INVERTED):
        raise ValueError(f"direction must be {DIRECT!r} or {INVERTED!r}")
    vol = tensor.volumes
    if direction == DIRECT:
        links, source_vol = tensor.matrix.copy(), vol.export_vol  # column node's own outflow
    else:
        links, source_vol = tensor.matrix.T.tocsr(), vol.import_vol
    links.data /= source_vol.ravel()[links.indices]
    size = tensor.registry.size
    return GoogleMatrix(
        links=links,
        dangling=(source_vol == 0).ravel(),
        personalization=np.full(size, 1.0 / size),
        alpha=1.0,
        total=size,
    )


def personalization_volume(tensor: MoneyTensor, direction: str = DIRECT) -> np.ndarray:
    """Teleportation weights proportional to each country's product volumes.

    Every country gets total weight 1/n_countries, split across products by
    its own import (direct) or export (inverted) volume mix. A country with
    no volume in the relevant direction gets a uniform product split.
    """
    if direction not in (DIRECT, INVERTED):
        raise ValueError(f"direction must be {DIRECT!r} or {INVERTED!r}")
    reg = tensor.registry
    vol = tensor.volumes
    table = vol.import_vol if direction == DIRECT else vol.export_vol
    totals = table.sum(axis=1)
    v = np.empty_like(table)
    silent = totals == 0
    if np.any(silent):
        log.warning(
            "%d country(ies) with zero %s volume: uniform teleport block used",
            int(silent.sum()),
            direction,
        )
        v[silent, :] = 1.0 / (reg.n_countries * reg.n_products)
    active = ~silent
    with np.errstate(over="ignore"):
        scale = reg.n_countries * totals
    # a finite volume times n_countries can overflow: such rows divide twice
    huge = ~np.isfinite(scale)
    once, twice = active & ~huge, active & huge
    v[once, :] = table[once, :] / scale[once, None]
    v[twice, :] = table[twice, :] / totals[twice, None] / reg.n_countries
    return v.ravel()


def rank_personalization(product_marginal: np.ndarray, registry: Registry) -> np.ndarray:
    """Teleportation from a product marginal, uniform across countries."""
    p = np.asarray(product_marginal, dtype=np.float64)
    if p.shape != (registry.n_products,):
        raise ValueError("product marginal size mismatch")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-8:
        raise ValueError("product marginal must be a probability vector")
    return np.tile(p / registry.n_countries, registry.n_countries)


def assemble_google(
    stochastic: GoogleMatrix, personalization: np.ndarray, alpha: float = DEFAULT_ALPHA
) -> GoogleMatrix:
    """Damp a stochastic matrix with teleportation vector `personalization`."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    v = _check_personalization(personalization, stochastic.size)
    return replace(stochastic, personalization=v, alpha=alpha)


def build_trade_pair(
    tensor: MoneyTensor,
    alpha: float = DEFAULT_ALPHA,
    tol: float = 1e-12,
    max_iter: int = 10000,
) -> tuple[GoogleMatrix, GoogleMatrix]:
    """Build the second-iteration (direct, inverted) Google matrix pair.

    First iteration teleports by relative country volumes; its stationary
    vectors are traced to product marginals, which define the second-round
    teleportation (uniform across countries). The second-iteration pair is
    what the rest of the pipeline consumes.
    """
    vol = tensor.volumes
    if vol.total <= 0:
        raise TradeDataError("tensor has zero total volume")
    reg = tensor.registry
    s_direct = build_stochastic(tensor, DIRECT)
    s_inverted = build_stochastic(tensor, INVERTED)
    g1 = assemble_google(s_direct, personalization_volume(tensor, DIRECT), alpha)
    g1_star = assemble_google(s_inverted, personalization_volume(tensor, INVERTED), alpha)
    p = pagerank(g1, tol=tol, max_iter=max_iter)
    p_star = pagerank(g1_star, tol=tol, max_iter=max_iter)
    prod_marginal = trace(p, "product", reg)
    prod_marginal_star = trace(p_star, "product", reg)
    g2 = assemble_google(s_direct, rank_personalization(prod_marginal, reg), alpha)
    g2_star = assemble_google(s_inverted, rank_personalization(prod_marginal_star, reg), alpha)
    return g2, g2_star

