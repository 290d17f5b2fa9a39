"""Matrix-free Google operator and the power-iteration PageRank/CheiRank solver.

The stochastic matrix is never materialized.  One application of the
operator to a probability vector v is

    y = alpha * (column-normalized multigraph push of v)
        + alpha * (mass of v on dangling nodes) / N
        + (1 - alpha) / N

which is exactly the damped Google matrix product in exact arithmetic: the
dangling columns (nodes without outgoing links) act as uniform 1/N columns
via the rank-1 correction, and the teleport term spreads (1-alpha)
uniformly.

The operator takes the link matrix it multiplies, row i holding the links
into node i: the adjacency's transpose for PageRank, and for CheiRank
(PageRank with every link reversed) the adjacency itself.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import ContractViolation, ConvergenceError
from .graph import DirectedGraph, invert
from .twodrank import check_probabilities

if TYPE_CHECKING:  # imported where a matrix is built; see DirectedGraph.from_edges
    import scipy.sparse as sp

# How closely a stored probability vector must sum to one.
NORMALIZATION_TOL = 1e-12


@dataclass
class RankVector:
    """Converged probability vector over nodes, summing to one.

    kind is "pagerank" (forward links) or "cheirank" (inverted links).
    sweep holds the vectors of the smaller damping factors solved alongside
    this one (the solver's `sweep`), keyed by damping factor.
    """

    kind: str
    values: np.ndarray
    alpha: float
    iterations: int
    residual: float
    sweep: dict[float, RankVector] = field(default_factory=dict)

    def __post_init__(self):
        check_probabilities(self.values, f"{self.kind} vector", NORMALIZATION_TOL)
        if self.alpha < 1.0 and np.any(self.values <= 0.0):
            raise ContractViolation(f"{self.kind} vector has non-positive entries")


def _row_block(m: sp.csr_matrix, a: int, b: int) -> sp.csr_matrix:
    """Rows a..b-1 of m as a matrix over views of m's data and indices.

    The arrays are set after construction because the constructor copies a
    view that is less than half of its base array.
    """
    import scipy.sparse as sp

    lo, hi = m.indptr[a], m.indptr[b]
    block = sp.csr_matrix((b - a, m.shape[1]), dtype=m.dtype)
    block.data, block.indices = m.data[lo:hi], m.indices[lo:hi]
    block.indptr = m.indptr[a : b + 1] - lo
    return block


class GoogleOperator:
    """Reusable damped-transition operator for one (links, alpha) pair.

    Row i of the CSR `links` holds the multiplicities of the links into node
    i.  The push matrix, `links` with each entry divided by its column's sum,
    is built once over `links`' index arrays; apply() is then a sparse matvec
    plus two scalar corrections.  With workers > 1 the push matrix's rows are
    cut into contiguous blocks, multiplied concurrently and concatenated in
    order; every output component is the same dot product regardless of the
    cut, so results are bitwise independent of the worker count.  The threads
    used are capped at the node count and at the CPU count.
    """

    def __init__(self, links: sp.csr_matrix, alpha: float, workers: int = 1):
        if not 0.0 < alpha <= 1.0:
            raise ContractViolation(f"alpha must lie in (0, 1], got {alpha}")
        if workers < 1:
            raise ContractViolation(f"workers must be >= 1, got {workers}")
        if links.shape[0] == 0:
            raise ContractViolation("cannot rank a graph with no nodes")
        import scipy.sparse as sp

        self.alpha = alpha
        self.n = links.shape[0]
        # Summed as int64, then converted: float sums could round above 2**53.
        weight = np.asarray(links.sum(axis=0, dtype=np.int64), dtype=np.float64).ravel()
        self.dangling = np.flatnonzero(weight == 0.0)
        data = weight[links.indices]
        np.divide(links.data, data, out=data)
        self.push = sp.csr_matrix((data, links.indices, links.indptr), shape=links.shape)

        self.workers = min(workers, self.n, os.cpu_count() or 1)
        self._blocks: list[sp.csr_matrix] = []
        if self.workers > 1:
            # Contiguous row ranges balanced by nnz.
            targets = np.linspace(0, self.push.nnz, self.workers + 1)
            bounds = np.searchsorted(self.push.indptr, targets)
            bounds[0], bounds[-1] = 0, self.n
            for a, b in zip(bounds[:-1], bounds[1:]):
                if a < b:
                    self._blocks.append(_row_block(self.push, int(a), int(b)))
            self._pool = ThreadPoolExecutor(max_workers=self.workers)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """One operator application; assumes v is already a probability vector."""
        if self.workers > 1:
            futures = [self._pool.submit(block.dot, v) for block in self._blocks]
            y = np.concatenate([fut.result() for fut in futures])
        else:
            y = self.push @ v
        y *= self.alpha
        dangling_mass = float(v[self.dangling].sum()) if len(self.dangling) else 0.0
        y += (self.alpha * dangling_mass + (1.0 - self.alpha)) / self.n
        return y

    def close(self) -> None:
        if self.workers > 1:
            self._pool.shutdown(wait=False)


def _power_iteration(
    links: sp.csr_matrix,
    alpha: float,
    tol: float,
    max_iter: int,
    workers: int,
    kind: str,
    sweep: Sequence[float] = (),
) -> RankVector:
    """Power iteration of GoogleOperator(links, alpha) from the uniform
    vector, and at each beta in sweep (a "rider") from the same iterates.

    The step x_k - x_{k-1} at alpha is alpha^k times a vector that does not
    depend on the damping factor (Boldi, Santini & Vigna, "PageRank as a
    function of the damping factor", 2005).  So the iterates at beta < alpha
    are y_k = y_{k-1} + (beta/alpha)^k (x_k - x_{k-1}), with step residual
    (beta/alpha)^k times alpha's: each rider is beta's own power iteration,
    one vector update per step, and stops no later than alpha does.
    """
    if not 0.0 < tol < math.inf:
        raise ContractViolation(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ContractViolation(f"max_iter must be >= 1, got {max_iter}")
    for beta in sweep:
        if not 0.0 < beta < alpha:
            raise ContractViolation(f"sweep values must lie in (0, {alpha}), got {beta}")
    n = links.shape[0]
    op = GoogleOperator(links, alpha, workers=workers)
    try:
        v = np.full(n, 1.0 / n)
        diff = np.empty(n)
        riders = {float(beta): v.copy() for beta in sweep}  # the unfinished ones
        scaled = np.empty(n) if riders else None
        solved: dict[float, RankVector] = {}
        residual = math.inf
        for iteration in range(1, max_iter + 1):
            nxt = op.apply(v)
            np.subtract(nxt, v, out=diff)
            scales = [(beta / alpha) ** iteration for beta in riders]
            for y, scale in zip(riders.values(), scales):
                y += np.multiply(diff, scale, out=scaled)
            residual = float(np.abs(diff, out=diff).sum())
            v = nxt
            for (beta, y), scale in zip(list(riders.items()), scales):
                if scale * residual < tol:
                    del riders[beta]
                    y /= np.sum(y)
                    solved[beta] = RankVector(kind, y, beta, iteration, scale * residual)
            if residual < tol:
                v = v / np.sum(v)  # shed accumulated rounding drift
                return RankVector(
                    kind=kind, values=v, alpha=alpha, iterations=iteration, residual=residual,
                    sweep=dict(sorted(solved.items())),
                )
        raise ConvergenceError(
            f"{kind} did not reach tol={tol} after {max_iter} iterations "
            f"(residual={residual:.3e})",
            iterate=v,
            residual=residual,
            iterations=max_iter,
            sweep=dict(sorted(solved.items())),
        )
    finally:
        op.close()


def pagerank(
    g: DirectedGraph,
    alpha: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
    *,
    sweep: Sequence[float] = (),
) -> RankVector:
    """Stationary probability of the damped random surfer on g.

    It multiplies g's transpose, made for this solve and dropped with it.  Each
    damping factor in sweep, all in (0, alpha), is solved from the same
    iterations (see _power_iteration); its vector is in the result's sweep.
    """
    return _power_iteration(invert(g).adj, alpha, tol, max_iter, workers, "pagerank", sweep)


def cheirank(
    g: DirectedGraph,
    alpha_star: float = DEFAULT_ALPHA,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    workers: int = 1,
    *,
    sweep: Sequence[float] = (),
) -> RankVector:
    """PageRank of the link-inverted graph: highlights outgoing connectivity.

    It multiplies g.adj: its links into node i are g's links out of i.
    """
    return _power_iteration(g.adj, alpha_star, tol, max_iter, workers, "cheirank", sweep)
