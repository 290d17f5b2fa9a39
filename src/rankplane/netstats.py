"""Statistics over the rank plane: correlator, density grids, diagonal
profiles, power-law fits, the independent-product null model, and a seeded
scale-free graph generator for desk-scale experiments.

Reference values measured on the August 2009 English Wikipedia article
network (N = 3,282,257), for orientation only; nothing in this package
asserts them, since that snapshot is not shipped:

    correlator kappa                 4.08
    in-degree exponent mu_in         2.09 +/- 0.04
    out-degree exponent mu_out       2.76 +/- 0.06
    pagerank rank-curve exponent     0.92
    cheirank rank-curve exponent     0.57
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import ContractViolation, ConvergenceError, ParseError
from .textio import read_series, row_blocks, write_series
from .twodrank import RankTable, check_probabilities, exact_sum

# The graph and solver modules are imported by the two functions that use
# them, generate_scale_free and correlator_sweep, so that the commands that
# only read rank tables start without them.
if TYPE_CHECKING:
    from .googlerank import RankVector
    from .graph import DirectedGraph


# ---- correlator ------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatorPoint:
    """kappa = N * sum_i P(i) P*(i) - 1 at one (alpha, alpha_star) pair."""

    kappa: float
    alpha: float
    alpha_star: float
    converged: bool = True


def kappa(p: np.ndarray, p_star: np.ndarray) -> float:
    """kappa = N * sum_i P(i) P*(i) - 1 of two probability vectors of length N.

    The sum is exactly rounded (exact_sum), so its bits do not depend on how
    a BLAS dot would split it across threads.
    """
    if len(p) != len(p_star):
        raise ContractViolation(f"vector lengths differ: {len(p)} vs {len(p_star)}")
    return len(p) * exact_sum(p, p_star) - 1.0


def correlator(p: RankVector, p_star: RankVector) -> CorrelatorPoint:
    """Correlation of the two rank probability vectors around independence.

    Zero for uniform (or independent-by-construction) vectors; positive when
    nodes that collect ingoing weight also emit outgoing weight.
    """
    return CorrelatorPoint(kappa(p.values, p_star.values), p.alpha, p_star.alpha)


def correlator_sweep(
    g: DirectedGraph,
    alphas: Sequence[float],
    alpha_stars: Sequence[float] | None = None,
    mode: str = "diagonal",
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[CorrelatorPoint]:
    """Correlator over a damping sweep.

    Modes: "diagonal" walks alpha = alpha_star over `alphas`; "fix_alpha"
    holds alphas[0] and walks `alpha_stars`; "fix_alpha_star" holds
    alpha_stars[0] and walks `alphas`.  Each direction is one power
    iteration (`_solve_all`: pagerank, then cheirank), so the sweep builds
    two operators.  Points where either solve fails to converge are kept in
    the output, flagged converged=False with NaN kappa.
    """
    if mode == "diagonal":
        pairs = [(a, a) for a in alphas]
    elif mode == "fix_alpha":
        if len(alphas) != 1 or not alpha_stars:
            raise ContractViolation("fix_alpha needs one alpha and a list of alpha_stars")
        pairs = [(alphas[0], s) for s in alpha_stars]
    elif mode == "fix_alpha_star":
        if alpha_stars is None or len(alpha_stars) != 1 or not alphas:
            raise ContractViolation("fix_alpha_star needs one alpha_star and a list of alphas")
        pairs = [(a, alpha_stars[0]) for a in alphas]
    else:
        raise ContractViolation(f"unknown sweep mode {mode!r}")
    for a, s in pairs:
        if not (0.0 < a < 1.0 and 0.0 < s < 1.0):
            raise ContractViolation(
                f"sweep damping values must lie strictly inside (0, 1), got ({a}, {s})"
            )

    from .googlerank import cheirank, pagerank

    forward = _solve_all(pagerank, g, [a for a, _ in pairs], tol, max_iter)
    backward = _solve_all(cheirank, g, [s for _, s in pairs], tol, max_iter)
    points: list[CorrelatorPoint] = []
    for a, s in pairs:
        p, p_star = forward[a], backward[s]
        if p is None or p_star is None:
            points.append(CorrelatorPoint(math.nan, a, s, converged=False))
        else:
            points.append(CorrelatorPoint(kappa(p.values, p_star.values), a, s))
    return points


def _solve_all(
    solve: Callable, g: DirectedGraph, alphas: Sequence[float], tol: float, max_iter: int
) -> dict[float, RankVector | None]:
    """solve(g, alpha) at every alpha, None where it does not converge.

    The largest alpha drives one power iteration and the others ride on it
    (the solver's `sweep`).  When the driver does not converge, the riders it
    finished are kept.  A rider unfinished at max_iter has had the budget of
    its own solve, so it stays None with the driver.
    """
    solved: dict[float, RankVector | None] = dict.fromkeys(alphas)
    if not solved:
        return solved
    driver, *riders = sorted(solved, reverse=True)
    try:
        rv = solve(g, driver, tol=tol, max_iter=max_iter, sweep=riders)
    except ConvergenceError as exc:
        solved.update(exc.sweep)
    else:
        solved[driver] = rv
        solved.update(rv.sweep)
    return solved


# ---- density grid in the (ln K, ln K*) plane --------------------------------


@dataclass(frozen=True)
class DensityGrid:
    """Cell-count histogram over an equidistant grid in log-rank space.

    Both axes span [0, ln(n_ranks)]; cells are half-open with the last cell
    closed, so every rank in [1, n_ranks] lands in exactly one cell.
    counts[i, j] holds nodes whose (ln K, ln K*) falls in cell (i, j); w is
    counts normalized by the number of samples (sums to one).  However it
    is made, a grid is refused with ContractViolation unless its counts are
    a square 2-D integer array of counts >= 0, with a sample and an integer
    n_ranks of at least 2.
    """

    counts: np.ndarray
    n_ranks: int

    def __post_init__(self) -> None:
        counts = self.counts
        square = isinstance(counts, np.ndarray) and counts.ndim == 2 and len(set(counts.shape)) == 1
        if not (square and np.issubdtype(counts.dtype, np.integer)):
            raise ContractViolation("density grid counts are not a square 2-D integer array")
        if np.any(counts < 0):
            raise ContractViolation("a cell count is negative")
        try:
            n_ranks = operator.index(self.n_ranks)
        except TypeError:
            n_ranks = 0  # not an integer: refused below
        if self.n_samples < 1 or n_ranks < 2:
            raise ContractViolation(f"a density grid of {self.n_samples} samples over {self.n_ranks} ranks")

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @property
    def cells(self) -> int:
        return self.counts.shape[0]

    @property
    def axis_max(self) -> float:
        return math.log(self.n_ranks)

    @property
    def w(self) -> np.ndarray:
        return self.counts / self.n_samples

    def density_per_area(self) -> np.ndarray:
        """Differential density: count / (samples * linear-rank cell area)."""
        edges = np.exp(np.linspace(0.0, self.axis_max, self.cells + 1))
        widths = np.diff(edges)
        return self.counts / (self.n_samples * np.outer(widths, widths))


def _cell(x, h: float, cells: int) -> np.ndarray:
    """Cell of log-rank x on an axis of cells of width h, the last cell closed."""
    return np.minimum((np.asarray(x) / h).astype(np.int64), cells - 1)


# Pairs binned per step of grid_from_rank_pairs, and uniforms drawn per step
# of _sample_curve: their temporaries stay this long however many there are.
_BIN_BLOCK = 1 << 16


def grid_from_rank_pairs(
    k: np.ndarray, k_star: np.ndarray, n_ranks: int, cells: int = 100
) -> DensityGrid:
    """Bin (rank, rank*) pairs on the cells x cells log grid, a block at a time."""
    if n_ranks < 2:
        raise ContractViolation("need at least 2 ranks for a log-spaced grid")
    if not 2 <= cells <= math.isqrt(np.iinfo(np.intp).max // 8):  # the grid's bytes
        raise ContractViolation(f"need 2 cells per axis or more, and an addressable grid: {cells}")
    k = np.asarray(k, dtype=np.int64)
    k_star = np.asarray(k_star, dtype=np.int64)
    if len(k) != len(k_star):
        raise ContractViolation("rank arrays differ in length")
    if not len(k):
        raise ContractViolation("need at least one (rank, rank*) pair")
    if k.min() < 1 or k_star.min() < 1 or k.max() > n_ranks or k_star.max() > n_ranks:
        raise ContractViolation(f"ranks must lie in [1, {n_ranks}]")
    h = math.log(n_ranks) / cells
    flat = np.zeros(cells * cells, dtype=np.int64)
    for lo in range(0, len(k), _BIN_BLOCK):
        block = slice(lo, lo + _BIN_BLOCK)
        ix, iy = _cell(np.log(k[block]), h, cells), _cell(np.log(k_star[block]), h, cells)
        flat += np.bincount(ix * cells + iy, minlength=cells * cells)
    return DensityGrid(counts=flat.reshape(cells, cells), n_ranks=n_ranks)


def density_grid(table: RankTable, cells: int = 100) -> DensityGrid:
    """Empirical density of the table's nodes in the log-rank plane."""
    return grid_from_rank_pairs(
        table.pagerank_rank, table.cheirank_rank, len(table), cells=cells
    )


@dataclass(frozen=True)
class EtaSlice:
    """Grid densities sampled along ln K = x0 + eta/2, ln K* = x0 - eta/2."""

    x0: float
    eta: np.ndarray
    density: np.ndarray


def slice_density(grid: DensityGrid, x0: float) -> EtaSlice:
    """Walk the diagonal line through (x0, x0), one sample per cell crossed.

    Samples are taken at the eta-midpoint of each cell traversal, so every
    sampled point is within half a cell of the line's intersection with the
    cell.
    """
    L = grid.axis_max
    if not 0.0 <= x0 <= L:
        raise ContractViolation(f"x0={x0} outside the grid range [0, {L:.6g}]")
    half_span = 2.0 * min(x0, L - x0)
    w = grid.w
    h = L / grid.cells

    if half_span == 0.0:
        cell = _cell(x0, h, grid.cells)
        return EtaSlice(x0=x0, eta=np.zeros(1), density=np.array([w[cell, cell]]))

    boundaries = np.arange(grid.cells + 1) * h
    crossings = np.concatenate([2.0 * (boundaries - x0), 2.0 * (x0 - boundaries)])
    crossings = crossings[(crossings > -half_span) & (crossings < half_span)]
    stops = np.unique(np.concatenate([[-half_span], crossings, [half_span]]))
    mids = (stops[:-1] + stops[1:]) / 2.0

    ix = _cell(x0 + mids / 2.0, h, grid.cells)
    iy = _cell(x0 - mids / 2.0, h, grid.cells)
    return EtaSlice(x0=x0, eta=mids, density=w[ix, iy])


# ---- power-law fitting -------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares log-log slope over logarithmically binned data.

    exponent is the decay exponent (positive for decreasing data); bin_x and
    bin_y are the geometric bin representatives that were regressed.
    """

    exponent: float
    stderr: float
    fit_range: tuple[float, float]
    r_squared: float
    bin_x: np.ndarray
    bin_y: np.ndarray


def fit_power_law(
    x: np.ndarray,
    y: np.ndarray,
    fit_range: tuple[float, float],
    num_bins: int = 20,
) -> PowerLawFit:
    """Fit value ~ x^(-exponent) on [fit_range] by binned log-log regression.

    Points are grouped into equal-ratio bins; each bin contributes the
    geometric mean of its x and y values, which keeps exact power-law input
    exactly on the regression line regardless of binning.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lo, hi = float(fit_range[0]), float(fit_range[1])
    if not 0.0 < lo < hi < math.inf:
        raise ContractViolation(f"invalid fit range [{lo}, {hi}]")
    if num_bins < 1:
        raise ContractViolation(f"need at least 1 bin, got {num_bins}")
    inside = (x >= lo) & (x <= hi)
    xs, ys = x[inside], y[inside]
    if not np.all((ys > 0.0) & (ys < math.inf)):  # written so that NaN fails it
        raise ContractViolation("zero, negative or non-finite values inside the fit range")
    if len(xs) < 5:
        raise ContractViolation(
            f"need at least 5 points inside the fit range, found {len(xs)}"
        )

    edges = np.exp(np.linspace(math.log(lo), math.log(hi), num_bins + 1))
    edges[-1] = np.nextafter(edges[-1], np.inf)  # keep x == hi inside the last bin
    which = np.digitize(xs, edges) - 1
    log_x, log_y = np.log(xs), np.log(ys)
    bx, by = [], []
    for b in range(num_bins):
        sel = which == b
        if np.any(sel):
            bx.append(log_x[sel].mean())
            by.append(log_y[sel].mean())
    bx = np.asarray(bx)
    by = np.asarray(by)
    if len(bx) < 3:
        raise ContractViolation(f"only {len(bx)} occupied bins; need at least 3")

    slope, intercept = np.polyfit(bx, by, 1)
    predicted = slope * bx + intercept
    resid = by - predicted
    dof = len(bx) - 2
    var_x = float(np.sum((bx - bx.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / var_x) if dof > 0 else math.nan
    total = float(np.sum((by - by.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / total if total > 0 else 1.0
    return PowerLawFit(
        exponent=-float(slope),
        stderr=stderr,
        fit_range=(lo, hi),
        r_squared=r_squared,
        bin_x=np.exp(bx),
        bin_y=np.exp(by),
    )


def histogram_curve(counts: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(degree, frequency) points for fitting from degree -> node counts, as
    degree_distribution gives them; degree-0 nodes are dropped."""
    total = sum(counts.values())
    ks = np.asarray(sorted(k for k in counts if k >= 1), dtype=np.float64)
    ws = np.asarray([counts[int(k)] / total for k in ks])
    return ks, ws


def rank_curve(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rank, probability) with rank 1 the largest value."""
    v = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    return np.arange(1, len(v) + 1, dtype=np.float64), v


# ---- independent-product null model ------------------------------------------


def sample_independent(
    p_curve: np.ndarray,
    p_star_curve: np.ndarray,
    n: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (rank, rank*) pairs with each coordinate sampled independently
    from its own rank-probability curve (with replacement).

    Binning the pairs with grid_from_rank_pairs gives the null-model grid
    against which the empirical rank-plane density is compared.
    """
    if n < 1:
        raise ContractViolation("need at least one sample")
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")
    ks = _sample_curve(check_probabilities(p_curve, "p_curve"), n, np.random.default_rng(seed))
    k_stars = _sample_curve(
        check_probabilities(p_star_curve, "p_star_curve"), n, np.random.default_rng(seed + 1)
    )
    return ks, k_stars


def _sample_curve(curve: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n ranks drawn from a checked curve or from a pmf that sums to 1 by construction."""
    cum = np.cumsum(curve)
    cum[-1] = 1.0
    ranks = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BIN_BLOCK):
        uniforms = rng.random(min(_BIN_BLOCK, n - lo))
        # Searched in ascending order, each search starts where the last
        # ended; the ranks are scattered back to the order drawn.
        order = np.argsort(uniforms)
        ranks[lo + order] = np.searchsorted(cum, uniforms[order], side="right")
    ranks += 1
    return ranks


# ---- scale-free generator ------------------------------------------------------


def _mean_adjusted_pmf(exponent: float, mean: float, k_max: int) -> tuple[int, np.ndarray]:
    """Degree pmf with an exact power-law tail and the requested mean.

    The tail {k0+1..k_max} is exactly proportional to k^(-exponent); the
    single head bin at k0 takes whatever mass makes the mean come out right.
    Returns (k0, pmf over {k0..k_max}).
    """
    k = np.arange(1, k_max + 1, dtype=np.float64)
    weight = k**-exponent
    # Suffix sums: mass and first moment of the un-normalized tail from k upward.
    mass = np.cumsum(weight[::-1])[::-1]
    moment = np.cumsum((weight * k)[::-1])[::-1]
    # tail_mean[j] = mean of the pure law on {j+1..k_max}.  Where k^-exponent
    # has underflowed to 0 the tail has no mass, and no mean can be reached.
    tail_mean = np.divide(moment, mass, out=np.full_like(mass, -np.inf), where=mass > 0)

    k0 = None
    for candidate in range(1, min(k_max - 1, 1000) + 1):
        if tail_mean[candidate] >= mean:  # tail support {candidate+1 .. k_max}
            k0 = candidate
            break
    if k0 is None:
        raise ContractViolation(
            f"mean degree {mean} is not reachable with exponent {exponent} "
            f"and cutoff {k_max}"
        )
    m_tail = float(tail_mean[k0])
    head = (m_tail - mean) / (m_tail - k0)
    if not 0.0 <= head <= 1.0:
        raise ContractViolation(
            f"mean degree {mean} infeasible: head mass {head:.4f} out of [0, 1]"
        )
    pmf = np.empty(k_max - k0 + 1)
    pmf[0] = head
    tail = weight[k0:]  # degrees k0+1 .. k_max
    pmf[1:] = (1.0 - head) * tail / tail.sum()
    return k0, pmf


def generate_scale_free(
    n: int,
    mu_in: float,
    mu_out: float,
    mean_degree: float,
    seed: int,
) -> DirectedGraph:
    """Directed configuration-model graph with power-law degree tails.

    In- and out-degree sequences are i.i.d. draws (cutoff k_max = n, head
    bin adjusted so both directions hit mean_degree); stubs are matched
    uniformly at random, excess stubs on the heavier side are trimmed
    uniformly at random, and repeated pairs merge into multiplicities.
    Self-loops are kept.
    """
    from .graph import DirectedGraph, _int_type

    # Written so that NaN fails them.
    if n < 100:
        raise ContractViolation(f"need n >= 100, got {n}")
    for name, mu in (("mu_in", mu_in), ("mu_out", mu_out)):
        if not mu > 2.0:
            raise ContractViolation(f"{name} must exceed 2 (finite mean), got {mu}")
    if not mean_degree >= 1.0:
        raise ContractViolation(f"mean degree must be >= 1, got {mean_degree}")
    if seed < 0:
        raise ContractViolation(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    k0_in, pmf_in = _mean_adjusted_pmf(mu_in, mean_degree, n)
    k0_out, pmf_out = _mean_adjusted_pmf(mu_out, mean_degree, n)
    deg_in = _sample_curve(pmf_in, n, rng)
    deg_in += k0_in - 1
    deg_out = _sample_curve(pmf_out, n, rng)
    deg_out += k0_out - 1

    # Peak memory is the point here: every full-length array is dropped as
    # soon as it is used, and stubs hold int32 node indices while they fit.
    nodes = np.arange(n, dtype=_int_type(n))
    in_stubs = np.repeat(nodes, deg_in)
    src = np.repeat(nodes, deg_out)  # out-stubs, in source order
    del nodes, deg_in, deg_out
    m = min(len(in_stubs), len(src))
    if len(in_stubs) > m:
        in_stubs = in_stubs[rng.permutation(len(in_stubs))[:m]]
    elif len(src) > m:
        src = src[rng.permutation(len(src))[:m]]
    dst = in_stubs[rng.permutation(m)]
    del in_stubs

    # code = src * n + dst; sorted, its runs are the merged (source, target)
    # pairs in canonical CSR order.
    code = src.astype(np.int64)
    del src
    code *= n
    code += dst
    del dst
    code.sort()
    first = np.empty(m, dtype=bool)  # first element of each run
    first[:1] = True
    np.not_equal(code[1:], code[:-1], out=first[1:])
    pairs = code[first]
    del code

    # CSR index arrays are int32 while they fit, as from_edges builds them.
    index_type = _int_type(max(n, len(pairs)))
    indptr = np.searchsorted(pairs, np.arange(n + 1, dtype=np.int64) * n).astype(index_type)
    pairs %= n
    indices = pairs.astype(index_type)
    del pairs
    starts = np.flatnonzero(first)
    del first
    counts = np.empty(len(starts), dtype=_int_type(m))  # run lengths
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = m - starts[-1:]
    del starts
    # The names n0…, zero-padded: a block's digits as bytes, decoded in one call.
    width = len(str(n - 1))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    names: list[str] = []
    for rows in row_blocks(n):
        chars = np.full((rows.stop - rows.start, width + 2), ord("n"), dtype=np.uint8)
        chars[:, 1:-1] = np.arange(rows.start, rows.stop)[:, None] // powers % 10 + ord("0")
        chars[:, -1] = ord("\n")
        names += chars.tobytes().decode("ascii").split()
    return DirectedGraph.from_csr(names, indptr, indices, counts)


# ---- persistence -----------------------------------------------------------

_GRID_TYPES = {"i": "q", "j": "q", "count": "q", "w": "d", "density_per_area": "d"}


def write_density_grid(grid: DensityGrid, target: str | Path | IO[str]) -> None:
    """CSV with one row per cell: i,j,count,w,density_per_area."""
    i, j = np.divmod(np.arange(grid.counts.size), grid.cells)
    values = (i, j, grid.counts, grid.w, grid.density_per_area())
    meta = dict(
        n_ranks=grid.n_ranks, n_samples=grid.n_samples, cells=grid.cells, axis_max=grid.axis_max
    )
    write_series({k: v.ravel() for k, v in zip(_GRID_TYPES, values)}, target, meta)


def read_density_grid(source: str | Path | IO[str]) -> DensityGrid:
    meta, columns = read_series(source, _GRID_TYPES)
    try:
        cells, n_ranks, n_samples = (int(meta[k]) for k in ("cells", "n_ranks", "n_samples"))
        counts = np.zeros(cells * cells, dtype=np.int64)
        cell = np.ravel_multi_index((columns["i"], columns["j"]), (cells, cells))
        counts[cell] = columns["count"]
    except (KeyError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad or missing density grid value: {exc}") from None
    try:
        grid = DensityGrid(counts.reshape(cells, cells), n_ranks)
    except ContractViolation as exc:
        raise ParseError(str(exc)) from None
    if grid.n_samples != n_samples:
        raise ParseError(f"header n_samples={n_samples}, but the counts sum to {grid.n_samples}")
    return grid


def write_eta_slice(sl: EtaSlice, target: str | Path | IO[str]) -> None:
    write_series({"eta": sl.eta, "density": sl.density}, target, {"x0": float(sl.x0)})


def write_power_law_fit(fit: PowerLawFit, target: str | Path | IO[str]) -> None:
    """Binned points as x,y rows; the fitted parameters live in the header."""
    lo, hi = fit.fit_range
    meta = dict(
        exponent=fit.exponent, stderr=fit.stderr, r_squared=fit.r_squared, fit_min=lo, fit_max=hi
    )
    write_series({"x": fit.bin_x, "y": fit.bin_y}, target, meta)


def write_correlator_points(
    points: Sequence[CorrelatorPoint], target: str | Path | IO[str]
) -> None:
    columns = {k: [getattr(pt, k) for pt in points] for k in ("alpha", "alpha_star", "kappa")}
    columns["converged"] = [int(pt.converged) for pt in points]
    write_series(columns, target)
