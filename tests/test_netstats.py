"""Rank-plane statistics: correlator, grids, slices, fits, samplers."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rankplane import (
    ContractViolation,
    DensityGrid,
    DirectedGraph,
    RankVector,
    build_rank_table,
    correlator,
    correlator_sweep,
    density_grid,
    fit_power_law,
    generate_scale_free,
    grid_from_rank_pairs,
    invert,
    pagerank,
    rank_curve,
    read_density_grid,
    sample_independent,
    slice_density,
    write_density_grid,
    write_edge_list,
)
from rankplane import graph
from rankplane.graph import degree_distribution
from rankplane.netstats import (
    _BIN_BLOCK,
    _mean_adjusted_pmf,
    kappa,
    histogram_curve,
    write_correlator_points,
    write_eta_slice,
    write_power_law_fit,
)
from rankplane.textio import read_series


def uniform_vector(n, alpha=0.85):
    return RankVector("pagerank", np.full(n, 1.0 / n), alpha, 1, 0.0)


def random_graph(rng, n=30, density=0.15):
    mask = rng.random((n, n)) < density
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_edges(
        [f"v{i}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )


# ---- correlator --------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 8, 64, 1024])
def test_correlator_zero_for_uniform_dyadic(n):
    # powers of two make every intermediate exactly representable
    assert correlator(uniform_vector(n), uniform_vector(n)).kappa == 0.0


@pytest.mark.parametrize("n", [3, 7, 100])
def test_correlator_zero_for_uniform_general(n):
    assert abs(correlator(uniform_vector(n), uniform_vector(n)).kappa) < 1e-12


def test_correlator_on_symmetric_graph_reduces_to_self_term():
    # symmetric adjacency: the inverted graph is identical, so P* == P bitwise
    rng = np.random.default_rng(17)
    n = 40
    mask = rng.random((n, n)) < 0.1
    mask = mask | mask.T
    src, dst = np.nonzero(mask)
    g = DirectedGraph.from_edges(
        [f"v{i}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )
    assert (g.adj != invert(g).adj).nnz == 0  # invert keeps the names' order
    p = pagerank(g)
    p_star = pagerank(invert(g))
    kappa = correlator(p, p_star).kappa
    self_term = n * float(np.dot(p.values, p.values)) - 1.0
    assert abs(kappa - self_term) <= 1e-12


KAPPA_BITS = """
import numpy as np
from rankplane.netstats import kappa
rng = np.random.default_rng(9)
p, q = rng.random(100_000), rng.random(100_000)
print(kappa(p / p.sum(), q / q.sum()).hex())
"""


def test_kappa_bits_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    bits = set()
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", KAPPA_BITS], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        bits.add(run.stdout.strip())
    assert len(bits) == 1


def test_kappa_is_the_exactly_rounded_sum():
    # A running sum loses the 1.0 against 1e16; the exact sum keeps it.
    assert kappa(np.ones(3), np.array([1e16, 1.0, -1e16])) == 3 * 1.0 - 1.0
    # Summed a block of 8,192 products at a time, over blocks and a ragged end.
    rng = np.random.default_rng(4)
    p, q = rng.random(3 * 8192 + 5), rng.random(3 * 8192 + 5)
    assert kappa(p, q) == len(p) * math.fsum((p * q).tolist()) - 1.0


def test_kappa_does_not_hold_all_its_products_at_once():
    """10^6 products take 8 MB as an array and 32 MB as Python floats; the
    exact sum holds one block of 8,192 products and its parts."""
    p = np.full(10**6, 1e-6)
    tracemalloc.start()
    try:
        kappa(p, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_correlator_length_mismatch():
    with pytest.raises(ContractViolation):
        correlator(uniform_vector(4), uniform_vector(5))
    with pytest.raises(ContractViolation, match="lengths differ: 2 vs 1"):
        kappa(np.array([0.5, 0.5]), np.array([1.0]))  # would broadcast to 1.0


def test_correlator_sweep_diagonal_matches_fresh_solves():
    rng = np.random.default_rng(2)
    g = random_graph(rng)
    alphas = [0.3, 0.6, 0.9]
    points = correlator_sweep(g, alphas)
    assert [pt.alpha for pt in points] == alphas
    assert [pt.alpha_star for pt in points] == alphas
    for pt in points:
        p = pagerank(g, alpha=pt.alpha)
        p_star = pagerank(invert(g), alpha=pt.alpha_star)
        expected = g.n_nodes * float(np.dot(p.values, p_star.values)) - 1.0
        assert pt.converged
        assert pt.kappa == pytest.approx(expected, abs=1e-12)


def test_correlator_sweep_fixed_modes():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n=20)
    points = correlator_sweep(g, [0.85], alpha_stars=[0.3, 0.7], mode="fix_alpha")
    assert [(p.alpha, p.alpha_star) for p in points] == [(0.85, 0.3), (0.85, 0.7)]
    points = correlator_sweep(g, [0.3, 0.7], alpha_stars=[0.85], mode="fix_alpha_star")
    assert [(p.alpha, p.alpha_star) for p in points] == [(0.3, 0.85), (0.7, 0.85)]


def test_correlator_sweep_rejects_bad_requests():
    rng = np.random.default_rng(4)
    g = random_graph(rng, n=10)
    with pytest.raises(ContractViolation):
        correlator_sweep(g, [0.5], mode="zigzag")
    with pytest.raises(ContractViolation):
        correlator_sweep(g, [1.0])  # sweep domain is the open interval
    with pytest.raises(ContractViolation):
        correlator_sweep(g, [0.5, 0.6], alpha_stars=[0.1], mode="fix_alpha")


def test_correlator_sweep_marks_failed_points():
    rng = np.random.default_rng(6)
    g = random_graph(rng)
    points = correlator_sweep(g, [0.5, 0.9], tol=1e-15, max_iter=1)
    assert all(not pt.converged for pt in points)
    assert all(math.isnan(pt.kappa) for pt in points)
    assert len(points) == 2


# ---- density grid ------------------------------------------------------------


def naive_grid_counts(k, k_star, n_ranks, cells):
    h = math.log(n_ranks) / cells
    counts = np.zeros((cells, cells), dtype=np.int64)
    for a, b in zip(k, k_star):
        i = min(int(math.log(a) / h), cells - 1)
        j = min(int(math.log(b) / h), cells - 1)
        counts[i, j] += 1
    return counts


def test_grid_against_naive_binning():
    rng = np.random.default_rng(12)
    n_ranks = 5000
    k = rng.integers(1, n_ranks + 1, size=4000)
    k_star = rng.integers(1, n_ranks + 1, size=4000)
    grid = grid_from_rank_pairs(k, k_star, n_ranks, cells=37)
    np.testing.assert_array_equal(grid.counts, naive_grid_counts(k, k_star, n_ranks, 37))


@pytest.mark.parametrize(
    "length", [1, _BIN_BLOCK - 1, _BIN_BLOCK, 3 * _BIN_BLOCK + 17]
)
def test_grid_bins_in_blocks_like_one_bincount(length):
    rng = np.random.default_rng(length)
    n_ranks, cells = 10_000, 50
    k = rng.integers(1, n_ranks + 1, size=length)
    k_star = rng.integers(1, n_ranks + 1, size=length)
    h = math.log(n_ranks) / cells
    ix = np.minimum((np.log(k) / h).astype(np.int64), cells - 1)
    iy = np.minimum((np.log(k_star) / h).astype(np.int64), cells - 1)
    expected = np.bincount(ix * cells + iy, minlength=cells * cells)
    grid = grid_from_rank_pairs(k, k_star, n_ranks, cells=cells)
    np.testing.assert_array_equal(grid.counts.ravel(), expected)
    assert grid.counts.dtype == np.int64 and grid.n_samples == length


def test_grid_temporaries_do_not_scale_with_the_pairs():
    rng = np.random.default_rng(14)
    n_ranks = 100_000
    k = rng.integers(1, n_ranks + 1, size=1_000_000)
    k_star = rng.integers(1, n_ranks + 1, size=1_000_000)
    tracemalloc.start()
    try:
        grid_from_rank_pairs(k, k_star, n_ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6  # the inputs alone are 16 MB


def test_grid_mass_is_conserved():
    rng = np.random.default_rng(13)
    n = 777
    k = rng.permutation(n) + 1
    k_star = rng.permutation(n) + 1
    grid = grid_from_rank_pairs(k, k_star, n, cells=100)
    assert grid.counts.sum() == n  # every node in exactly one cell
    assert abs(grid.w.sum() - 1.0) < 1e-12


def test_grid_boundary_cells():
    # cells are half-open on the left, closed at the very top
    grid = grid_from_rank_pairs([1, 9, 10, 100], [1, 1, 1, 1], 100, cells=2)
    # ln 9 / ln 10 < 1; 10 lies exactly on the boundary -> upper cell; the top edge is closed
    for rank, cell in ((1, 0), (9, 0), (10, 1), (100, 1)):
        assert grid_from_rank_pairs([rank], [rank], 100, cells=2).counts[cell, cell] == 1
    assert grid.counts[0, 0] == 2 and grid.counts[1, 0] == 2


def test_grid_rejects_bad_input():
    with pytest.raises(ContractViolation):
        grid_from_rank_pairs([1], [1], 1)  # need at least 2 ranks
    with pytest.raises(ContractViolation):
        grid_from_rank_pairs([1, 2], [1, 2], 10, cells=1)
    with pytest.raises(ContractViolation):
        grid_from_rank_pairs([0, 2], [1, 2], 10)  # ranks are 1-based
    with pytest.raises(ContractViolation):
        grid_from_rank_pairs([1, 11], [1, 2], 10)  # beyond n_ranks
    with pytest.raises(ContractViolation):
        grid_from_rank_pairs([1, 2, 3], [1, 2], 10)
    with pytest.raises(ContractViolation, match="at least one"):
        grid_from_rank_pairs([], [], 10)  # no pairs


@pytest.mark.parametrize(
    "counts, n_ranks, cause",
    [
        ([[3, -2], [0, 0]], 4, "a cell count is negative"),
        ([[0, 0], [0, 0]], 4, "a density grid of 0 samples over 4 ranks"),
        ([[1, 0], [0, 1]], 1, "a density grid of 2 samples over 1 ranks"),
        ([[1, 0], [0, 1]], 2.5, "a density grid of 2 samples over 2.5 ranks"),
        ([[1, 0], [0, 1]], 4.0, "a density grid of 2 samples over 4.0 ranks"),
        ([[1, 0, 0], [0, 1, 0]], 4, "density grid counts are not a square 2-D integer array"),
        ([1, 0, 0, 1], 4, "density grid counts are not a square 2-D integer array"),
        ([[1.0, 0.0], [0.0, 1.0]], 4, "density grid counts are not a square 2-D integer array"),
    ],
    ids=["negative", "no_samples", "one_rank", "half_rank", "float_ranks", "2x3", "1-D", "float"],
)
def test_a_grid_built_directly_is_checked(counts, n_ranks, cause):
    """Negative counts used to be written and then refused by the reader,
    no samples made the writer warn of 0 / 0, and a 2x3 array raised a bare
    broadcasting ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractViolation, match=cause):
            write_density_grid(DensityGrid(np.array(counts), n_ranks), io.StringIO())


def test_density_grid_from_table():
    rng = np.random.default_rng(3)
    n = 300
    p = rng.random(n)
    p /= p.sum()
    q = rng.random(n)
    q /= q.sum()
    table = build_rank_table([f"v{i}" for i in range(n)], p, q)
    grid = density_grid(table, cells=50)
    assert grid.n_samples == n and grid.n_ranks == n
    assert abs(grid.w.sum() - 1.0) < 1e-12
    assert grid.axis_max == math.log(n)


def test_density_per_area_recovers_counts():
    rng = np.random.default_rng(14)
    n = 400
    grid = grid_from_rank_pairs(
        rng.permutation(n) + 1, rng.permutation(n) + 1, n, cells=20
    )
    edges = np.exp(np.linspace(0, grid.axis_max, 21))
    widths = np.diff(edges)
    back = grid.density_per_area() * np.outer(widths, widths) * grid.n_samples
    np.testing.assert_allclose(back, grid.counts, atol=1e-9)


# ---- diagonal slices ----------------------------------------------------------


def patterned_grid(cells=10, n_ranks=1000):
    counts = np.arange(cells * cells, dtype=np.int64).reshape(cells, cells)
    return DensityGrid(counts=counts, n_ranks=n_ranks)


def test_slice_samples_match_scalar_lookup():
    grid = patterned_grid()
    L = grid.axis_max
    h = L / grid.cells
    for x0 in (0.31 * L, 0.5 * L, 0.77 * L):
        sl = slice_density(grid, x0)
        assert len(sl.eta) > 0
        for eta, d in zip(sl.eta, sl.density):
            i = min(int((x0 + eta / 2.0) / h), grid.cells - 1)
            j = min(int((x0 - eta / 2.0) / h), grid.cells - 1)
            assert d == grid.w[i, j]


def test_slice_eta_range_is_bounded_by_the_grid():
    grid = patterned_grid()
    L = grid.axis_max
    x0 = 0.3 * L
    sl = slice_density(grid, x0)
    span = 2.0 * min(x0, L - x0)
    assert np.all(np.abs(sl.eta) < span)
    assert sl.eta[0] < 0 < sl.eta[-1]
    assert np.all(np.diff(sl.eta) > 0)


def test_slice_visits_every_cell_the_line_crosses():
    grid = patterned_grid(cells=8)
    L = grid.axis_max
    sl = slice_density(grid, 0.5 * L)
    # the full diagonal at the center crosses every cell of both diagonals
    assert len(sl.eta) >= grid.cells


def test_slice_on_uniform_grid_is_flat():
    cells = 12
    grid = DensityGrid(
        counts=np.full((cells, cells), 5, dtype=np.int64),
        n_ranks=500,
    )
    sl = slice_density(grid, 0.4 * grid.axis_max)
    assert np.all(sl.density == sl.density[0])


def test_slice_at_the_corners():
    grid = patterned_grid()
    lo = slice_density(grid, 0.0)
    np.testing.assert_array_equal(lo.eta, [0.0])
    assert lo.density[0] == grid.w[0, 0]
    hi = slice_density(grid, grid.axis_max)
    assert hi.density[0] == grid.w[-1, -1]


def test_slice_rejects_x0_outside_grid():
    grid = patterned_grid()
    with pytest.raises(ContractViolation):
        slice_density(grid, -0.1)
    with pytest.raises(ContractViolation):
        slice_density(grid, grid.axis_max + 0.1)


# ---- power-law fitting ---------------------------------------------------------


def test_exact_power_law_is_recovered_exactly():
    x = np.arange(1, 2001, dtype=np.float64)
    y = 3.7 * x**-2.5
    fit = fit_power_law(x, y, (5.0, 500.0))
    assert fit.exponent == pytest.approx(2.5, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr < 1e-9


def test_fit_is_invariant_to_bin_count_on_exact_data():
    x = np.arange(1, 1001, dtype=np.float64)
    y = x**-1.7
    fits = [fit_power_law(x, y, (2.0, 800.0), num_bins=b) for b in (8, 20, 40)]
    for fit in fits:
        assert fit.exponent == pytest.approx(1.7, abs=1e-9)


def test_fit_handles_noise():
    rng = np.random.default_rng(19)
    x = np.arange(1, 3001, dtype=np.float64)
    y = x**-2.1 * np.exp(rng.normal(0, 0.05, size=len(x)))
    fit = fit_power_law(x, y, (3.0, 1000.0))
    assert fit.exponent == pytest.approx(2.1, abs=0.05)
    assert fit.stderr < 0.05


def test_fit_range_endpoints_are_inclusive():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = x**-2.0
    fit = fit_power_law(x, y, (1.0, 16.0), num_bins=4)
    assert len(fit.bin_x) == 4  # x == 16 landed inside the last bin
    assert fit.exponent == pytest.approx(2.0, abs=1e-9)


def test_fit_rejects_bad_input():
    x = np.arange(1, 100, dtype=np.float64)
    y = x**-2.0
    with pytest.raises(ContractViolation):
        fit_power_law(x, y, (50.0, 5.0))  # inverted range
    with pytest.raises(ContractViolation):
        fit_power_law(x, y, (0.0, 10.0))  # log needs positive bounds
    for bounds in ((1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)):
        with pytest.raises(ContractViolation, match="invalid fit range"):
            fit_power_law(x, y, bounds)  # bin edges need finite bounds
    with pytest.raises(ContractViolation):
        fit_power_law(x[:3], y[:3], (1.0, 99.0))  # too few points
    for value in (0.0, math.nan, math.inf):
        bad = y.copy()
        bad[10] = value
        with pytest.raises(ContractViolation):
            fit_power_law(x, bad, (1.0, 99.0))
    clustered_x = np.array([1.0, 1.01, 1.02, 900.0, 901.0, 902.0])
    clustered_y = clustered_x**-2.0
    with pytest.raises(ContractViolation):
        fit_power_law(clustered_x, clustered_y, (1.0, 902.0))  # 2 occupied bins


def test_histogram_and_rank_curves():
    g = DirectedGraph.from_edges(
        ["a", "b", "c"], [0, 0, 1], [1, 2, 2], np.array([3, 1, 1])
    )
    ks, ws = histogram_curve(degree_distribution(g, "out", weighted=True))
    # degrees: a=4, b=1, c=0 -> degree-0 dropped
    np.testing.assert_array_equal(ks, [1, 4])
    np.testing.assert_allclose(ws, [1 / 3, 1 / 3])
    r, v = rank_curve(np.array([0.2, 0.5, 0.3]))
    np.testing.assert_array_equal(r, [1, 2, 3])
    np.testing.assert_array_equal(v, [0.5, 0.3, 0.2])


# ---- independent-pair null model ----------------------------------------------


def test_sample_independent_is_deterministic():
    weights = np.arange(1, 101, dtype=np.float64) ** -1.5
    curve = weights / weights.sum()
    a = sample_independent(curve, curve, 500, seed=11)
    b = sample_independent(curve, curve, 500, seed=11)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = sample_independent(curve, curve, 500, seed=12)
    assert not np.array_equal(a[0], c[0])


def test_sample_independent_respects_bounds_and_marginals():
    curve = np.array([0.5, 0.3, 0.2])
    n = 100_000
    ks, k_stars = sample_independent(curve, curve, n, seed=5)
    assert ks.min() >= 1 and ks.max() <= 3
    for arr in (ks, k_stars):
        freq = np.bincount(arr, minlength=4)[1:] / n
        for got, want in zip(freq, curve):
            sigma = math.sqrt(want * (1 - want) / n)
            assert abs(got - want) < 5 * sigma


def test_sample_independent_coordinates_are_independent_draws():
    curve = np.array([0.5, 0.5])
    ks, k_stars = sample_independent(curve, curve, 20_000, seed=9)
    # joint frequency of (1, 1) should be ~0.25, not ~0.5
    joint = np.mean((ks == 1) & (k_stars == 1))
    assert abs(joint - 0.25) < 0.02


def test_sample_independent_validates_the_curves():
    with pytest.raises(ContractViolation):
        sample_independent(np.array([0.7, 0.7]), np.array([0.5, 0.5]), 10, seed=1)
    with pytest.raises(ContractViolation):
        sample_independent(np.array([1.5, -0.5]), np.array([0.5, 0.5]), 10, seed=1)
    with pytest.raises(ContractViolation):
        sample_independent(np.array([1.0]), np.array([1.0]), 0, seed=1)
    half = np.array([0.5, 0.5])
    for curve, cause in (
        ([math.nan, 0.5, 0.5], "p_curve sums to nan"),
        ([math.inf, -math.inf, 1.0], "p_curve does not sum to a finite number"),
        ([math.inf, 0.5], "p_curve sums to inf"),
        ([-math.inf, 0.5], "p_curve sums to -inf"),
    ):
        with pytest.raises(ContractViolation, match=cause):
            sample_independent(np.array(curve), half, 10, seed=1)
    with pytest.raises(ContractViolation, match="p_star_curve sums to nan"):
        sample_independent(half, np.array([math.nan, 0.5, 0.5]), 10, seed=1)


@pytest.mark.parametrize(
    "length", [1, _BIN_BLOCK - 1, _BIN_BLOCK, 3 * _BIN_BLOCK + 17]
)
def test_null_model_draws_in_blocks_like_one_draw(length):
    weights = np.arange(1, 1001, dtype=np.float64) ** -1.2
    curve = weights / weights.sum()
    ks, k_stars = sample_independent(curve, curve[::-1], length, seed=length)
    for got, c, seed in ((ks, curve, length), (k_stars, curve[::-1], length + 1)):
        cum = np.cumsum(c)
        cum[-1] = 1.0
        uniforms = np.random.default_rng(seed).random(length)
        np.testing.assert_array_equal(got, np.searchsorted(cum, uniforms, side="right") + 1)
        assert got.dtype == np.int64


def test_null_model_temporaries_do_not_scale_with_the_samples():
    weights = np.arange(1, 100_001, dtype=np.float64) ** -1.2
    curve = weights / weights.sum()
    tracemalloc.start()
    try:
        sample_independent(curve, curve, 10**6, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6  # the two returned rank arrays alone are 16 MB


# ---- scale-free generator -------------------------------------------------------


def test_mean_adjusted_pmf_hits_the_target_mean_with_exact_tail():
    for mu, mean in ((2.1, 5.0), (2.76, 5.0), (2.5, 2.0)):
        k0, pmf = _mean_adjusted_pmf(mu, mean, 10_000)
        ks = np.arange(k0, k0 + len(pmf), dtype=np.float64)
        assert float(pmf @ ks) == pytest.approx(mean, abs=1e-9)
        assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)
        # every bin beyond the head follows the pure power law
        tail = pmf[1:]
        ratio = tail[1:] / tail[:-1]
        expected = (ks[2:] / ks[1:-1]) ** -mu
        np.testing.assert_allclose(ratio, expected, rtol=1e-10)


@pytest.mark.parametrize("exponent", [30.0, 300.0, 1000.0, math.inf, 1e18])
def test_mean_adjusted_pmf_with_an_underflowing_tail_warns_nothing(exponent):
    """k^-exponent underflows to 0 in the tail; such a tail has no mean to
    reach, and k0 (so the pmf) is the one the plain quotient gave."""
    mean, k_max = 5.0, 300
    k = np.arange(1, k_max + 1, dtype=np.float64)
    weight = k**-exponent
    with np.errstate(invalid="ignore"):
        plain = np.cumsum((weight * k)[::-1])[::-1] / np.cumsum(weight[::-1])[::-1]
    reachable = np.flatnonzero(plain[1:k_max] >= mean)  # k0 candidates 1 .. k_max - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not len(reachable):
            with pytest.raises(ContractViolation, match="not reachable"):
                _mean_adjusted_pmf(exponent, mean, k_max)
            return
        k0, pmf = _mean_adjusted_pmf(exponent, mean, k_max)
    assert k0 == reachable[0] + 1
    assert float(pmf @ np.arange(k0, k_max + 1)) == pytest.approx(mean, abs=1e-9)


def test_generate_scale_free_is_deterministic():
    g1 = generate_scale_free(300, 2.3, 2.6, 3.0, seed=77)
    g2 = generate_scale_free(300, 2.3, 2.6, 3.0, seed=77)
    assert g1.names == g2.names and (g1.adj != g2.adj).nnz == 0
    assert g1.content_hash() == g2.content_hash()
    g3 = generate_scale_free(300, 2.3, 2.6, 3.0, seed=78)
    assert g1.content_hash() != g3.content_hash()


def parent_way_scale_free(n, mu_in, mu_out, mean_degree, seed):
    """The generator as first written: np.unique over the pair codes, then a
    COO build through DirectedGraph.from_edges.  Same RNG calls, same order."""
    rng = np.random.default_rng(seed)

    def degrees(exponent):
        k0, pmf = _mean_adjusted_pmf(exponent, mean_degree, n)
        cum = np.cumsum(pmf)
        cum[-1] = 1.0
        return np.searchsorted(cum, rng.random(n), side="right") + k0

    deg_in = degrees(mu_in)
    deg_out = degrees(mu_out)
    in_stubs = np.repeat(np.arange(n, dtype=np.int64), deg_in)
    out_stubs = np.repeat(np.arange(n, dtype=np.int64), deg_out)
    m = min(len(in_stubs), len(out_stubs))
    if len(in_stubs) > m:
        in_stubs = in_stubs[rng.permutation(len(in_stubs))[:m]]
    elif len(out_stubs) > m:
        out_stubs = out_stubs[rng.permutation(len(out_stubs))[:m]]
    dst = in_stubs[rng.permutation(m)]
    unique, counts = np.unique(out_stubs * n + dst, return_counts=True)
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    trimmed = "in" if deg_in.sum() > deg_out.sum() else "out"
    return DirectedGraph.from_edges(names, unique // n, unique % n, counts), trimmed


# (n, mu_in, mu_out, mean degree, seed) -> which side has the excess stubs.
GENERATOR_CASES = {
    (100, 2.1, 2.76, 3.0, 0): "in",
    (100, 2.1, 2.76, 3.0, 1): "out",
    (2000, 2.5, 2.5, 4.0, 1): "in",
    (2000, 2.5, 2.5, 4.0, 3): "out",
    (5000, 2.1, 2.76, 10.0, 2): "in",
    (5000, 2.1, 2.76, 10.0, 0): "out",
    # The names' width grows from 3 to 4 digits between these two, and
    # 10^4 names are built in two blocks.
    (999, 2.1, 2.76, 3.0, 0): "in",
    (1000, 2.1, 2.76, 3.0, 1): "in",
    (10_000, 2.5, 2.5, 4.0, 1): "in",
}


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generate_scale_free_matches_the_unique_and_coo_build(case):
    expected, trimmed = parent_way_scale_free(*case)
    assert trimmed == GENERATOR_CASES[case]
    g = generate_scale_free(*case)
    assert g.names == expected.names
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(g.adj, attr), getattr(expected.adj, attr)
        assert got.dtype == want.dtype, attr
        np.testing.assert_array_equal(got, want)
    assert g.adj.has_canonical_format and g.content_hash() == expected.content_hash()


def test_generated_arrays_are_int64_once_a_value_passes_the_int32_bound(monkeypatch):
    """With the bound below n, node ids, CSR indices and run lengths are all
    int64, and the graph is the one generated at int32."""
    case = (1000, 2.1, 2.76, 3.0, 1)
    narrow = generate_scale_free(*case)
    monkeypatch.setattr(graph, "_INT32_MAX", case[0] - 1)
    wide = generate_scale_free(*case)
    for attr in ("_indices", "_indptr", "_data"):  # the arrays the graph holds, as generated
        assert getattr(narrow, attr).dtype == np.int32, attr
        assert getattr(wide, attr).dtype == np.int64, attr
        np.testing.assert_array_equal(getattr(wide, attr), getattr(narrow, attr))
    assert wide.names == narrow.names and wide.content_hash() == narrow.content_hash()
    written = []
    for g in (narrow, wide):
        out = io.StringIO()
        write_edge_list(g, out)
        written.append(out.getvalue())
    assert written[0] == written[1]


# A generated graph written, hashed and counted in a fresh interpreter.
FROM_CSR_PROBE = """
import hashlib, io, json, sys
from rankplane.graph import write_edge_list
from rankplane.netstats import generate_scale_free

g = generate_scale_free(*json.loads(sys.argv[1]))
out = io.StringIO()
write_edge_list(g, out)
facts = [g.n_edges, g.total_edge_weight, g.content_hash(),
         hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps([facts, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_a_generated_graph_is_written_and_hashed_without_scipy():
    """generate_scale_free builds by from_csr, which makes no SciPy matrix:
    the graph's counts, hash and edge list come from its arrays, and its adj,
    made on first use, equals the one from_edges builds at once."""
    case = (2000, 2.5, 2.5, 4.0, 3)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", FROM_CSR_PROBE, json.dumps(case)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    facts, scipy_loaded = json.loads(run.stdout.splitlines()[-1])
    assert scipy_loaded == []

    eager, _ = parent_way_scale_free(*case)
    out = io.StringIO()
    write_edge_list(eager, out)
    written = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert facts == [eager.n_edges, eager.total_edge_weight, eager.content_hash(), written]
    g = generate_scale_free(*case)
    assert g.adj is g.adj and g.adj.has_canonical_format
    assert g.adj.shape == eager.adj.shape and (g.adj != eager.adj).nnz == 0


def test_generate_scale_free_peak_memory():
    generate_scale_free(100, 2.1, 2.76, 3.0, seed=0)  # imports happen outside the trace
    tracemalloc.start()
    try:
        g = generate_scale_free(100_000, 2.1, 2.76, 10.0, seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_edges > 900_000
    assert peak <= 45e6  # the result itself holds about 18 MB


def test_generate_scale_free_basic_shape():
    n = 2000
    g = generate_scale_free(n, 2.5, 2.5, 4.0, seed=1)
    assert g.n_nodes == n
    assert g.names[0] == "n0000" and g.names[-1] == "n1999"
    # stub trimming touches one side only: nobody ends up isolated
    out_weight = np.asarray(g.adj.sum(axis=1)).ravel()
    degrees = out_weight + np.bincount(g.adj.indices, weights=g.adj.data, minlength=n)
    assert degrees.min() >= 1
    mean = g.total_edge_weight / n
    assert abs(mean - 4.0) / 4.0 < 0.25  # heavy-tailed draws wobble the sum


def test_generate_scale_free_recovers_the_exponent():
    n = 30_000
    mu = 2.5
    g = generate_scale_free(n, mu, 2.9, 3.0, seed=123)
    ks, ws = histogram_curve(degree_distribution(g, "in", weighted=True))
    fit = fit_power_law(ks, ws, (2.0, 60.0), num_bins=12)
    assert fit.exponent == pytest.approx(mu, abs=0.2)


def test_generate_scale_free_rejects_bad_parameters():
    with pytest.raises(ContractViolation):
        generate_scale_free(50, 2.5, 2.5, 3.0, seed=0)  # too small
    with pytest.raises(ContractViolation):
        generate_scale_free(200, 2.0, 2.5, 3.0, seed=0)  # divergent mean
    with pytest.raises(ContractViolation):
        generate_scale_free(200, 2.5, 2.5, 0.5, seed=0)  # mean below 1
    with pytest.raises(ContractViolation):
        generate_scale_free(200, 3.5, 3.5, 250.0, seed=0)  # mean beyond max degree


# ---- persistence ---------------------------------------------------------------


def test_density_grid_round_trip(tmp_path):
    rng = np.random.default_rng(30)
    n = 600
    grid = grid_from_rank_pairs(
        rng.permutation(n) + 1, rng.permutation(n) + 1, n, cells=25
    )
    path = tmp_path / "grid.csv"
    write_density_grid(grid, path)
    back = read_density_grid(path)
    np.testing.assert_array_equal(back.counts, grid.counts)
    assert back.n_ranks == grid.n_ranks
    assert back.n_samples == grid.n_samples
    assert back.axis_max == grid.axis_max


def test_eta_slice_round_trip():
    grid = patterned_grid()
    sl = slice_density(grid, 0.6 * grid.axis_max)
    buf = io.StringIO()
    write_eta_slice(sl, buf)
    buf.seek(0)
    meta, cols = read_series(buf, dict.fromkeys(["eta", "density"], "U"))
    assert float(meta["x0"]) == sl.x0
    np.testing.assert_array_equal([float(v) for v in cols["eta"]], sl.eta)
    np.testing.assert_array_equal([float(v) for v in cols["density"]], sl.density)


def test_power_law_fit_round_trip():
    x = np.arange(1, 500, dtype=np.float64)
    fit = fit_power_law(x, 2.0 * x**-1.9, (2.0, 300.0))
    buf = io.StringIO()
    write_power_law_fit(fit, buf)
    buf.seek(0)
    meta, cols = read_series(buf, dict.fromkeys(["x", "y"], "U"))
    assert float(meta["exponent"]) == fit.exponent
    assert float(meta["fit_min"]) == 2.0 and float(meta["fit_max"]) == 300.0
    np.testing.assert_array_equal([float(v) for v in cols["x"]], fit.bin_x)


def test_correlator_points_round_trip():
    rng = np.random.default_rng(40)
    g = random_graph(rng, n=15)
    points = correlator_sweep(g, [0.4, 0.8])
    buf = io.StringIO()
    write_correlator_points(points, buf)
    buf.seek(0)
    _, cols = read_series(buf, dict.fromkeys(["alpha", "alpha_star", "kappa", "converged"], "U"))
    assert [float(v) for v in cols["kappa"]] == [pt.kappa for pt in points]
    assert [v == "1" for v in cols["converged"]] == [pt.converged for pt in points]


def test_correlator_points_with_numpy_alphas_round_trip():
    g = random_graph(np.random.default_rng(41), n=15)
    points = correlator_sweep(g, np.array([0.5, 0.85]))
    buf = io.StringIO()
    write_correlator_points(points, buf)
    buf.seek(0)
    _, cols = read_series(buf, dict.fromkeys(["alpha", "alpha_star", "kappa", "converged"], "U"))
    assert cols["alpha"] == cols["alpha_star"] == ["0.5", "0.85"]
    assert [float(v) for v in cols["kappa"]] == [pt.kappa for pt in points]
