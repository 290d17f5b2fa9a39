"""Power-iteration ranking against an independently built dense oracle.

The oracle constructs the full damped transition matrix from first
principles (column-normalize, dangling columns uniform, damp, teleport)
and solves the fixed point with a dense linear solve — no code shared
with the iterative implementation under test.
"""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from rankplane import (
    ContractViolation,
    ConvergenceError,
    DirectedGraph,
    GoogleOperator,
    RankVector,
    cheirank,
    correlator_sweep,
    invert,
    load_edge_list,
    pagerank,
)


def dense_google_matrix(g, alpha):
    n = g.n_nodes
    a = g.adj.toarray().astype(float).T  # a[i, j] = weight of j -> i
    col = a.sum(axis=0)
    s = np.empty_like(a)
    for j in range(n):
        s[:, j] = a[:, j] / col[j] if col[j] > 0 else 1.0 / n
    return alpha * s + (1.0 - alpha) / n


def dense_fixed_point(g, alpha):
    """Solve (I - alpha*S) p = (1 - alpha)/n * 1 directly."""
    n = g.n_nodes
    gm = dense_google_matrix(g, alpha)
    s = (gm - (1.0 - alpha) / n) / alpha  # recover S from the damped matrix
    p = np.linalg.solve(np.eye(n) - alpha * s, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def random_graph(rng, n=30, density=0.1):
    mask = rng.random((n, n)) < density
    src, dst = np.nonzero(mask)
    if len(src) == 0:
        src, dst = np.array([0]), np.array([1])
    return DirectedGraph.from_edges(
        [f"v{i}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )


def test_two_node_chain_matches_hand_solution():
    g = load_edge_list(io.StringIO("a\tb\n"))
    p = pagerank(g)
    # (I - 0.85*S) p = 0.15/2 with S = [[0, .5], [1, .5]] gives p = (20/57, 37/57)
    np.testing.assert_allclose(p.values, [20 / 57, 37 / 57], rtol=0, atol=1e-10)
    p_star = cheirank(g)
    np.testing.assert_allclose(p_star.values, [37 / 57, 20 / 57], rtol=0, atol=1e-10)


def test_matches_dense_solve_on_seeded_graphs():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        for alpha in (0.5, 0.85, 0.99):
            # alpha = 0.99 contracts slowly (~alpha per step); allow more steps
            p = pagerank(g, alpha=alpha, max_iter=5000, tol=1e-10)
            expected = dense_fixed_point(g, alpha)
            # stopping residual r bounds the fixed-point distance by r*a/(1-a)
            bound = 1e-10 * alpha / (1.0 - alpha) + 1e-12
            assert np.abs(p.values - expected).sum() < max(bound, 1e-10)


def test_multiplicities_weight_the_walk():
    g = load_edge_list(io.StringIO("a\tb\t3\na\tc\n"))
    p = pagerank(g)
    expected = dense_fixed_point(g, 0.85)
    assert np.abs(p.values - expected).sum() < 1e-9
    assert p.values[1] > p.values[2]  # b receives 3/4 of a's push


def test_uniform_on_directed_cycle():
    n = 10
    src = np.arange(n)
    dst = (src + 1) % n
    g = DirectedGraph.from_edges([f"v{i}" for i in range(n)], src, dst, np.ones(n, int))
    p = pagerank(g)
    np.testing.assert_allclose(p.values, np.full(n, 1 / n), atol=1e-14)


def test_all_dangling_graph_is_uniform():
    g = DirectedGraph.from_edges(["a", "b", "c"], [], [], [])
    p = pagerank(g)
    np.testing.assert_allclose(p.values, np.full(3, 1 / 3), atol=1e-15)


def test_alpha_one_on_two_cycle():
    g = load_edge_list(io.StringIO("a\tb\nb\ta\n"))
    p = pagerank(g, alpha=1.0)
    np.testing.assert_allclose(p.values, [0.5, 0.5], atol=0)


def test_cheirank_is_pagerank_of_inverted_graph():
    rng = np.random.default_rng(42)
    g = random_graph(rng, n=25)
    assert np.array_equal(cheirank(g).values, pagerank(invert(g)).values)


def test_worker_count_does_not_change_bits(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # so 3 and 4 workers are not capped
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=60, density=0.15)
    p1 = pagerank(g, workers=1)
    p4 = pagerank(g, workers=4)
    assert np.array_equal(p1.values, p4.values)
    assert p1.iterations == p4.iterations
    assert np.array_equal(cheirank(g, workers=1).values, cheirank(g, workers=3).values)


def test_worker_row_blocks_are_views_of_the_push_matrix(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    rng = np.random.default_rng(3)
    g = random_graph(rng, n=60, density=0.15)
    op = GoogleOperator(invert(g).adj, 0.85, workers=3)
    try:
        assert len(op._blocks) == 3
        for block in op._blocks:
            assert np.shares_memory(block.data, op.push.data)
            assert np.shares_memory(block.indices, op.push.indices)
        assert (sp.vstack(op._blocks) != op.push).nnz == 0  # they tile it in row order
    finally:
        op.close()


def test_worker_threads_are_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    g = random_graph(np.random.default_rng(3), n=60, density=0.15)
    op = GoogleOperator(invert(g).adj, 0.85, workers=10**6)  # starts no thread until apply()
    try:
        assert op.workers == 2
        assert len(op._blocks) <= 2
    finally:
        op.close()


def multigraph(seed, n=80, edges=400):
    """Seeded multigraph: repeated pairs (multiplicities above 1), self-loops,
    and a quarter of the nodes dangling."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 3 * n // 4, size=edges)
    dst = rng.integers(0, n, size=edges)
    mult = rng.integers(1, 4, size=edges)
    return DirectedGraph.from_edges([f"v{i}" for i in range(n)], src, dst, mult)


def reference_push(g):
    """The push matrix as built before the transpose was shared: normalize
    each row of the adjacency by its out-weight, then transpose."""
    adj = g.adj
    if not adj.nnz:
        return sp.csr_matrix((g.n_nodes, g.n_nodes), dtype=np.float64)
    row_of = np.repeat(np.arange(g.n_nodes), np.diff(adj.indptr))
    out_weight = np.asarray(adj.sum(axis=1), dtype=np.float64).ravel()
    data = adj.data.astype(np.float64) / out_weight[row_of]
    normalized = sp.csr_matrix((data, adj.indices.copy(), adj.indptr.copy()), shape=adj.shape)
    return normalized.T.tocsr()


@pytest.mark.parametrize("workers", [1, 3])
def test_push_matrix_is_bitwise_the_reference(monkeypatch, workers):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    edgeless = DirectedGraph(["a", "b", "c"], sp.csr_matrix((3, 3), dtype=np.int64))
    graphs = [multigraph(seed) for seed in range(4)]
    for g in graphs:
        assert g.adj.diagonal().any() and g.adj.data.max() > 1 and (g.adj.sum(axis=1) == 0).any()
    graphs.append(edgeless)
    for g in graphs + [invert(g) for g in graphs]:
        expected = reference_push(g)
        op = GoogleOperator(invert(g).adj, 0.85, workers=workers)
        try:
            assert op.push.data.dtype == np.float64
            assert op.push.data.tobytes() == expected.data.tobytes()
            assert np.array_equal(op.push.indices, expected.indices)
            assert np.array_equal(op.push.indptr, expected.indptr)
        finally:
            op.close()


def test_each_operator_pushes_over_the_index_arrays_of_its_link_matrix():
    g = multigraph(5)
    op = GoogleOperator(g.adj, 0.85)  # CheiRank's
    assert np.shares_memory(op.push.indices, g.adj.indices)
    assert np.shares_memory(op.push.indptr, g.adj.indptr)
    links = invert(g).adj  # PageRank's
    op = GoogleOperator(links, 0.85)
    assert np.shares_memory(op.push.indices, links.indices)
    assert np.shares_memory(op.push.indptr, links.indptr)


def test_operator_build_allocates_one_float_array_per_nonzero():
    g = multigraph(9, n=5000, edges=60000)
    links = invert(g).adj
    nnz, n = g.adj.nnz, g.n_nodes
    tracemalloc.start()
    try:
        GoogleOperator(links, 0.85)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * nnz + 32 * n, f"{peak / nnz:.1f} bytes per nonzero"


def test_pagerank_keeps_no_transpose_once_it_returns():
    pagerank(multigraph(1))  # imports happen outside the trace
    g = multigraph(9, n=5000, edges=60000)
    tracemalloc.start()
    try:
        pagerank(g)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 16 * g.n_nodes, f"{kept / g.adj.nnz:.1f} bytes per nonzero"


def test_cheirank_allocates_no_transposed_index_array():
    cheirank(multigraph(1))  # imports happen outside the trace
    g = multigraph(9, n=5000, edges=60000)
    nnz, n = g.adj.nnz, g.n_nodes
    tracemalloc.start()
    try:
        cheirank(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * nnz + 32 * n, f"{peak / nnz:.1f} bytes per nonzero"


@pytest.mark.parametrize(
    "solve",
    [pagerank, cheirank, lambda g: correlator_sweep(g, [0.85])],
    ids=["pagerank", "cheirank", "correlator_sweep"],
)
def test_graph_with_no_nodes_is_a_contract_violation(solve):
    g = DirectedGraph([], sp.csr_matrix((0, 0), dtype=np.int64))
    with pytest.raises(ContractViolation):
        solve(g)


def test_apply_google_matches_dense_operator():
    rng = np.random.default_rng(8)
    g = random_graph(rng, n=20)
    v = rng.random(20)
    v /= v.sum()
    got = GoogleOperator(invert(g).adj, 0.85).apply(v)
    expected = dense_google_matrix(g, 0.85) @ v
    np.testing.assert_allclose(got, expected, atol=1e-14)
    assert abs(got.sum() - 1.0) < 1e-12  # column-stochastic: mass preserved


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.01])
def test_alpha_domain(alpha):
    g = load_edge_list(io.StringIO("a\tb\n"))
    with pytest.raises(ContractViolation):
        pagerank(g, alpha=alpha)


def test_solver_parameter_validation():
    g = load_edge_list(io.StringIO("a\tb\n"))
    with pytest.raises(ContractViolation):
        pagerank(g, tol=0.0)
    with pytest.raises(ContractViolation):
        pagerank(g, tol=float("nan"))
    with pytest.raises(ContractViolation):
        pagerank(g, max_iter=0)


def test_convergence_error_carries_the_iterate():
    rng = np.random.default_rng(1)
    g = random_graph(rng, n=40)
    with pytest.raises(ConvergenceError) as err:
        pagerank(g, max_iter=2)
    e = err.value
    assert e.iterations == 2
    assert e.residual > 1e-10
    assert e.iterate.shape == (40,)
    assert abs(e.iterate.sum() - 1.0) < 1e-9  # still a usable distribution


def test_rank_vector_contract():
    with pytest.raises(ContractViolation):
        RankVector("pagerank", np.array([0.6, 0.6]), 0.85, 1, 0.0)
    with pytest.raises(ContractViolation):
        RankVector("pagerank", np.array([1.0, 0.0]), 0.85, 1, 0.0)  # zero entry
    # zero entries are admissible only in the undamped limit
    RankVector("pagerank", np.array([1.0, 0.0]), 1.0, 1, 0.0)
    with pytest.raises(ContractViolation, match="pagerank vector sums to nan"):
        RankVector("pagerank", np.array([math.nan, 0.5, 0.5]), 0.85, 1, 0.0)
    with pytest.raises(ContractViolation, match="does not sum to a finite number"):
        RankVector("pagerank", np.array([math.inf, -math.inf, 1.0]), 0.85, 1, 0.0)
    for infinite in (math.inf, -math.inf):
        with pytest.raises(ContractViolation, match="does not sum to a finite number|sums to"):
            RankVector("pagerank", np.array([infinite, 1.0]), 1.0, 1, 0.0)
    with pytest.raises(ContractViolation, match="outside \\[0, 1\\]"):
        RankVector("pagerank", np.array([1.5, -0.5]), 1.0, 1, 0.0)  # sums to 1


# ---- riders: smaller damping factors solved from the same iterations -----------

SWEEP = (0.3, 0.5, 0.7, 0.8, 0.85)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("direction", ["forward", "inverted", "cheirank"])
def test_each_rider_is_its_own_power_iteration(seed, direction):
    g = multigraph(seed)
    assert g.adj.diagonal().any() and g.adj.data.max() > 1 and (g.adj.sum(axis=1) == 0).any()
    if direction == "inverted":
        g = invert(g)
    solve = cheirank if direction == "cheirank" else pagerank
    driven = solve(g, 0.9, sweep=SWEEP)
    assert list(driven.sweep) == list(SWEEP)
    for beta, rider in driven.sweep.items():
        alone = solve(g, beta)
        assert (rider.kind, rider.alpha, rider.sweep) == (solve.__name__, beta, {})
        assert rider.iterations == alone.iterations <= driven.iterations
        assert rider.residual < 1e-10
        assert np.abs(rider.values - alone.values).sum() <= 1e-13


def test_riders_leave_the_driver_bitwise_unchanged():
    g = multigraph(7)
    for solve in (pagerank, cheirank):
        alone = solve(g, 0.85)
        assert alone.sweep == {}
        for sweep in [(), (0.2, 0.6)]:
            driven = solve(g, 0.85, sweep=sweep)
            assert driven.kind == solve.__name__
            assert driven.values.tobytes() == alone.values.tobytes()
            assert (driven.iterations, driven.residual) == (alone.iterations, alone.residual)


@pytest.mark.parametrize("beta", [0.85, 0.9, 0.0, -0.1, float("nan")])
def test_sweep_values_outside_zero_to_alpha_are_refused(beta):
    with pytest.raises(ContractViolation):
        pagerank(multigraph(0), alpha=0.85, sweep=(0.5, beta))


def operator_builds(monkeypatch) -> list[float]:
    """The alpha of every GoogleOperator built from here on."""
    built = []
    init = GoogleOperator.__init__

    def counting_init(self, links, alpha, workers=1):
        built.append(alpha)
        init(self, links, alpha, workers)

    monkeypatch.setattr(GoogleOperator, "__init__", counting_init)
    return built


def test_correlator_sweep_builds_one_operator_per_direction(monkeypatch):
    built = operator_builds(monkeypatch)
    points = correlator_sweep(multigraph(2), [0.5, 0.6, 0.7, 0.8, 0.85, 0.9])
    assert all(pt.converged for pt in points)
    assert built == [0.9, 0.9]


def test_a_smaller_alpha_converges_when_the_driver_runs_out_of_steps(monkeypatch):
    """The riders that converged before the driver ran out of steps are kept,
    so the sweep still builds one operator per direction."""
    g = multigraph(3)
    small, large = pagerank(g, alpha=0.5), pagerank(g, alpha=0.95)
    assert small.iterations < large.iterations
    built = operator_builds(monkeypatch)
    points = correlator_sweep(g, [0.5, 0.95], max_iter=small.iterations)
    assert built == [0.95, 0.95]
    assert [pt.converged for pt in points] == [True, False]
    assert math.isnan(points[1].kappa)
    p_star = pagerank(invert(g), alpha=0.5)
    expected = g.n_nodes * float(np.dot(small.values, p_star.values)) - 1.0
    assert points[0].kappa == pytest.approx(expected, abs=1e-12)
