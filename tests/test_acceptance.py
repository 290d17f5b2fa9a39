"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each test prints one PASS line (visible under ``pytest -s``); a failed
assertion marks the criterion failed.  Runtime budgets are asserted with
wall-clock checks, memory with the peak RSS of a fresh process.
"""

import filecmp
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rankplane import (
    DirectedGraph,
    RankVector,
    RankedList,
    cheirank,
    correlator,
    fit_power_law,
    generate_scale_free,
    grid_from_rank_pairs,
    invert,
    overlap_curve,
    pagerank,
    rank_curve,
    read_rank_table,
    sample_independent,
    subset_window_fraction,
    two_d_rank,
)
from rankplane.cli import main
from rankplane.graph import degree_distribution
from rankplane.netstats import density_grid, histogram_curve
from rankplane.textio import NodeSubset


# ---- criterion 1: dense-solve oracle for both rankings --------------------------


def dense_google(g, alpha):
    n = g.n_nodes
    a = g.adj.toarray().astype(np.float64).T  # column j = links out of j
    out = a.sum(axis=0)
    s = np.where(out > 0, a / np.where(out > 0, out, 1.0), 1.0 / n)
    return alpha * s + (1.0 - alpha) / n


def dense_fixed_point(g, alpha):
    n = g.n_nodes
    google = dense_google(g, alpha)
    # (I - G) p = 0 with sum(p) = 1, solved via the damped linear system
    s = (google - (1.0 - alpha) / n) / alpha
    p = np.linalg.solve(np.eye(n) - alpha * s, np.full(n, (1.0 - alpha) / n))
    return p / p.sum()


def seeded_graph(seed, n=50, density=0.1):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_edges(
        [f"v{i:02d}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    for seed in range(10):
        g = seeded_graph(seed)
        p = pagerank(g)
        assert np.abs(p.values - dense_fixed_point(g, 0.85)).sum() < 1e-9
        p_star = cheirank(g)
        assert np.abs(p_star.values - dense_fixed_point(invert(g), 0.85)).sum() < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\nPASS: criterion 1 — power iteration within 1e-9 L1 of dense solves "
        f"on 10 seeded N=50 graphs ({elapsed:.2f}s)"
    )


# ---- criterion 2: exhaustive square-rescan oracle --------------------------------


def naive_square_scan(k_pos, k_star_pos):
    n = len(k_pos)
    node_at_k = {int(k_pos[i]): i for i in range(n)}
    node_at_k_star = {int(k_star_pos[i]): i for i in range(n)}
    order, seen = [], set()
    for k in range(1, n + 1):
        i = node_at_k[k]  # right edge of the square, K* <= k
        if k_star_pos[i] <= k and i not in seen:
            order.append(i)
            seen.add(i)
        j = node_at_k_star[k]  # top edge, K < k
        if k_pos[j] <= k and j not in seen:
            order.append(j)
            seen.add(j)
    ranks = np.empty(n, dtype=np.int64)
    for pos, node in enumerate(order, start=1):
        ranks[node] = pos
    return ranks


def test_criterion_2_exhaustive_combined_rank():
    start = time.monotonic()
    pairs = 0
    for n in range(1, 8):
        identity = np.arange(1, n + 1)
        k = np.asarray(identity, dtype=np.int64)
        for perm in itertools.permutations(range(1, n + 1)):
            k_star = np.asarray(perm, dtype=np.int64)
            got = two_d_rank(k, k_star)
            expected = naive_square_scan(identity, perm)
            if not np.array_equal(got, expected):
                pytest.fail(f"mismatch at n={n}, K*={perm}: {got} != {expected}")
            pairs += 1
    elapsed = time.monotonic() - start
    assert pairs == sum(math.factorial(n) for n in range(1, 8))
    assert elapsed < 30.0
    print(
        f"\nPASS: criterion 2 — streaming combined rank equals the square-rescan "
        f"oracle on all {pairs} permutation pairs up to N=7 ({elapsed:.2f}s)"
    )


# ---- criterion 3: correlator identities --------------------------------------------


def test_criterion_3_correlator():
    for n in (8, 64, 1024):  # dyadic sizes keep every step exact in binary
        uniform = RankVector("pagerank", np.full(n, 1.0 / n), 0.85, 1, 0.0)
        assert correlator(uniform, uniform).kappa == 0.0
    rng = np.random.default_rng(33)
    n = 60
    mask = rng.random((n, n)) < 0.1
    mask = mask | mask.T
    src, dst = np.nonzero(mask)
    g = DirectedGraph.from_edges(
        [f"v{i}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )
    p = pagerank(g)
    p_star = cheirank(g)
    kappa = correlator(p, p_star).kappa
    self_term = n * float(np.dot(p.values, p.values)) - 1.0
    assert abs(kappa - self_term) <= 1e-12
    print(
        "\nPASS: criterion 3 — kappa exactly 0 for uniform vectors; symmetric-graph "
        f"kappa matches N*sum(P^2)-1 to 1e-12 (|diff|={abs(kappa - self_term):.2e})"
    )


# ---- criterion 4: degree exponent and rank-curve slope ------------------------------


def test_criterion_4_beta_mu_relation():
    start = time.monotonic()
    g = generate_scale_free(100_000, 2.1, 2.76, 5.0, seed=7)
    ks, ws = histogram_curve(degree_distribution(g, "in", weighted=True))
    mu_fit = fit_power_law(ks, ws, (2.0, 200.0)).exponent
    assert abs(mu_fit - 2.1) < 0.15

    p = pagerank(g)
    x, y = rank_curve(p.values)
    beta_fit = fit_power_law(x, y, (5.0, 1000.0)).exponent
    target = 1.0 / (mu_fit - 1.0)
    assert abs(beta_fit - target) < 0.15
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"\nPASS: criterion 4 — n=1e5 graph: fitted mu_in={mu_fit:.3f} (target 2.1), "
        f"rank-curve beta={beta_fit:.3f} vs 1/(mu-1)={target:.3f} ({elapsed:.1f}s)"
    )


# ---- criterion 5: grid mass and null-model flatness ---------------------------------


def test_criterion_5_density_grid():
    start = time.monotonic()
    # unit mass on a grid built from a real rank table
    g = generate_scale_free(2000, 2.3, 2.6, 4.0, seed=5)
    p = pagerank(g)
    p_star = cheirank(g)
    from rankplane import build_rank_table

    table = build_rank_table(g.names, p.values, p_star.values)
    real_grid = density_grid(table, cells=100)
    assert abs(real_grid.w.sum() - 1.0) < 1e-12

    # independent-pair null model: a rank curve flat beyond r0 = sqrt(N) makes
    # log-cell masses geometric at high rank, so the product grid is constant
    # along ln K + ln K* = const there, up to multinomial sampling noise
    n_ranks = 1_000_000
    r = np.arange(1, n_ranks + 1, dtype=np.float64)
    curve = np.maximum(1.0 / r, 1.0 / np.sqrt(n_ranks))
    curve /= curve.sum()
    ks_s, k_star_s = sample_independent(curve, curve, 1_000_000, seed=3)
    null_grid = grid_from_rank_pairs(ks_s, k_star_s, n_ranks, cells=20)
    assert abs(null_grid.w.sum() - 1.0) < 1e-12

    counts = null_grid.counts
    half = null_grid.cells // 2  # cells at rank >= sqrt(N) on both axes
    lines = 0
    for d in range(2 * half, 2 * (null_grid.cells - 1) + 1):
        on_line = np.array(
            [
                counts[i, d - i]
                for i in range(half, null_grid.cells)
                if half <= d - i < null_grid.cells
            ],
            dtype=np.float64,
        )
        mean = on_line.mean()
        if len(on_line) < 2 or mean < 25:
            continue  # too sparse for the gaussian noise model
        assert np.max(np.abs(on_line - mean)) <= 5.0 * np.sqrt(mean)
        lines += 1
    assert lines >= 10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nPASS: criterion 5 — grid mass within 1e-12 of 1; null grid flat along "
        f"{lines} anti-diagonal lines within 5x multinomial noise ({elapsed:.1f}s)"
    )


# ---- criterion 6: overlap identities --------------------------------------------------


def test_criterion_6_overlap_identities():
    rng = np.random.default_rng(60)
    pool = [f"n{i}" for i in range(40)]
    depth = 30
    for trial in range(1000):
        a_names = [pool[i] for i in rng.permutation(40)[:depth]]
        if trial % 2 == 0:
            b_names = [a_names[i] for i in rng.permutation(depth)]  # same name set
        else:
            b_names = [pool[i] for i in rng.permutation(40)[:depth]]
        a, b = RankedList(tuple(a_names)), RankedList(tuple(b_names))
        fwd = overlap_curve(a, b, depth)
        rev = overlap_curve(b, a, depth)
        assert fwd.points == rev.points  # symmetry
        hits = [ks * f for ks, f in fwd.points]
        assert all(h2 >= h1 - 1e-9 for h1, h2 in zip(hits, hits[1:]))  # monotone
        assert overlap_curve(a, a, depth).points[depth - 1][1] == 1.0
        if trial % 2 == 0:
            assert fwd.points[-1][1] == 1.0  # same name set -> full-depth overlap 1

    ranking = RankedList(tuple(f"m{i}" for i in range(754)))
    picked = [ranking[i] for i in rng.permutation(754)[:193]]
    subset = NodeSubset(
        label="marked", members=tuple(range(193)), names=tuple(picked)
    )
    series = subset_window_fraction(ranking, subset, window=26)  # 29 windows tile 754
    mean = sum(series.fractions()) / len(series.points)
    assert mean == pytest.approx(193 / 754, abs=1e-12)
    print(
        "\nPASS: criterion 6 — overlap symmetry/monotonicity/identity over 1000 "
        "random pairs; 193-of-754 window mean equals 193/754 exactly"
    )


# ---- criterion 7: pipeline determinism --------------------------------------------------


def run_pipeline(workdir, monkeypatch):
    workdir.mkdir(exist_ok=True)
    monkeypatch.chdir(workdir)  # relative paths keep manifests byte-comparable
    assert main(["synth", "500", "-o", "edges.tsv", "--seed", "21"]) == 0
    assert main(["rank", "edges.tsv", "-o", "table.tsv"]) == 0
    assert (
        main(
            [
                "stats", "density", "table.tsv", "-o", "grid.csv",
                "--cells", "40", "--null-samples", "20000", "--seed", "9",
            ]
        )
        == 0
    )
    assert main(["stats", "slice", "table.tsv", "-o", "slice.csv", "--x0", "3.0",
                 "--cells", "40"]) == 0
    assert main(["stats", "correlator", "table.tsv", "-o", "kappa.csv"]) == 0
    assert main(["stats", "fitcurve", "table.tsv", "-o", "fit.csv",
                 "--fit-range", "2:300"]) == 0

    table = read_rank_table("table.tsv")
    by_k = [n for _, n in sorted(zip(table.pagerank_rank, table.names))]
    by_k_star = [n for _, n in sorted(zip(table.cheirank_rank, table.names))]
    with open("by_k.txt", "w") as f:
        f.write("".join(f"{n}\n" for n in by_k))
    with open("by_kstar.txt", "w") as f:
        f.write("".join(f"{n}\n" for n in by_k_star))
    with open("marked.txt", "w") as f:
        f.write("".join(f"{n}\n" for n in by_k[::7]))

    assert main(["overlap", "curve", "by_k.txt", "by_kstar.txt",
                 "-o", "curve.csv", "--ks-max", "100"]) == 0
    assert main(["overlap", "window", "by_k.txt", "by_kstar.txt",
                 "-o", "window.csv", "--window", "25"]) == 0
    assert main(["overlap", "subset-window", "by_k.txt", "marked.txt",
                 "-o", "subwin.csv", "--window", "25"]) == 0
    assert main(["subset", "table.tsv", "marked.txt", "-o", "subtable.tsv"]) == 0


def test_criterion_7_determinism(tmp_path, monkeypatch):
    run_pipeline(tmp_path / "run1", monkeypatch)
    run_pipeline(tmp_path / "run2", monkeypatch)
    names = sorted(p.name for p in (tmp_path / "run1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "run2").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "run1", tmp_path / "run2", names, shallow=False
    )
    assert not mismatch and not errors
    assert len(match) == len(names) >= 13

    g = generate_scale_free(500, 2.3, 2.6, 4.0, seed=21)
    p1 = pagerank(g, workers=1)
    p8 = pagerank(g, workers=8)
    l1 = float(np.abs(p1.values - p8.values).sum())
    assert l1 < 1e-10
    print(
        f"\nPASS: criterion 7 — {len(match)} pipeline files byte-identical across "
        f"reruns; 1-worker vs 8-worker L1 = {l1:.1e}"
    )


# sha256 of every file run_pipeline writes.  A change that alters output bytes
# on purpose updates these digests and says why.
PIPELINE_DIGESTS = {
    "by_k.txt": "e0a8f1a60eafead8923f9e6494aaaa77534cfbe713a126fcfb6c40dcc5b5f238",
    "by_kstar.txt": "c05bec8982f424cbe34f0e480cc0380b39fd5d182c27ec38830db5df73ae5616",
    "curve.csv": "f60286e311f850ab01d278e49b95d41c0d16e047d574de65bb463c704b346f68",
    "edges.tsv": "1a9a6b3cda62012ab22a0b4ed19ac946d8da55bf4f28da150b02fc8b1fe2cef4",
    "fit.csv": "5af47b35b64183052143d0fd142361336bdb83102d20efe8c5e6e5cda7454fb1",
    "grid.csv": "335b9e535db43d7953482cbb8bb61620adcdb5528e3ea3e2d27af661494867ff",
    "grid.csv.null.csv": "0aee87c58ac17bb163ef65e68bb8b557c297efc2dc2f8da9b3303e66436e1f18",
    "kappa.csv": "9042208221b9a321aee84330d6523557cca33f916ad49c9689bd2e6b5ac0f017",
    "marked.txt": "106d3ca051d9d41b9e93f64ed279ea46fd4eeda1043bc5246163f2f0562e37be",
    "slice.csv": "0aff3e85268e05135456250f8d6cfc27f5da43387359a1f616592925a6c96447",
    "subtable.tsv": "5c91d7dbf58316e7210cb5be68254691e4c1ca5d75f7d4a21ce9f0fa4fb40a8e",
    "subwin.csv": "414b7d60997e12ba3f8b1d83f64cd260e4eafa1ad776d37e6aaffa0ecf83890b",
    "table.tsv": "050f3941d6eac6c842abef7c4747a30d2d49c394a0569e059363a964a8b4e9b1",
    "table.tsv.manifest.json": "b537638148200b39636a4a182e3391f035c3c9f485305780466edd7b90a8aa71",
    "window.csv": "2a2a9fffa6259370833d62a618aa438bfb197224199ddb64df9c887ae80c5346",
}


def test_pipeline_outputs_match_recorded_digests(tmp_path, monkeypatch):
    run_pipeline(tmp_path, monkeypatch)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert digests == PIPELINE_DIGESTS


# ---- criterion 8: scale ---------------------------------------------------------------


# Run in a fresh process: ru_maxrss of the pytest process would report
# whatever ran before this test, not this run.
CRITERION_8_RUN = """
import json, resource, time
from rankplane import generate_scale_free, pagerank

g = generate_scale_free(1_000_000, 2.1, 2.76, 10.0, seed=8)
start = time.monotonic()
p = pagerank(g, tol=1e-10)
elapsed = time.monotonic() - start
print(json.dumps(dict(
    n_nodes=g.n_nodes,
    weight=g.total_edge_weight,
    residual=p.residual,
    elapsed=elapsed,
    peak_gb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2,
)))
"""


def test_criterion_8_performance():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", CRITERION_8_RUN],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    r = json.loads(run.stdout)
    assert r["n_nodes"] == 1_000_000
    assert r["weight"] >= 9_500_000  # ~1e7 weighted edges
    assert r["residual"] < 1e-10
    assert r["elapsed"] < 300.0
    assert r["peak_gb"] < 4.0
    print(
        f"\nPASS: criterion 8 — 1e6 nodes / {r['weight'] / 1e6:.1f}M edge weight: "
        f"residual {r['residual']:.1e} in {r['elapsed']:.1f}s, peak RSS {r['peak_gb']:.2f} GB"
    )
