"""Output checks that do not trust the program.

Every file a workload writes is parsed here with the benchmark's own code
and compared against values computed from the inputs setup made: an own
Google step for the rank columns, own binning for the density grid, own
overlap counts.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

TABLE_COLUMNS = ["name", "pagerank", "pagerank_rank", "cheirank", "cheirank_rank", "rank2d"]
RESIDUAL_MAX = 1e-9  # L1 fixed-point residual of one Google step
SUM_TOL = 1e-12  # |sum of a probability column - 1|
KAPPA_TOL = 1e-12  # |kappa(rank manifest) - kappa(stats correlator)|


class CheckFailed(Exception):
    """An output differs from what the inputs determine."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _header_meta(line: str) -> dict[str, str]:
    return dict(token.partition("=")[::2] for token in line[1:].split() if "=" in token)


# ---- rank tables -------------------------------------------------------------


@dataclass
class Table:
    meta: dict[str, str]
    names: list[str]
    pagerank: np.ndarray
    pagerank_rank: np.ndarray
    cheirank: np.ndarray
    cheirank_rank: np.ndarray
    rank2d: np.ndarray


def read_table(path) -> Table:
    meta: dict[str, str] = {}
    header = None
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as f:
        for line in f.read().split("\n"):
            if not line:
                continue
            if line.startswith("#"):
                meta.update(_header_meta(line))
            elif header is None:
                header = line.split("\t")
            else:
                rows.append(line.split("\t"))
    require(header == TABLE_COLUMNS, f"{path}: column header {header}")
    require(all(len(r) == 6 for r in rows), f"{path}: a row without 6 fields")
    cols = list(zip(*rows)) if rows else [()] * 6
    return Table(
        meta=meta,
        names=list(cols[0]),
        pagerank=np.array(cols[1], dtype=np.float64),
        pagerank_rank=np.array(cols[2], dtype=np.int64),
        cheirank=np.array(cols[3], dtype=np.float64),
        cheirank_rank=np.array(cols[4], dtype=np.int64),
        rank2d=np.array(cols[5], dtype=np.int64),
    )


def check_ranks(t: Table, n: int, what: str) -> None:
    """Rank columns are permutations of 1..n and rank 1 holds the largest
    probability."""
    require(len(t.names) == n, f"{what}: {len(t.names)} rows, expected {n}")
    require(len(set(t.names)) == n, f"{what}: duplicate names")
    expected = np.arange(1, n + 1)
    for column in ("pagerank_rank", "cheirank_rank", "rank2d"):
        ranks = getattr(t, column)
        require(np.array_equal(np.sort(ranks), expected), f"{what}: {column} is not 1..{n}")
    for column in ("pagerank", "cheirank"):
        by_rank = getattr(t, column)[np.argsort(getattr(t, f"{column}_rank"))]
        require(bool(np.all(np.diff(by_rank) <= 0.0)), f"{what}: {column}_rank out of order")


def check_sums(t: Table, what: str) -> None:
    for column in ("pagerank", "cheirank"):
        total = math.fsum(getattr(t, column).tolist())
        require(abs(total - 1.0) <= SUM_TOL, f"{what}: {column} sums to {total!r}")


def google_step(adj: sp.csr_matrix, alpha: float):
    """v -> G v for the damped Google matrix of adjacency `adj` (row = source),
    built here rather than by rankplane: dangling columns are uniform."""
    n = adj.shape[0]
    out = np.asarray(adj.sum(axis=1), dtype=np.float64).ravel()
    inv = np.divide(1.0, out, out=np.zeros(n), where=out > 0)
    push = (sp.diags(inv) @ adj).T.tocsr()
    dangling = out == 0
    return lambda v: alpha * (push @ v) + (alpha * v[dangling].sum() + 1.0 - alpha) / n


def google_residual(adj: sp.csr_matrix, alpha: float, v: np.ndarray) -> float:
    """L1 norm of G v - v."""
    return float(np.abs(google_step(adj, alpha)(v) - v).sum())


def own_rank(adj: sp.csr_matrix, alpha: float, tol: float = 1e-12) -> np.ndarray:
    """Power iteration with the own Google step, to an L1 change below tol."""
    step = google_step(adj, alpha)
    v = np.full(adj.shape[0], 1.0 / adj.shape[0])
    for _ in range(10_000):
        y = step(v)
        change = np.abs(y - v).sum()
        v = y
        if change < tol:
            return v / v.sum()
    raise CheckFailed("own power iteration did not converge")


def kappa(p: np.ndarray, p_star: np.ndarray) -> float:
    return len(p) * math.fsum((p * p_star).tolist()) - 1.0


def in_node_order(t: Table, name_index: dict[str, int], column: str) -> np.ndarray:
    v = np.empty(len(t.names))
    v[[name_index[name] for name in t.names]] = getattr(t, column)
    return v


# ---- edge lists --------------------------------------------------------------


def check_edge_list(path, names: list[str], adj: sp.csr_matrix) -> None:
    """The file holds exactly the graph's merged edges, under its node names."""
    index = {name: i for i, name in enumerate(names)}
    src, dst, mult = [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f.read().split("\n"):
            if not line or line.startswith("#"):
                continue
            s, t, m = line.split("\t")
            src.append(index[s])
            dst.append(index[t])
            mult.append(int(m))
    n = len(names)
    got = sp.csr_matrix((mult, (src, dst)), shape=(n, n))
    require(len(mult) == adj.nnz, f"{path}: {len(mult)} records, expected {adj.nnz} edges")
    require((got != adj).nnz == 0, f"{path}: edges differ from the generated graph")


# ---- CSV series --------------------------------------------------------------


def read_csv(path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    meta: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as f:
        for line in f.read().split("\n"):
            if not line:
                continue
            if line.startswith("#"):
                meta.update(_header_meta(line))
            elif not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def log_grid(k: np.ndarray, k_star: np.ndarray, n_ranks: int, cells: int) -> np.ndarray:
    """Counts of (k, k*) pairs over the cells x cells grid on [0, ln n_ranks]^2."""
    h = math.log(n_ranks) / cells
    ix = np.minimum((np.log(k) / h).astype(np.int64), cells - 1)
    iy = np.minimum((np.log(k_star) / h).astype(np.int64), cells - 1)
    return np.bincount(ix * cells + iy, minlength=cells * cells).reshape(cells, cells)


def check_density(path, expected_counts: np.ndarray | None, n_samples: int) -> np.ndarray:
    meta, header, rows = read_csv(path)
    require(header == ["i", "j", "count", "w", "density_per_area"], f"{path}: header {header}")
    cells = int(meta.get("cells", 0))
    require(len(rows) == cells * cells and cells > 1, f"{path}: {len(rows)} cells")
    counts = np.zeros((cells, cells), dtype=np.int64)
    for i, j, c, *_ in rows:
        counts[int(i), int(j)] = int(c)
    require(int(meta["n_samples"]) == n_samples, f"{path}: n_samples {meta['n_samples']}")
    require(int(counts.sum()) == n_samples, f"{path}: counts sum to {counts.sum()}")
    if expected_counts is not None:
        require(np.array_equal(counts, expected_counts), f"{path}: counts differ from own grid")
    return counts


def check_slice(path, counts: np.ndarray, n: int, x0: float) -> None:
    """Every sample is the own grid's weight in the cell its eta midpoint lies in."""
    meta, header, rows = read_csv(path)
    require(header == ["eta", "density"], f"{path}: header {header}")
    require(float(meta["x0"]) == x0 and rows, f"{path}: x0 {meta.get('x0')} or no rows")
    eta = np.array([float(r[0]) for r in rows])
    density = np.array([float(r[1]) for r in rows])
    cells = counts.shape[0]
    h = math.log(n) / cells
    half_span = 2.0 * min(x0, math.log(n) - x0)
    require(bool(np.all(np.diff(eta) > 0)), f"{path}: eta not increasing")
    require(bool(np.all(np.abs(eta) < half_span)), f"{path}: eta outside the line")
    ix = np.minimum(((x0 + eta / 2.0) / h).astype(np.int64), cells - 1)
    iy = np.minimum(((x0 - eta / 2.0) / h).astype(np.int64), cells - 1)
    require(np.array_equal(density, counts[ix, iy] / n), f"{path}: densities differ from own grid")


def check_fit(path, lo: float, hi: float) -> None:
    """The header's exponent is the log-log slope of the binned points listed."""
    meta, header, rows = read_csv(path)
    require(header == ["x", "y"] and len(rows) >= 3, f"{path}: header {header}, {len(rows)} bins")
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    inside = (x >= lo * (1 - 1e-12)) & (x <= hi * (1 + 1e-12))
    require(bool(np.all(inside)), f"{path}: bin outside the fit range")
    slope = np.polyfit(np.log(x), np.log(y), 1)[0]
    exponent = float(meta["exponent"])
    require(abs(exponent + slope) <= 1e-6 * max(1.0, abs(slope)), f"{path}: exponent {exponent}")
    require(0.0 <= float(meta["r_squared"]) <= 1.0, f"{path}: r_squared {meta['r_squared']}")


def read_series(path, kind: str) -> list[tuple[float, float]]:
    meta, header, rows = read_csv(path)
    require(meta.get("kind") == kind and header == ["x", "f"], f"{path}: kind {meta.get('kind')}")
    return [(float(x), float(f)) for x, f in rows]


def overlap_curve(a: list[str], b: list[str]) -> list[tuple[float, float]]:
    """f(ks) = |a[:ks] & b[:ks]| / ks, for ks = 1..min(len)."""
    depth = min(len(a), len(b))
    pos_b = {name: j for j, name in enumerate(b)}
    enters = [max(i, pos_b[name]) for i, name in enumerate(a) if name in pos_b]
    common = np.cumsum(np.bincount(enters, minlength=max(len(a), len(b))))[:depth]
    ks = np.arange(1, depth + 1)
    return list(zip(ks.astype(np.float64).tolist(), (common / ks).tolist()))


def window_overlap(a: list[str], b: list[str], window: int) -> list[tuple[float, float]]:
    depth = min(len(a), len(b))
    windows = depth // window
    pos_b = {name: j for j, name in enumerate(b[: windows * window])}
    shared = np.zeros(windows, dtype=np.int64)
    for i, name in enumerate(a[: windows * window]):
        j = pos_b.get(name)
        if j is not None and j // window == i // window:
            shared[i // window] += 1
    return [(w * window + window / 2.0, shared[w] / window) for w in range(windows)]


def subset_window(ranking: list[str], members: set[str], window: int) -> list[tuple[float, float]]:
    windows = len(ranking) // window
    hits = np.zeros(windows, dtype=np.int64)
    for i, name in enumerate(ranking[: windows * window]):
        if name in members:
            hits[i // window] += 1
    return [(w * window + window / 2.0, hits[w] / window) for w in range(windows)]
