"""The alpha_sweep workload's program: the correlator over a damping sweep.

Usage: python sweep.py GRAPH.npz POINTS.json

GRAPH.npz holds the CSR arrays and node names of a graph; the sweep walks
alpha = alpha_star over ALPHAS (the paper's kappa(alpha) figure) and writes
one {alpha, alpha_star, kappa, converged} record per point.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import scipy.sparse as sp

from rankplane.graph import DirectedGraph
from rankplane import netstats

ALPHAS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9)


def save_graph(g: DirectedGraph, path) -> None:
    np.savez(
        path,
        indptr=g.adj.indptr,
        indices=g.adj.indices,
        data=g.adj.data,
        names=np.asarray(g.names),
    )


def load_graph(path) -> DirectedGraph:
    with np.load(path, allow_pickle=False) as z:
        names = z["names"].tolist()
        n = len(names)
        adj = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(n, n))
    return DirectedGraph(names, adj)


def main(argv: list[str]) -> int:
    graph_path, points_path = argv
    # Called through the module so that a traced run sees its wrapper.
    points = netstats.correlator_sweep(load_graph(graph_path), ALPHAS, mode="diagonal")
    records = [
        {"alpha": p.alpha, "alpha_star": p.alpha_star, "kappa": p.kappa, "converged": p.converged}
        for p in points
    ]
    with open(points_path, "w", encoding="utf-8") as f:
        json.dump(records, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
