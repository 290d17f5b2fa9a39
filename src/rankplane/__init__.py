"""Two-axis link analysis for directed multigraphs.

Popularity (ingoing-link) and communicativity (outgoing-link) stationary
rankings, their combined square-expansion rank, and the statistics of the
two-dimensional rank plane: correlator, log-cell density grids, diagonal
profiles, power-law fits, overlap metrics, and a seeded scale-free
generator.  See the `cli` module (console script ``rankplane``) for the
file-based pipeline.
"""

import importlib

__version__ = "0.1.0"

# The solver and command defaults, here so that the command-line parser loads no NumPy.
DEFAULT_ALPHA = 0.85
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000
DEFAULT_GRID_CELLS = 100  # density grid cells per axis
DEFAULT_WINDOW = 20  # overlap window size
DEFAULT_BINS = 20  # logarithmic bins of a power-law fit

# The module that defines each public name.  A name is imported from its
# module on first use, so `import rankplane` loads no module, and NumPy and
# SciPy load only when something needs them.
_EXPORTS = {
    "ContractViolation": "errors",
    "ConvergenceError": "errors",
    "ParseError": "errors",
    "DirectedGraph": "graph",
    "IngestStats": "graph",
    "invert": "graph",
    "load_edge_list": "graph",
    "write_edge_list": "graph",
    "NodeSubset": "textio",
    "load_node_subset": "textio",
    "GoogleOperator": "googlerank",
    "RankVector": "googlerank",
    "cheirank": "googlerank",
    "pagerank": "googlerank",
    "RankTable": "twodrank",
    "build_rank_table": "twodrank",
    "rank_positions": "twodrank",
    "read_rank_table": "twodrank",
    "subset_rank": "twodrank",
    "two_d_rank": "twodrank",
    "write_rank_table": "twodrank",
    "CorrelatorPoint": "netstats",
    "DensityGrid": "netstats",
    "EtaSlice": "netstats",
    "PowerLawFit": "netstats",
    "correlator": "netstats",
    "correlator_sweep": "netstats",
    "density_grid": "netstats",
    "fit_power_law": "netstats",
    "generate_scale_free": "netstats",
    "grid_from_rank_pairs": "netstats",
    "kappa": "netstats",
    "rank_curve": "netstats",
    "read_density_grid": "netstats",
    "sample_independent": "netstats",
    "slice_density": "netstats",
    "write_density_grid": "netstats",
    "OverlapSeries": "overlap",
    "RankedList": "overlap",
    "load_ranked_list": "overlap",
    "overlap_curve": "overlap",
    "read_overlap_series": "overlap",
    "subset_window_fraction": "overlap",
    "window_overlap": "overlap",
    "write_overlap_series": "overlap",
}

__all__ = ["DEFAULT_ALPHA", "DEFAULT_BINS", "DEFAULT_GRID_CELLS", "DEFAULT_MAX_ITER",
           "DEFAULT_TOL", "DEFAULT_WINDOW", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
