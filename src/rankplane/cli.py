"""Command-line surface: synthesize graphs, rank them, and emit analysis CSVs.

Subcommands
-----------
synth          seeded scale-free edge list
rank           edge list -> rank table TSV + JSON run manifest
stats density  rank table -> log-rank grid CSV (optionally a null-model grid)
stats slice    rank table -> diagonal density profile CSV
stats correlator  rank table -> single correlator point CSV
stats fitcurve rank table -> binned power-law fit CSV
overlap        curve / window / subset-window comparison CSVs
subset         rank table + name file -> densely re-ranked sub-table

Exit codes: 0 success, 2 parse/input error, 3 convergence failure,
4 contract violation (a size too large for memory included).  All data
outputs are deterministic for a fixed input, configuration, and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from . import DEFAULT_ALPHA, DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import ContractViolation, ConvergenceError, ParseError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_CONTRACT = 4

DEFAULT_GRID_CELLS = 100
DEFAULT_WINDOW = 20


def _fit_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}")
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX, got {text!r}") from exc


# ---- commands ---------------------------------------------------------------
# Each imports only the modules it runs: the `overlap` commands start without
# NumPy, and every command but `rank` without SciPy.


def cmd_synth(args: argparse.Namespace) -> int:
    from . import graph, netstats
    g = netstats.generate_scale_free(
        n=args.n,
        mu_in=args.mu_in,
        mu_out=args.mu_out,
        mean_degree=args.mean_degree,
        seed=args.seed,
    )
    graph.write_edge_list(g, args.output)
    print(
        f"generated {g.n_nodes} nodes, {g.n_edges} distinct edges "
        f"(total weight {g.total_edge_weight}) -> {args.output}"
    )
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    from . import googlerank, graph, netstats, textio, twodrank
    g = graph.load_edge_list(args.edges)
    solve = dict(tol=args.tol, max_iter=args.max_iter, workers=args.workers)
    p = googlerank.pagerank(g, alpha=args.alpha, **solve)
    p_star = googlerank.cheirank(g, alpha_star=args.alpha_star, **solve)
    point = netstats.correlator(p, p_star)
    params = {k: getattr(args, k) for k in ("alpha", "alpha_star", "tol", "max_iter")}
    meta = {"graph_hash": g.content_hash(), "n_nodes": g.n_nodes, **params}
    table = twodrank.build_rank_table(g.names, p.values, p_star.values, meta)
    twodrank.write_rank_table(table, args.output)

    manifest = {
        "command": "rank",
        "config": {**params, "workers": args.workers},
        "input": {
            "path": str(args.edges),
            "sha256": g.ingest.sha256,
            "graph_hash": g.content_hash(),
            "n_nodes": g.n_nodes,
            "n_edges": g.n_edges,
            "total_edge_weight": g.total_edge_weight,
            "dangling_nodes": int((g.adj.indptr[1:] == g.adj.indptr[:-1]).sum()),
        },
        "solves": {
            "pagerank": {"iterations": p.iterations, "residual": p.residual},
            "cheirank": {"iterations": p_star.iterations, "residual": p_star.residual},
        },
        "kappa": point.kappa,
        "outputs": {"table": str(args.output)},
    }
    with textio.open_text(args.manifest or f"{args.output}.manifest.json", "w") as out:
        out.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"ranked {g.n_nodes} nodes (pagerank {p.iterations} it, cheirank "
        f"{p_star.iterations} it, kappa={point.kappa:.6g}) -> {args.output}"
    )
    return EXIT_OK


def cmd_stats_density(args: argparse.Namespace) -> int:
    from . import netstats, twodrank
    table = twodrank.read_rank_table(args.table)
    grid = netstats.density_grid(table, cells=args.cells)
    null_grid = None
    if args.null_samples is not None:  # sampled before any file is written
        if args.seed is None:
            raise ContractViolation("--null-samples requires --seed")
        n_ranks = len(table)
        _, p_curve = netstats.rank_curve(table.pagerank)
        _, p_star_curve = netstats.rank_curve(table.cheirank)
        del table  # the draws need only the curves; this is the command's peak
        n = args.null_samples
        ks, k_stars = netstats.sample_independent(p_curve, p_star_curve, n, args.seed)
        null_grid = netstats.grid_from_rank_pairs(ks, k_stars, n_ranks=n_ranks, cells=args.cells)
    netstats.write_density_grid(grid, args.output)
    print(f"density grid {grid.cells}x{grid.cells} over {grid.n_samples} nodes -> {args.output}")
    if null_grid is not None:
        null_path = args.null_output or f"{args.output}.null.csv"
        netstats.write_density_grid(null_grid, null_path)
        print(f"null-model grid from {n} independent pairs -> {null_path}")
    return EXIT_OK


def cmd_stats_slice(args: argparse.Namespace) -> int:
    from . import netstats, twodrank
    table = twodrank.read_rank_table(args.table)
    grid = netstats.density_grid(table, cells=args.cells)
    sl = netstats.slice_density(grid, args.x0)
    netstats.write_eta_slice(sl, args.output)
    print(f"diagonal profile at x0={args.x0} ({len(sl.eta)} points) -> {args.output}")
    return EXIT_OK


def cmd_stats_correlator(args: argparse.Namespace) -> int:
    from . import netstats, twodrank
    table = twodrank.read_rank_table(args.table)
    damping = {k: float(table.meta.get(k, DEFAULT_ALPHA)) for k in ("alpha", "alpha_star")}
    point = netstats.CorrelatorPoint(netstats.kappa(table.pagerank, table.cheirank), **damping)
    netstats.write_correlator_points([point], args.output)
    print(f"kappa={point.kappa!r} -> {args.output}")
    return EXIT_OK


def cmd_stats_fitcurve(args: argparse.Namespace) -> int:
    from . import netstats, twodrank
    table = twodrank.read_rank_table(args.table)
    x, y = netstats.rank_curve(getattr(table, args.column))
    fit_range = args.fit_range or (1.0, float(len(table)))
    fit = netstats.fit_power_law(x, y, fit_range, num_bins=args.bins)
    netstats.write_power_law_fit(fit, args.output)
    print(
        f"{args.column} rank curve ~ K^-{fit.exponent:.4f} "
        f"(stderr {fit.stderr:.4f}, R^2 {fit.r_squared:.4f}) -> {args.output}"
    )
    return EXIT_OK


def cmd_overlap_curve(args: argparse.Namespace) -> int:
    from . import overlap
    a = overlap.load_ranked_list(args.list_a)
    b = overlap.load_ranked_list(args.list_b)
    ks_max = min(len(a), len(b)) if args.ks_max is None else args.ks_max
    series = overlap.overlap_curve(a, b, ks_max)
    overlap.write_overlap_series(series, args.output)
    print(f"overlap curve to ks={ks_max} -> {args.output}")
    return EXIT_OK


def cmd_overlap_window(args: argparse.Namespace) -> int:
    from . import overlap
    a = overlap.load_ranked_list(args.list_a)
    b = overlap.load_ranked_list(args.list_b)
    series = overlap.window_overlap(a, b, window=args.window)
    overlap.write_overlap_series(series, args.output)
    print(f"{len(series.points)} windows of {args.window} -> {args.output}")
    return EXIT_OK


def cmd_overlap_subset_window(args: argparse.Namespace) -> int:
    from . import overlap, textio
    ranking = overlap.load_ranked_list(args.ranking)
    positions = {name: i for i, name in enumerate(ranking.names)}
    subset, _ = textio.load_node_subset(
        args.subset, positions, label=Path(args.subset).stem, strict=True
    )
    series = overlap.subset_window_fraction(ranking, subset, window=args.window)
    overlap.write_overlap_series(series, args.output)
    mean = sum(series.fractions()) / len(series.points)
    print(
        f"{len(subset)} members over {len(series.points)} windows "
        f"(mean fraction {mean:.6g}) -> {args.output}"
    )
    return EXIT_OK


def cmd_subset(args: argparse.Namespace) -> int:
    from . import textio, twodrank
    table = twodrank.read_rank_table(args.table)
    label = args.label or Path(args.subset).stem
    rows = {name: i for i, name in enumerate(table.names)}
    subset, unresolved = textio.load_node_subset(args.subset, rows, label=label, strict=args.strict)
    sub_table = twodrank.subset_rank(table, subset)
    twodrank.write_rank_table(sub_table, args.output)
    if unresolved:
        print(f"warning: skipped {len(unresolved)} unresolved name(s)", file=sys.stderr)
    print(f"re-ranked {len(sub_table)}-member subset {label!r} -> {args.output}")
    return EXIT_OK


# ---- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankplane",
        description="Two-axis link analysis of directed graphs: popularity and "
        "communicativity rankings plus rank-plane statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a seeded scale-free edge list")
    sp.add_argument("n", type=int, help="number of nodes (>= 100)")
    sp.add_argument("-o", "--output", required=True, help="edge-list TSV to write")
    sp.add_argument("--mu-in", type=float, default=2.1, help="in-degree tail exponent")
    sp.add_argument("--mu-out", type=float, default=2.76, help="out-degree tail exponent")
    sp.add_argument("--mean-degree", type=float, default=5.0, help="target mean degree")
    sp.add_argument("--seed", type=int, required=True, help="generator seed")
    sp.set_defaults(func=cmd_synth)

    rp = sub.add_parser("rank", help="compute both rankings and the combined rank")
    rp.add_argument("edges", help="edge-list TSV")
    rp.add_argument("-o", "--output", required=True, help="rank table TSV to write")
    rp.add_argument("--manifest", help="manifest path (default: <output>.manifest.json)")
    rp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    rp.add_argument("--alpha-star", type=float, default=DEFAULT_ALPHA)
    rp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    rp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    rp.add_argument("--workers", type=int, default=1, help="solver threads")
    rp.set_defaults(func=cmd_rank)

    st = sub.add_parser("stats", help="emit analysis series from a rank table")
    stsub = st.add_subparsers(dest="which", required=True)

    den = stsub.add_parser("density", help="log-rank plane cell densities")
    den.add_argument("table")
    den.add_argument("-o", "--output", required=True)
    den.add_argument("--cells", type=int, default=DEFAULT_GRID_CELLS)
    den.add_argument("--null-samples", type=int, help="also emit an independent-pair null grid")
    den.add_argument("--seed", type=int, help="seed for the null-model sampler")
    den.add_argument("--null-output", help="null grid path (default: <output>.null.csv)")
    den.set_defaults(func=cmd_stats_density)

    sl = stsub.add_parser("slice", help="density profile along a diagonal line")
    sl.add_argument("table")
    sl.add_argument("-o", "--output", required=True)
    sl.add_argument("--x0", type=float, required=True, help="line center in log-rank units")
    sl.add_argument("--cells", type=int, default=DEFAULT_GRID_CELLS)
    sl.set_defaults(func=cmd_stats_slice)

    co = stsub.add_parser("correlator", help="rank-probability correlator of a table")
    co.add_argument("table")
    co.add_argument("-o", "--output", required=True)
    co.set_defaults(func=cmd_stats_correlator)

    fc = stsub.add_parser("fitcurve", help="power-law fit of a rank-probability curve")
    fc.add_argument("table")
    fc.add_argument("-o", "--output", required=True)
    fc.add_argument(
        "--column", choices=("pagerank", "cheirank"), default="pagerank"
    )
    fc.add_argument(
        "--fit-range",
        type=_fit_range,
        metavar="MIN:MAX",
        help="rank range to fit (default: the whole curve)",
    )
    fc.add_argument("--bins", type=int, default=20, help="logarithmic bins")
    fc.set_defaults(func=cmd_stats_fitcurve)

    ov = sub.add_parser("overlap", help="compare ranked name lists")
    ovsub = ov.add_subparsers(dest="mode", required=True)

    cu = ovsub.add_parser("curve", help="cumulative top-ks overlap fraction")
    cu.add_argument("list_a")
    cu.add_argument("list_b")
    cu.add_argument("-o", "--output", required=True)
    cu.add_argument("--ks-max", type=int, help="default: shorter list's length")
    cu.set_defaults(func=cmd_overlap_curve)

    wi = ovsub.add_parser("window", help="fixed-window overlap fraction")
    wi.add_argument("list_a")
    wi.add_argument("list_b")
    wi.add_argument("-o", "--output", required=True)
    wi.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    wi.set_defaults(func=cmd_overlap_window)

    sw = ovsub.add_parser("subset-window", help="subset-membership window fraction")
    sw.add_argument("ranking")
    sw.add_argument("subset")
    sw.add_argument("-o", "--output", required=True)
    sw.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    sw.set_defaults(func=cmd_overlap_subset_window)

    su = sub.add_parser("subset", help="densely re-rank a named subset of a table")
    su.add_argument("table")
    su.add_argument("subset", help="one member name per line")
    su.add_argument("-o", "--output", required=True)
    su.add_argument("--label", help="subset label recorded in the output metadata")
    strictness = su.add_mutually_exclusive_group()
    strictness.add_argument(
        "--strict", dest="strict", action="store_true", default=True,
        help="fail on names missing from the table (default)",
    )
    strictness.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="skip names missing from the table",
    )
    su.set_defaults(func=cmd_subset)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"rankplane: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"rankplane: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ContractViolation as exc:
        print(f"rankplane: contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except OSError as exc:
        print(f"rankplane: i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"rankplane: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
