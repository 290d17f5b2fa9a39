"""The rankplane benchmark: three pipeline workloads, timed end to end, and a
traced run that splits their time over the package's layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload {rank_cli,alpha_sweep,synth_stats} \\
        --seed N --seconds S --trace {0,1}

Set-up builds a few scale-free graphs from the seed (the ones
`rankplane synth N --mean-degree 10 --seed ...` makes) and the files each
workload reads.  The timed loop then runs the workload as users do, one
command at a time, each command its own `python -m rankplane.cli` process
with `src` on the path, cycling over the graphs for at least S seconds and
until the first graph has come round again.
Every output is checked by perfbench/checks.py.  With --trace 1 one more
run of the first graph has every layer function wrapped (perfbench/traced.py)
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` and `failed` count commands; a non-zero exit, an exception or a
failed output check each fails a command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # metric names and units

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import scipy

    import checks
    import rankplane.cli  # noqa: F401  (the program must be importable from src)
    import sweep
    import tracing
    from rankplane.googlerank import cheirank, pagerank
    from rankplane.graph import write_edge_list
    from rankplane.netstats import correlator, generate_scale_free
    from rankplane.twodrank import build_rank_table, write_rank_table
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import the program from {SRC}: {exc}")

N_NODES = 100_000
MEAN_DEGREE = 10.0
WORKERS = 2
NULL_SAMPLES = 1_000_000
SLICE_X0 = 3.0
FIT_RANGE = (5.0, 1000.0)
WINDOW = 20  # the CLI's default overlap window
GRID_CELLS = 100  # the CLI's default density grid
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 6  # least set-ups timed per run for setup_s

ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


class BenchmarkError(Exception):
    """The run cannot give a result: no metric is printed."""


# ---- child processes -----------------------------------------------------------


@dataclass
class Proc:
    label: str
    code: int
    seconds: float
    rss_mb: float
    spans_path: Path | None


class Launcher:
    """Client of launcher.py, which starts every command of a run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, text=True,
            start_new_session=True,
        )

    def spawn(
        self, label: str, program: str, args: list[str], cwd: Path, logs: Path, traced: bool
    ) -> Proc:
        spans_path = logs / f"{label}.spans.json" if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), "T0", program]
        elif program == "cli":
            argv = [sys.executable, "-m", "rankplane.cli"]
        else:
            argv = [sys.executable, str(HERE / "sweep.py")]
        request = {"argv": argv + args, "cwd": str(cwd), "log": str(logs / f"{label}.log"),
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Proc(label, reply["code"], reply["seconds"], reply["rss_kb"] / 1024.0, spans_path)

    def close(self) -> None:
        """Let an idle launcher exit; kill it and its command if one is running."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


# ---- inputs ---------------------------------------------------------------------


@dataclass
class Input:
    """One graph's set-up files plus what the checks need to know about them."""

    seed: int
    dir: Path
    g: object = None
    data: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)  # path -> (size, mtime_ns) after set-up
    verified: dict = field(default_factory=dict)  # command -> digest of checked outputs

    def path(self, name: str) -> str:
        return str(self.dir / name)


def snapshot(directory: Path) -> dict:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in files}


def restore(inputs: list[Input]) -> None:
    """Leave only what set-up made: a cache the program left beside its
    inputs would otherwise turn the next run into a different workload."""
    for inp in inputs:
        now = snapshot(inp.dir)
        for path in now.keys() - inp.files.keys():
            print(f"perfbench: removing {path.name}, left beside the inputs", file=sys.stderr)
            path.unlink()
        for path, stat in inp.files.items():
            if now.get(path) != stat:
                raise BenchmarkError(f"set-up file {path} was changed by the program")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def generate(seed: int, n: int):
    # The `rankplane synth` defaults for the two degree exponents.
    return generate_scale_free(n, 2.1, 2.76, MEAN_DEGREE, seed=seed)


# ---- workloads ------------------------------------------------------------------


@dataclass
class Command:
    label: str
    program: str  # "cli" or "sweep"
    args: list[str]
    outputs: list[str]
    check: object  # (Input, op_dir) -> None, raises CheckFailed


class Workload:
    """What set-up makes, which commands one run starts, and how their
    outputs are checked.

    Each workload sets up `graphs` graphs per run and run_s averages over
    them: CheiRank needs 40 iterations on most seeds but 70-140 on about a
    third, so one graph's time is not the workload's.  alpha_sweep, all
    solves, gets the most graphs; synth_stats, with no solve and the longest
    run, the fewest.
    """

    graphs: int  # graphs set up per run
    reaches: tuple[str, ...]  # spans a traced run must contain

    def table_bytes(self, inp: Input, out: Path) -> int:
        """Size of the rank table the workload writes or reads, if any."""
        return 0

    def edge_list_bytes(self, inp: Input) -> int:
        """Size of the edge list the workload parses, if any."""
        return 0


class RankCli(Workload):
    """`rankplane rank edges.tsv -o table.tsv --workers 2`: parse, two solves,
    2D rank, table write.  Text I/O is most of it."""

    graphs = 3

    reaches = (
        "cli.main",
        "cli.cmd_rank",
        "graph.load_edge_list",
        "graph.DirectedGraph.content_hash",
        "graph.invert",
        "googlerank.GoogleOperator.__init__",
        "googlerank.GoogleOperator.apply",
        "googlerank.pagerank",
        "googlerank.cheirank",
        "twodrank.build_rank_table",
        "twodrank.write_rank_table",
        "netstats.correlator",
    )

    def setup(self, inp: Input, n: int) -> None:
        inp.g = generate(inp.seed, n)
        write_edge_list(inp.g, inp.path("edges.tsv"))

    def commands(self, inp: Input) -> list[Command]:
        args = ["rank", inp.path("edges.tsv"), "-o", "table.tsv", "--workers", str(WORKERS)]
        return [Command("rank", "cli", args, ["table.tsv", "table.tsv.manifest.json"], self.check)]

    def check(self, inp: Input, out: Path) -> None:
        g = inp.g
        t = checks.read_table(out / "table.tsv")
        checks.check_ranks(t, g.n_nodes, "table.tsv")
        checks.check_sums(t, "table.tsv")
        manifest = json.loads((out / "table.tsv.manifest.json").read_text(encoding="utf-8"))
        config = manifest["config"]
        try:
            p = checks.in_node_order(t, g.name_index, "pagerank")
            p_star = checks.in_node_order(t, g.name_index, "cheirank")
        except KeyError as exc:
            raise checks.CheckFailed(f"table.tsv: unknown node {exc}") from None
        for what, adj, alpha, v in (
            ("pagerank", g.adj, config["alpha"], p),
            ("cheirank", g.adj.T.tocsr(), config["alpha_star"], p_star),
        ):
            residual = checks.google_residual(adj, alpha, v)
            checks.require(residual <= checks.RESIDUAL_MAX, f"{what} residual {residual:.3g}")
        own_kappa = checks.kappa(t.pagerank, t.cheirank)
        checks.require(
            abs(manifest["kappa"] - own_kappa) <= checks.KAPPA_TOL,
            f"manifest kappa {manifest['kappa']!r}, table gives {own_kappa!r}",
        )
        seen = manifest["input"]
        expected = {
            "n_nodes": g.n_nodes,
            "n_edges": g.n_edges,
            "total_edge_weight": g.total_edge_weight,
            "sha256": hashlib.sha256(Path(inp.path("edges.tsv")).read_bytes()).hexdigest(),
            "graph_hash": t.meta.get("graph_hash", "").strip("'"),
        }
        for key, value in expected.items():
            got = seen.get(key)
            checks.require(got == value, f"manifest input.{key} {got!r} != {value!r}")

    def table_bytes(self, inp: Input, out: Path) -> int:
        return (out / "table.tsv").stat().st_size

    def edge_list_bytes(self, inp: Input) -> int:
        return Path(inp.path("edges.tsv")).stat().st_size


class AlphaSweep(Workload):
    """One process runs correlator_sweep over six alphas on a graph set-up
    saved as binary arrays: twelve single-threaded solves, no text I/O."""

    graphs = 8

    reaches = (
        "netstats.correlator_sweep",
        "graph.invert",
        "googlerank.GoogleOperator.__init__",
        "googlerank.GoogleOperator.apply",
        "googlerank.pagerank",
    )
    CHECK_ALPHA = 0.85
    KAPPA_TOL = 1e-6  # two solves stopped at an L1 change of 1e-10

    def setup(self, inp: Input, n: int) -> None:
        inp.g = generate(inp.seed, n)
        sweep.save_graph(inp.g, inp.path("graph.npz"))

    def commands(self, inp: Input) -> list[Command]:
        args = [inp.path("graph.npz"), "points.json"]
        return [Command("sweep", "sweep", args, ["points.json"], self.check)]

    def check(self, inp: Input, out: Path) -> None:
        points = json.loads((out / "points.json").read_text(encoding="utf-8"))
        alphas = [(pt["alpha"], pt["alpha_star"]) for pt in points]
        checks.require(alphas == [(a, a) for a in sweep.ALPHAS], f"sweep points {alphas}")
        checks.require(all(pt["converged"] is True for pt in points), "a point did not converge")
        checks.require(all(math.isfinite(pt["kappa"]) for pt in points), "non-finite kappa")
        a = self.CHECK_ALPHA
        own = checks.kappa(checks.own_rank(inp.g.adj, a), checks.own_rank(inp.g.adj.T.tocsr(), a))
        got = points[sweep.ALPHAS.index(a)]["kappa"]
        checks.require(abs(got - own) <= self.KAPPA_TOL, f"kappa({a}) {got!r}, own solve {own!r}")


class SynthStats(Workload):
    """`synth`, then every stats / subset / overlap command over a table and
    name lists made in set-up: the file formats in the other direction, and
    nine process start-ups."""

    graphs = 2

    reaches = (
        "cli.main",
        "cli.cmd_synth",
        "cli.cmd_stats_density",
        "cli.cmd_stats_slice",
        "cli.cmd_stats_correlator",
        "cli.cmd_stats_fitcurve",
        "cli.cmd_subset",
        "cli.cmd_overlap_curve",
        "cli.cmd_overlap_window",
        "cli.cmd_overlap_subset_window",
        "netstats.generate_scale_free",
        "graph.write_edge_list",
        "graph.load_node_subset",
        "twodrank.read_rank_table",
        "twodrank.subset_rank",
        "twodrank.write_rank_table",
        "netstats.density_grid",
        "netstats.sample_independent",
        "netstats.slice_density",
        "netstats.rank_curve",
        "netstats.fit_power_law",
        "netstats.write_density_grid",
        "netstats.write_eta_slice",
        "netstats.write_power_law_fit",
        "netstats.write_correlator_points",
        "overlap.load_ranked_list",
        "overlap.overlap_curve",
        "overlap.window_overlap",
        "overlap.subset_window_fraction",
        "overlap.write_overlap_series",
    )

    def setup(self, inp: Input, n: int) -> None:
        g = inp.g = generate(inp.seed, n)
        p, p_star = pagerank(g), cheirank(g)
        meta = {"alpha": p.alpha, "alpha_star": p_star.alpha, "n_nodes": g.n_nodes}
        table = build_rank_table(g.names, p.values, p_star.values, meta=meta)
        write_rank_table(table, inp.path("table.tsv"))
        by_pagerank = table.names_by("pagerank_rank")
        by_cheirank = table.names_by("cheirank_rank")
        subset = g.names[::10]
        lists = {"pr.txt": by_pagerank, "cr.txt": by_cheirank, "subset.txt": subset}
        for name, names in lists.items():
            Path(inp.path(name)).write_text("".join(f"{x}\n" for x in names), encoding="utf-8")
        inp.data.update(
            table=table, kappa=correlator(p, p_star).kappa,
            by_pagerank=by_pagerank, by_cheirank=by_cheirank, subset=subset,
        )

    def commands(self, inp: Input) -> list[Command]:
        table, pr, cr, subset = map(inp.path, ("table.tsv", "pr.txt", "cr.txt", "subset.txt"))
        seed = str(inp.seed)
        synth = ["synth", str(inp.g.n_nodes), "--mean-degree", str(MEAN_DEGREE), "--seed", seed]
        density = ["stats", "density", table, "--null-samples", str(NULL_SAMPLES), "--seed", seed]
        runs = [  # label, arguments, outputs (the first follows -o), check
            ("synth", synth, ["edges.tsv"], self.check_synth),
            ("density", density, ["density.csv", "density.csv.null.csv"], self.check_density),
            ("slice", ["stats", "slice", table, "--x0", str(SLICE_X0)],
             ["slice.csv"], self.check_slice),
            ("correlator", ["stats", "correlator", table],
             ["correlator.csv"], self.check_correlator),
            ("fitcurve", ["stats", "fitcurve", table, "--fit-range", "%g:%g" % FIT_RANGE],
             ["fit.csv"], self.check_fit),
            ("subset", ["subset", table, subset], ["subset.tsv"], self.check_subset),
            ("overlap_curve", ["overlap", "curve", pr, cr], ["curve.csv"], self.check_curve),
            ("overlap_window", ["overlap", "window", pr, cr], ["window.csv"], self.check_window),
            ("overlap_subset_window", ["overlap", "subset-window", pr, subset],
             ["subset_window.csv"], self.check_subset_window),
        ]
        return [
            Command(label, "cli", args + ["-o", outputs[0]], outputs, check)
            for label, args, outputs, check in runs
        ]

    def _grid(self, inp: Input):
        if "grid" not in inp.data:
            t = inp.data["table"]
            inp.data["grid"] = checks.log_grid(t.pagerank_rank, t.cheirank_rank, len(t), GRID_CELLS)
        return inp.data["grid"]

    def check_synth(self, inp: Input, out: Path) -> None:
        checks.check_edge_list(out / "edges.tsv", inp.g.names, inp.g.adj)

    def check_density(self, inp: Input, out: Path) -> None:
        checks.check_density(out / "density.csv", self._grid(inp), inp.g.n_nodes)
        checks.check_density(out / "density.csv.null.csv", None, NULL_SAMPLES)

    def check_slice(self, inp: Input, out: Path) -> None:
        checks.check_slice(out / "slice.csv", self._grid(inp), inp.g.n_nodes, SLICE_X0)

    def check_correlator(self, inp: Input, out: Path) -> None:
        _, header, rows = checks.read_csv(out / "correlator.csv")
        checks.require(header == ["alpha", "alpha_star", "kappa", "converged"] and len(rows) == 1,
                       f"correlator.csv: header {header}, {len(rows)} rows")
        got = float(rows[0][2])
        t = inp.data["table"]
        own = checks.kappa(t.pagerank, t.cheirank)
        for what, value in (("rank", inp.data["kappa"]), ("own", own)):
            checks.require(abs(got - value) <= checks.KAPPA_TOL, f"kappa {got!r}, {what} {value!r}")

    def check_fit(self, inp: Input, out: Path) -> None:
        checks.check_fit(out / "fit.csv", *FIT_RANGE)

    def check_subset(self, inp: Input, out: Path) -> None:
        sub = checks.read_table(out / "subset.tsv")
        members = inp.data["subset"]
        checks.check_ranks(sub, len(members), "subset.tsv")
        checks.require(set(sub.names) == set(members), "subset.tsv: wrong members")
        t, index = inp.data["table"], inp.g.name_index
        rows = [index[name] for name in sub.names]
        checks.require(
            np.array_equal(sub.pagerank, t.pagerank[rows])
            and np.array_equal(sub.cheirank, t.cheirank[rows]),
            "subset.tsv: probabilities differ from the parent table",
        )

    def check_curve(self, inp: Input, out: Path) -> None:
        got = checks.read_series(out / "curve.csv", "cumulative_f")
        want = checks.overlap_curve(inp.data["by_pagerank"], inp.data["by_cheirank"])
        checks.require(got == want, "curve.csv differs from own overlap counts")

    def check_window(self, inp: Input, out: Path) -> None:
        got = checks.read_series(out / "window.csv", "window_fw")
        want = checks.window_overlap(inp.data["by_pagerank"], inp.data["by_cheirank"], WINDOW)
        checks.require(got == want, "window.csv differs from own window counts")

    def check_subset_window(self, inp: Input, out: Path) -> None:
        got = checks.read_series(out / "subset_window.csv", "subset_fw")
        want = checks.subset_window(inp.data["by_pagerank"], set(inp.data["subset"]), WINDOW)
        checks.require(got == want, "subset_window.csv differs from own window counts")

    def table_bytes(self, inp: Input, out: Path) -> int:
        return Path(inp.path("table.tsv")).stat().st_size


WORKLOADS = {"rank_cli": RankCli, "alpha_sweep": AlphaSweep, "synth_stats": SynthStats}


# ---- one run of a workload ------------------------------------------------------


@dataclass
class Op:
    inp: Input
    seconds: float
    procs: list[Proc]
    failures: list[str]


def run_op(launcher: Launcher, workload: Workload, inp: Input, inputs: list[Input],
           run_dir: Path, traced: bool) -> Op:
    """One run of the workload on one graph: its commands in order, then their checks."""
    out, logs = run_dir / "out", run_dir / "logs"
    shutil.rmtree(out, ignore_errors=True)
    shutil.rmtree(logs, ignore_errors=True)
    out.mkdir()
    logs.mkdir()
    restore(inputs)
    commands = workload.commands(inp)
    start = time.monotonic()
    procs = [launcher.spawn(c.label, c.program, c.args, out, logs, traced) for c in commands]
    seconds = time.monotonic() - start
    failures = []
    for command, proc in zip(commands, procs):
        try:
            if proc.code != 0:
                tail = (logs / f"{command.label}.log").read_text(errors="replace")[-400:]
                raise checks.CheckFailed(f"exit {proc.code}: {tail.strip()}")
            outputs = digest([out / name for name in command.outputs])
            known = inp.verified.get(command.label)
            if known is None:
                command.check(inp, out)
                inp.verified[command.label] = outputs
            elif outputs != known:
                raise checks.CheckFailed("outputs are not byte-identical to an earlier run")
        except Exception as exc:  # every failure counts against the command, none stops the run
            failures.append(f"{command.label} (graph seed {inp.seed}): {type(exc).__name__}: {exc}")
    return Op(inp, seconds, procs, failures)


def worker_speedup(g) -> float:
    """1-worker over 2-worker PageRank time; the two vectors must be bitwise equal."""
    times: dict[int, list[float]] = {1: [], WORKERS: []}
    vectors = {}
    for _ in range(3):
        for workers in times:
            start = time.perf_counter()
            vectors[workers] = pagerank(g, workers=workers).values
            times[workers].append(time.perf_counter() - start)
    if vectors[1].tobytes() != vectors[WORKERS].tobytes():
        raise checks.CheckFailed(f"pagerank with {WORKERS} workers differs from 1 worker")
    return statistics.median(times[1]) / statistics.median(times[WORKERS])


def provenance(args, inputs: list[Input]) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "n_nodes": args.n,
        "graph_seeds": [inp.seed for inp in inputs],
        "edges": [inp.g.n_edges for inp in inputs],
        "edge_weight": [inp.g.total_edge_weight for inp in inputs],
    }


def traced_metrics(launcher: Launcher, workload: Workload, inputs: list[Input], ops: list[Op],
                   run_dir: Path, failures: list[str]) -> dict:
    """One more run of the first graph with every layer function wrapped; its
    spans give the per-layer metrics.  Appends the traced run to `ops`."""
    traced = run_op(launcher, workload, inputs[0], inputs, run_dir, traced=True)
    failures += traced.failures
    processes = []
    for proc in traced.procs:
        if proc.spans_path is None or not proc.spans_path.exists():
            raise BenchmarkError(f"traced {proc.label} wrote no spans")
        processes.append(json.loads(proc.spans_path.read_text(encoding="utf-8")))
    spans = tracing.Spans(processes)
    missing = [name for name in workload.reaches if not spans.reached(name)]
    if missing:
        raise BenchmarkError(f"the traced run never reached {missing}")
    metrics = tracing.layer_metrics(
        spans, workload.edge_list_bytes(inputs[0]), workload.table_bytes(inputs[0], run_dir / "out")
    )
    metrics["googlerank.worker_speedup"] = 0.0
    if isinstance(workload, RankCli):
        try:
            metrics["googlerank.worker_speedup"] = worker_speedup(inputs[0].g)
        except checks.CheckFailed as exc:
            failures.append(str(exc))
    untraced = statistics.median(op.seconds for op in ops if op.inp is inputs[0])
    metrics["trace.overhead_s"] = traced.seconds - untraced
    ops.append(traced)
    return metrics


def set_up(workload: Workload, inp: Input, n: int) -> float:
    inp.dir.mkdir(parents=True)
    start = time.monotonic()
    workload.setup(inp, n)
    return time.monotonic() - start


def run(args, launcher: Launcher, run_dir: Path) -> int:
    workload = WORKLOADS[args.workload]()
    inputs, setup_times = [], []
    for k in range(workload.graphs):
        inp = Input(seed=args.seed * workload.graphs + k, dir=run_dir / "in" / str(k))
        setup_times.append(set_up(workload, inp, args.n))
        inp.files = snapshot(inp.dir)
        inputs.append(inp)

    # setup_s takes more samples than there are graphs: the same set-ups again,
    # into a spare directory, one after each op.  Timed only at the start, a
    # set-up of a second or two would see only that moment's host speed.
    setup_samples = 0 if args.trace else max(SETUP_SAMPLES, 2 * len(inputs))

    def set_up_again() -> float:
        began = time.monotonic()
        spare = Input(seed=inputs[len(setup_times) % len(inputs)].seed, dir=run_dir / "spare")
        setup_times.append(set_up(workload, spare, args.n))
        shutil.rmtree(spare.dir)
        return time.monotonic() - began

    ops: list[Op] = []
    start = time.monotonic()
    while len(ops) <= len(inputs) or time.monotonic() - start < args.seconds:
        inp = inputs[len(ops) % len(inputs)]
        ops.append(run_op(launcher, workload, inp, inputs, run_dir, traced=False))
        print(f"op {len(ops)}: {ops[-1].seconds:.3f} s", file=sys.stderr)
        if len(setup_times) < setup_samples:
            start += set_up_again()  # the loop's clock runs on ops only
    while len(setup_times) < setup_samples:
        set_up_again()

    failures = [f for op in ops for f in op.failures]
    attempted = sum(len(op.procs) for op in ops)
    if args.trace:
        metrics = traced_metrics(launcher, workload, inputs, ops, run_dir, failures)
        attempted += len(ops[-1].procs)
        if isinstance(workload, RankCli):
            attempted += 1  # the worker-count equality check
    else:
        metrics = {
            "run_s": statistics.fmean(
                statistics.median(op.seconds for op in ops if op.inp is inp) for inp in inputs
            ),
            "peak_rss_mb": max(p.rss_mb for op in ops for p in op.procs),
            "setup_s": statistics.median(setup_times),
        }

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics.keys() != units.keys():
        raise BenchmarkError(
            f"metrics {sorted(metrics.keys() ^ units.keys())} are measured but not declared "
            "in BENCHMARK.json, or declared but not measured"
        )
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args, inputs), sort_keys=True))
    print(f"ops {len(ops)}: " + " ".join(f"{op.seconds:.3f}" for op in ops))
    print(f"set-ups {len(setup_times)}: " + " ".join(f"{t:.3f}" for t in setup_times))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)} of {attempted} commands)")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True, help="least time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=N_NODES, help="nodes per graph (smoke test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # Turn a termination request into an exit, so the clean-up below runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    launcher = Launcher()
    try:
        return run(args, launcher, run_dir)
    except BenchmarkError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
