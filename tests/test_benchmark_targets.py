"""The functions the benchmark's tracer wraps must exist under their pinned names.

perfbench/tracing.py wraps a fixed list of rankplane functions and methods
(`TARGETS`) and refuses to run when one has gone.  This checks the same
resolution here, without installing any wrapper, so that renaming or deleting
a pinned function fails the unit tests and not only the benchmark.  The
alpha_sweep workload also needs its solves to be seen: a traced
correlator_sweep must reach the pinned `pagerank` on both directions.  And
the subset commands, which read name files through `textio`, must still be
seen through the pin `graph.load_node_subset`.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from rankplane import build_rank_table, write_rank_table

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, attrs in tracing.TARGETS.items():
        module = importlib.import_module(f"rankplane.{layer}")
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not callable(vars(owner).get(fn_name)):
                missing.append(f"rankplane.{layer}.{attr}")
    assert not missing


# Run in its own process: installing the tracer rebinds rankplane's names.
TRACED_SWEEP = """
import json, sys
import tracing
from rankplane import netstats

tracer = tracing.Tracer()
tracer.install()
g = netstats.generate_scale_free(300, 2.1, 2.76, 6.0, seed=5)
points = netstats.correlator_sweep(g, [0.5, 0.7, 0.85], mode="diagonal")
assert all(pt.converged for pt in points)
json.dump(tracer.spans, sys.stdout)
"""


def traced(script, *args):
    """The spans a script printed last, run with the tracer beside it."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_a_traced_sweep_reaches_the_pinned_solver_in_both_directions():
    spans = traced(TRACED_SWEEP)
    solves = [s for s in spans if s["name"] == "googlerank.pagerank"]
    assert sorted(s["inverted"] for s in solves) == [False, True]
    assert all(type(s["iterations"]) is int and s["iterations"] > 0 for s in solves)
    builds = [s for s in spans if s["name"] == "googlerank.GoogleOperator.__init__"]
    assert len(builds) == 2


TRACED_SUBSETS = """
import json, sys
import tracing
from rankplane import cli

tracer = tracing.Tracer()
tracer.install()
table, ranking, members, out = sys.argv[1:]
assert cli.main(["subset", table, members, "-o", out]) == 0
assert cli.main(["overlap", "subset-window", ranking, members, "-o", out, "--window", "2"]) == 0
json.dump(tracer.spans, sys.stdout)
"""


def test_both_subset_commands_reach_the_pinned_subset_reader(tmp_path):
    names = [f"n{i}" for i in range(8)]
    table = build_rank_table(names, [(i + 1) / 36 for i in range(8)], [1 / 8] * 8)
    write_rank_table(table, tmp_path / "table.tsv")
    (tmp_path / "ranking.txt").write_text("\n".join(names) + "\n")
    (tmp_path / "members.txt").write_text("n1\nn4\nn6\n")
    files = (tmp_path / f for f in ("table.tsv", "ranking.txt", "members.txt", "out"))
    spans = traced(TRACED_SUBSETS, *files)
    commands = {s["name"]: i for i, s in enumerate(spans) if s["name"].startswith("cli.cmd_")}
    assert sorted(commands) == ["cli.cmd_overlap_subset_window", "cli.cmd_subset"]
    for i in commands.values():
        reads = [s for s in spans if s["name"] == "graph.load_node_subset" and s["parent"] == i]
        assert len(reads) == 1
