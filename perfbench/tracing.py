"""Spans around rankplane's layer functions, recorded from outside the package.

A traced child process calls `Tracer.install()` before it runs a command.
Every target below is replaced, in every `rankplane.*` module namespace that
binds it (and on its class, for methods), by a wrapper that records one span:
name, start, end, parent.  Nothing under `src/` changes.  `layer_metrics`
turns the spans of one traced run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import weakref

# Layer (= rankplane module) -> the public functions and methods it is timed by.
TARGETS = {
    "graph": (
        "load_edge_list",
        "write_edge_list",
        "invert",
        "load_node_subset",
        "DirectedGraph.content_hash",
    ),
    "googlerank": ("pagerank", "cheirank", "GoogleOperator.__init__", "GoogleOperator.apply"),
    "twodrank": ("build_rank_table", "write_rank_table", "read_rank_table", "subset_rank"),
    "netstats": (
        "generate_scale_free",
        "correlator",
        "correlator_sweep",
        "density_grid",
        "grid_from_rank_pairs",
        "sample_independent",
        "slice_density",
        "rank_curve",
        "fit_power_law",
        "write_density_grid",
        "write_eta_slice",
        "write_power_law_fit",
        "write_correlator_points",
    ),
    "overlap": (
        "load_ranked_list",
        "overlap_curve",
        "window_overlap",
        "subset_window_fraction",
        "write_overlap_series",
    ),
    "cli": (
        "main",
        "cmd_synth",
        "cmd_rank",
        "cmd_stats_density",
        "cmd_stats_slice",
        "cmd_stats_correlator",
        "cmd_stats_fitcurve",
        "cmd_overlap_curve",
        "cmd_overlap_window",
        "cmd_overlap_subset_window",
        "cmd_subset",
    ),
}

STATS = (
    "netstats.correlator",
    "netstats.density_grid",
    "netstats.grid_from_rank_pairs",
    "netstats.sample_independent",
    "netstats.slice_density",
    "netstats.rank_curve",
    "netstats.fit_power_law",
)
SERIES_WRITERS = (
    "netstats.write_density_grid",
    "netstats.write_eta_slice",
    "netstats.write_power_law_fit",
    "netstats.write_correlator_points",
)
OVERLAP_COMPUTE = (
    "overlap.overlap_curve",
    "overlap.window_overlap",
    "overlap.subset_window_fraction",
)


class MissingTarget(RuntimeError):
    """A function the benchmark wraps no longer exists in rankplane."""


def _apply_bytes(op, v, y) -> int:
    """Bytes one GoogleOperator.apply reads and writes, computed from array sizes."""
    push = op.push
    matrix = push.data.nbytes + push.indices.nbytes + push.indptr.nbytes
    dangling = op.dangling.nbytes + len(op.dangling) * v.itemsize
    return matrix + v.nbytes + y.nbytes + dangling


class Tracer:
    """In-memory span list for one process; written out once, at exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._inverted: weakref.WeakSet = weakref.WeakSet()

    def _wrap(self, name: str, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()
            if annotate is not None:
                span.update(annotate(args, kwargs, result))
            return result

        return traced

    def _annotations(self) -> dict:
        inverted = self._inverted

        def solve(args, kwargs, result):
            # correlator_sweep solves CheiRank as pagerank() of invert(g).
            graph = args[0] if args else kwargs["g"]
            return {"iterations": result.iterations, "inverted": graph in inverted}

        def remember_inverted(args, kwargs, result):
            inverted.add(result)
            return {}

        return {
            "graph.invert": remember_inverted,
            "googlerank.pagerank": solve,
            "googlerank.cheirank": lambda args, kwargs, result: {"iterations": result.iterations},
            "googlerank.GoogleOperator.apply": lambda args, kwargs, result: {
                "bytes": _apply_bytes(args[0], args[1] if len(args) > 1 else kwargs["v"], result)
            },
        }

    def install(self) -> None:
        """Wrap every target; raise MissingTarget if one has gone."""
        modules = {
            layer: importlib.import_module(f"rankplane.{layer}") for layer in TARGETS
        }
        namespaces = [
            mod for name, mod in sys.modules.items() if name.startswith("rankplane")
        ]
        annotations = self._annotations()
        for layer, attrs in TARGETS.items():
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(modules[layer], owner_name, None) if owner_name else modules[layer]
                fn = vars(owner).get(fn_name) if owner is not None else None
                if not callable(fn):
                    raise MissingTarget(f"rankplane.{layer}.{attr} not found")
                name = f"{layer}.{attr}"
                wrapped = self._wrap(name, fn, annotations.get(name))
                if owner_name:
                    setattr(owner, fn_name, wrapped)
                    continue
                for mod in namespaces:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def dump(self, path: str, startup_s: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"startup_s": startup_s, "spans": self.spans}, f)


# ---- metrics from spans ------------------------------------------------------


class Spans:
    """Spans of every traced process of one run, with the queries metrics need."""

    def __init__(self, processes: list[dict]) -> None:
        self.processes = processes

    def _each(self):
        for proc in self.processes:
            spans = proc["spans"]
            for span in spans:
                yield span, spans

    @staticmethod
    def _has_ancestor_in(span: dict, spans: list[dict], names) -> bool:
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] in names:
                return True
            parent = spans[parent]["parent"]
        return False

    def outermost(self, names) -> list[dict]:
        """Spans named in `names` that no other such span encloses.

        The file writers recurse once (path -> open stream); this keeps
        each call counted and timed once.
        """
        return [
            span
            for span, spans in self._each()
            if span["name"] in names and not self._has_ancestor_in(span, spans, names)
        ]

    def total_s(self, *names: str) -> float:
        return _duration(self.outermost(names))

    def calls(self, *names: str) -> int:
        return len(self.outermost(names))

    def self_s(self, predicate) -> float:
        """Duration minus the union of child spans, summed over matching spans."""
        total = 0.0
        for proc in self.processes:
            spans = proc["spans"]
            children: dict[int, list[tuple[float, float]]] = {}
            for span in spans:
                if span["parent"] is not None:
                    children.setdefault(span["parent"], []).append((span["start"], span["end"]))
            for i, span in enumerate(spans):
                if predicate(span["name"]):
                    total += (span["end"] - span["start"]) - _covered(children.get(i, []))
        return total

    def reached(self, name: str) -> bool:
        return any(span["name"] == name for span, _ in self._each())


def _duration(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _covered(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def layer_metrics(spans: Spans, edge_list_bytes: int, table_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (0 where the run has no such span)."""
    solves = spans.outermost(("googlerank.pagerank", "googlerank.cheirank"))
    forward = [s for s in solves if s["name"] == "googlerank.pagerank" and not s["inverted"]]
    backward = [s for s in solves if s["name"] == "googlerank.cheirank" or s["inverted"]]
    applies = spans.outermost(("googlerank.GoogleOperator.apply",))
    apply_seconds = _duration(applies)
    load_s = spans.total_s("graph.load_edge_list")
    startups = [proc["startup_s"] for proc in spans.processes]

    return {
        "graph.load_edge_list_s": load_s,
        "graph.parse_mb_per_s": edge_list_bytes / 1e6 / load_s if load_s else 0.0,
        "graph.content_hash_s": spans.total_s("graph.DirectedGraph.content_hash"),
        "graph.content_hash_calls": spans.calls("graph.DirectedGraph.content_hash"),
        "graph.write_edge_list_s": spans.total_s("graph.write_edge_list"),
        "graph.invert_s": spans.total_s("graph.invert"),
        "googlerank.operator_build_s": spans.total_s("googlerank.GoogleOperator.__init__"),
        "googlerank.operator_builds": spans.calls("googlerank.GoogleOperator.__init__"),
        "googlerank.pagerank_s": _duration(forward),
        "googlerank.cheirank_s": _duration(backward),
        "googlerank.iterations.pagerank": sum(s["iterations"] for s in forward),
        "googlerank.iterations.cheirank": sum(s["iterations"] for s in backward),
        "googlerank.apply_ms": (
            1e3 * statistics.median(s["end"] - s["start"] for s in applies) if applies else 0.0
        ),
        "googlerank.apply_bytes": (
            statistics.median(s["bytes"] for s in applies) if applies else 0
        ),
        "googlerank.apply_gb_per_s": (
            sum(s["bytes"] for s in applies) / apply_seconds / 1e9 if applies else 0.0
        ),
        "twodrank.build_rank_table_s": spans.total_s("twodrank.build_rank_table"),
        "twodrank.write_rank_table_s": spans.total_s("twodrank.write_rank_table"),
        "twodrank.table_mb": table_bytes / 1e6,
        "twodrank.read_rank_table_s": spans.total_s("twodrank.read_rank_table"),
        "twodrank.read_rank_table_calls": spans.calls("twodrank.read_rank_table"),
        "twodrank.subset_rank_s": spans.total_s("twodrank.subset_rank"),
        "netstats.generate_scale_free_s": spans.total_s("netstats.generate_scale_free"),
        "netstats.correlator_sweep_self_s": spans.self_s(
            lambda name: name == "netstats.correlator_sweep"
        ),
        "netstats.stats_s": spans.total_s(*STATS),
        "netstats.write_series_s": spans.total_s(*SERIES_WRITERS),
        "overlap.load_ranked_list_s": spans.total_s("overlap.load_ranked_list"),
        "overlap.compute_s": spans.total_s(*OVERLAP_COMPUTE),
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.commands": spans.calls("cli.main"),
        "cli.self_s": spans.self_s(lambda name: name.startswith("cli.")),
    }
