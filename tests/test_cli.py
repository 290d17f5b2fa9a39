"""End-to-end command-line behaviour: files in, files out, exit codes."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankplane
from rankplane import (
    DirectedGraph,
    cheirank,
    load_edge_list,
    pagerank,
    read_density_grid,
    read_overlap_series,
    read_rank_table,
    write_edge_list,
)
from rankplane import cli, graph
from rankplane.cli import main
from rankplane.textio import read_header, read_series


def run(*argv):
    return main([str(a) for a in argv])


def package_env():
    """Environment for a child process that imports the package under test."""
    package_root = Path(rankplane.__file__).resolve().parents[1]
    pythonpath = [str(package_root), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


@pytest.fixture
def cycle_edges(tmp_path):
    path = tmp_path / "cycle.tsv"
    path.write_text("a\tb\nb\ta\n")
    return path


@pytest.fixture
def random_edges(tmp_path):
    rng = np.random.default_rng(50)
    n = 50
    mask = rng.random((n, n)) < 0.12
    src, dst = np.nonzero(mask)
    g = DirectedGraph.from_edges(
        [f"v{i:02d}" for i in range(n)], src, dst, np.ones(len(src), dtype=np.int64)
    )
    path = tmp_path / "random.tsv"
    write_edge_list(g, path)
    return path


def rank_table_for(edges, tmp_path, *extra):
    out = tmp_path / "table.tsv"
    assert run("rank", edges, "-o", out, *extra) == 0
    return out


# ---- rank ---------------------------------------------------------------------


def test_rank_two_node_cycle(cycle_edges, tmp_path, capsys):
    out = tmp_path / "table.tsv"
    assert run("rank", cycle_edges, "-o", out) == 0
    table = read_rank_table(out)
    np.testing.assert_allclose(table.pagerank, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(table.cheirank, [0.5, 0.5], atol=1e-14)
    assert list(table.rank2d) == [1, 2]
    assert "kappa=" in capsys.readouterr().out

    manifest = json.loads((tmp_path / "table.tsv.manifest.json").read_text())
    assert manifest["command"] == "rank"
    assert manifest["config"]["alpha"] == 0.85
    assert manifest["input"]["n_nodes"] == 2
    assert manifest["input"]["dangling_nodes"] == 0
    assert manifest["solves"]["pagerank"]["residual"] <= 1e-10
    assert manifest["input"]["sha256"] == hashlib.sha256(cycle_edges.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "data, n_nodes",
    [
        (b"a\tb\r\nb\ta\r\n", 2),
        # Only the U+FEFF that starts the file is a byte order mark: the
        # second line's '\ufeffa' is a node of its own beside 'a' and 'b'.
        ("\ufeffa\tb\nb\t\ufeffa\n".encode("utf-8"), 3),
        ("\ufeffa\tb\nb\ta\n".encode("utf-8"), 2),
    ],
    ids=["crlf", "bom", "leading_bom"],
)
def test_rank_hashes_the_bytes_it_parsed(data, n_nodes, tmp_path, monkeypatch):
    """The manifest's input.sha256 is the digest of the file's bytes, which
    `rank` takes from the one read that parses them, a block at a time: a
    byte order mark's bytes too, though no name holds it."""
    path = tmp_path / "edges.tsv"
    path.write_bytes(data)
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 5)
    out = rank_table_for(path, tmp_path)
    manifest = json.loads(out.with_name("table.tsv.manifest.json").read_text())
    assert manifest["input"]["sha256"] == hashlib.sha256(data).hexdigest()
    assert manifest["input"]["n_nodes"] == n_nodes


def test_rank_rerun_is_byte_identical(random_edges, tmp_path):
    out = tmp_path / "table.tsv"
    manifest = tmp_path / "run.json"
    assert run("rank", random_edges, "-o", out, "--manifest", manifest) == 0
    first = out.read_bytes(), manifest.read_bytes()
    assert run("rank", random_edges, "-o", out, "--manifest", manifest) == 0
    assert (out.read_bytes(), manifest.read_bytes()) == first


def test_rank_worker_count_does_not_change_the_table(random_edges, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # 4 workers run as 3 threads
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert run("rank", random_edges, "-o", a, "--workers", 1) == 0
    assert run("rank", random_edges, "-o", b, "--workers", 4) == 0
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "b.tsv.manifest.json").read_text())
    assert manifest["config"]["workers"] == 4  # the requested count, not the threads


def test_rank_table_matches_the_library(random_edges, tmp_path):
    out = rank_table_for(random_edges, tmp_path, "--alpha", 0.7, "--alpha-star", 0.9)
    table = read_rank_table(out)
    g = load_edge_list(random_edges)
    p = pagerank(g, alpha=0.7)
    p_star = cheirank(g, alpha_star=0.9)
    # rows come back sorted by rank; the repr round-trip itself is lossless
    rows = {name: i for i, name in enumerate(table.names)}
    order = [rows[name] for name in g.names]
    np.testing.assert_array_equal(table.pagerank[order], p.values)
    np.testing.assert_array_equal(table.cheirank[order], p_star.values)
    assert table.meta["alpha"] == "0.7"
    assert table.meta["alpha_star"] == "0.9"


# ---- exit codes ------------------------------------------------------------------


def test_malformed_edge_list_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("just-one-field\n")
    assert run("rank", bad, "-o", tmp_path / "t.tsv") == 2
    assert "rankplane: parse error" in capsys.readouterr().err


def test_unicode_digit_multiplicity_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t1\nb\ta\t\u00b2\n", encoding="utf-8")  # superscript two
    assert run("rank", bad, "-o", tmp_path / "t.tsv") == 2
    assert "line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("rank",), ("stats", "correlator")])
def test_non_utf8_input_exits_2(command, tmp_path, capsys):
    bad = tmp_path / "latin1.tsv"
    bad.write_bytes("a\tb\nm\u00fcnchen\ta\n".encode("latin-1"))
    assert run(*command, bad, "-o", tmp_path / "out") == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("subset", "TABLE", "LATIN1"),
        ("overlap", "curve", "LATIN1", "NAMES"),
        ("overlap", "subset-window", "NAMES", "LATIN1"),
    ],
)
def test_non_utf8_name_file_exits_2(argv, random_edges, tmp_path, capsys):
    files = {
        "LATIN1": tmp_path / "latin1.txt",
        "NAMES": write_list(tmp_path / "names.txt", ["v01", "v02"]),
    }
    files["LATIN1"].write_bytes("v01\ncaf\u00e9\n".encode("latin-1"))
    if "TABLE" in argv:
        files["TABLE"] = rank_table_for(random_edges, tmp_path)
    assert run(*[files.get(a, a) for a in argv], "-o", tmp_path / "out") == 2
    assert "UTF-8" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    assert run("rank", tmp_path / "nope.tsv", "-o", tmp_path / "t.tsv") == 2
    assert "rankplane:" in capsys.readouterr().err


def test_non_convergence_exits_3(random_edges, tmp_path, capsys):
    code = run(
        "rank", random_edges, "-o", tmp_path / "t.tsv", "--max-iter", 2, "--tol", 1e-15
    )
    assert code == 3
    assert "convergence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("stats", "density", "{table}", "-o", "{tmp}/g.csv", "--null-samples", 100),  # no --seed
        ("stats", "density", "{table}", "-o", "{tmp}/g.csv", "--null-samples", 5, "--seed", -1),
        ("stats", "fitcurve", "{table}", "-o", "{tmp}/f.csv", "--bins", -1),
        ("synth", 100, "-o", "{tmp}/z.tsv", "--seed", -1),
    ],
)
def test_contract_violation_exits_4(argv, random_edges, tmp_path, capsys):
    table = rank_table_for(random_edges, tmp_path)
    assert run(*(str(a).format(table=table, tmp=tmp_path) for a in argv)) == 4
    assert "contract violation" in capsys.readouterr().err


def test_total_edge_weight_beyond_int64_exits_4(tmp_path, capsys):
    edges = tmp_path / "heavy.tsv"
    edges.write_text(f"a\tb\t{2**63 - 1}\na\tb\t1\n")
    assert run("rank", edges, "-o", tmp_path / "t.tsv") == 4
    assert "total edge weight" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["alpha", "alpha_star"])
def test_bad_damping_factor_in_table_header_exits_2(key, random_edges, tmp_path, capsys):
    table = rank_table_for(random_edges, tmp_path)
    text = table.read_text()
    assert f" {key}=0.85 " in text
    table.write_text(text.replace(f" {key}=0.85 ", f" {key}=abc ", 1))
    assert run("stats", "correlator", table, "-o", tmp_path / "k.csv") == 2
    assert "abc" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_a_damping_factor_outside_0_1_in_the_table_header_exits_2(
    value, random_edges, tmp_path, capsys
):
    """alpha=nan used to be written to the correlator file with exit 0."""
    table = rank_table_for(random_edges, tmp_path)
    table.write_text(table.read_text().replace(" alpha=0.85 ", f" alpha={value} ", 1))
    assert run("stats", "correlator", table, "-o", tmp_path / "k.csv") == 2
    assert "bad damping factor in the table header: {'alpha'" in capsys.readouterr().err
    assert not (tmp_path / "k.csv").exists()


def with_pagerank(lines, *values):
    """The table lines with the first rows' PageRank probabilities replaced."""
    rows = [line.split("\t") for line in lines[2 : 2 + len(values)]]
    edited = ["\t".join([row[0], value, *row[2:]]) for row, value in zip(rows, values)]
    return lines[:2] + edited + lines[2 + len(values) :]


def with_rank2d_swapped(lines):
    """The table lines with the rank2d values of the first two rows swapped."""
    (a, x), (b, y) = (line.rsplit("\t", 1) for line in lines[2:4])
    return lines[:2] + [f"{a}\t{y}", f"{b}\t{x}"] + lines[4:]


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda lines: lines[:3] + lines[2:], "pagerank_rank is not a permutation of 1..201"),
        (lambda lines: lines[:102], "cheirank_rank is not a permutation of 1..100"),
        (lambda lines: [lines[0].replace("n_nodes=200", "n_nodes=199")] + lines[1:], "n_nodes=199"),
        (lambda lines: with_pagerank(lines, "1e308", "1e308"), "pagerank does not sum to a finite"),
        (lambda lines: with_pagerank(lines, "inf", "-inf"), "pagerank does not sum to a finite"),
        (with_rank2d_swapped, "rank2d is not the square order of pagerank_rank and cheirank_rank"),
    ],
    ids=["repeated_row", "first_100_rows", "n_nodes", "overflowing_sum", "infinite_terms",
         "swapped_rank2d"],
)
def test_a_rank_table_that_is_not_whole_exits_2(edit, cause, tmp_path, capsys):
    """A row repeated or rows dropped used to give a wrong kappa or density
    grid with exit 0 (or exit 4, naming another cause)."""
    edges = tmp_path / "e.tsv"
    assert run("synth", 200, "--seed", 3, "-o", edges) == 0
    table = rank_table_for(edges, tmp_path)
    table.write_text("".join(edit(table.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    for command in ("correlator", "density"):
        assert run("stats", command, table, "-o", tmp_path / "out.csv") == 2
        assert cause in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_nan_tolerance_exits_4(random_edges, tmp_path, capsys):
    assert run("rank", random_edges, "-o", tmp_path / "t.tsv", "--tol", "nan") == 4
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, reason", [("--mu-in", "mu_in"), ("--mu-out", "mu_out"), ("--mean-degree", "mean degree")]
)
def test_synth_refuses_nan_by_its_parameter(flag, reason, tmp_path, capsys):
    out = tmp_path / "edges.tsv"
    assert run("synth", 300, "--seed", 3, flag, "nan", "-o", out) == 4
    err = capsys.readouterr().err
    assert f"{reason} must" in err and "not reachable" not in err
    assert not out.exists()


# Every numeric flag of every command at its edge values ("{v}" marks the
# probed value).  10**18 is refused by NumPy before it allocates anything.
INT_EDGES = ("0", "-1", str(10**18))
FLOAT_EDGES = ("0", "-1", "inf", "nan", "1e18")
PROBED_FLAGS = [
    (("synth", "{v}", "--seed", "3"), INT_EDGES),
    (("synth", "300", "--seed", "{v}"), INT_EDGES),
    *((("synth", "300", "--seed", "3", flag, "{v}"), FLOAT_EDGES)
      for flag in ("--mu-in", "--mu-out", "--mean-degree")),
    *((("rank", "{edges}", flag, "{v}"), FLOAT_EDGES) for flag in ("--alpha", "--alpha-star", "--tol")),
    *((("rank", "{edges}", flag, "{v}"), INT_EDGES) for flag in ("--max-iter", "--workers")),
    (("stats", "density", "{table}", "--cells", "{v}"), INT_EDGES),
    (("stats", "density", "{table}", "--null-samples", "{v}", "--seed", "3"), INT_EDGES),
    (("stats", "density", "{table}", "--null-samples", "5", "--seed", "{v}"), INT_EDGES),
    (("stats", "slice", "{table}", "--x0", "{v}"), FLOAT_EDGES),
    (("stats", "slice", "{table}", "--x0", "1", "--cells", "{v}"), INT_EDGES),
    (("stats", "fitcurve", "{table}", "--bins", "{v}"), INT_EDGES),
    (("stats", "fitcurve", "{table}", "--fit-range", "1:{v}"), FLOAT_EDGES),
    (("stats", "fitcurve", "{table}", "--fit-range", "{v}:300"), FLOAT_EDGES),
    (("overlap", "curve", "{a}", "{b}", "--ks-max", "{v}"), INT_EDGES),
    (("overlap", "window", "{a}", "{b}", "--window", "{v}"), INT_EDGES),
    (("overlap", "subset-window", "{a}", "{members}", "--window", "{v}"), INT_EDGES),
]
# Values that a flag documents as meaningful, not as a refusal.
DOCUMENTED_EDGES = {("--seed", "0"), ("--x0", "0")}


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    edges, table = root / "edges.tsv", root / "table.tsv"
    assert run("synth", 300, "--seed", 3, "-o", edges) == 0
    assert run("rank", edges, "-o", table) == 0
    ranked = read_rank_table(table)
    a = write_list(root / "a.txt", ranked.names_by("pagerank_rank"))
    b = write_list(root / "b.txt", ranked.names_by("cheirank_rank"))
    members = write_list(root / "members.txt", ranked.names[:30])
    subtable = root / "subtable.tsv"
    assert run("subset", table, members, "-o", subtable) == 0
    return dict(edges=edges, table=table, a=a, b=b, members=members, subtable=subtable)


@pytest.mark.parametrize(
    "template, value",
    [(template, value) for template, values in PROBED_FLAGS for value in values],
    ids=lambda x: " ".join(x) if isinstance(x, tuple) else x,
)
def test_edge_flag_values_exit_cleanly_or_refuse_before_writing(
    template, value, probe_inputs, tmp_path, capsys
):
    argv = [arg.format(v=value, **probe_inputs) for arg in template]
    try:
        code = main([*argv, "-o", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    if code != 0:
        assert list(tmp_path.iterdir()) == []
    flag = next(template[i - 1] for i, arg in enumerate(template) if "{v}" in arg)
    if value not in (str(10**18), "1e18") and (flag, value) not in DOCUMENTED_EDGES:
        assert code in (2, 4)


# The four stats commands, each on a rank table ("{table}" marks it).
STATS_COMMANDS = [
    ("stats", "density", "{table}", "--null-samples", "200", "--seed", "3"),
    ("stats", "slice", "{table}", "--x0", "2"),
    ("stats", "correlator", "{table}"),
    ("stats", "fitcurve", "{table}"),
]


@pytest.mark.parametrize("column", [1, 3], ids=["pagerank", "cheirank"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
@pytest.mark.parametrize(
    "template", [*STATS_COMMANDS, ("subset", "{table}", "{members}")], ids=" ".join
)
def test_a_subset_table_probability_outside_0_1_exits_2(
    template, value, column, probe_inputs, tmp_path, capsys
):
    """A subset table is not checked for its sum, only for its entries: with
    one of them nan, inf, -1 or 1e308 most of these commands used to write a
    kappa, fit or grid and exit 0."""
    lines = probe_inputs["subtable"].read_text().splitlines(keepends=True)
    assert lines[0].startswith("#") and "subset_size=30" in lines[0]
    fields = lines[2].split("\t")
    fields[column] = value
    table = tmp_path / "subtable.tsv"
    table.write_text("".join([*lines[:2], "\t".join(fields), *lines[3:]]))
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(**{**probe_inputs, "table": table}) for arg in template]
    assert main([*argv, "-o", str(out / "result")]) == 2
    name = ("pagerank", "cheirank")[column // 2]
    assert f"{name} has an entry outside [0, 1]" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("column", ["pagerank", "cheirank"])
@pytest.mark.parametrize(
    "template", [*STATS_COMMANDS, ("subset", "{table}", "{members}")], ids=" ".join
)
def test_a_rank_column_that_does_not_follow_its_probabilities_exits_2(
    template, column, probe_inputs, tmp_path, capsys
):
    """The ranks 1 and N swapped between two rows of unequal probability
    used to be read as they stood: subset re-ranked the members by their
    probabilities, and every command exited 0."""
    lines = probe_inputs["table"].read_text().splitlines(keepends=True)
    rows = [line.split("\t") for line in lines[2:]]
    at = ("name", "pagerank", "pagerank_rank", "cheirank", "cheirank_rank").index(f"{column}_rank")
    best, worst = (next(row for row in rows if row[at] == str(k)) for k in (1, len(rows)))
    assert float(best[at - 1]) > float(worst[at - 1])
    best[at], worst[at] = worst[at], best[at]
    table = tmp_path / "table.tsv"
    table.write_text("".join([*lines[:2], *("\t".join(row) for row in rows)]))
    out = tmp_path / "out"
    out.mkdir()
    argv = [arg.format(**{**probe_inputs, "table": table}) for arg in template]
    assert main([*argv, "-o", str(out / "result")]) == 2
    assert f"{column}_rank does not follow the {column} column" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "abc", "0"])
def test_subset_refuses_a_bad_damping_factor_in_the_table_header(
    value, probe_inputs, tmp_path, capsys
):
    """subset used to pass alpha=nan on into its own table's header, with exit 0."""
    table = tmp_path / "table.tsv"
    text = probe_inputs["table"].read_text()
    assert " alpha=0.85 " in text
    table.write_text(text.replace(" alpha=0.85 ", f" alpha={value} ", 1))
    out = tmp_path / "sub.tsv"
    assert run("subset", table, probe_inputs["members"], "-o", out) == 2
    assert "bad damping factor in the table header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "source, key, value",
    [("table", "tol", "nan"), ("table", "max_iter", "-5"), ("table", "graph_hash", "xyz"),
     ("subtable", "n_nodes", "29")],
)
def test_subset_refuses_a_bad_header_value(source, key, value, probe_inputs, tmp_path, capsys):
    """subset used to pass each of these on into its own table's header,
    with exit 0; the subset table has 30 rows."""
    table = tmp_path / "table.tsv"
    head, rest = probe_inputs[source].read_text().split("\n", 1)
    edited, count = re.subn(rf"(?<= {key}=)\S+", value, head)
    assert count == 1
    table.write_text(edited + "\n" + rest)
    out = tmp_path / "sub.tsv"
    assert run("subset", table, probe_inputs["members"], "-o", out) == 2
    assert f"bad {key} in the table header: {value}" in capsys.readouterr().err
    assert not out.exists()


def test_subset_of_a_table_that_holds_a_name_twice_exits_2(probe_inputs, tmp_path, capsys):
    """subset used to take the last row of a repeated name, with exit 0."""
    lines = probe_inputs["table"].read_text().splitlines(keepends=True)
    name = lines[2].split("\t", 1)[0]
    lines[3] = name + "\t" + lines[3].split("\t", 1)[1]
    table = tmp_path / "table.tsv"
    table.write_text("".join(lines))
    out = tmp_path / "sub.tsv"
    assert run("subset", table, probe_inputs["members"], "-o", out) == 2
    assert f"node name {name!r} is on more than one row" in capsys.readouterr().err
    assert not out.exists()


# Every command that reads files, and its probe inputs ("{name}" marks one);
# the stats commands read a full table and a subset table.
FILE_COMMANDS = [
    ("rank", "{edges}"),
    *STATS_COMMANDS,
    *(tuple(arg.replace("{table}", "{subtable}") for arg in t) for t in STATS_COMMANDS),
    ("subset", "{table}", "{members}"),
    ("subset", "{table}", "{members}", "--lenient"),
    ("overlap", "curve", "{a}", "{b}"),
    ("overlap", "window", "{a}", "{b}"),
    ("overlap", "subset-window", "{a}", "{members}"),
]
INSERTS = (b"\t", b"\r", b"#", b"'", b"\xff", b"\n")
BAD_NUMBERS = (b"nan", b"inf", b"-1", b"1e308", b"0")
# A header value (after '=') or a number field (after a tab or a comma).
VALUE = re.compile(rb"(?<==)\S+|(?<=[\t,])[-+.0-9eE]+(?=[\s,]|\Z)")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after one to three edits: a truncation, a flipped byte, an
    inserted character, repeated lines or a bad value."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("truncate", "flip", "insert", "repeat", "value")))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "truncate":
            data = data[:at]
        elif kind == "flip" and data:
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
        elif kind == "repeat" and data:
            lines = data.splitlines(keepends=True)
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i] = lines[i : i + draw(st.integers(1, 3))] * draw(st.integers(1, 3))
            data = b"".join(lines)
        elif kind == "value" and (spans := [m.span() for m in VALUE.finditer(data)]):
            lo, hi = spans[draw(st.integers(0, len(spans) - 1))]
            data = data[:lo] + draw(st.sampled_from(BAD_NUMBERS)) + data[hi:]
    return data


@pytest.mark.parametrize("template", FILE_COMMANDS, ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_files_exit_cleanly_or_refuse_before_writing(
    template, data, probe_inputs, tmp_path_factory
):
    inputs = sorted({arg[1:-1] for arg in template if arg.startswith("{")})
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as root:
        paths = {key: Path(root) / probe_inputs[key].name for key in inputs}
        for key in inputs:
            paths[key].write_bytes(probe_inputs[key].read_bytes())
        for key in data.draw(st.sets(st.sampled_from(inputs), min_size=1), label="mutated"):
            paths[key].write_bytes(data.draw(mutated(paths[key].read_bytes()), label=key))
        out = Path(root) / "out"
        out.mkdir()
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([arg.format(**paths) for arg in template] + ["-o", str(out / "result")])
        assert code in (0, 2, 3, 4), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert list(out.iterdir()) == []
        for path in out.iterdir():
            assert non_finite_numbers(path, header=template[0] != "subset") == [], path.name


# The header keys RankTable checks.  A subset table's header is its input
# table's, passed on as it was read: any other key in it is unchecked.
CHECKED_HEADER_KEYS = ("alpha", "alpha_star", "tol", "max_iter", "n_nodes", "subset_size",
                       "graph_hash")


def non_finite_numbers(path: Path, header: bool) -> list[str]:
    """The fields of a written file that read as nan or inf: every field of
    its rows, and every header value, or without header the values of the
    header keys RankTable checks."""
    text = path.read_text(encoding="utf-8")
    fields = []
    if not header and text.startswith("#"):
        head, text = text.split("\n", 1)
        meta = read_header(head)
        fields = [meta[key] for key in CHECKED_HEADER_KEYS if key in meta]
    found = []
    for field in fields + re.split(r"[\s,=:]+", text):
        try:
            if not np.isfinite(float(field)):
                found.append(field)
        except ValueError:
            pass
    return found


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("rank", "x.tsv", "-o", "y.tsv", "--frobnicate")
    assert exc.value.code == 2


def test_bad_fit_range_is_a_usage_error(random_edges, tmp_path):
    table = rank_table_for(random_edges, tmp_path)
    with pytest.raises(SystemExit):
        run("stats", "fitcurve", table, "-o", tmp_path / "f.csv", "--fit-range", "5")


# ---- synth -----------------------------------------------------------------------


def test_synth_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert run("synth", 300, "-o", a, "--seed", 9) == 0
    assert run("synth", 300, "-o", b, "--seed", 9) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "300 nodes" in capsys.readouterr().out
    g = load_edge_list(a)
    assert g.n_nodes == 300


def test_synth_seed_changes_the_graph(tmp_path):
    a = tmp_path / "a.tsv"
    b = tmp_path / "b.tsv"
    assert run("synth", 200, "-o", a, "--seed", 1) == 0
    assert run("synth", 200, "-o", b, "--seed", 2) == 0
    assert a.read_bytes() != b.read_bytes()


# ---- stats -----------------------------------------------------------------------


def test_density_grid_output(random_edges, tmp_path):
    table = rank_table_for(random_edges, tmp_path)
    out = tmp_path / "grid.csv"
    assert run("stats", "density", table, "-o", out, "--cells", 30) == 0
    grid = read_density_grid(out)
    assert grid.cells == 30
    assert grid.n_samples == 50
    assert abs(grid.w.sum() - 1.0) < 1e-12


def test_null_model_grid_is_reproducible(random_edges, tmp_path):
    table = rank_table_for(random_edges, tmp_path)
    out = tmp_path / "grid.csv"
    args = ("stats", "density", table, "-o", out, "--cells", 20,
            "--null-samples", 4000, "--seed", 3)
    assert run(*args) == 0
    null_path = tmp_path / "grid.csv.null.csv"
    first = null_path.read_bytes()
    assert run(*args) == 0
    assert null_path.read_bytes() == first
    null_grid = read_density_grid(null_path)
    assert null_grid.n_samples == 4000
    assert abs(null_grid.w.sum() - 1.0) < 1e-12


def test_slice_output(random_edges, tmp_path):
    table = rank_table_for(random_edges, tmp_path)
    out = tmp_path / "slice.csv"
    assert run("stats", "slice", table, "-o", out, "--x0", 1.5, "--cells", 10) == 0
    meta, cols = read_series(out, dict.fromkeys(["eta", "density"], "U"))
    assert float(meta["x0"]) == 1.5
    assert len(cols["eta"]) == len(cols["density"]) > 0
    assert all(0.0 <= float(v) <= 1.0 for v in cols["density"])


def test_correlator_output(random_edges, tmp_path):
    table_path = rank_table_for(random_edges, tmp_path)
    out = tmp_path / "kappa.csv"
    assert run("stats", "correlator", table_path, "-o", out) == 0
    _, cols = read_series(out, dict.fromkeys(["alpha", "alpha_star", "kappa", "converged"], "U"))
    table = read_rank_table(table_path)
    expected = len(table) * float(np.dot(table.pagerank, table.cheirank)) - 1.0
    assert float(cols["kappa"][0]) == expected
    assert float(cols["alpha"][0]) == 0.85


def test_node_named_with_a_leading_hash_is_a_table_row(tmp_path):
    """Only lines before the column line are header lines, so the node '#b'
    reads back and the table's κ is the one rank reported."""
    edges = tmp_path / "hash.tsv"
    edges.write_text("a\t#b\nb\ta\n#b\tb\na\tb\n")
    table_path = rank_table_for(edges, tmp_path)
    manifest = json.loads((tmp_path / "table.tsv.manifest.json").read_text())
    out = tmp_path / "kappa.csv"
    assert run("stats", "correlator", table_path, "-o", out) == 0
    _, cols = read_series(out, dict.fromkeys(["alpha", "alpha_star", "kappa", "converged"], "U"))
    assert float(cols["kappa"][0]) == pytest.approx(manifest["kappa"], abs=1e-12)
    table = read_rank_table(table_path)
    assert sorted(table.names) == ["#b", "a", "b"]
    for column in ("pagerank_rank", "cheirank_rank", "rank2d"):
        assert sorted(getattr(table, column).tolist()) == [1, 2, 3]


def test_node_named_with_a_leading_hash_is_a_subset_member(tmp_path):
    """After the first name, a name file's '#' lines are names, as a column
    file's are rows, so the node '#b' can be a member."""
    edges = tmp_path / "hash.tsv"
    edges.write_text("a\t#b\nb\ta\n#b\tb\na\tb\n")
    table_path = rank_table_for(edges, tmp_path)
    members = tmp_path / "members.txt"
    members.write_text("# picked\na\n#b\n")
    assert run("subset", table_path, members, "-o", tmp_path / "s.tsv") == 0
    assert sorted(read_rank_table(tmp_path / "s.tsv").names) == ["#b", "a"]


def test_fitcurve_output(random_edges, tmp_path):
    table = rank_table_for(random_edges, tmp_path)
    out = tmp_path / "fit.csv"
    code = run(
        "stats", "fitcurve", table, "-o", out,
        "--column", "cheirank", "--fit-range", "2:40", "--bins", 10,
    )
    assert code == 0
    meta, cols = read_series(out, dict.fromkeys(["x", "y"], "U"))
    assert float(meta["exponent"]) > 0
    assert float(meta["fit_min"]) == 2.0 and float(meta["fit_max"]) == 40.0
    assert 3 <= len(cols["x"]) <= 10


# ---- overlap ----------------------------------------------------------------------


def write_list(path, names):
    path.write_text("".join(f"{n}\n" for n in names))
    return path


def test_overlap_curve_command(tmp_path):
    names = [f"n{i}" for i in range(30)]
    a = write_list(tmp_path / "a.txt", names)
    b = write_list(tmp_path / "b.txt", names)
    out = tmp_path / "curve.csv"
    assert run("overlap", "curve", a, b, "-o", out, "--ks-max", 10) == 0
    series = read_overlap_series(out)
    assert series.kind == "cumulative_f"
    assert series.fractions() == [1.0] * 10


def test_overlap_window_command(tmp_path):
    names = [f"n{i}" for i in range(40)]
    a = write_list(tmp_path / "a.txt", names)
    b = write_list(tmp_path / "b.txt", names[20:] + names[:20])
    out = tmp_path / "win.csv"
    assert run("overlap", "window", a, b, "-o", out, "--window", 20) == 0
    series = read_overlap_series(out)
    assert series.window == 20
    assert series.fractions() == [0.0, 0.0]


def test_overlap_subset_window_command(tmp_path, capsys):
    names = [f"n{i}" for i in range(60)]
    ranking = write_list(tmp_path / "ranking.txt", names)
    subset = write_list(tmp_path / "marked.txt", ["n5", "n6", "n45"])
    out = tmp_path / "sub.csv"
    assert run("overlap", "subset-window", ranking, subset, "-o", out, "--window", 20) == 0
    series = read_overlap_series(out)
    assert series.fractions() == [0.1, 0.0, 0.05]
    assert "3 members" in capsys.readouterr().out


def test_overlap_subset_window_is_strict(tmp_path, capsys):
    ranking = write_list(tmp_path / "ranking.txt", [f"n{i}" for i in range(30)])
    subset = write_list(tmp_path / "marked.txt", ["n3", "intruder"])
    code = run("overlap", "subset-window", ranking, subset, "-o", tmp_path / "s.csv")
    assert code == 2
    assert "intruder" in capsys.readouterr().err


# ---- subset -------------------------------------------------------------------------


def test_subset_command_preserves_relative_order(random_edges, tmp_path):
    table_path = rank_table_for(random_edges, tmp_path)
    table = read_rank_table(table_path)
    members = [table.names[i] for i in (0, 7, 13, 21, 34, 42, 48)]
    subset_file = write_list(tmp_path / "members.txt", members)
    out = tmp_path / "sub.tsv"
    assert run("subset", table_path, subset_file, "-o", out, "--label", "probe") == 0
    sub = read_rank_table(out)
    assert sorted(sub.names) == sorted(members)
    assert sorted(sub.pagerank_rank) == list(range(1, 8))
    assert sorted(sub.cheirank_rank) == list(range(1, 8))
    assert sub.meta["subset_label"] == "probe"
    assert sub.meta["subset_size"] == "7"
    # dense re-ranking keeps the parent ordering within the subset
    parent_order = {n: r for n, r in zip(table.names, table.pagerank_rank)}
    by_sub_rank = [n for _, n in sorted(zip(sub.pagerank_rank, sub.names))]
    assert by_sub_rank == sorted(members, key=parent_order.__getitem__)


def test_subset_of_a_subset_keeps_the_rank_header_verbatim(random_edges, tmp_path):
    table_path = rank_table_for(random_edges, tmp_path)
    names = read_rank_table(table_path).names
    sub, subsub = tmp_path / "sub.tsv", tmp_path / "subsub.tsv"
    members = write_list(tmp_path / "members.txt", names[:20])
    assert run("subset", table_path, members, "-o", sub, "--label", "my group") == 0
    assert run("subset", sub, write_list(tmp_path / "inner.txt", names[:10]), "-o", subsub) == 0

    def header(path):
        return path.read_text().splitlines()[0].split()[1:]

    graph_hash = read_rank_table(table_path).meta["graph_hash"]
    rank_header = [
        "alpha=0.85", "alpha_star=0.85", f"graph_hash={graph_hash}",
        "max_iter=1000", "n_nodes=50", "tol=1e-10",
    ]
    assert header(table_path) == rank_header
    assert header(sub) == rank_header[:5] + [
        "subset_label='my", "group'", "subset_size=20", "tol=1e-10"
    ]
    assert header(subsub) == rank_header[:5] + [
        "subset_label=inner", "subset_size=10", "tol=1e-10"
    ]
    assert read_rank_table(sub).meta["subset_label"] == "my group"
    manifest = json.loads((tmp_path / "table.tsv.manifest.json").read_text())
    assert manifest["config"] == {
        "alpha": 0.85, "alpha_star": 0.85, "tol": 1e-10, "max_iter": 1000, "workers": 1
    }


def test_subset_command_strict_vs_lenient(random_edges, tmp_path, capsys):
    table_path = rank_table_for(random_edges, tmp_path)
    subset_file = write_list(tmp_path / "members.txt", ["v01", "v02", "ghost"])
    assert run("subset", table_path, subset_file, "-o", tmp_path / "s.tsv") == 2
    capsys.readouterr()
    code = run(
        "subset", table_path, subset_file, "-o", tmp_path / "s.tsv", "--lenient"
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "skipped 1 unresolved" in captured.err
    assert len(read_rank_table(tmp_path / "s.tsv")) == 2


@pytest.mark.parametrize("mode", ["--strict", "--lenient"])
def test_subset_member_file_with_a_byte_order_mark(random_edges, tmp_path, capsys, mode):
    """A member file saved with a byte order mark (as Notepad saves UTF-8)
    names its first member: it is neither unknown nor skipped."""
    table_path = rank_table_for(random_edges, tmp_path)
    members = tmp_path / "members.txt"
    members.write_bytes("\ufeffv01\nv02\n".encode("utf-8"))
    assert run("subset", table_path, members, "-o", tmp_path / "s.tsv", mode) == 0
    assert "unresolved" not in capsys.readouterr().err
    assert sorted(read_rank_table(tmp_path / "s.tsv").names) == ["v01", "v02"]


def test_subset_label_a_file_cannot_hold_exits_4(random_edges, tmp_path, capsys):
    """An undecodable argument or file-name byte reaches Python as a lone
    surrogate, which the UTF-8 table header cannot hold: refused, no file."""
    table_path = rank_table_for(random_edges, tmp_path)
    members = ["v01", "v02"]
    odd_name = write_list(tmp_path / os.fsdecode(b"m\xff.txt"), members)
    out = tmp_path / "s.tsv"
    labelled = ["--label", "grp\udcff"]
    for subset_file, extra in ((write_list(tmp_path / "m.txt", members), labelled), (odd_name, [])):
        assert run("subset", table_path, subset_file, "-o", out, *extra) == 4
        assert "udcff" in capsys.readouterr().err
        assert not out.exists()


# ---- start-up ------------------------------------------------------------------------

# Runs the overlap commands that need no NumPy, subset, the stats commands,
# then synth and rank, in one fresh interpreter and prints which modules were
# loaded after each part.
SCIPY_PROBE = """\
import json
import sys
import rankplane
import rankplane.overlap
import rankplane.textio
from rankplane.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

numpy_free = [main(argv) for argv in json.loads(sys.argv[3])]
numpy_loaded = sorted({"numpy", "rankplane.graph"} & set(sys.modules))
subset_code = main(json.loads(sys.argv[4]))
graph_after_subset = "rankplane.graph" in sys.modules
codes = [main(argv) for argv in json.loads(sys.argv[1])]
solver_loaded = sorted({"rankplane.graph", "rankplane.googlerank"} & set(sys.modules))
after_analysis = scipy_modules()
exports = list(rankplane.__all__)
unresolved = [name for name in exports if getattr(rankplane, name, None) is None]
try:
    rankplane.nope
    nope_raises = False
except AttributeError:
    nope_raises = True

synth = main(json.loads(sys.argv[2]))
after_synth = scipy_modules()
rank = main(json.loads(sys.argv[5]))
print(json.dumps([numpy_free, numpy_loaded, subset_code, graph_after_subset, exports,
                  unresolved, nope_raises, codes, solver_loaded, after_analysis, synth,
                  after_synth, rank, bool(scipy_modules())]))
"""


def test_analysis_commands_do_not_load_scipy(random_edges, tmp_path):
    """Only rank multiplies sparse matrices, so only it imports SciPy.

    synth builds its graph from plain arrays and writes it without SciPy.
    The four stats commands load neither the graph module nor the solver.
    The package itself imports nothing until a name is used: `import
    rankplane` loads no NumPy, and every exported name resolves on demand,
    SciPy still unloaded.  The text formats, the overlap module and the
    three `overlap` commands load neither NumPy nor the graph module, and
    `subset` no graph module.
    """
    table = str(rank_table_for(random_edges, tmp_path))
    names = [f"v{i:02d}" for i in range(50)]
    a = str(write_list(tmp_path / "a.txt", names))
    b = str(write_list(tmp_path / "b.txt", names[::-1]))
    marked = str(write_list(tmp_path / "marked.txt", names[::7]))
    out = str(tmp_path / "out")
    stats = [
        ["stats", "density", table, "-o", out, "--cells", "10",
         "--null-samples", "100", "--seed", "1"],
        ["stats", "slice", table, "-o", out, "--x0", "1.0", "--cells", "10"],
        ["stats", "correlator", table, "-o", out],
        ["stats", "fitcurve", table, "-o", out, "--bins", "5"],
    ]
    numpy_free = [
        ["overlap", "curve", a, b, "-o", out],
        ["overlap", "window", a, b, "-o", out, "--window", "10"],
        ["overlap", "subset-window", a, marked, "-o", out, "--window", "10"],
    ]
    subset = ["subset", table, marked, "-o", out]
    edges = str(tmp_path / "edges.tsv")
    synth = ["synth", "150", "-o", edges, "--seed", "4"]
    rank = ["rank", edges, "-o", str(tmp_path / "synth_table.tsv")]
    probe_args = [json.dumps(argv) for argv in (stats, synth, numpy_free, subset, rank)]
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *probe_args],
        capture_output=True,
        text=True,
        env=package_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    (
        numpy_free_codes, numpy_loaded, subset_code, graph_after_subset, exports, unresolved,
        nope_raises, codes, solver_loaded, after_analysis, synth_code, scipy_after_synth,
        rank_code, scipy_after_rank,
    ) = json.loads(result.stdout.splitlines()[-1])
    assert numpy_free_codes == [0, 0, 0]
    assert numpy_loaded == []
    assert subset_code == 0 and not graph_after_subset
    assert codes == [0] * len(stats), result.stderr
    assert solver_loaded == []
    assert after_analysis == []
    assert exports and len(set(exports)) == len(exports)
    assert unresolved == []
    assert nope_raises
    assert synth_code == 0 and scipy_after_synth == []
    assert rank_code == 0 and scipy_after_rank
    assert load_edge_list(edges).n_nodes == 150


# ---- console script ------------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# The wrapper pip's script maker writes for a `module:attr` console script.
CONSOLE_SCRIPT = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def test_installed_entry_point(tmp_path):
    """The `rankplane` script declared in pyproject.toml works as its own process.

    The script is written from the declaration the way an installer writes
    it, and runs against the package under test, not whatever is on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["rankplane"]
    module, _, attr = entry.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), entry

    exe = tmp_path / "bin" / "rankplane"
    exe.parent.mkdir()
    exe.write_text(
        CONSOLE_SCRIPT.format(python=sys.executable, module=module, attr=attr)
    )
    exe.chmod(0o755)
    env = package_env()

    out = tmp_path / "edges.tsv"
    result = subprocess.run(
        [exe, "synth", "150", "-o", str(out), "--seed", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "150 nodes" in result.stdout
    usage = subprocess.run([exe], capture_output=True, text=True, env=env, timeout=120)
    assert usage.returncode == 2, usage.stderr
