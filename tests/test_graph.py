"""Edge-list ingestion, multigraph semantics, inversion, degrees, subsets."""

import ast
import codecs
import dataclasses
import hashlib
import io
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankplane import (
    ContractViolation,
    DirectedGraph,
    RankedList,
    ParseError,
    build_rank_table,
    cheirank,
    correlator,
    density_grid,
    fit_power_law,
    invert,
    load_edge_list,
    load_node_subset,
    load_ranked_list,
    pagerank,
    read_density_grid,
    read_overlap_series,
    read_rank_table,
    slice_density,
    window_overlap,
    write_density_grid,
    write_edge_list,
    write_overlap_series,
    write_rank_table,
)
from rankplane import graph, textio
from rankplane.graph import degree_distribution
from rankplane.netstats import (
    generate_scale_free,
    write_correlator_points,
    write_eta_slice,
    write_power_law_fit,
)
from rankplane.textio import read_series, write_series

BASIC = """\
# comment line
a\tb
b\tc\t3

a\tb\t2
c\tc
"""


def load(text):
    return load_edge_list(io.StringIO(text))


def named_edges(g: DirectedGraph) -> tuple[set, Counter]:
    """g's node names and the multiset of its (source, target, multiplicity)
    edges by name: the same for two graphs, however each numbers its nodes,
    exactly when they are the same graph."""
    names = np.asarray(g.names, dtype=object)
    sources = np.repeat(np.arange(g.n_nodes), np.diff(g.adj.indptr))
    return set(g.names), Counter(zip(names[sources], names[g.adj.indices], g.adj.data.tolist()))


def in_weight(g: DirectedGraph) -> np.ndarray:
    """Multiplicity-weighted in-degree per node."""
    return np.bincount(g.adj.indices, weights=g.adj.data, minlength=g.n_nodes)


def out_weight(g: DirectedGraph) -> np.ndarray:
    """Multiplicity-weighted out-degree per node."""
    return np.asarray(g.adj.sum(axis=1), dtype=np.float64).ravel()


def test_basic_parse_merges_duplicates():
    g = load(BASIC)
    assert g.names == ["a", "b", "c"]
    assert g.n_nodes == 3
    # a->b appears twice (1 + 2), b->c has multiplicity 3, c->c is a self-loop
    assert g.n_edges == 3
    assert g.total_edge_weight == 1 + 3 + 2 + 1
    assert g.adj[0, 1] == 3
    assert g.adj[1, 2] == 3
    assert g.adj[2, 2] == 1
    assert np.count_nonzero(g.adj.diagonal()) == 1


def test_ids_follow_first_appearance():
    g = load("z\ty\nx\tz\n")
    assert g.names == ["z", "y", "x"]
    assert g.name_index == {"z": 0, "y": 1, "x": 2}


def test_ingest_stats():
    g = load(BASIC)
    assert g.ingest.lines == 4      # raw edge records
    assert g.n_edges == 3           # after merging
    assert g.ingest.lines - g.n_edges == 1
    assert np.count_nonzero(g.adj.diagonal()) == 1


def test_whitespace_trimmed():
    g = load("  a \t b \n")
    assert g.names == ["a", "b"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a\n", "expected"),
        ("a\tb\tc\td\n", "expected"),
        ("a\tb\t0\n", "positive"),
        ("a\tb\t-2\n", "positive"),
        ("a\tb\tx\n", "positive"),
        ("a\tb\t\u00b2\n", "positive"),  # superscript two: a digit, not a decimal
        ("\tb\n", "empty"),
        ("", "empty"),
        ("# only a comment\n", "empty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        load(text)
    assert fragment in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as err:
        load("a\tb\nc\td\te\tf\n")
    assert str(err.value).startswith("line 2:")


def test_unicode_decimal_multiplicity_is_accepted():
    g = load("a\tb\t\u0663\n")  # Arabic-Indic three
    assert g.total_edge_weight == 3


def test_out_of_range_multiplicity_is_a_parse_error():
    assert load(f"a\tb\t{2**63 - 1}\n").total_edge_weight == 2**63 - 1
    with pytest.raises(ParseError) as err:
        load(f"a\tb\n\nc\td\t{2**63}\nc\n")
    assert err.value.line_no == 3


def test_non_utf8_edge_list_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes("a\tb\nm\u00fcnchen\tb\n".encode("latin-1"))
    with pytest.raises(ParseError, match="UTF-8"):
        load_edge_list(path)


def test_round_trip(tmp_path):
    g = load(BASIC)
    path = tmp_path / "edges.tsv"
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    assert named_edges(g) == named_edges(g2)
    assert g2.total_edge_weight == g.total_edge_weight


def test_round_trip_random_graph(tmp_path):
    rng = np.random.default_rng(7)
    names = [f"v{i}" for i in range(40)]
    src = rng.integers(0, 40, size=300)
    dst = rng.integers(0, 40, size=300)
    g = DirectedGraph.from_edges(names, src, dst, np.ones(300, dtype=np.int64))
    path = tmp_path / "r.tsv"
    write_edge_list(g, path)
    assert named_edges(load_edge_list(path)) == named_edges(g)


@pytest.mark.parametrize(
    "names",
    [["", "b"], [" a", "b"], ["a", "b "], ["a", "b\tc"], ["a", "b\rc"], ["a", "b\nc"]],
    ids=["empty", "leading_space", "trailing_space", "tab", "cr", "lf"],
)
def test_edge_list_writer_refuses_names_the_loader_would_change(names, tmp_path):
    g = DirectedGraph.from_edges(names, [0], [1], [1])
    path = tmp_path / "edges.tsv"
    with pytest.raises(ContractViolation):
        write_edge_list(g, path)
    assert not path.exists()


def test_edge_list_writer_refuses_a_name_a_file_cannot_hold(tmp_path):
    # A caller's stream can give a lone surrogate, which no UTF-8 file holds.
    g = load("a\t\udc80\n")
    path = tmp_path / "edges.tsv"
    with pytest.raises(ContractViolation, match="udc80"):
        write_edge_list(g, path)
    assert not path.exists()
    buf = io.StringIO()  # a stream encodes as it was opened, if at all
    write_edge_list(g, buf)
    assert named_edges(load(buf.getvalue())) == named_edges(g)


def test_edge_list_writer_refuses_a_source_read_back_as_a_comment():
    g = load("a\t#b\nc\t#b\t2\na\tc\n")
    buf = io.StringIO()
    write_edge_list(g, buf)  # '#b' only as a target is a plain field
    assert named_edges(load(buf.getvalue())) == named_edges(g)
    buf = io.StringIO()
    with pytest.raises(ContractViolation, match="'#b'"):
        write_edge_list(invert(g), buf)
    assert buf.getvalue() == ""
    lone = DirectedGraph.from_edges(["#b", "a"], [1], [1], [1])  # '#b' has no out-edge
    write_edge_list(lone, io.StringIO())


def test_structural_equality_ignores_renumbering(tmp_path):
    # Reloading a serialized graph may assign different internal ids (file
    # appearance order), but the named structure is identical.
    g = load("p\tq\nq\tr\nr\tv\np\tw\n")
    path = tmp_path / "e.tsv"
    write_edge_list(g, path)
    g2 = load_edge_list(path)
    assert g2.names != g.names  # renumbered on reload...
    assert named_edges(g2) == named_edges(g)  # ...yet the same graph


@st.composite
def edge_list_lines(draw):
    """1-200 lines over 2-40 names, in half of the lists with a multiplicity
    on every line; a pair may repeat, so multiplicities merge."""
    node = st.integers(0, draw(st.integers(1, 39)))
    count = st.integers(1, 9) if draw(st.booleans()) else st.just(None)
    edges = draw(st.lists(st.tuples(node, node, count), min_size=1, max_size=200))
    return [f"v{s}\tv{t}" + (f"\t{m}" if m else "") + "\n" for s, t, m in edges]


@settings(max_examples=200, deadline=None)
@given(lines=edge_list_lines(), order=st.randoms(use_true_random=False))
def test_line_order_changes_no_edge_and_only_the_last_bits(lines, order):
    """Node indices follow first appearance, so shuffled lines number the
    nodes another way and the mat-vec sums in another order: the same named
    edges, and each node's probabilities equal up to rounding."""
    shuffled = lines[:]
    order.shuffle(shuffled)
    g, h = load("".join(lines)), load("".join(shuffled))
    assert named_edges(h) == named_edges(g)
    for solve in (pagerank, cheirank):
        by_name = dict(zip(h.names, solve(h).values))
        np.testing.assert_allclose([by_name[name] for name in g.names], solve(g).values,
                                   rtol=1e-13, atol=0)


def test_structural_equality_detects_changes():
    g = load("a\tb\nb\tc\n")
    assert named_edges(g) != named_edges(load("a\tb\t2\nb\tc\n"))  # multiplicity
    assert named_edges(g) != named_edges(load("a\tb\nc\tb\n"))     # direction
    assert named_edges(g) != named_edges(load("a\tb\nb\td\n"))     # node set


def test_invert_swaps_directions():
    g = load("a\tb\t2\nb\tc\n")
    h = invert(g)
    assert h.adj[1, 0] == 2
    assert h.adj[2, 1] == 1
    assert h.names == g.names
    np.testing.assert_array_equal(out_weight(h), in_weight(g))
    np.testing.assert_array_equal(in_weight(h), out_weight(g))


def test_invert_is_involution():
    rng = np.random.default_rng(11)
    names = [f"v{i}" for i in range(25)]
    src = rng.integers(0, 25, size=120)
    dst = rng.integers(0, 25, size=120)
    mult = rng.integers(1, 4, size=120)
    g = DirectedGraph.from_edges(names, src, dst, mult)
    assert named_edges(invert(invert(g))) == named_edges(g)


def test_content_hash_stability():
    g1 = load(BASIC)
    g2 = load(BASIC)
    assert g1.content_hash() == g2.content_hash()
    g3 = load(BASIC + "a\tc\n")
    assert g1.content_hash() != g3.content_hash()


def test_content_hash_digest_is_fixed_and_computed_once():
    g = load(BASIC)
    h = hashlib.sha256()
    h.update(str(g.n_nodes).encode())
    h.update(b"\x00".join(name.encode("utf-8") for name in g.names))
    for arr in (g.adj.indptr, g.adj.indices, g.adj.data):
        h.update(arr.astype(np.int64).tobytes())
    assert g.content_hash() == h.hexdigest()[:16]
    assert g.content_hash() is g.content_hash()


def test_rejects_nonpositive_multiplicity_in_from_edges():
    with pytest.raises(ContractViolation):
        DirectedGraph.from_edges(["a", "b"], [0], [1], [0])


@pytest.mark.parametrize(
    "src, dst, mult, cause",
    [
        ([0], [1], [1.5], "integer arrays"),  # used to build weight 1
        ([0], [1], [True], "integer arrays"),  # used to build weight 1
        ([0], [5], [1], "outside the 2 nodes"),  # used to raise SciPy's ValueError
        ([0], [-1], [1], "outside the 2 nodes"),  # used to raise SciPy's ValueError
        ([0, 1], [1], [1, 1], r"shapes \(2,\), \(1,\), \(2,\)"),  # used to raise SciPy's ValueError
        (0, 1, 1, r"shapes \(\), \(\), \(\)"),  # used to raise len()'s TypeError
        ([[0]], [[1]], [[1]], "shapes"),  # used to raise SciPy's ValueError
    ],
    ids=["float multiplicity", "bool multiplicity", "target past n", "negative target",
         "unequal lengths", "scalars", "2-D arrays"],
)
def test_from_edges_refuses_arrays_it_cannot_build_from(src, dst, mult, cause):
    with pytest.raises(ContractViolation, match=cause):
        DirectedGraph.from_edges(["a", "b"], src, dst, mult)
    assert DirectedGraph.from_edges(["a", "b"], [], [], []).n_edges == 0  # the empty edge set


def csr(data, indices, indptr, fmt="csr"):
    import scipy.sparse as sp

    return sp.csr_matrix((np.asarray(data), indices, indptr), shape=(2, 2)).asformat(fmt)


@pytest.mark.parametrize(
    "adj",
    [
        csr([1, 2, 1], [1, 1, 0], [0, 2, 3]),  # (a, b) stored twice
        csr([1, 1], [1, 0], [0, 2, 2]),  # a row's columns out of order
        csr([1, 0], [1, 0], [0, 1, 2]),  # a multiplicity of 0
        csr([1, -1], [1, 0], [0, 1, 2]),
        csr([1.0, 1.0], [1, 0], [0, 1, 2]),
        csr([1, 1], [1, 0], [0, 1, 2], fmt="coo"),
        csr([1, 1], [1, 0], [0, 1, 2], fmt="csc"),
    ],
    ids=["repeated_pair", "unsorted_row", "zero", "negative", "float", "coo", "csc"],
)
def test_the_constructor_refuses_an_adjacency_that_is_not_canonical(adj):
    """A pair stored twice used to count as two edges, be written as two
    lines and reload as one edge under another hash; a multiplicity of 0
    was written as a line the loader refuses."""
    with pytest.raises(ContractViolation, match="adjacency is not canonical CSR"):
        DirectedGraph(["a", "b"], adj)
    canonical = DirectedGraph(["a", "b"], csr([1, 3], [1, 0], [0, 1, 2]))
    assert named_edges(canonical) == named_edges(load("a\tb\nb\ta\t3\n"))


# ---- degree distributions ---------------------------------------------------


def test_degree_distribution_weighted_vs_unweighted():
    g = load("a\tb\t3\na\tc\nb\tc\n")
    w = degree_distribution(g, "out")
    # a: weight 4 over 2 distinct targets; b: 1; c: 0
    assert w == {0: 1, 1: 1, 4: 1}
    assert sum(w.values()) == 3


def test_degree_distribution_in_direction():
    g = load("a\tb\t3\na\tc\nb\tc\n")
    d = degree_distribution(g, "in")
    assert d == {0: 1, 3: 1, 2: 1}
    assert sum(d.values()) == 3


def test_weighted_degree_distribution_is_exact_above_2_to_the_53():
    g = load("a\tb\t9007199254740993\n")
    for direction in ("out", "in"):
        d = degree_distribution(g, direction)
        assert d == {0: 1, 9007199254740993: 1}
        assert sum(d.values()) == 2


def test_degree_distribution_bad_direction():
    g = load("a\tb\n")
    with pytest.raises(ValueError):
        degree_distribution(g, "sideways")


# ---- node subsets -----------------------------------------------------------


def test_subset_resolution_keeps_first_duplicate():
    g = load("a\tb\nb\tc\n")
    subset, unresolved = load_node_subset(
        io.StringIO("b\na\nb\n"), g.name_index, label="pair"
    )
    assert subset.members == (1, 0)
    assert subset.names == ("b", "a")
    assert unresolved == ()


def test_subset_strict_raises_with_line_number():
    g = load("a\tb\n")
    with pytest.raises(ParseError) as err:
        load_node_subset(io.StringIO("a\nnope\n"), g.name_index)
    assert "line 2" in str(err.value)
    assert "nope" in str(err.value)


def test_subset_lenient_collects_unresolved():
    g = load("a\tb\n")
    subset, unresolved = load_node_subset(
        io.StringIO("a\nnope\nb\n"), g.name_index, strict=False
    )
    assert subset.members == (0, 1)
    assert unresolved == ("nope",)


def test_subset_from_names():
    g = load("a\tb\nb\tc\n")
    s, _ = load_node_subset(io.StringIO("c\na\n"), g.name_index, label="x")
    assert s.members == (2, 0)
    assert s.label == "x"


# ---- the text-file boundary, shared by every writer and reader --------------


def text_columns(*columns):
    """A reader of column files with these columns, every one read as text."""
    return lambda source: read_series(source, dict.fromkeys(columns, "U"))


def boundary_cases():
    """(writer, value, matching reader) for each file format the package writes."""
    g = load("a\tb\nb\t\u00e9\t2\n\u00e9\ta\n")
    p, p_star = pagerank(g), cheirank(g)
    table = build_rank_table(g.names, p.values, p_star.values, meta={"label": "my group"})
    grid = density_grid(table, cells=2)
    x = np.arange(1.0, 11.0)
    return {
        "edge_list": (write_edge_list, g, load_edge_list),
        "rank_table": (write_rank_table, table, read_rank_table),
        "density_grid": (write_density_grid, grid, read_density_grid),
        "eta_slice": (write_eta_slice, slice_density(grid, 0.5), text_columns("eta", "density")),
        "power_law_fit": (write_power_law_fit, fit_power_law(x, x**-1.5, (1.0, 10.0), 4),
                          text_columns("x", "y")),
        "correlator_points": (write_correlator_points, [correlator(p, p_star)],
                              text_columns("alpha", "alpha_star", "kappa", "converged")),
        "overlap_series": (
            write_overlap_series,
            window_overlap(RankedList(tuple("abcd")), RankedList(tuple("bacd")), window=2),
            read_overlap_series,
        ),
    }


@pytest.mark.parametrize("kind", list(boundary_cases()))
def test_writers_and_readers_share_one_text_boundary(kind, tmp_path):
    write, value, read = boundary_cases()[kind]
    buf = io.StringIO()
    write(value, buf)
    assert not buf.closed
    text = buf.getvalue()
    path = tmp_path / "out.txt"
    write(value, path)
    assert path.read_bytes() == text.encode("utf-8")
    assert "\n" in text and "\r" not in text
    stream = io.StringIO(text)
    read(stream)
    assert not stream.closed
    read(str(path))


@pytest.mark.parametrize(
    "read, text, line_no",
    [
        (
            read_density_grid,
            "# n_ranks=4 n_samples=4 cells=x axis_max=1.0\ni,j,count,w,density_per_area\n"
            "0,0,4,1.0,1.0\n",
            None,
        ),
        (
            read_density_grid,
            "# n_ranks=4 n_samples=5 cells=2 axis_max=1.0\ni,j,count,w,density_per_area\n"
            "0,0,4,1.0,1.0\n",
            None,
        ),
        (
            read_density_grid,
            "# n_ranks=4 n_samples=1 cells=2 axis_max=1.0\ni,j,count,w,density_per_area\n"
            "0,0,3,3.0,1.0\n0,1,-2,-2.0,1.0\n",
            None,
        ),
        (
            read_density_grid,
            "# n_ranks=4 n_samples=0 cells=2 axis_max=1.0\ni,j,count,w,density_per_area\n"
            "0,0,0,0.0,0.0\n",
            None,
        ),
        (
            read_density_grid,
            "# n_ranks=1 n_samples=1 cells=2 axis_max=0.0\ni,j,count,w,density_per_area\n"
            "0,0,1,1.0,1.0\n",
            None,
        ),
        (read_overlap_series, "# kind=window_fw window=two\nx,f\n10.0,0.5\n", None),
        (read_overlap_series, "# kind=cumulative_f\nx,f\n1.0,zz\n", 3),
        (read_overlap_series, "# kind=cumulative_f\nx,g\n1.0,0.5\n", 2),
        (text_columns("a", "b"), "a,b\n1\n", 2),
    ],
    ids=[
        "grid_cells", "grid_samples", "grid_negative_count", "grid_no_samples", "grid_one_rank",
        "overlap_window", "overlap_value", "overlap_columns",
        "ragged_row",
    ],
)
def test_malformed_series_files_are_parse_errors(read, text, line_no):
    with pytest.raises(ParseError) as err:
        read(io.StringIO(text))
    assert err.value.line_no == line_no


def plain(value):
    """A reader's result as data that == compares: arrays as lists, a
    graph as its names, CSR arrays and record count."""
    if isinstance(value, DirectedGraph):
        arrays = (value.adj.indptr, value.adj.indices, value.adj.data)
        return value.names, [a.tolist() for a in arrays], value.ingest.lines
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {k: plain(v) for k, v in vars(value).items() if not k.startswith("_")}
    if isinstance(value, tuple):
        return tuple(map(plain, value))
    return value


def stream_cases():
    """(reader, text) pairs, for each reader a whole file and one with an
    error after its first line; every line of each text ends in LF."""
    table, grid, series = io.StringIO(), io.StringIO(), io.StringIO()
    t = build_rank_table(["a", "b", "c"], [0.5, 0.3, 0.2], [0.2, 0.3, 0.5], {"alpha": 0.85})
    write_rank_table(t, table)
    write_density_grid(density_grid(t, cells=2), grid)
    write_overlap_series(
        window_overlap(RankedList(tuple("abcd")), RankedList(tuple("bacd")), window=2), series
    )

    def subset(source):
        return load_node_subset(source, {"a": 0, "b": 1, "c": 2}, "s")

    readers = {
        "rank_table": (read_rank_table, table.getvalue(), "c\t0.2\t3\n"),
        "density_grid": (read_density_grid, grid.getvalue(), "0,0,x,1.0,1.0\n"),
        "overlap_series": (read_overlap_series, series.getvalue(), "1.0,zz\n"),
        "ranked_list": (load_ranked_list, "# top\nb\na\nc\n", "b\n"),
        "node_subset": (subset, "# members\nc\n\na\n", "d\n"),
        "edge_list": (load_edge_list, "# edges\na\tb\nb\tc\t2\n\nc\ta\n", "c\n"),
    }
    cases = {}
    for kind, (read, text, bad_line) in readers.items():
        cases[kind] = (read, text)
        cases[f"{kind}_error"] = (read, text + bad_line + text.split("\n", 1)[1])
    return cases


def read_outcome(read, source):
    """read's result as plain data, or its ParseError's text and line number."""
    try:
        return "ok", plain(read(source))
    except ParseError as exc:
        return "parse_error", str(exc), exc.line_no


@pytest.mark.parametrize("kind", list(stream_cases()))
@pytest.mark.parametrize(
    "line_end, newline",
    [
        pytest.param(end, nl, id=f"{name}-newline={nl!r}")
        for end, name in (("\n", "LF"), ("\r\n", "CRLF"), ("\r", "CR"))
        for nl in (None, "", "\n", "\r")
        if (end, nl) != ("\r\n", "\r")  # StringIO writes each CRLF as two CRs
    ],
)
def test_a_stream_reads_as_a_file_does(kind, line_end, newline, tmp_path, monkeypatch):
    """A caller's stream, however it splits lines, gives the value a file of
    the same text gives, or the same error at the same line: a CRLF rank
    table read from a stream used to miss its column line."""
    read, text = stream_cases()[kind]
    path = tmp_path / "input.txt"
    for blocks in (0, 5):  # by default, and a few characters a block
        if blocks:
            monkeypatch.setattr(textio, "_BLOCK_CHARS", blocks)
            monkeypatch.setattr(graph, "_BLOCK_BYTES", blocks)
        for body in (text, text[:-1]):  # the last line with and without its end
            body = body.replace("\n", line_end)
            path.write_bytes(body.encode("utf-8"))
            expected = read_outcome(read, path)
            assert read_outcome(read, io.StringIO(body, newline=newline)) == expected
            assert expected[0] == ("parse_error" if kind.endswith("_error") else "ok"), expected


@pytest.mark.parametrize("kind", list(stream_cases()))
def test_a_byte_order_mark_is_no_part_of_the_first_line(kind, tmp_path):
    """A file that starts with a UTF-8 byte order mark, as Notepad and
    Excel's "CSV UTF-8" save one, reads as its plain copy does, from a path
    and from a stream: the same value, or the same error at the same line."""
    read, text = stream_cases()[kind]
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = read_outcome(read, path)
    path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    assert read_outcome(read, path) == expected
    assert read_outcome(read, io.StringIO("\ufeff" + text)) == expected


# Calls that open, read or write a file by its path.
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def test_every_file_goes_through_open_text():
    """textio.open_text is the package's one way into a file, so every file
    is UTF-8 with its line ends untranslated; a path opened, read or written
    anywhere else would bypass both."""
    calls = []
    for path in sorted(Path(textio.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "textio.py":
            tree.body = [node for node in tree.body if getattr(node, "name", None) != "open_text"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in FILE_CALLS:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


MAX_WEIGHT = 2**63 - 1


@pytest.mark.parametrize(
    "text",
    [
        f"a\tb\t{MAX_WEIGHT}\na\tb\t1\n",
        f"a\tb\t{MAX_WEIGHT}\n" * 3,
        f"a\tb\t{MAX_WEIGHT}\nb\ta\t{MAX_WEIGHT}\n",
    ],
    ids=["merged_pair", "three_merged", "two_edges"],
)
def test_total_edge_weight_beyond_int64_is_a_contract_violation(text):
    with pytest.raises(ContractViolation, match="total edge weight"):
        load(text)


def test_total_edge_weight_of_exactly_int64_max_loads():
    g = load(f"a\tb\t{MAX_WEIGHT - 1}\nb\ta\t1\n")
    assert g.total_edge_weight == MAX_WEIGHT
    assert g.adj.data.tolist() == [MAX_WEIGHT - 1, 1]


INT32_MAX = 2**31 - 1


def heavy_list(total: int) -> str:
    """A ring of 20 single links and one line carrying the rest of total."""
    ring = "".join(f"v{i}\tv{(i + 1) % 20}\n" for i in range(20))
    return ring + f"v3\tv7\t{total - 20}\n"


@pytest.mark.parametrize("total, width", [(INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)])
def test_multiplicities_are_int32_while_the_total_edge_weight_fits(total, width):
    g = load(heavy_list(total))
    assert g.total_edge_weight == total
    assert g.adj.data.dtype == width and invert(g).adj.data.dtype == width
    # The same graph held at the other width answers alike, bit for bit.
    other = np.int64 if width == np.int32 else np.int32
    twin = DirectedGraph.from_csr(g.names, g.adj.indptr, g.adj.indices, g.adj.data.astype(other))
    assert twin.content_hash() == g.content_hash()
    written = []
    for h in (g, twin):
        out = io.StringIO()
        write_edge_list(h, out)
        written.append(out.getvalue())
    assert written[0] == written[1]
    for solve in (pagerank, cheirank):
        for workers in (1, 2):
            a, b = solve(g, workers=workers), solve(twin, workers=workers)
            assert a.iterations == b.iterations
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("total, width", [(INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)])
@pytest.mark.parametrize("blocks", ["one_multiplicity", "across_blocks"])
@pytest.mark.parametrize("pad", ["", " "], ids=["bulk", "per_line"])
def test_the_parse_buffer_widens_past_int32_on_both_paths(total, width, blocks, pad, monkeypatch):
    """The multiplicities are parsed into int32 until their running total
    passes 2**31 - 1, by one multiplicity or in a later block, and into
    int64 from then on; the graph equals the one built from int64."""
    if blocks == "one_multiplicity":
        edges = [("a", "b", total)]
    else:  # each line a block of its own, and the last one crosses
        monkeypatch.setattr(graph, "_BLOCK_BYTES", 16)
        edges = [(f"v{i}", f"v{(i + 1) % 20}", 1) for i in range(20)]
        edges += [("v3", "v7", (total - 20) // 2), ("v5", "v9", total - 20 - (total - 20) // 2)]
    parsed, from_edges = [], DirectedGraph.from_edges.__func__

    def spy(cls, names, src, dst, mult):
        parsed.append(mult.dtype)  # the dtype of the parse buffer
        return from_edges(cls, names, src, dst, mult)

    monkeypatch.setattr(DirectedGraph, "from_edges", classmethod(spy))
    # A padded name sends every line to the per-line parser.
    g = load("".join(f"{pad}{s}\t{t}\t{m}\n" for s, t, m in edges))
    assert parsed == [width]
    assert g.total_edge_weight == total and g.adj.data.dtype == width
    src, dst, mult = ([g.name_index[e[k]] if k < 2 else e[k] for e in edges] for k in range(3))
    built = from_edges(DirectedGraph, g.names, src, dst, np.array(mult, dtype=np.int64))
    wide = DirectedGraph.from_csr(
        g.names, built.adj.indptr, built.adj.indices, built.adj.data.astype(np.int64)
    )
    assert wide.content_hash() == g.content_hash()
    assert pagerank(wide).values.tobytes() == pagerank(g).values.tobytes()


@pytest.mark.parametrize("text", ["a\tb\nc\td\n", " a\tb\nc\td\n"], ids=["bulk", "per_line"])
def test_more_node_names_than_int32_holds_is_a_contract_violation(text, monkeypatch):
    monkeypatch.setattr(graph, "_INT32_MAX", 3)
    assert load(text.replace("d", "c")).n_nodes == 3
    with pytest.raises(ContractViolation, match="node names"):
        load(text)


@pytest.fixture(scope="module")
def generated_list(tmp_path_factory):
    """The edge list of a 10^5-node generated graph, about 0.9 M lines."""
    path = tmp_path_factory.mktemp("generated") / "edges.tsv"
    write_edge_list(generate_scale_free(100_000, 2.1, 2.76, 10.0, seed=14), path)
    return path


def test_edge_list_parse_peak_memory(generated_list):
    """The parse holds each record as three int32 (its node indices and its
    multiplicity, while the total edge weight fits) until the sparse build,
    and drops the name bytes, keys and hash index before it."""
    load(BASIC)  # imports happen outside the trace
    tracemalloc.start()
    try:
        g = load_edge_list(generated_list)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.ingest.lines > 900_000
    assert peak <= 32 * g.ingest.lines, f"{peak / g.ingest.lines:.1f} bytes per record"


def test_the_transpose_holds_eight_bytes_per_nonzero(generated_list):
    g = load_edge_list(generated_list)
    tracemalloc.start()
    try:
        t = invert(g).adj
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * t.nnz + t.indptr.nbytes + 65536, f"{peak / t.nnz:.1f} bytes per nonzero"


HEADER_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(meta=st.dictionaries(HEADER_KEYS, st.one_of(st.text(), st.floats(), st.integers())))
def test_header_values_read_back_as_their_text(meta):
    buf = io.StringIO()
    write_series({"x": [1]}, buf, meta)
    back, columns = read_series(io.StringIO(buf.getvalue(), newline=None), {"x": "U"})
    assert back == {k: str(v) for k, v in meta.items()}
    assert columns == {"x": ["1"]}


def test_series_writer_refuses_columns_of_unequal_length(tmp_path):
    path = tmp_path / "s.csv"
    with pytest.raises(ContractViolation, match="unequal length"):
        write_series({"x": [1, 2, 3], "y": [1]}, path)
    assert not path.exists()
    buf = io.StringIO()
    with pytest.raises(ContractViolation):
        write_series({"x": np.arange(3), "y": np.arange(4)}, buf, {"k": 1})
    assert buf.getvalue() == ""


@pytest.mark.parametrize("key", ["", "a b", "a\tb", "a\nb", "k=v", "="])
def test_series_writer_refuses_a_header_key_that_reads_back_as_another(key, tmp_path):
    path = tmp_path / "s.csv"
    with pytest.raises(ContractViolation):
        write_series({"x": [1]}, path, {"ok": 1, key: 2})
    assert not path.exists()
