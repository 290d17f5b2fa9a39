"""Edge-list ingestion, multigraph semantics, inversion, degrees, subsets."""

import hashlib
import io

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
from rankplane.graph import degree_distribution
from rankplane.netstats import (
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
    assert g.self_loop_count() == 1


def test_ids_follow_first_appearance():
    g = load("z\ty\nx\tz\n")
    assert g.names == ["z", "y", "x"]
    assert g.name_index == {"z": 0, "y": 1, "x": 2}


def test_ingest_stats():
    g = load(BASIC)
    assert g.ingest.lines == 4      # raw edge records
    assert g.n_edges == 3           # after merging
    assert g.ingest.lines - g.n_edges == 1
    assert g.self_loop_count() == 1


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
    assert g.same_structure(g2)
    assert g2.total_edge_weight == g.total_edge_weight


def test_round_trip_random_graph(tmp_path):
    rng = np.random.default_rng(7)
    names = [f"v{i}" for i in range(40)]
    src = rng.integers(0, 40, size=300)
    dst = rng.integers(0, 40, size=300)
    g = DirectedGraph.from_edges(names, src, dst, np.ones(300, dtype=np.int64))
    path = tmp_path / "r.tsv"
    write_edge_list(g, path)
    assert load_edge_list(path).same_structure(g)


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
    assert load(buf.getvalue()).same_structure(g)


def test_edge_list_writer_refuses_a_source_read_back_as_a_comment():
    g = load("a\t#b\nc\t#b\t2\na\tc\n")
    buf = io.StringIO()
    write_edge_list(g, buf)  # '#b' only as a target is a plain field
    assert load(buf.getvalue()).same_structure(g)
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
    assert g2.same_structure(g)  # ...yet the same graph
    assert g.same_structure(g2)


def test_structural_equality_detects_changes():
    g = load("a\tb\nb\tc\n")
    assert not g.same_structure(load("a\tb\t2\nb\tc\n"))  # multiplicity
    assert not g.same_structure(load("a\tb\nc\tb\n"))     # direction
    assert not g.same_structure(load("a\tb\nb\td\n"))     # node set


def test_invert_swaps_directions():
    g = load("a\tb\t2\nb\tc\n")
    h = invert(g)
    assert h.adj[1, 0] == 2
    assert h.adj[2, 1] == 1
    assert h.names == g.names
    np.testing.assert_array_equal(h.out_weight(), g.in_weight())
    np.testing.assert_array_equal(h.in_weight(), g.out_weight())


def test_invert_is_involution():
    rng = np.random.default_rng(11)
    names = [f"v{i}" for i in range(25)]
    src = rng.integers(0, 25, size=120)
    dst = rng.integers(0, 25, size=120)
    mult = rng.integers(1, 4, size=120)
    g = DirectedGraph.from_edges(names, src, dst, mult)
    assert invert(invert(g)).same_structure(g)


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


# ---- degree distributions ---------------------------------------------------


def test_degree_distribution_weighted_vs_unweighted():
    g = load("a\tb\t3\na\tc\nb\tc\n")
    w = degree_distribution(g, "out", weighted=True)
    u = degree_distribution(g, "out", weighted=False)
    # a: weight 4 over 2 distinct targets; b: 1/1; c: 0/0
    assert w == {0: 1, 1: 1, 4: 1}
    assert u == {0: 1, 1: 1, 2: 1}
    assert sum(w.values()) == sum(u.values()) == 3


def test_degree_distribution_in_direction():
    g = load("a\tb\t3\na\tc\nb\tc\n")
    d = degree_distribution(g, "in", weighted=True)
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
        "eta_slice": (write_eta_slice, slice_density(grid, 0.5), read_series),
        "power_law_fit": (write_power_law_fit, fit_power_law(x, x**-1.5, (1.0, 10.0), 4),
                          read_series),
        "correlator_points": (write_correlator_points, [correlator(p, p_star)], read_series),
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
        (read_overlap_series, "# kind=window_fw window=two\nx,f\n10.0,0.5\n", None),
        (read_overlap_series, "# kind=cumulative_f\nx,f\n1.0,zz\n", 3),
        (read_overlap_series, "# kind=cumulative_f\nx,g\n1.0,0.5\n", 2),
        (read_series, "a,b\n1\n", 2),
    ],
    ids=[
        "grid_cells", "grid_samples", "overlap_window", "overlap_value", "overlap_columns",
        "ragged_row",
    ],
)
def test_malformed_series_files_are_parse_errors(read, text, line_no):
    with pytest.raises(ParseError) as err:
        read(io.StringIO(text))
    assert err.value.line_no == line_no


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


HEADER_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,7}", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(meta=st.dictionaries(HEADER_KEYS, st.one_of(st.text(), st.floats(), st.integers())))
def test_header_values_read_back_as_their_text(meta):
    buf = io.StringIO()
    write_series({"x": [1]}, buf, meta)
    back, columns = read_series(io.StringIO(buf.getvalue(), newline=None))
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
