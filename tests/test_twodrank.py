"""Combined rank against a naive square-rescan oracle, tables, persistence.

The oracle literally grows squares [1..k] x [1..k] and collects nodes the
first time they land on the boundary — right edge before top edge, corner
once — independent of the vectorized implementation.
"""

import dataclasses
import io
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankplane import (
    ContractViolation,
    NodeSubset,
    ParseError,
    RankTable,
    build_rank_table,
    rank_positions,
    read_rank_table,
    subset_rank,
    two_d_rank,
    write_rank_table,
)
from rankplane import textio
from rankplane.twodrank import check_probabilities, exact_sum


def naive_square_scan(k_pos, k_star_pos):
    """Reference combined rank: explicit square-boundary walk."""
    n = len(k_pos)
    node_at_k = {int(k_pos[i]): i for i in range(n)}
    node_at_k_star = {int(k_star_pos[i]): i for i in range(n)}
    order, seen = [], set()
    for k in range(1, n + 1):
        i = node_at_k[k]  # right edge: cell (k, K*) with K* <= k
        if k_star_pos[i] <= k and i not in seen:
            order.append(i)
            seen.add(i)
        j = node_at_k_star[k]  # top edge: cell (K, k) with K < k
        if k_pos[j] <= k and j not in seen:
            order.append(j)
            seen.add(j)
    ranks = np.empty(n, dtype=np.int64)
    for pos, node in enumerate(order, start=1):
        ranks[node] = pos
    return ranks


def test_three_node_hand_example():
    # (K, K*): a = (1,2), b = (2,1), c = (3,3)  ->  K2: b, a, c
    k = np.asarray([1, 2, 3], dtype=np.int64)
    k_star = np.asarray([2, 1, 3], dtype=np.int64)
    out = two_d_rank(k, k_star)
    np.testing.assert_array_equal(out, [2, 1, 3])
    np.testing.assert_array_equal(np.argsort(out), [1, 0, 2])


def test_exhaustive_small_against_oracle():
    for n in range(1, 6):
        identity = np.arange(1, n + 1)
        k = np.asarray(identity, dtype=np.int64)
        for perm in itertools.permutations(range(1, n + 1)):
            k_star = np.asarray(perm, dtype=np.int64)
            got = two_d_rank(k, k_star)
            np.testing.assert_array_equal(got, naive_square_scan(identity, perm))


def test_random_permutation_pairs_against_oracle():
    rng = np.random.default_rng(5)
    for n in (17, 120, 503):
        k_pos = rng.permutation(n) + 1
        k_star_pos = rng.permutation(n) + 1
        got = two_d_rank(
            np.asarray(k_pos, dtype=np.int64), np.asarray(k_star_pos, dtype=np.int64)
        )
        np.testing.assert_array_equal(got, naive_square_scan(k_pos, k_star_pos))


def test_two_d_rank_is_a_permutation():
    rng = np.random.default_rng(9)
    n = 64
    out = two_d_rank(
        np.asarray(rng.permutation(n) + 1, dtype=np.int64),
        np.asarray(rng.permutation(n) + 1, dtype=np.int64),
    )
    assert sorted(out) == list(range(1, n + 1))
    np.testing.assert_array_equal(out[np.argsort(out)], np.arange(1, n + 1))


def test_two_d_rank_length_mismatch():
    with pytest.raises(ContractViolation):
        two_d_rank(np.asarray([1, 2], dtype=np.int64), np.asarray([1], dtype=np.int64))


def test_identical_rankings_pass_through():
    pos = np.array([3, 1, 2])
    out = two_d_rank(np.asarray(pos, dtype=np.int64), np.asarray(pos, dtype=np.int64))
    np.testing.assert_array_equal(out, pos)


def test_two_d_rank_takes_plain_lists():
    # lists would compare lexicographically under `>`; positions compare per node
    np.testing.assert_array_equal(two_d_rank([1, 2, 3], [2, 1, 3]), [2, 1, 3])
    np.testing.assert_array_equal(two_d_rank([2, 1], [1, 2]), [1, 2])


# ---- scalar ranking ----------------------------------------------------------


def test_rank_indices_descending():
    position = rank_positions(np.array([0.1, 0.7, 0.2]))
    np.testing.assert_array_equal(position, [3, 1, 2])
    np.testing.assert_array_equal(np.argsort(position), [1, 2, 0])


def test_rank_indices_ties_break_by_node_index():
    position = rank_positions(np.array([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(position, [2, 1, 3])


# ---- rank tables -------------------------------------------------------------


def small_table():
    names = ["a", "b", "c", "d"]
    p = np.array([0.4, 0.3, 0.2, 0.1])
    p_star = np.array([0.1, 0.2, 0.3, 0.4])
    return build_rank_table(names, p, p_star, meta={"alpha": 0.85})


def test_build_rank_table_columns():
    t = small_table()
    np.testing.assert_array_equal(t.pagerank_rank, [1, 2, 3, 4])
    np.testing.assert_array_equal(t.cheirank_rank, [4, 3, 2, 1])
    expected = naive_square_scan(t.pagerank_rank, t.cheirank_rank)
    np.testing.assert_array_equal(t.rank2d, expected)


def test_build_rank_table_validates_lengths():
    with pytest.raises(ContractViolation):
        build_rank_table(["a"], np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ContractViolation, match="one entry per name"):
        build_rank_table(["a", "b"], np.array([1.0]), np.array([1.0]))


def test_a_node_name_on_two_rows_is_refused():
    """subset used to take the last of the rows named a, with exit 0."""
    with pytest.raises(ContractViolation, match="node name 'a' is on more than one row"):
        build_rank_table(["a", "b", "a"], [0.5, 0.25, 0.25], [0.25, 0.5, 0.25])
    buf = io.StringIO()
    write_rank_table(build_rank_table(["a", "b", "c"], [0.5, 0.25, 0.25], [0.25, 0.5, 0.25]), buf)
    text = buf.getvalue().replace("\nc\t", "\na\t")
    with pytest.raises(ParseError, match="node name 'a' is on more than one row"):
        read_rank_table(io.StringIO(text))


def test_a_table_built_directly_is_checked():
    """Ranks that do not follow the probabilities used to build, and
    subset_rank then re-ranked members a and b to [2, 1] for [0.5, 0.3]."""
    columns = dict(pagerank=[0.5, 0.3, 0.2], cheirank=[0.2, 0.3, 0.5], cheirank_rank=[3, 2, 1],
                   rank2d=[3, 1, 2])
    with pytest.raises(ContractViolation, match="pagerank_rank does not follow the pagerank column"):
        RankTable(["a", "b", "c"], pagerank_rank=[3, 2, 1], **columns)
    t = RankTable(["a", "b", "c"], pagerank_rank=[1, 2, 3], **columns)
    assert t.pagerank.dtype == np.float64 and t.rank2d.dtype == np.int64
    assert subset_rank(t, NodeSubset("s", (0, 1))).pagerank_rank.tolist() == [1, 2]
    for code in ("l", "q"):  # int64 as NumPy makes it, and as the table reader does
        ranks = t.rank2d.astype(code)
        again = RankTable(t.names, t.pagerank, t.cheirank, t.pagerank_rank, t.cheirank_rank, ranks)
        assert again.pagerank is t.pagerank and again.rank2d is ranks  # not copied
    for key, short in (("pagerank", [1.0]), ("rank2d", [1, 2])):
        with pytest.raises(ContractViolation, match=f"{key} does not hold one entry per name"):
            RankTable(["a", "b", "c"], **{**columns, "pagerank_rank": [1, 2, 3], key: short})


SQUARE_ORDER = "rank2d is not the square order of pagerank_rank and cheirank_rank"


def six_row_table():
    return build_rank_table(list("abcdef"), [0.3, 0.25, 0.2, 0.12, 0.08, 0.05],
                            [0.05, 0.3, 0.08, 0.25, 0.12, 0.2])


def test_a_rank2d_out_of_the_square_order_is_refused():
    """rank2d was checked only as a permutation: with two of its values
    swapped a table was made, and names_by("rank2d") listed the wrong order."""
    t = six_row_table()
    for i, j in itertools.combinations(range(len(t)), 2):
        swapped = t.rank2d.copy()
        swapped[[i, j]] = swapped[[j, i]]
        with pytest.raises(ContractViolation, match=SQUARE_ORDER):
            dataclasses.replace(t, rank2d=swapped)


def test_a_rank_table_file_with_rank2d_out_of_the_square_order_is_a_parse_error():
    """Such a file used to read back without error."""
    buf = io.StringIO()
    write_rank_table(six_row_table(), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    (a, x), (b, y) = (line.rsplit("\t", 1) for line in lines[-2:])
    text = "".join(lines[:-2] + [f"{a}\t{y}", f"{b}\t{x}"])
    assert len(read_rank_table(io.StringIO(buf.getvalue()))) == 6
    with pytest.raises(ParseError, match=SQUARE_ORDER):
        read_rank_table(io.StringIO(text))


@pytest.mark.parametrize(
    "meta, cause",
    [
        ({"alpha": 2.0}, "bad alpha in the table header: 2.0"),
        ({"alpha_star": math.nan}, "bad alpha_star in the table header"),
        ({"tol": math.nan}, "bad tol in the table header: nan"),
        ({"tol": 0.0}, "bad tol in the table header"),
        ({"tol": math.inf}, "bad tol in the table header"),
        ({"tol": "x"}, "bad tol in the table header: x"),
        ({"max_iter": -5}, "bad max_iter in the table header: -5"),
        ({"max_iter": 0}, "bad max_iter in the table header"),
        ({"max_iter": 2.5}, "bad max_iter in the table header"),
        ({"max_iter": math.nan}, "bad max_iter in the table header"),
        ({"n_nodes": 5}, "the table has 4 rows, its header says n_nodes=5"),
        ({"graph_hash": "xyz"}, "bad graph_hash in the table header: xyz"),
        ({"graph_hash": "0123456789ABCDEF"}, "bad graph_hash in the table header"),
    ],
)
def test_build_rank_table_refuses_a_header_its_reader_would(meta, cause):
    """alpha=2.0 used to be written, and then refused by read_rank_table."""
    with pytest.raises(ContractViolation, match=re.escape(cause)):
        build_rank_table(["a", "b", "c", "d"], [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4], meta)


def test_a_subset_header_needs_n_nodes_no_smaller_than_its_rows():
    t = build_rank_table(["a", "b", "c", "d"], [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4],
                         {"n_nodes": 4, "label": math.nan, "n": "x y"})
    sub = subset_rank(t, NodeSubset("s", (0, 1, 2)))
    assert sub.meta == {"n_nodes": 4, "label": math.nan, "n": "x y", "subset_label": "s",
                        "subset_size": 3}
    assert dataclasses.replace(sub, meta={**sub.meta, "n_nodes": "3"}).meta["n_nodes"] == "3"
    for n_nodes in (2, "abc", -3, math.nan):
        with pytest.raises(ContractViolation, match="bad n_nodes in the table header"):
            dataclasses.replace(sub, meta={**sub.meta, "n_nodes": n_nodes})


def test_a_table_without_a_header_mapping_is_refused():
    """meta=None used to raise AttributeError from __post_init__."""
    with pytest.raises(ContractViolation, match="the table header is not a mapping: None"):
        RankTable(["a"], [1.0], [1.0], [1], [1], [1], meta=None)


def test_names_by():
    t = small_table()
    assert t.names_by("pagerank_rank") == ["a", "b", "c", "d"]
    assert t.names_by("cheirank_rank") == ["d", "c", "b", "a"]


def test_table_file_round_trip(tmp_path):
    t = small_table()
    path = tmp_path / "t.tsv"
    write_rank_table(t, path)
    t2 = read_rank_table(path)
    assert t2.names == t.names_by("pagerank_rank")  # rows sorted by rank
    by_name = {n: i for i, n in enumerate(t2.names)}
    for col in ("pagerank", "cheirank", "pagerank_rank", "cheirank_rank", "rank2d"):
        original = getattr(t, col)
        reloaded = getattr(t2, col)
        for i, name in enumerate(t.names):
            assert reloaded[by_name[name]] == original[i]
    assert t2.meta["alpha"] == "0.85"


@pytest.mark.parametrize("label", ["my group", "it's", "a\\b", "x=y z"])
def test_header_values_with_spaces_and_quotes_read_back_whole(label):
    sub = subset_rank(small_table(), NodeSubset(label=label, members=(2, 0)))
    buf = io.StringIO()
    write_rank_table(sub, buf)
    back = read_rank_table(io.StringIO(buf.getvalue()))
    assert back.meta == {"alpha": "0.85", "subset_label": label, "subset_size": "2"}


def test_numpy_scalar_header_values_are_written_as_numbers():
    t = build_rank_table(["a"], [1.0], [1.0], meta={"alpha": np.float64(0.85), "n": np.int64(1)})
    buf = io.StringIO()
    write_rank_table(t, buf)
    assert buf.getvalue().splitlines()[0] == "# alpha=0.85 n=1"


# A lone surrogate does not break the line, but no UTF-8 file can hold it.
@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "\udc80"])
def test_table_writer_refuses_a_name_that_breaks_its_line(name, tmp_path):
    t = build_rank_table([name, "c"], [0.6, 0.4], [0.5, 0.5])
    path = tmp_path / "t.tsv"
    with pytest.raises(ContractViolation):
        write_rank_table(t, path)
    assert not path.exists()


def test_read_rank_table_rejects_bad_header():
    with pytest.raises(ParseError):
        read_rank_table(io.StringIO("name\tpagerank\n"))
    with pytest.raises(ParseError):
        read_rank_table(io.StringIO(""))


HEADER = "name\tpagerank\tpagerank_rank\tcheirank\tcheirank_rank\trank2d\n"


@pytest.mark.parametrize("row", ["a\tx\t1\t0.5\t1\t1", "a\t0.5\t1.0\t0.5\t1\t1"])
def test_unparsable_number_is_a_parse_error(row):
    with pytest.raises(ParseError) as err:
        read_rank_table(io.StringIO(HEADER + "b\t0.5\t2\t0.5\t2\t2\n" + row + "\n"))
    assert err.value.line_no == 3


def test_out_of_range_rank_is_a_parse_error():
    text = HEADER + f"a\t1.0\t{2**63}\t1.0\t1\t1\nb\n"
    with pytest.raises(ParseError) as err:
        read_rank_table(io.StringIO(text))
    assert err.value.line_no == 2


def test_non_utf8_rank_table_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes((HEADER + "m\u00fcnchen\t1.0\t1\t1.0\t1\t1\n").encode("latin-1"))
    with pytest.raises(ParseError, match="UTF-8"):
        read_rank_table(path)


# ---- subset re-ranking -------------------------------------------------------


def test_subset_rank_whole_table_is_identity():
    t = small_table()
    s = NodeSubset(label="all", members=(0, 1, 2, 3), names=("a", "b", "c", "d"))
    sub = subset_rank(t, s)
    np.testing.assert_array_equal(sub.pagerank_rank, t.pagerank_rank)
    np.testing.assert_array_equal(sub.cheirank_rank, t.cheirank_rank)
    np.testing.assert_array_equal(sub.rank2d, t.rank2d)


def test_subset_rank_singleton():
    t = small_table()
    s = NodeSubset(label="one", members=(2,), names=("c",))
    sub = subset_rank(t, s)
    assert sub.names == ["c"]
    assert (sub.pagerank_rank[0], sub.cheirank_rank[0], sub.rank2d[0]) == (1, 1, 1)


def test_subset_rank_preserves_relative_order():
    rng = np.random.default_rng(21)
    n = 200
    names = [f"v{i}" for i in range(n)]
    p = rng.random(n)
    p /= p.sum()
    q = rng.random(n)
    q /= q.sum()
    t = build_rank_table(names, p, q)
    members = tuple(sorted(rng.choice(n, size=20, replace=False).tolist()))
    sub = subset_rank(t, NodeSubset("s", members, tuple(names[i] for i in members)))
    # dense 1..20, and ordered exactly as the parent ranks order the members
    assert sorted(sub.pagerank_rank) == list(range(1, 21))
    parent = t.pagerank_rank[list(members)]
    np.testing.assert_array_equal(
        np.argsort(sub.pagerank_rank), np.argsort(parent)
    )
    parent_star = t.cheirank_rank[list(members)]
    np.testing.assert_array_equal(
        np.argsort(sub.cheirank_rank), np.argsort(parent_star)
    )


def test_subset_rank_tie_break_survives_file_round_trip(tmp_path):
    # Equal probabilities tie-break by node index; after writing the table
    # (rows re-sorted by rank) the original index order is recoverable only
    # through the stored rank columns.  Subset ranks must match either way.
    names = ["w", "x", "y", "z"]
    p = np.array([0.25, 0.25, 0.25, 0.25])
    q = np.array([0.1, 0.4, 0.4, 0.1])
    t = build_rank_table(names, p, q)
    path = tmp_path / "ties.tsv"
    write_rank_table(t, path)
    t2 = read_rank_table(path)

    def sub_ranks(table):
        idx = {n: i for i, n in enumerate(table.names)}
        members = tuple(idx[n] for n in ("w", "y", "z"))
        s = NodeSubset("s", members, ("w", "y", "z"))
        out = subset_rank(table, s)
        return {n: int(r) for n, r in zip(out.names, out.pagerank_rank)}

    assert sub_ranks(t) == sub_ranks(t2)


def test_subset_rank_rejects_bad_subsets():
    t = small_table()
    with pytest.raises(ContractViolation):
        subset_rank(t, NodeSubset("empty", (), ()))
    with pytest.raises(ContractViolation):
        subset_rank(t, NodeSubset("oob", (99,), ("zz",)))
    # -1 used to wrap to the last row, and a repeated member to give a
    # table holding its name twice
    for members in ((-1, 0), (0, 0)):
        with pytest.raises(ContractViolation, match="outside the table or repeated"):
            subset_rank(t, NodeSubset("x", members))


@pytest.mark.parametrize(
    "pagerank, cause",
    [
        ([0.3, 0.3], "pagerank sums to 0.6, not 1"),
        ([math.nan, 1.0], "pagerank sums to nan"),
        ([math.inf, -math.inf], "pagerank does not sum to a finite number"),
        ([1.5, -0.5], "pagerank has an entry outside"),
    ],
)
def test_build_rank_table_refuses_what_the_reader_refuses(pagerank, cause):
    with pytest.raises(ContractViolation, match=cause):
        build_rank_table(["a", "b"], pagerank, [0.5, 0.5])
    with pytest.raises(ContractViolation, match=cause.replace("pagerank", "cheirank")):
        build_rank_table(["a", "b"], [0.5, 0.5], pagerank)
    text = "# n_nodes=2\nname\tpagerank\tpagerank_rank\tcheirank\tcheirank_rank\trank2d\n"
    text += "".join(f"{n}\t{p!r}\t{i}\t0.5\t{i}\t{i}\n" for i, (n, p) in enumerate(zip("ab", pagerank), 1))
    with pytest.raises(ParseError, match=cause):
        read_rank_table(io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1e308", "1.5"])
def test_a_subset_table_probability_outside_0_1_is_refused(value):
    """A subset table need not sum to 1, but each probability lies in [0, 1]."""
    sub = subset_rank(small_table(), NodeSubset("s", (0, 1)))
    buf = io.StringIO()
    write_rank_table(sub, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    assert read_rank_table(io.StringIO("".join(lines))).meta["subset_size"] == "2"
    for column in (1, 3):
        fields = lines[2].split("\t")
        fields[column] = value
        edited = lines[:2] + ["\t".join(fields)] + lines[3:]
        name = ("pagerank", "cheirank")[column // 2]
        with pytest.raises(ParseError, match=f"{name} has an entry outside"):
            read_rank_table(io.StringIO("".join(edited)))


@st.composite
def built_tables(draw):
    """Tables build_rank_table returns, and subset_rank's tables of them:
    probabilities with ties, header values of every kind the package writes."""
    n = draw(st.integers(1, 12))
    names = [f"v{i}" for i in range(n)]
    columns = []
    for _ in range(2):
        weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        columns.append(np.asarray(weights, dtype=np.float64) / sum(weights))
    meta = draw(st.fixed_dictionaries({}, optional={
        "alpha": st.floats(0.0, 1.0, exclude_min=True),
        "alpha_star": st.sampled_from([1, 0.5, "0.85"]),
        "tol": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "max_iter": st.integers(1, 10**6),
        "graph_hash": st.text("0123456789abcdef", min_size=16, max_size=16),
        "n_nodes": st.sampled_from([n, np.int64(n), str(n)]),
        "label": st.text(max_size=8) | st.floats(),
    }))
    table = build_rank_table(names, *columns, meta)
    if draw(st.booleans()):
        members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        table = subset_rank(table, NodeSubset(draw(st.text(max_size=8)), tuple(members)))
    return table


@settings(max_examples=200, deadline=None)
@given(table=built_tables())
def test_every_built_table_reads_back_bit_for_bit(table):
    buf = io.StringIO()
    write_rank_table(table, buf)
    back = read_rank_table(io.StringIO(buf.getvalue()))
    order = np.argsort(table.pagerank_rank)
    assert back.names == [table.names[i] for i in order]
    for col in ("pagerank", "cheirank", "pagerank_rank", "cheirank_rank", "rank2d"):
        assert getattr(back, col).tobytes() == getattr(table, col)[order].tobytes()
    assert back.meta == {k: str(v) for k, v in table.meta.items()}


# ---- the exact sum -----------------------------------------------------------


def outcome(sum_of, *args):
    """sum_of(*args) as its float's hex, 'nan', or the type of the exception
    it raises; a RuntimeWarning is raised too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            total = sum_of(*args)
        except (OverflowError, ValueError) as exc:
            return type(exc)
    return "nan" if math.isnan(total) else total.hex()


def fsum_outcome(values, other=None):
    """outcome of math.fsum over the same float64 terms exact_sum takes."""
    with np.errstate(all="ignore"):
        terms = values if other is None else values * other
    return outcome(math.fsum, terms.tolist())


# Every binade from 2**-1074 to 1e308, both signs, zeros of both signs,
# infinities and NaN; the rarer values are drawn less often, so that most
# arrays take the extraction and the rest math.fsum itself.
TERMS = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308]),
    st.floats(),
)


# Terms of one sign in one binade: their sums carry the most bits.
ONE_BINADE = st.builds(
    lambda mantissas, exponent, sign: [sign * math.ldexp(x, exponent) for x in mantissas],
    st.lists(st.floats(0.5, 1.0, exclude_max=True), max_size=40),
    st.integers(-1074, 1023),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.one_of(st.lists(TERMS, max_size=40), ONE_BINADE),
    others=st.lists(TERMS, min_size=40, max_size=40),
    rows=st.sampled_from([1, 7, None]),
)
def test_exact_sum_has_the_bits_of_fsum(values, others, rows):
    values = np.array(values, dtype=np.float64)
    other = np.array(others[: len(values)], dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(textio, "_BLOCK_ROWS", rows)
        assert outcome(exact_sum, values) == fsum_outcome(values)
        assert outcome(exact_sum, values, other) == fsum_outcome(values, other)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([1e308, 1e308], OverflowError),
        ([math.inf], math.inf.hex()),
        ([math.inf, -math.inf], ValueError),
        ([math.nan], "nan"),
        ([], (0.0).hex()),
        ([1e16, 1.0, -1e16], (1.0).hex()),
        # The largest terms the extraction takes, and the smallest it leaves to fsum.
        ([2.0**1020, 2.0**1020], (2.0**1021).hex()),
        ([2.0**1021], (2.0**1021).hex()),
    ],
)
def test_exact_sum_of_the_edge_cases_is_fsums(values, expected):
    values = np.array(values, dtype=np.float64)
    for args in ((values,), (values, np.ones(len(values)))):
        assert outcome(exact_sum, *args) == fsum_outcome(*args) == expected


def test_exact_sum_over_many_blocks_is_fsums():
    rng = np.random.default_rng(29)
    p = rng.pareto(1.1, 5 * 8192 + 3)
    p /= p.sum()
    q = rng.random(len(p)) * rng.choice([1.0, 1e-12, 1e12], len(p))
    assert outcome(exact_sum, p) == fsum_outcome(p)
    assert outcome(exact_sum, p, q) == fsum_outcome(p, q)


def test_check_probabilities_holds_one_block_at_a_time():
    """10^6 entries as Python floats would take 32 MB; the exact sum holds
    one block of 8,192 entries and its parts."""
    values = np.full(10**6, 1e-6)
    tracemalloc.start()
    try:
        check_probabilities(values, "values")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
