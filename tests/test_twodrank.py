"""Combined rank against a naive square-rescan oracle, tables, persistence.

The oracle literally grows squares [1..k] x [1..k] and collects nodes the
first time they land on the boundary — right edge before top edge, corner
once — independent of the vectorized implementation.
"""

import io
import itertools

import numpy as np
import pytest

from rankplane import (
    ContractViolation,
    NodeSubset,
    ParseError,
    RankIndex,
    build_rank_table,
    rank_indices,
    read_rank_table,
    subset_rank,
    two_d_rank,
    write_rank_table,
)


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


def index_from_positions(pos, kind="rank"):
    pos = np.asarray(pos, dtype=np.int64)
    order = np.argsort(pos)
    return RankIndex(kind=kind, order=order, position=pos)


def test_three_node_hand_example():
    # (K, K*): a = (1,2), b = (2,1), c = (3,3)  ->  K2: b, a, c
    k = index_from_positions([1, 2, 3])
    k_star = index_from_positions([2, 1, 3])
    out = two_d_rank(k, k_star)
    np.testing.assert_array_equal(out.position, [2, 1, 3])
    np.testing.assert_array_equal(out.order, [1, 0, 2])


def test_exhaustive_small_against_oracle():
    for n in range(1, 6):
        identity = np.arange(1, n + 1)
        k = index_from_positions(identity)
        for perm in itertools.permutations(range(1, n + 1)):
            k_star = index_from_positions(perm)
            got = two_d_rank(k, k_star).position
            np.testing.assert_array_equal(got, naive_square_scan(identity, perm))


def test_random_permutation_pairs_against_oracle():
    rng = np.random.default_rng(5)
    for n in (17, 120, 503):
        k_pos = rng.permutation(n) + 1
        k_star_pos = rng.permutation(n) + 1
        got = two_d_rank(
            index_from_positions(k_pos), index_from_positions(k_star_pos)
        ).position
        np.testing.assert_array_equal(got, naive_square_scan(k_pos, k_star_pos))


def test_two_d_rank_is_a_permutation():
    rng = np.random.default_rng(9)
    n = 64
    out = two_d_rank(
        index_from_positions(rng.permutation(n) + 1),
        index_from_positions(rng.permutation(n) + 1),
    )
    assert sorted(out.position) == list(range(1, n + 1))
    np.testing.assert_array_equal(out.position[out.order], np.arange(1, n + 1))


def test_two_d_rank_length_mismatch():
    with pytest.raises(ContractViolation):
        two_d_rank(index_from_positions([1, 2]), index_from_positions([1]))


def test_identical_rankings_pass_through():
    pos = np.array([3, 1, 2])
    out = two_d_rank(index_from_positions(pos), index_from_positions(pos))
    np.testing.assert_array_equal(out.position, pos)


# ---- scalar ranking ----------------------------------------------------------


def test_rank_indices_descending():
    idx = rank_indices(np.array([0.1, 0.7, 0.2]))
    np.testing.assert_array_equal(idx.position, [3, 1, 2])
    np.testing.assert_array_equal(idx.order, [1, 2, 0])


def test_rank_indices_ties_break_by_node_index():
    idx = rank_indices(np.array([0.25, 0.5, 0.25]))
    np.testing.assert_array_equal(idx.position, [2, 1, 3])


def test_rank_indices_tie_key_override():
    # same scores, but the tie key reverses the preference
    idx = rank_indices(np.array([0.25, 0.5, 0.25]), tie_key=np.array([9, 0, 1]))
    np.testing.assert_array_equal(idx.position, [3, 1, 2])


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
