"""Top-k overlap and subset window statistics."""

import itertools

import numpy as np
import pytest

from rankplane import (
    ContractViolation,
    NodeSubset,
    OverlapSeries,
    ParseError,
    RankedList,
    load_ranked_list,
    overlap_curve,
    read_overlap_series,
    subset_window_fraction,
    window_overlap,
    write_overlap_series,
)
from rankplane import textio


def names(n, prefix="v"):
    return [f"{prefix}{i}" for i in range(n)]


def subset_of(member_names, label="picked"):
    member_names = list(member_names)
    return NodeSubset(
        label=label,
        members=tuple(range(len(member_names))),
        names=tuple(member_names),
    )


def naive_overlap(a, b, ks):
    return len(set(a[:ks]) & set(b[:ks])) / ks


# ---- overlap_curve at one depth -------------------------------------------------


def fraction_at(a, b, ks):
    """f(ks): the last point of the curve to ks."""
    return overlap_curve(a, b, ks).points[ks - 1][1]


def test_hand_counted_overlap():
    a = RankedList(["x", "y", "z", "u", "v"])
    b = RankedList(["y", "z", "w", "x", "t"])
    assert fraction_at(a, b, 3) == pytest.approx(2 / 3)
    assert fraction_at(a, b, 1) == 0.0
    assert fraction_at(a, b, 4) == pytest.approx(3 / 4)


def test_overlap_extremes():
    a = RankedList(names(10))
    assert fraction_at(a, a, 10) == 1.0
    b = RankedList(names(10, prefix="w"))
    assert fraction_at(a, b, 10) == 0.0
    # full-depth overlap of a permutation is always 1
    rng = np.random.default_rng(8)
    c = RankedList([a[i] for i in rng.permutation(10)])
    assert fraction_at(a, c, 10) == 1.0


def test_overlap_depth_validation():
    a = RankedList(names(5))
    b = RankedList(names(5))
    with pytest.raises(ContractViolation):
        overlap_curve(a, b, 0)
    with pytest.raises(ContractViolation):
        overlap_curve(a, b, 6)


def test_ranked_list_rejects_duplicates():
    with pytest.raises(ContractViolation):
        RankedList(["a", "b", "a"])


# ---- overlap_curve ---------------------------------------------------------------


def test_curve_matches_naive_recomputation():
    rng = np.random.default_rng(21)
    pool = names(130)
    for _ in range(20):
        a = [pool[i] for i in rng.permutation(130)[:100]]
        b = [pool[i] for i in rng.permutation(130)[:100]]
        series = overlap_curve(RankedList(a), RankedList(b), 100)
        assert series.kind == "cumulative_f"
        assert len(series.points) == 100
        for ks, f in series.points:
            assert f == pytest.approx(naive_overlap(a, b, int(ks)), abs=1e-12)


def test_curve_is_symmetric_and_hit_count_monotone():
    rng = np.random.default_rng(22)
    pool = names(60)
    for _ in range(50):
        a = RankedList([pool[i] for i in rng.permutation(60)[:40]])
        b = RankedList([pool[i] for i in rng.permutation(60)[:40]])
        fwd = overlap_curve(a, b, 40)
        rev = overlap_curve(b, a, 40)
        assert fwd.points == rev.points
        hits = [ks * f for ks, f in fwd.points]
        assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(hits, hits[1:]))
        assert all(0.0 <= f <= 1.0 for _, f in fwd.points)


def test_curve_on_reversed_list_ends_at_one():
    a = RankedList(names(10))
    b = RankedList(list(reversed(names(10))))
    series = overlap_curve(a, b, 10)
    assert series.points[-1] == (10.0, 1.0)
    # at half depth the two reversed prefixes share nothing
    assert series.points[4] == (5.0, 0.0)


def test_curve_depth_cap():
    a = RankedList(names(10))
    b = RankedList(names(10))
    series = overlap_curve(a, b, ks_max=4)
    assert [ks for ks, _ in series.points] == [1, 2, 3, 4]
    with pytest.raises(ContractViolation):
        overlap_curve(a, b, ks_max=11)


# ---- window_overlap ---------------------------------------------------------------


def test_identical_lists_have_unit_windows():
    a = RankedList(names(100))
    series = window_overlap(a, a, window=20)
    assert series.kind == "window_fw"
    assert series.window == 20
    assert [x for x, _ in series.points] == [10.0, 30.0, 50.0, 70.0, 90.0]
    assert all(f == 1.0 for _, f in series.points)


def test_shifted_lists_share_no_windows():
    a = RankedList(names(40))
    b = RankedList(names(40)[20:] + names(40)[:20])
    series = window_overlap(a, b, window=20)
    assert all(f == 0.0 for _, f in series.points)


def test_hand_counted_windows():
    base = names(60)
    b = list(base)
    # first window: swap 10 of the first 20 out beyond the window boundary
    b[0:10], b[20:30] = b[20:30], b[0:10]
    # second window now holds base[0:10] + base[30:40]: overlap 10/20 with base[20:40]
    # third window untouched
    series = window_overlap(RankedList(base), RankedList(b), window=20)
    assert [(x, round(f, 6)) for x, f in series.points] == [
        (10.0, 0.5),
        (30.0, 0.5),
        (50.0, 1.0),
    ]


def test_partial_trailing_window_is_dropped():
    a = RankedList(names(50))
    series = window_overlap(a, a, window=20)
    assert len(series.points) == 2  # positions 40..49 never form a full window


def test_window_validation():
    a = RankedList(names(10))
    with pytest.raises(ContractViolation):
        window_overlap(a, a, window=0)
    with pytest.raises(ContractViolation):
        window_overlap(a, a, window=11)
    with pytest.raises(ContractViolation):
        window_overlap(a, RankedList(names(9)), window=10)
    # unequal lengths are fine: windows tile the shorter list
    series = window_overlap(a, RankedList(names(9)), window=3)
    assert len(series.points) == 3


# ---- subset_window_fraction ---------------------------------------------------------


def test_whole_ranking_as_subset_fills_every_window():
    ranking = RankedList(names(80))
    series = subset_window_fraction(ranking, subset_of(names(80)), window=16)
    assert series.kind == "subset_fw"
    assert all(f == 1.0 for _, f in series.points)


def test_singleton_subset_hits_one_window():
    ranking = RankedList(names(100))
    series = subset_window_fraction(ranking, subset_of(["v37"]), window=20)
    fs = [f for _, f in series.points]
    assert fs == [0.0, 1 / 20, 0.0, 0.0, 0.0]


def test_subset_counts_tile_exactly():
    # when windows tile the ranking, window sums recover the subset size
    # and the mean fraction is |subset| / depth
    rng = np.random.default_rng(31)
    ranking = RankedList(names(754))
    members = [ranking[i] for i in rng.permutation(754)[:193]]
    window = 26  # 29 windows of 26 cover all 754 positions
    series = subset_window_fraction(ranking, subset_of(members), window=window)
    assert len(series.points) == 29
    hits = [round(f * window) for _, f in series.points]
    assert sum(hits) == 193
    mean = sum(f for _, f in series.points) / len(series.points)
    assert mean == pytest.approx(193 / 754, abs=1e-12)


def test_subset_must_belong_to_the_ranking():
    ranking = RankedList(names(30))
    with pytest.raises(ContractViolation) as err:
        subset_window_fraction(ranking, subset_of(["v3", "ghost"]), window=10)
    assert "ghost" in str(err.value)
    with pytest.raises(ContractViolation):
        subset_window_fraction(ranking, subset_of([]), window=10)
    with pytest.raises(ContractViolation):
        subset_window_fraction(ranking, subset_of(["v1"]), window=31)


# ---- files ---------------------------------------------------------------------------


def test_ranked_list_file_round_trip(tmp_path):
    path = tmp_path / "ranking.txt"
    path.write_text("# winners first\nalpha\nbeta\n\ngamma\n")
    ranking = load_ranked_list(path)
    assert list(ranking) == ["alpha", "beta", "gamma"]


def test_ranked_list_file_keeps_a_hash_name_after_the_first_name(tmp_path):
    path = tmp_path / "ranking.txt"
    path.write_text("# leading comment\nx\n#y\n")
    assert list(load_ranked_list(path)) == ["x", "#y"]


def test_ranked_list_file_rejects_duplicates(tmp_path):
    path = tmp_path / "ranking.txt"
    path.write_text("alpha\nbeta\nalpha\n")
    with pytest.raises(ParseError) as err:
        load_ranked_list(path)
    assert "line 3" in str(err.value)


def test_ranked_list_file_rejects_empty(tmp_path):
    path = tmp_path / "ranking.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        load_ranked_list(path)


def test_overlap_series_round_trip(tmp_path, monkeypatch):
    a = RankedList(names(64))
    b = RankedList(names(64)[32:] + names(64)[:32])
    for block_chars, series in itertools.product(
        (16, 1 << 16),  # 16: a line or two per block, so rows take the block path
        (
            overlap_curve(a, b, 64),
            window_overlap(a, b, window=8),
            subset_window_fraction(a, subset_of(["v5", "v45"]), window=8),
        ),
    ):
        monkeypatch.setattr(textio, "_BLOCK_CHARS", block_chars)
        path = tmp_path / f"{series.kind}.csv"
        write_overlap_series(series, path)
        back = read_overlap_series(path)
        assert back.kind == series.kind
        assert back.window == series.window
        assert back.points == series.points


def test_series_validation():
    with pytest.raises(ContractViolation):
        OverlapSeries("sideways", ((1, 0.5),))
    with pytest.raises(ContractViolation):
        OverlapSeries("cumulative_f", ((1, 1.5),))
