"""Comparison metrics between ranked name lists.

Three flavours: the cumulative overlap fraction f(ks) of two lists' top
segments, the windowed overlap f_w over non-overlapping fixed-size windows,
and the window fraction of members of a designated subset within a single
list.  Matching is exact string equality; lists must be pre-canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING

from .errors import ContractViolation, ParseError
from .textio import name_lines, open_text, read_series, write_series

if TYPE_CHECKING:
    from .graph import NodeSubset

SERIES_KINDS = ("cumulative_f", "window_fw", "subset_fw")


@dataclass(frozen=True)
class RankedList:
    """Ordered distinct names, best rank first."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ContractViolation("ranked list contains duplicate names")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> str:
        return self.names[i]


@dataclass(frozen=True)
class OverlapSeries:
    """(x, f) points of one overlap metric; every f lies in [0, 1]."""

    kind: str
    points: tuple[tuple[float, float], ...]
    window: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in SERIES_KINDS:
            raise ContractViolation(f"unknown series kind {self.kind!r}")
        for x, f in self.points:
            if not 0.0 <= f <= 1.0:
                raise ContractViolation(f"overlap fraction {f!r} at x={x!r} outside [0, 1]")

    def fractions(self) -> list[float]:
        return [f for _, f in self.points]


def load_ranked_list(source: str | Path | IO[str]) -> RankedList:
    """One name per line, best rank first; '#' lines before the first name
    are comments."""
    names: list[str] = []
    seen: set[str] = set()
    with open_text(source) as stream:
        for line_no, name in name_lines(stream):
            if name in seen:
                raise ParseError(f"duplicate name {name!r}", line_no)
            seen.add(name)
            names.append(name)
    if not names:
        raise ParseError("ranked list is empty")
    return RankedList(names=tuple(names))


def _check_depth(a: RankedList, b: RankedList, depth: int, what: str) -> None:
    limit = min(len(a), len(b))
    if depth < 1:
        raise ContractViolation(f"{what} must be at least 1, got {depth}")
    if depth > limit:
        raise ContractViolation(
            f"{what} {depth} exceeds the shorter list's length {limit}"
        )


def overlap_curve(a: RankedList, b: RankedList, ks_max: int) -> OverlapSeries:
    """f(ks) for ks = 1..ks_max, built with one set update per step."""
    _check_depth(a, b, ks_max, "ks_max")
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    common = 0
    points: list[tuple[float, float]] = []
    for i in range(ks_max):
        x, y = a[i], b[i]
        if x == y:
            common += 1
        else:
            if x in seen_b:
                common += 1
            if y in seen_a:
                common += 1
        seen_a.add(x)
        seen_b.add(y)
        points.append((float(i + 1), common / (i + 1)))
    return OverlapSeries(kind="cumulative_f", points=tuple(points))


def window_overlap(a: RankedList, b: RankedList, window: int = 20) -> OverlapSeries:
    """Shared-name fraction inside aligned non-overlapping rank windows.

    Windows tile the shorter list; a trailing partial window is dropped.
    Each point sits at the middle of its window interval.
    """
    _check_depth(a, b, window, "window")
    depth = min(len(a), len(b))
    points: list[tuple[float, float]] = []
    for start in range(0, depth - window + 1, window):
        seg_a = set(a.names[start : start + window])
        seg_b = set(b.names[start : start + window])
        points.append((start + window / 2.0, len(seg_a & seg_b) / window))
    return OverlapSeries(kind="window_fw", points=tuple(points), window=window)


def subset_window_fraction(
    ranking: RankedList, s: NodeSubset, window: int = 20
) -> OverlapSeries:
    """Fraction of subset members inside each rank window of one list.

    Requires every subset member to appear in the ranking.  When the windows
    tile the list exactly, the mean over windows equals |s| / |ranking|.
    """
    if len(s.names) == 0:
        raise ContractViolation("subset is empty")
    _check_depth(ranking, ranking, window, "window")
    members = set(s.names)
    missing = members - set(ranking.names)
    if missing:
        preview = ", ".join(sorted(missing)[:5])
        raise ContractViolation(
            f"{len(missing)} subset member(s) not present in the ranking: {preview}"
        )
    points: list[tuple[float, float]] = []
    for start in range(0, len(ranking) - window + 1, window):
        hits = sum(1 for name in ranking.names[start : start + window] if name in members)
        points.append((start + window / 2.0, hits / window))
    return OverlapSeries(kind="subset_fw", points=tuple(points), window=window)


def write_overlap_series(series: OverlapSeries, target: str | Path | IO[str]) -> None:
    window = {} if series.window is None else {"window": series.window}
    columns = {"x": [x for x, _ in series.points], "f": series.fractions()}
    write_series(columns, target, {"kind": series.kind, **window})


def read_overlap_series(source: str | Path | IO[str]) -> OverlapSeries:
    meta, columns = read_series(source, {"x": "d", "f": "d"})
    kind = meta.get("kind", "")
    if kind not in SERIES_KINDS:
        raise ParseError(f"missing or unknown series kind {kind!r}")
    try:
        window = int(meta["window"]) if "window" in meta else None
    except ValueError as exc:
        raise ParseError(f"bad overlap series value: {exc}") from None
    points = tuple(zip(columns["x"].tolist(), columns["f"].tolist()))
    return OverlapSeries(kind=kind, points=points, window=window)
