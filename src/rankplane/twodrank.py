"""Rank positions and the two-dimensional combined rank.

A ranking is the int64 array of each node's 1-based rank, by stable
descending sort of its probabilities (rank 1 is the largest; ties break
toward the smaller node index).  The combined rank orders nodes by their
first appearance on the boundary of the growing square [1..k] x [1..k] in
the (pagerank rank, cheirank rank) plane: a node lands on the boundary at
k = max of its two ranks, right-edge entries (pagerank rank = k) are listed
before top-edge entries (cheirank rank = k), and the corner node of a
square counts once, as a right-edge entry.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .errors import ContractViolation, ParseError
from .textio import NodeSubset, joined_fields, read_series, row_blocks, write_series

# The probabilities of a solve sum to 1 but for float rounding, far below
# this bound; a dropped or repeated row moves the sum by its probability.
# The sum is exactly rounded (exact_sum, the bits of math.fsum), so the
# check does not depend on the order of the entries.
INPUT_SUM_TOL = 1e-9


def exact_sum(values: np.ndarray, other: np.ndarray | None = None) -> float:
    """The exactly rounded sum of values, or of values * other: the bits
    math.fsum gives for the same terms, taken one block of entries at a time.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008): with every term below 2**e in magnitude and 2**m > n + 1, each
    sigma of the ladder 2**(e + m), times 2**(m - 53) a step, splits the rests
    exactly into rounded = (sigma + rest) - sigma, whose block sum is exact in
    float64 (on the subnormal grid too), and rest - rounded.  math.fsum of
    those sums rounds once.  Terms not finite, or too large for the ladder's
    top, go to math.fsum itself, which gives their value or exception."""
    n = len(values)
    top = _largest(values) if other is None else _largest(values) * _largest(other)
    m, e = (n + 1).bit_length(), math.frexp(top)[1]
    if not (math.isfinite(top) and e + m <= 1023):
        terms = (_terms(values, other, rows).tolist() for rows in row_blocks(n))
        return math.fsum(itertools.chain.from_iterable(terms))
    parts = []
    for rows in row_blocks(n):
        rest, sigma = _terms(values, other, rows), math.ldexp(1.0, e + m)
        while rest.any():
            rounded = sigma + rest
            rounded -= sigma
            parts.append(float(rounded.sum()))
            rest = rest - rounded
            sigma *= 2.0 ** (m - 53)
    return math.fsum(parts)


def _largest(values: np.ndarray) -> float:
    """The largest magnitude in values (0 when empty), NaN if any is NaN."""
    return float(np.maximum(values.max(initial=0.0), -values.min(initial=0.0)))


def _terms(values: np.ndarray, other: np.ndarray | None, rows: slice) -> np.ndarray:
    if other is None:
        return values[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, or beyond float: fsum's to judge
        return values[rows] * other[rows]


def check_probabilities(values, what: str, tol: float | None = INPUT_SUM_TOL) -> np.ndarray:
    """values as float64, or ContractViolation unless every entry lies in
    [0, 1] (which NaN and +-inf fail) and, where tol is not None, the
    exactly rounded sum lies within tol of 1."""
    values = np.asarray(values, dtype=np.float64)
    if tol is not None:
        try:
            total = exact_sum(values)
        except (OverflowError, ValueError):  # inf and -inf, or a sum beyond float
            raise ContractViolation(f"{what} does not sum to a finite number") from None
        if not abs(total - 1.0) <= tol:
            raise ContractViolation(f"{what} sums to {total!r}, not 1 within {tol:g}")
    if len(values) and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ContractViolation(f"{what} has an entry outside [0, 1]")
    return values


# The header values the package writes besides alpha and alpha_star: the
# test each one's text must pass in a table of n rows, which NaN fails.
_HEADER = {
    "tol": lambda text, n: 0.0 < float(text) < math.inf,
    "max_iter": lambda text, n: text.isascii() and text.isdigit() and float(text) >= 1,
    "n_nodes": lambda text, n: text.isascii() and text.isdigit() and float(text) >= n,
    "graph_hash": lambda text, n: re.fullmatch("[0-9a-f]{16}", text) is not None,
}


def _positions(order: np.ndarray) -> np.ndarray:
    """The 1-based positions of a permutation: the inverse of order."""
    position = np.empty(len(order), dtype=np.int64)
    position[order] = np.arange(1, len(order) + 1)
    return position


def rank_positions(values: np.ndarray) -> np.ndarray:
    """Stable descending rank positions of a score vector (ties by index)."""
    return _positions(np.argsort(-np.asarray(values, dtype=np.float64), kind="stable"))


def _entry_key(k: np.ndarray, k_star: np.ndarray) -> np.ndarray:
    """Each node's square-entry key, 2 * max(k, k_star) + [k_star > k]: one
    int64 that orders (side length, right-before-top), built in place."""
    key = np.maximum(k, k_star, dtype=np.int64)
    key *= 2
    key += k_star > k
    return key


def two_d_rank(k: np.ndarray, k_star: np.ndarray) -> np.ndarray:
    """Combined rank positions from square expansion over two rankings.

    Node i first appears on the square boundary at side length
    max(k[i], k_star[i]): on the right edge if k[i] >= k_star[i] (the
    corner case included), on the top edge otherwise.  Entry order is
    (side length, right-before-top): the stable rising order of one key,
    _entry_key's 2 * max(k[i], k_star[i]) + [k_star[i] > k[i]].
    """
    k, k_star = np.asarray(k), np.asarray(k_star)
    if len(k_star) != len(k):
        raise ContractViolation(f"rank permutations cover {len(k)} and {len(k_star)} nodes")
    return _positions(np.argsort(_entry_key(k, k_star), kind="stable"))


@dataclass
class RankTable:
    """Per-node ranking record: probabilities plus the three rank columns.

    However it is made, a table is whole or refused with ContractViolation:
    its columns become float64 and int64 arrays of one entry per name (copied
    only where they are not already), and __post_init__ checks every other
    guarantee README's "File formats" lists, the header values of _HEADER too.
    """

    names: list[str]
    pagerank: np.ndarray
    cheirank: np.ndarray
    pagerank_rank: np.ndarray
    cheirank_rank: np.ndarray
    rank2d: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.meta, Mapping):
            raise ContractViolation(f"the table header is not a mapping: {self.meta!r}")
        n, meta = len(self.names), {k: str(v) for k, v in self.meta.items()}
        # Sorted hashes take 8 bytes a name, a set about 40; equal hashes go to the set.
        hashes = np.sort(np.fromiter(map(hash, self.names), np.int64, n))
        distinct = not np.any(hashes[1:] == hashes[:-1]) or len(set(self.names)) == n
        for key, code in list(_TABLE_TYPES.items())[1:]:
            setattr(self, key, np.asarray(getattr(self, key)).astype(code, copy=False))
            if getattr(self, key).shape != (n,):
                raise ContractViolation(f"{key} does not hold one entry per name")
        for key in ("pagerank_rank", "cheirank_rank", "rank2d"):
            ranks = getattr(self, key)
            if not n or ranks.min() < 1 or ranks.max() > n or np.any(np.bincount(ranks)[1:] != 1):
                raise ContractViolation(f"{key} is not a permutation of 1..{n}, the table's rows")
        size_key = "subset_size" if "subset_size" in meta else "n_nodes"
        if size_key in meta and meta[size_key] != str(n):
            raise ContractViolation(f"the table has {n} rows, its header says {size_key}={meta[size_key]}")
        for key in ("pagerank", "cheirank"):
            check_probabilities(getattr(self, key), key, INPUT_SUM_TOL if size_key == "n_nodes" else None)
        for key in ("pagerank", "cheirank"):
            by_rank = np.empty(n)
            by_rank[getattr(self, f"{key}_rank") - 1] = getattr(self, key)
            if np.any(by_rank[1:] > by_rank[:-1]):
                raise ContractViolation(f"{key}_rank does not follow the {key} column")
        # Two nodes never share a key, so the square order is one strict rise.
        by_rank2d = np.empty(n, dtype=np.int64)
        by_rank2d[self.rank2d - 1] = _entry_key(self.pagerank_rank, self.cheirank_rank)
        if np.any(by_rank2d[1:] <= by_rank2d[:-1]):
            raise ContractViolation("rank2d is not the square order of pagerank_rank and cheirank_rank")
        try:
            damping = {k: float(meta[k]) for k in ("alpha", "alpha_star") if k in meta}
        except ValueError as exc:
            raise ContractViolation(f"bad damping factor in the table header: {exc}") from None
        if not all(0.0 < d <= 1.0 for d in damping.values()):  # written so that NaN fails it
            raise ContractViolation(f"bad damping factor in the table header: {damping}")
        for key, test in _HEADER.items():
            try:
                if key in meta and not test(meta[key], n):
                    raise ValueError
            except ValueError:  # float() cannot read it, or it fails the test
                raise ContractViolation(f"bad {key} in the table header: {meta[key]}") from None
        if not distinct:
            repeated = next(name for name, count in Counter(self.names).items() if count > 1)
            raise ContractViolation(f"node name {repeated!r} is on more than one row")

    def __len__(self) -> int:
        return len(self.names)

    def names_by(self, column: str) -> list[str]:
        """Node names sorted by one of the rank columns, best rank first."""
        ranks = getattr(self, column)
        return [self.names[i] for i in np.argsort(ranks)]


def build_rank_table(
    names: list[str],
    pagerank_values: np.ndarray,
    cheirank_values: np.ndarray,
    meta: dict | None = None,
) -> RankTable:
    """Assemble the full table: both rank permutations plus the combined rank."""
    k, k_star = rank_positions(pagerank_values), rank_positions(cheirank_values)
    return RankTable(list(names), pagerank_values, cheirank_values, k, k_star,
                     two_d_rank(k, k_star), dict(meta or {}))


def subset_rank(table: RankTable, subset: NodeSubset) -> RankTable:
    """Re-rank a category densely (1..|subset|) by the global probabilities.

    The combined rank is recomputed on the dense sub-ranks, so it depends
    only on how members order among themselves, not on outsiders.  Members
    keep their order in the parent's rank columns, which follow its
    probabilities in every RankTable; the result is checked like every table.
    """
    if len(subset) == 0:
        raise ContractViolation("subset is empty")
    rows = np.asarray(subset.members, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= len(table) or len(np.unique(rows)) != len(rows):
        raise ContractViolation("subset member outside the table or repeated")
    meta = dict(table.meta)
    meta.update(subset_label=subset.label, subset_size=len(subset))
    names = [table.names[i] for i in rows]
    k = _positions(np.argsort(table.pagerank_rank[rows]))
    k_star = _positions(np.argsort(table.cheirank_rank[rows]))
    return RankTable(
        names, table.pagerank[rows], table.cheirank[rows], k, k_star, two_d_rank(k, k_star), meta
    )


# ---- persistence -----------------------------------------------------------

# The rank table is a tab-separated column file (textio.write_series).
_TABLE_TYPES = dict(
    name="U", pagerank="d", pagerank_rank="q", cheirank="d", cheirank_rank="q", rank2d="q"
)


def write_rank_table(table: RankTable, target: str | Path | IO[str]) -> None:
    """Rows sorted by pagerank rank; the '#' header line carries the metadata,
    sorted by key.  A name holding a tab, CR or LF, or one a path cannot hold
    in UTF-8, is refused before anything is written."""
    joined_fields(table.names, target)
    order = np.argsort(table.pagerank_rank)
    names = list(map(table.names.__getitem__, order.tolist()))
    columns = {k: names if k == "name" else getattr(table, k)[order] for k in _TABLE_TYPES}
    meta = {k: table.meta[k] for k in sorted(table.meta)}
    write_series(columns, target, meta, sep="\t")


def read_rank_table(source: str | Path | IO[str]) -> RankTable:
    """Parse a table written by write_rank_table (rows keep file order).
    An empty file, or a table RankTable refuses, is a ParseError."""
    meta, columns = read_series(source, _TABLE_TYPES, sep="\t")
    names = columns.pop("name")
    if not names:
        raise ParseError("empty rank table file")
    try:
        return RankTable(names=names, meta=meta, **columns)
    except ContractViolation as exc:
        raise ParseError(str(exc)) from None
