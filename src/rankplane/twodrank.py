"""Rank permutations and the two-dimensional combined rank.

Probabilities become rank indices by stable descending sort (rank 1 is the
largest probability; ties break toward the smaller node index).  The
combined rank orders nodes by their first appearance on the boundary of the
growing square [1..k] x [1..k] in the (pagerank rank, cheirank rank) plane:
a node lands on the boundary at k = max of its two ranks, right-edge
entries (pagerank rank = k) are listed before top-edge entries (cheirank
rank = k), and the corner node of a square counts once, as a right-edge
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping

import numpy as np

from .errors import ContractViolation, ParseError
from .textio import NodeSubset, joined_fields, read_series, write_series


@dataclass(frozen=True)
class RankIndex:
    """A rank permutation and its inverse.

    order[r - 1] is the node holding rank r; position[i] is the (1-based)
    rank of node i.
    """

    kind: str
    order: np.ndarray
    position: np.ndarray

    def __len__(self) -> int:
        return len(self.order)


def rank_indices(values: np.ndarray, kind: str = "rank", tie_key: np.ndarray | None = None) -> RankIndex:
    """Stable descending rank of a score vector.

    tie_key overrides the default node-index tie-break (used when re-ranking
    rows whose original index order is encoded in an existing rank column).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if tie_key is None:
        order = np.argsort(-values, kind="stable")
    else:
        order = np.lexsort((np.asarray(tie_key), -values))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(1, n + 1)
    return RankIndex(kind=kind, order=order.astype(np.int64), position=position)


def two_d_rank(k_index: RankIndex, k_star_index: RankIndex) -> RankIndex:
    """Combined rank from square expansion over two rank permutations.

    Node i first appears on the square boundary at side length
    max(position, position*): on the right edge if position >= position*
    (the corner case included), on the top edge otherwise.  Entry order is
    (side length, right-before-top), which this implements as one lexsort.
    """
    n = len(k_index)
    if len(k_star_index) != n:
        raise ContractViolation(
            f"rank permutations cover {n} and {len(k_star_index)} nodes"
        )
    k = k_index.position
    k_star = k_star_index.position
    entry_side = np.maximum(k, k_star)
    top_edge = (k_star > k).astype(np.int8)
    order = np.lexsort((top_edge, entry_side)).astype(np.int64)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(1, n + 1)
    return RankIndex(kind="rank2d", order=order, position=position)


@dataclass
class RankTable:
    """Per-node ranking record: probabilities plus the three rank columns."""

    names: list[str]
    pagerank: np.ndarray
    cheirank: np.ndarray
    pagerank_rank: np.ndarray
    cheirank_rank: np.ndarray
    rank2d: np.ndarray
    meta: dict = field(default_factory=dict)

    _name_index: dict | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.names)

    @property
    def name_index(self) -> Mapping[str, int]:
        if self._name_index is None:
            self._name_index = {name: i for i, name in enumerate(self.names)}
        return self._name_index

    def names_by(self, column: str) -> list[str]:
        """Node names sorted by one of the rank columns, best rank first."""
        ranks = getattr(self, column)
        return [self.names[i] for i in np.argsort(ranks)]


def _ranked_table(
    names: list[str], pagerank: np.ndarray, cheirank: np.ndarray, meta: dict, ties=(None, None)
) -> RankTable:
    """The table of both probability columns ranked (ties by `ties`, else by row) and combined."""
    k_idx = rank_indices(pagerank, "pagerank_rank", ties[0])
    k_star_idx = rank_indices(cheirank, "cheirank_rank", ties[1])
    rank2d = two_d_rank(k_idx, k_star_idx).position
    return RankTable(names, pagerank, cheirank, k_idx.position, k_star_idx.position, rank2d, meta)


def build_rank_table(
    names: list[str],
    pagerank_values: np.ndarray,
    cheirank_values: np.ndarray,
    meta: dict | None = None,
) -> RankTable:
    """Assemble the full table: both rank permutations plus the combined rank."""
    n = len(names)
    if len(pagerank_values) != n or len(cheirank_values) != n:
        raise ContractViolation("probability vectors do not match the node table")
    pagerank = np.asarray(pagerank_values, dtype=np.float64)
    cheirank = np.asarray(cheirank_values, dtype=np.float64)
    return _ranked_table(list(names), pagerank, cheirank, dict(meta or {}))


def subset_rank(table: RankTable, subset: NodeSubset) -> RankTable:
    """Re-rank a category densely (1..|subset|) by the global probabilities.

    The combined rank is recomputed on the dense sub-ranks, so it depends
    only on how members order among themselves, not on outsiders.  Ties
    follow the parent table's order (its rank columns encode the original
    tie-break).
    """
    if len(subset) == 0:
        raise ContractViolation("subset is empty")
    rows = np.asarray(subset.members, dtype=np.int64)
    if rows.max() >= len(table):
        raise ContractViolation("subset member outside the table")
    meta = dict(table.meta)
    meta.update(subset_label=subset.label, subset_size=len(subset))
    names = [table.names[i] for i in rows]
    ties = (table.pagerank_rank[rows], table.cheirank_rank[rows])
    return _ranked_table(names, table.pagerank[rows], table.cheirank[rows], meta, ties)


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


# The probabilities of a solve sum to 1 but for float rounding, far below
# this bound; a dropped or repeated row moves the sum by its probability.
# The sum is exactly rounded (math.fsum), so the check does not depend on
# the order of the rows.
_SUM_TOL = 1e-9


def read_rank_table(source: str | Path | IO[str]) -> RankTable:
    """Parse a table written by write_rank_table (rows keep file order).

    A table that is not whole is a ParseError: a rank column that is not a
    permutation of 1..N for its N rows, an N other than the header's
    subset_size (for a subset table) or n_nodes, and, in a full table, a
    probability column that does not sum to 1 within _SUM_TOL.
    """
    meta, columns = read_series(source, _TABLE_TYPES, sep="\t")
    names = columns.pop("name")
    if not names:
        raise ParseError("empty rank table file")
    n = len(names)
    for key in ("pagerank_rank", "cheirank_rank", "rank2d"):
        ranks = columns[key]
        if ranks.min() < 1 or ranks.max() > n or np.any(np.bincount(ranks, minlength=n + 1)[1:] != 1):
            raise ParseError(f"{key} is not a permutation of 1..{n}, the table's rows")
    size_key = "subset_size" if "subset_size" in meta else "n_nodes"
    if size_key in meta and meta[size_key] != str(n):
        raise ParseError(f"the table has {n} rows, its header says {size_key}={meta[size_key]}")
    if size_key == "n_nodes":
        for key in ("pagerank", "cheirank"):
            total = math.fsum(columns[key].tolist())
            if not abs(total - 1.0) <= _SUM_TOL:
                raise ParseError(f"{key} sums to {total!r}, not 1 within {_SUM_TOL:g}")
    return RankTable(names=names, meta=meta, **columns)
