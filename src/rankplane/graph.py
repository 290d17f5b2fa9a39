"""Directed multigraph storage, edge-list ingestion, and degree statistics.

The graph is immutable after construction: a CSR adjacency (row = source,
column = target, value = link multiplicity) plus a dense node-id table in
first-appearance order.  All ranking code operates on node indices; names
only matter at the file boundary.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping

import numpy as np

from .errors import ContractViolation, ParseError
from .textio import (
    COMMENT_CHAR,
    joined_fields,
    line_blocks,
    name_lines,
    open_text,
    row_blocks,
    split_block,
    tsv_block,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class IngestStats:
    """What the loader saw: raw records vs. the merged graph."""

    lines: int
    edges: int
    self_loops: int
    duplicates_merged: int


@dataclass(frozen=True)
class DegreeHistogram:
    """Map degree -> number of nodes with that degree (degree-0 included)."""

    direction: str  # "in" | "out"
    weighted: bool
    counts: Mapping[int, int]

    def total_nodes(self) -> int:
        return sum(self.counts.values())


class DirectedGraph:
    """Immutable directed multigraph with per-edge multiplicities.

    `adj` is canonical CSR: sorted indices, duplicate (source, target)
    pairs merged by summing multiplicities, every multiplicity >= 1.
    Self-loops are kept; they participate in degree sums and column
    normalization like any other edge.
    """

    def __init__(self, names: list[str], adj: sp.csr_matrix):
        n = len(names)
        if adj.shape != (n, n):
            raise ContractViolation(f"adjacency shape {adj.shape} does not match {n} names")
        self.names = names
        self.adj = adj
        self.ingest: IngestStats | None = None  # set by load_edge_list
        self._name_index: dict[str, int] | None = None
        self._out_weight: np.ndarray | None = None
        self._transpose: sp.csr_matrix | None = None  # invert(self).adj
        self._content_hash: str | None = None

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, names: list[str], src: np.ndarray, dst: np.ndarray, mult: np.ndarray
    ) -> "DirectedGraph":
        """Build the canonical CSR from parallel edge arrays (duplicates merged)."""
        # Imported in the two constructors, the only places a sparse matrix is
        # built, so that the commands that only read rank tables or name lists
        # start without it.
        import scipy.sparse as sp

        n = len(names)
        mult = np.asarray(mult, dtype=np.int64)
        if mult.size and np.any(mult <= 0):
            raise ContractViolation("every edge multiplicity must be >= 1")
        # Merged int64 multiplicities cannot wrap once the total fits.  A float64
        # total below 2**62 is too far from the bound to hide one above it.
        if mult.sum(dtype=np.float64) >= 2.0**62 and sum(mult.tolist()) > _MAX_MULTIPLICITY:
            raise ContractViolation("the total edge weight exceeds 2**63 - 1")
        adj = sp.coo_matrix(
            (mult, (np.asarray(src), np.asarray(dst))), shape=(n, n)
        ).tocsr()
        adj.sum_duplicates()
        adj.sort_indices()
        return cls(names, adj)

    @classmethod
    def from_csr(
        cls, names: list[str], indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> "DirectedGraph":
        """Wrap arrays that already are canonical CSR, without copying them.

        The caller guarantees the form: rows ascending, each row's columns
        ascending and distinct, every multiplicity >= 1.
        """
        import scipy.sparse as sp

        n = len(names)
        adj = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        adj.has_canonical_format = True
        return cls(names, adj)

    # ---- basic queries ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def name_index(self) -> dict[str, int]:
        if self._name_index is None:
            self._name_index = {name: i for i, name in enumerate(self.names)}
        return self._name_index

    @property
    def total_edge_weight(self) -> int:
        return int(self.adj.data.sum()) if self.adj.nnz else 0

    @property
    def n_edges(self) -> int:
        """Distinct (source, target) pairs."""
        return self.adj.nnz

    def out_weight(self) -> np.ndarray:
        """Multiplicity-weighted out-degree per node (float64)."""
        if self._out_weight is None:
            self._out_weight = np.asarray(self.adj.sum(axis=1), dtype=np.float64).ravel()
        return self._out_weight

    def in_weight(self) -> np.ndarray:
        return np.bincount(
            self.adj.indices, weights=self.adj.data, minlength=self.n_nodes
        )

    def self_loop_count(self) -> int:
        return int(np.count_nonzero(self.adj.diagonal()))

    def same_structure(self, other: "DirectedGraph") -> bool:
        """Structural equality: same node names and the same merged edge
        multiset between them.

        Internal numbering is an artifact of file appearance order, so it is
        factored out: the graphs are compared under the name correspondence.
        """
        if self.names == other.names:
            return (
                self.adj.shape == other.adj.shape
                and np.array_equal(self.adj.indptr, other.adj.indptr)
                and np.array_equal(self.adj.indices, other.adj.indices)
                and np.array_equal(self.adj.data, other.adj.data)
            )
        if sorted(self.names) != sorted(other.names):
            return False
        perm = np.asarray([other.name_index[name] for name in self.names])
        remapped = other.adj[perm][:, perm]
        return self.adj.nnz == remapped.nnz and (self.adj != remapped).nnz == 0

    def content_hash(self) -> str:
        """Stable hex digest of the node table plus canonical CSR arrays,
        computed once per graph."""
        if self._content_hash is None:
            h = hashlib.sha256()
            h.update(str(self.n_nodes).encode())
            h.update(b"\x00".join(name.encode("utf-8") for name in self.names))
            for arr in (self.adj.indptr, self.adj.indices, self.adj.data):
                h.update(arr.astype(np.int64, copy=False))
            self._content_hash = h.hexdigest()[:16]
        return self._content_hash

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(nodes={self.n_nodes}, edges={self.n_edges}, "
            f"weight={self.total_edge_weight})"
        )


def invert(g: DirectedGraph) -> DirectedGraph:
    """Reverse every link: edge (i -> j, m) becomes (j -> i, m).

    The result shares g's node table and arrays: its adjacency is g's
    transpose, built on first use and kept on g, and its own transpose is
    g.adj, so invert(invert(g)).adj is g.adj and no second copy is made.
    """
    if g._transpose is None:
        g._transpose = g.adj.T.tocsr()
        g._transpose.sort_indices()
    inverse = DirectedGraph(g.names, g._transpose)
    inverse._transpose = g.adj
    return inverse


def degree_distribution(g: DirectedGraph, direction: str, weighted: bool = True) -> DegreeHistogram:
    """Histogram of in- or out-degrees over all nodes.

    By default an edge of multiplicity m contributes m (consistent with the
    stochastic-matrix column weights); weighted=False counts distinct
    neighbors instead.
    """
    if direction not in ("in", "out"):
        raise ContractViolation(f"direction must be 'in' or 'out', got {direction!r}")
    if weighted:
        degrees = np.asarray(g.adj.sum(axis=1 if direction == "out" else 0, dtype=np.int64)).ravel()
    elif direction == "out":
        degrees = np.diff(g.adj.indptr).astype(np.int64)
    else:
        degrees = np.bincount(g.adj.indices, minlength=g.n_nodes).astype(np.int64)
    values, counts = np.unique(degrees, return_counts=True)
    return DegreeHistogram(
        direction=direction,
        weighted=weighted,
        counts={int(k): int(c) for k, c in zip(values, counts)},
    )


# ---- edge-list format ------------------------------------------------------
#
# UTF-8 text, one edge per line: "source<TAB>target[<TAB>multiplicity]".
# Missing multiplicity means 1.  Lines starting with '#' are comments;
# blank lines are ignored.  Names are trimmed of surrounding whitespace.

# Multiplicities are stored as int64.  The bulk parser converts at most
# 18 digits, which cannot overflow; longer ones go to the per-line parser.
_MAX_MULTIPLICITY = 2**63 - 1
_BULK_MAX_DIGITS = 18


def _bulk_edges(lines: list[str], index: dict[str, int], ends: array, mult: array) -> bool:
    """Parse a block of plain three-field edge lines in one pass.

    Returns False, having changed nothing, when any line needs the per-line
    parser: a comment, a blank line, a two-field row, an empty or padded
    name, or a multiplicity that is zero or not 1-18 ASCII digits.
    """
    tokens = split_block(lines, 3)
    if tokens is None:
        return False
    sources, targets, counts = tokens[0:-1:4], tokens[1::4], tokens[2::4]
    digits = "".join(counts)
    if not (
        digits.isascii()
        and digits.isdigit()
        and all(counts)
        and max(map(len, counts)) <= _BULK_MAX_DIGITS
        and all(sources)
        and all(targets)
        and list(map(str.strip, sources)) == sources
        and list(map(str.strip, targets)) == targets
    ):
        return False
    values = np.array(counts, dtype=np.int64)
    if not values.all():
        return False
    names = [""] * (2 * len(sources))
    names[0::2] = sources
    names[1::2] = targets
    intern = index.setdefault
    ends.extend([intern(name, len(index)) for name in names])
    mult.frombytes(values.tobytes())
    return True


def _parse_edge_lines(
    lines: list[str], first_line_no: int, index: dict[str, int], ends: array, mult: array
) -> None:
    """Parse edge lines one at a time: every form the format allows, and the
    first malformed line reported by its number."""

    def intern(name: str, line_no: int) -> int:
        name = name.strip()
        if not name:
            raise ParseError("empty node name", line_no)
        return index.setdefault(name, len(index))

    for line_no, raw in enumerate(lines, start=first_line_no):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith(COMMENT_CHAR):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError(
                f"expected 2 or 3 tab-separated fields, got {len(fields)}", line_no
            )
        s = intern(fields[0], line_no)
        t = intern(fields[1], line_no)
        if len(fields) == 3:
            text = fields[2].strip()
            if not text.isdecimal() or not 0 < (m := int(text)) <= _MAX_MULTIPLICITY:
                raise ParseError(
                    f"multiplicity must be a positive integer below 2**63, got {text!r}",
                    line_no,
                )
        else:
            m = 1
        ends.append(s)
        ends.append(t)
        mult.append(m)


def load_edge_list(source: str | Path | IO[str]) -> DirectedGraph:
    """Parse an edge list into a graph with merged multiplicities.

    Node indices are assigned in first-appearance order (source before
    target within a line), which makes repeated runs on the same file
    deterministic.
    """
    index: dict[str, int] = {}
    ends = array("q")  # source and target index of every record, interleaved
    mult = array("q")
    with open_text(source) as stream:
        for line_no, lines in line_blocks(stream):
            if not _bulk_edges(lines, index, ends, mult):
                _parse_edge_lines(lines, line_no, index, ends, mult)

    records = len(mult)
    if records == 0:
        raise ParseError("empty edge list: no edge records found")

    pairs = np.frombuffer(ends, dtype=np.int64).reshape(records, 2)
    g = DirectedGraph.from_edges(
        list(index), pairs[:, 0], pairs[:, 1], np.frombuffer(mult, dtype=np.int64)
    )
    g.ingest = IngestStats(
        lines=records,
        edges=g.n_edges,
        self_loops=g.self_loop_count(),
        duplicates_merged=records - g.n_edges,
    )
    return g


def write_edge_list(g: DirectedGraph, target: str | Path | IO[str]) -> None:
    """Serialize in canonical CSR order; reloading reproduces the graph.

    Refused before anything is written: a name that is empty, padded or holds
    a tab, CR or LF, and an edge source named '#…', whose line is a comment.
    """
    names = g.names
    indptr, indices, data = g.adj.indptr, g.adj.indices, g.adj.data
    text = joined_fields(names)
    if not (names and all(names) and list(map(str.strip, names)) == names):
        raise ContractViolation("no node, or a node name that is empty or padded")
    if "\n" + COMMENT_CHAR in "\n" + text:
        for i in np.flatnonzero(np.diff(indptr)).tolist():
            if names[i].startswith(COMMENT_CHAR):
                raise ContractViolation(f"edge source {names[i]!r} would be a comment line")
    with open_text(target, "w") as out:
        out.write(f"{COMMENT_CHAR} directed edge list: source\ttarget\tmultiplicity\n")
        for rows in row_blocks(g.adj.nnz):
            sources = np.searchsorted(indptr, np.arange(rows.start, rows.stop), side="right") - 1
            out.write(
                tsv_block(
                    len(sources),
                    map(names.__getitem__, sources.tolist()),
                    map(names.__getitem__, indices[rows].tolist()),
                    map(str, data[rows].tolist()),
                )
            )


# ---- node subsets ----------------------------------------------------------


@dataclass(frozen=True)
class NodeSubset:
    """Named, ordered collection of node indices (category members)."""

    label: str
    members: tuple[int, ...]
    names: tuple[str, ...] = field(repr=False, default=())

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SubsetReport:
    resolved: int
    duplicates: int
    unresolved: tuple[str, ...]


def load_node_subset(
    source: str | Path | IO[str],
    name_index: Mapping[str, int],
    label: str = "subset",
    strict: bool = True,
) -> tuple[NodeSubset, SubsetReport]:
    """Resolve a one-name-per-line file against a node table.

    Duplicated names keep their first occurrence.  In strict mode any
    unresolved name aborts with its line number; in lenient mode unresolved
    names are collected in the report and skipped.
    """
    members: list[int] = []
    member_names: list[str] = []
    seen: set[str] = set()
    duplicates = 0
    unresolved: list[str] = []
    with open_text(source) as stream:
        for line_no, name in name_lines(stream):
            if name in seen:
                duplicates += 1
                continue
            seen.add(name)
            idx = name_index.get(name)
            if idx is None:
                if strict:
                    raise ParseError(f"unknown node name {name!r}", line_no)
                unresolved.append(name)
                continue
            members.append(idx)
            member_names.append(name)

    subset = NodeSubset(label=label, members=tuple(members), names=tuple(member_names))
    report = SubsetReport(
        resolved=len(members), duplicates=duplicates, unresolved=tuple(unresolved)
    )
    return subset, report
