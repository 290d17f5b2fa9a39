"""Directed multigraph storage, edge-list ingestion, and degree statistics.

The graph is immutable after construction: a CSR adjacency (row = source,
column = target, value = link multiplicity) plus a dense node-id table in
first-appearance order.  All ranking code operates on node indices; names
only matter at the file boundary.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, ContextManager, Iterable, Iterator, Mapping

import numpy as np

from .errors import ContractViolation, ParseError

if TYPE_CHECKING:
    import scipy.sparse as sp

COMMENT_CHAR = "#"


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

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, names: list[str], src: np.ndarray, dst: np.ndarray, mult: np.ndarray
    ) -> "DirectedGraph":
        """Build the canonical CSR from parallel edge arrays (duplicates merged)."""
        # Imported here, the one place a sparse matrix is built, so that the
        # commands that only read rank tables or name lists start without it.
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
        """Stable hex digest of the node table plus canonical CSR arrays."""
        h = hashlib.sha256()
        h.update(str(self.n_nodes).encode())
        h.update(b"\x00".join(name.encode("utf-8") for name in self.names))
        h.update(self.adj.indptr.astype(np.int64).tobytes())
        h.update(self.adj.indices.astype(np.int64).tobytes())
        h.update(self.adj.data.astype(np.int64).tobytes())
        return h.hexdigest()[:16]

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

# Text files are read about _BLOCK_CHARS characters of whole lines at a time
# and written _BLOCK_ROWS rows at a time.  Both are bounded on purpose:
# holding a whole 15 MB edge list as text raises the peak memory of `rank`
# from about 122 MB to 188 MB.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 13

# Multiplicities are stored as int64.  The bulk parser converts at most
# 18 digits, which cannot overflow; longer ones go to the per-line parser.
_MAX_MULTIPLICITY = 2**63 - 1
_BULK_MAX_DIGITS = 18


# Header value texts that write_series quotes; read_header reads the rest bare.
_QUOTED = re.compile(r"\s|\A['\"]")
# The header keys write_series accepts: any other reads back as another key.
_HEADER_KEY = re.compile(r"[^\s=]+")
_HEADER_PAIR = re.compile(r"""([^\s=]*)=(?:('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")(?!\S)|(\S*))""")


def open_text(target: str | Path | IO[str], mode: str = "r") -> ContextManager[IO[str]]:
    """A path opened as UTF-8 text, or the caller's stream, which is left open.

    Files are written with LF line ends on every platform and read with any
    line ends.
    """
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="\n" if mode == "w" else None)
    return contextlib.nullcontext(target)


def read_header(line: str) -> dict[str, str]:
    """The key=value pairs of a '#' header line, every value a string.

    A quoted value (a string literal, as repr writes it) is read whole,
    spaces included, and unquoted; any other value runs to the next
    whitespace.  So each value reads back as the text write_series gave it.
    """
    meta: dict[str, str] = {}
    for key, quoted, text in _HEADER_PAIR.findall(line, 1):
        try:
            meta[key] = ast.literal_eval(quoted) if quoted else text
        except (SyntaxError, ValueError):
            raise ParseError(f"bad header value {quoted}") from None
    return meta


def write_series(
    columns: Mapping, target: str | Path | IO[str], meta: Mapping | None = None, sep: str = ","
) -> None:
    """A column file: an optional '# key=value' line, the column names, then
    one sep-separated row per point, every value written by str (a NumPy
    column a block at a time, through tolist).  A header value whose str holds
    whitespace or starts with a quote is quoted by repr, so read_header
    returns every header value's str exactly.  A header key that is empty or
    holds whitespace or '=' would read back as another key, and is refused
    before anything is written."""
    for key in meta or ():
        if not _HEADER_KEY.fullmatch(str(key)):
            raise ContractViolation(f"header key {key!r} is empty or holds whitespace or '='")
    with open_text(target, "w") as out:
        if meta:
            texts = zip(meta, map(str, meta.values()))
            pairs = (f"{k}={repr(v) if _QUOTED.search(v) else v}" for k, v in texts)
            out.write("# " + " ".join(pairs) + "\n")
        out.write(sep.join(columns) + "\n")
        for rows in row_blocks(min(map(len, columns.values()))):
            blocks = (column[rows] for column in columns.values())
            fields = (map(str, b.tolist() if isinstance(b, np.ndarray) else b) for b in blocks)
            out.write(tsv_block(rows.stop - rows.start, *fields, sep=sep))


# Column types: "U" text (a list of str), "d" float64, "q" int64 (NumPy arrays).
# NumPy converts str to these exactly as float() and int() do, accepting and
# rejecting the same odd forms (tests/test_text_blocks.py checks them).
_PARSERS = {"U": str, "d": float, "q": int}


def read_series(
    source: str | Path | IO[str], types: Mapping[str, str] | None = None, sep: str = ","
) -> tuple[dict[str, str], dict]:
    """The header values and the columns of a column file.

    Before the column line, '#' lines are header lines of key=value pairs,
    every value a string; after it, every line that is not blank is a row of
    sep-separated fields.  With types (column -> type code) the column line
    must name exactly those columns and each converts to its type; without,
    every column is text.  A missing or wrong column line, a row with the
    wrong field count or a value that does not convert is a ParseError.
    """
    meta: dict[str, str] = {}
    columns: dict | None = None
    with open_text(source) as stream:
        for first_line_no, lines in line_blocks(stream):
            if columns is not None and _bulk_columns(lines, columns, types, sep):
                continue
            for line_no, raw in enumerate(lines, start=first_line_no):
                line = raw.rstrip("\n")
                if not line:
                    continue
                if columns is None and line.startswith(COMMENT_CHAR):
                    meta.update(read_header(line))
                    continue
                fields = line.split(sep)
                if columns is None:
                    if types is None:
                        types = dict.fromkeys(fields, "U")
                    elif fields != list(types):
                        raise ParseError(f"expected the columns {','.join(types)}", line_no)
                    columns = {k: [] if code == "U" else array(code) for k, code in types.items()}
                    continue
                if len(fields) != len(columns):
                    raise ParseError(f"expected {len(columns)} fields", line_no)
                try:
                    for column, code, text in zip(columns.values(), types.values(), fields):
                        column.append(_PARSERS[code](text))
                except (ValueError, OverflowError) as exc:
                    raise ParseError(f"bad value: {exc}", line_no) from None
    if columns is None:
        if types is not None:
            raise ParseError(f"missing the column line {','.join(types)}")
        return meta, {}
    return meta, {k: v if isinstance(v, list) else np.array(v) for k, v in columns.items()}


def _bulk_columns(lines: list[str], columns: dict, types: Mapping[str, str], sep: str) -> bool:
    """Append a block of plain rows to the columns in one pass.

    Returns False, having changed nothing, when any line needs the per-line
    parser: a blank line, a line starting with '#', a wrong field count or a
    value that does not convert.
    """
    tokens = split_block(lines, len(columns), sep)
    if tokens is None:
        return False
    width = len(columns) + 1
    try:
        blocks = [
            tokens[j:-1:width] if code == "U" else np.array(tokens[j:-1:width], dtype=code)
            for j, code in enumerate(types.values())
        ]
    except (ValueError, OverflowError):
        return False
    for column, block in zip(columns.values(), blocks):
        if isinstance(block, list):
            column.extend(block)
        else:
            column.frombytes(block.tobytes())
    return True


def line_blocks(stream: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (number of the first line, lines) for consecutive blocks of lines."""
    line_no = 1
    while True:
        try:
            lines = stream.readlines(_BLOCK_CHARS)
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None
        if not lines:
            return
        yield line_no, lines
        line_no += len(lines)


def name_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, name) for each stripped line that is not blank or a comment."""
    for first_line_no, lines in line_blocks(stream):
        for line_no, raw in enumerate(lines, start=first_line_no):
            name = raw.strip()
            if name and not name.startswith(COMMENT_CHAR):
                yield line_no, name


def split_block(lines: list[str], n_fields: int, sep: str = "\t") -> list[str] | None:
    """All fields of a block of lines, each row followed by a "\n" token.

    None unless every line has exactly n_fields sep-separated fields, ends
    in "\n" and does not start with the comment character; such blocks
    need a per-line parser.
    """
    text = "".join(lines)
    if text.startswith(COMMENT_CHAR) or "\n" + COMMENT_CHAR in text:
        return None
    n = len(lines)
    tokens = text.replace("\n", f"{sep}\n{sep}").split(sep)
    # Each line yields exactly one "\n" token, so finding all n of them at the
    # n row-closing positions proves that every line has n_fields fields.
    width = n_fields + 1
    if len(tokens) != width * n + 1 or tokens[n_fields::width].count("\n") != n:
        return None
    return tokens


def row_blocks(n_rows: int) -> Iterator[slice]:
    """Consecutive slices of at most _BLOCK_ROWS rows that cover 0..n_rows."""
    for lo in range(0, n_rows, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, n_rows))


def tsv_block(n_rows: int, *columns: Iterable[str], sep: str = "\t") -> str:
    """n_rows rows of sep-separated fields, one field from each column, each
    row ending in a newline."""
    width = 2 * len(columns)
    pieces = [sep] * (width * n_rows)
    pieces[width - 1 :: width] = ["\n"] * n_rows
    for j, column in enumerate(columns):
        pieces[2 * j :: width] = column
    return "".join(pieces)


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


def joined_fields(names: list[str]) -> str:
    """The names joined by LF, checked all at once: a name holding a tab, CR
    or LF, which would not read back as one field of one line, is a
    ContractViolation."""
    text = "\n".join(names)
    if "\t" in text or "\r" in text or text.count("\n") != max(len(names) - 1, 0):
        raise ContractViolation("a node name holds a tab, CR or LF")
    return text


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
