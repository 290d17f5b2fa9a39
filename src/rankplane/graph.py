"""Directed multigraph storage, the edge-list format, and degree statistics.

The graph is immutable after construction: a CSR adjacency (row = source,
column = target, value = link multiplicity) plus a dense node-id table in
first-appearance order.  All ranking code operates on node indices; names
only matter at the file boundary.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

import numpy as np

from .errors import ContractViolation, ParseError
from .textio import COMMENT_CHAR, joined_fields, line_blocks, open_text, row_blocks

# Subsets are read by textio.  The benchmark's tracer (perfbench/tracing.py)
# still times them under this name; drop the line with ROADMAP §1's
# benchmark change, which retires the tracer's name list.
from .textio import load_node_subset  # noqa: F401

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True)
class IngestStats:
    """What only the loader saw.  The merged graph gives the rest: its
    n_edges, and lines - n_edges duplicates merged."""

    lines: int  # edge records before merging
    sha256: str | None = None  # of the file read; None for a caller's stream


class DirectedGraph:
    """Immutable directed multigraph with per-edge multiplicities.

    `adj` is canonical CSR: sorted indices, duplicate (source, target)
    pairs merged by summing multiplicities, every multiplicity an integer
    >= 1; the constructor refuses any other matrix.  `adj.data` is int32
    while the total edge weight fits in it, otherwise int64; a matrix handed
    to the constructor keeps its own integer dtype.  Self-loops are kept;
    they participate in degree sums and column normalization like any
    other edge.
    """

    def __init__(self, names: list[str], adj: sp.csr_matrix):
        n = len(names)
        if adj.shape != (n, n):
            raise ContractViolation(f"adjacency shape {adj.shape} does not match {n} names")
        if not (
            getattr(adj, "format", None) == "csr"
            and adj.has_canonical_format
            and np.issubdtype(adj.dtype, np.integer)
            and adj.data.min(initial=1) >= 1
        ):
            raise ContractViolation("adjacency is not canonical CSR of integer multiplicities >= 1")
        self._hold(names, adj.indptr, adj.indices, adj.data)
        self._adj = adj

    def _hold(self, names: list[str], indptr, indices, data) -> None:
        self.names = names
        # The CSR arrays; adj is a SciPy matrix over them, made on first use,
        # so that a graph that is only written or hashed needs no SciPy.
        self._indptr, self._indices, self._data = indptr, indices, data
        self._adj: sp.csr_matrix | None = None
        self.ingest: IngestStats | None = None  # set by load_edge_list
        self._name_index: dict[str, int] | None = None
        self._content_hash: str | None = None

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_edges(
        cls, names: list[str], src: np.ndarray, dst: np.ndarray, mult: np.ndarray
    ) -> "DirectedGraph":
        """Build the canonical CSR from parallel edge arrays (duplicates merged).

        Arrays that are not 1-D or of unequal length, of a dtype other than
        integer (bool included) or with an endpoint outside [0, n) are
        refused; empty arrays of any dtype are the empty edge set.
        """
        # Imported where a sparse matrix is built, so that the commands that
        # only read rank tables or name lists start without it.
        import scipy.sparse as sp

        n = len(names)
        src, dst, mult = np.asarray(src), np.asarray(dst), np.asarray(mult)
        if not (src.ndim == dst.ndim == mult.ndim == 1 and len(src) == len(dst) == len(mult)):
            raise ContractViolation(f"edge arrays of shapes {src.shape}, {dst.shape}, {mult.shape}")
        if len(src) and not all(np.issubdtype(a.dtype, np.integer) for a in (src, dst, mult)):
            raise ContractViolation("edge endpoints and multiplicities must be integer arrays")
        if len(src) and not (min(src.min(), dst.min()) >= 0 and max(src.max(), dst.max()) < n):
            raise ContractViolation(f"an edge endpoint lies outside the {n} nodes")
        mult = mult if mult.dtype == np.int32 else mult.astype(np.int64, copy=False)
        if mult.size and np.any(mult <= 0):
            raise ContractViolation("every edge multiplicity must be >= 1")
        # Merged multiplicities cannot wrap once the total fits.  A float64
        # total is exact below 2**53, and below 2**62 too far from the bound
        # to hide one above it.
        total = mult.sum(dtype=np.float64)
        if total >= 2.0**62 and sum(mult.tolist()) > _MAX_MULTIPLICITY:
            raise ContractViolation("the total edge weight exceeds 2**63 - 1")
        mult = mult.astype(_int_type(total), copy=False)
        adj = sp.coo_matrix((mult, (src, dst)), shape=(n, n)).tocsr()
        return cls(names, adj)

    @classmethod
    def from_csr(
        cls, names: list[str], indptr: np.ndarray, indices: np.ndarray, data: np.ndarray
    ) -> "DirectedGraph":
        """Wrap arrays that already are canonical CSR, without copying them.

        The caller guarantees the form: rows ascending, each row's columns
        ascending and distinct, every multiplicity >= 1.
        """
        g = cls.__new__(cls)
        g._hold(names, indptr, indices, data)
        return g

    @property
    def adj(self) -> sp.csr_matrix:
        """The canonical CSR as a SciPy matrix over the graph's arrays."""
        if self._adj is None:
            import scipy.sparse as sp

            n = self.n_nodes
            self._adj = sp.csr_matrix((self._data, self._indices, self._indptr), shape=(n, n))
            self._adj.has_canonical_format = True
        return self._adj

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
        return int(self._data.sum())

    @property
    def n_edges(self) -> int:
        """Distinct (source, target) pairs."""
        return len(self._data)

    def content_hash(self) -> str:
        """Stable hex digest of the node table plus canonical CSR arrays,
        computed once per graph."""
        if self._content_hash is None:
            h = hashlib.sha256()
            h.update(str(self.n_nodes).encode())
            # surrogatepass: a name read from a caller's stream may hold a
            # lone surrogate; every other name encodes as plain UTF-8.
            h.update("\x00".join(self.names).encode("utf-8", "surrogatepass"))
            for arr in (self._indptr, self._indices, self._data):
                h.update(arr.astype(np.int64, copy=False))
            self._content_hash = h.hexdigest()[:16]
        return self._content_hash

    def __repr__(self) -> str:
        return (
            f"DirectedGraph(nodes={self.n_nodes}, edges={self.n_edges}, "
            f"weight={self.total_edge_weight})"
        )


def _int_type(largest: float) -> type:
    """int32 while the largest value an array holds fits in it, else int64."""
    return np.int32 if largest <= _INT32_MAX else np.int64


def invert(g: DirectedGraph) -> DirectedGraph:
    """Reverse every link: edge (i -> j, m) becomes (j -> i, m).

    The result shares g's node table; its adjacency is a new CSR, g's
    transpose, that lives as long as the result does.
    """
    return DirectedGraph(g.names, g.adj.T.tocsr())


def degree_distribution(g: DirectedGraph, direction: str) -> dict[int, int]:
    """Degree -> number of nodes with that in- or out-degree, over all nodes
    (degree 0 included).  An edge of multiplicity m counts m, as in the
    stochastic matrix's column weights.
    """
    if direction not in ("in", "out"):
        raise ContractViolation(f"direction must be 'in' or 'out', got {direction!r}")
    degrees = np.asarray(g.adj.sum(axis=1 if direction == "out" else 0, dtype=np.int64)).ravel()
    values, counts = np.unique(degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


# ---- edge-list format ------------------------------------------------------
#
# UTF-8 text, one edge per line: "source<TAB>target[<TAB>multiplicity]".
# Missing multiplicity means 1.  Lines starting with '#' are comments;
# blank lines are ignored.  Names are trimmed of surrounding whitespace.

# Edge lists are read about _BLOCK_BYTES characters of whole lines at a time,
# as many bytes for ASCII names.  A block's arrays take about 16 bytes per
# byte of it: at 256 KiB they do not raise the peak memory of `rank`, which
# 1 MiB blocks raise by about 10%, and larger blocks merge more repeated
# names before they are looked up.
_BLOCK_BYTES = 1 << 18
# The total edge weight fits in int64.  The byte pass converts at most 18
# digits, which cannot overflow; longer ones go to the per-line parser.
_MAX_MULTIPLICITY = 2**63 - 1
_INT32_MAX = 2**31 - 1
_TOO_MANY_NAMES = "more than 2**31 - 1 node names"
_BULK_MAX_DIGITS = 18
# _MASKS[r] keeps the first r bytes of a little-endian 8-byte word.
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)
# Zero bytes after a block's last line, read by the word and digit gathers.
_PAD = 32


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word starting at each byte of buf (a view)."""
    return np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _word_rounds(lengths: np.ndarray) -> Iterator[tuple[int, slice | np.ndarray, np.ndarray]]:
    """(offset, rows, mask) for each 8-byte word of byte strings of these
    lengths: the strings longer than offset (all of them at offset 0), and
    the mask of their bytes in the word at offset."""
    rows: slice | np.ndarray = slice(None)
    for offset in range(0, int(lengths.max(initial=0)), 8):
        if offset:
            rows = np.flatnonzero(lengths > offset)
        yield offset, rows, _MASKS[np.minimum(lengths[rows] - offset, 8)]


def _name_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit key of each byte string words[start : start + length].

    Equal strings get equal keys.  Different strings can share a key; the
    byte pass proves every match, so a shared key only costs time.
    """
    keys = lengths.astype(np.uint64) * _MIX
    for offset, rows, mask in _word_rounds(lengths):
        h = (keys[rows] ^ (words[starts[rows] + offset] & mask)) * _MIX
        keys[rows] = h ^ (h >> np.uint64(29))
    return keys


def _same_bytes(words_a, starts_a, words_b, starts_b, lengths) -> bool:
    """Whether each byte string at starts_a equals the one at starts_b, both
    of the given lengths."""
    for offset, rows, mask in _word_rounds(lengths):
        a = words_a[starts_a[rows] + offset]
        if np.any((a ^ words_b[starts_b[rows] + offset]) & mask):
            return False
    return True


def _grown(arr: np.ndarray, used: int, size: int) -> np.ndarray:
    """arr, or when it is shorter than size a zero-filled array twice as long
    that starts with arr[:used]."""
    if size <= len(arr):
        return arr
    grown = np.zeros(2 * size, dtype=arr.dtype)
    grown[:used] = arr[:used]
    return grown


class _NameTable:
    """The node names in first-appearance order, and what the byte pass
    resolves name tokens against: every name's UTF-8 bytes and key, and a
    hash index of the keys (open addressing, linear probing, at most half
    full), so that resolving a block costs the same however many names are
    known."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}  # built only for the per-line parser
        self.held = 0  # names whose bytes and key are held
        self.store = np.zeros(1 << 16, dtype=np.uint8)  # their bytes, each followed by LF
        self.starts = np.zeros(1 << 12, dtype=np.int64)  # in store, per name and one past
        self.keys = np.zeros(1 << 12, dtype=np.uint64)  # per name
        self.slots = np.full(1 << 12, -1, dtype=np.int32)  # name index, -1 if free

    def index(self) -> dict[str, int]:
        """Name -> node index, every name included."""
        names, index = self.names, self._index
        index.update(zip(names[len(index) :], range(len(index), len(names))))
        return index

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """A node index of each key, or -1 where no name has the key."""
        mask = len(self.slots) - 1
        found = np.full(len(keys), -1, dtype=np.int64)
        rows = np.arange(len(keys))
        pos = self._homes(keys)
        while len(rows):
            ids = self.slots[pos]
            hit = (ids >= 0) & (self.keys[ids] == keys[rows])
            found[rows[hit]] = ids[hit]
            probe = (ids >= 0) & ~hit
            rows, pos = rows[probe], (pos[probe] + 1) & mask
        return found

    def _homes(self, keys: np.ndarray) -> np.ndarray:
        """Each key's home slot: its high bits, which _name_keys mixes well.
        A block's group keys arrive sorted, so their homes ascend and the
        probes walk the slot table in order instead of missing the cache at
        random, as low-bit homes would."""
        shift = np.uint64(65 - len(self.slots).bit_length())
        return (keys >> shift).astype(np.int64)

    def _place(self, ids: np.ndarray) -> None:
        """Put each name's index in the first free slot from its key's home
        on.  Of the names a round writes to one free slot, the one read back
        there is placed; the others probe on."""
        mask = len(self.slots) - 1
        pos = self._homes(self.keys[ids])
        while len(ids):
            free = self.slots[pos] < 0
            self.slots[pos[free]] = ids[free]
            left = self.slots[pos] != ids
            ids, pos = ids[left], (pos[left] + 1) & mask

    def add_bytes(self, blob: np.ndarray, lengths: np.ndarray, keys: np.ndarray | None = None) -> None:
        """Hold the bytes and keys of the next len(lengths) names, which blob
        holds in order, each followed by one separator byte."""
        first, end = self.held, self.held + len(lengths)
        used = self.starts[first]
        self.store = _grown(self.store, used, used + len(blob) + _PAD)
        self.store[used : used + len(blob)] = blob
        self.starts = _grown(self.starts, first + 1, end + 1)
        self.starts[first + 1 : end + 1] = used + np.cumsum(lengths + 1)
        if keys is None:
            keys = _name_keys(_words(self.store), self.starts[first:end], lengths)
        self.keys = _grown(self.keys, first, end)
        self.keys[first:end] = keys
        self.held = end
        if 2 * end > len(self.slots):
            self.slots = np.full(1 << (4 * end).bit_length(), -1, dtype=np.int32)
            self._place(np.arange(end))
        else:
            self._place(np.arange(first, end))

    def sync(self) -> None:
        """Hold the bytes and keys of the names the per-line parser added."""
        new = self.names[self.held :]
        if new:
            raw = [name.encode("utf-8", "surrogatepass") for name in new]
            lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
            self.add_bytes(np.frombuffer(b"\n".join(raw) + b"\n", dtype=np.uint8), lengths)


def _edge_fields(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The fields of a block of edge lines, each ending in LF, found in
    NumPy: (buf, starts, lengths, mult).  buf is the block without its
    comment and empty lines, padded with _PAD zero bytes; starts and lengths
    locate the name tokens in it, source and target of each line
    interleaved; mult holds the multiplicities.  None when a line needs the
    per-line parser: a line of other than 2 or 3 fields, or a multiplicity
    that is zero or not 1-18 ASCII digits."""
    buf = np.frombuffer(data, dtype=np.uint8)
    nl = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], nl[:-1] + 1))
    skip = (buf[starts] == ord(COMMENT_CHAR)) | (starts == nl)
    if skip.any():
        buf = buf[np.repeat(~skip, nl + 1 - starts)]
        nl = np.flatnonzero(buf == 10)
        starts = np.concatenate(([0], nl[:-1] + 1))
    n = len(nl)
    buf = np.concatenate((buf, np.zeros(_PAD, dtype=np.uint8)))
    tabs = np.flatnonzero(buf == 9)
    tabs_to_end = np.searchsorted(tabs, nl)  # tabs before each line's end
    fields = np.diff(tabs_to_end, prepend=0) + 1
    if np.any((fields < 2) | (fields > 3)):
        return None
    first = tabs[tabs_to_end - fields + 1]
    target_end = np.where(fields == 3, tabs[tabs_to_end - 1], nl)

    mult = np.ones(n, dtype=np.int64)
    three = np.flatnonzero(fields == 3)
    digits_at = target_end[three] + 1
    n_digits = nl[three] - digits_at
    if len(three) and (n_digits.min() < 1 or n_digits.max() > _BULK_MAX_DIGITS):
        return None
    values = np.zeros(len(three), dtype=np.int64)
    for k in range(int(n_digits.max(initial=0))):
        digit = buf[digits_at + k] - np.uint8(ord("0"))  # wraps below '0'
        if k:
            inside = n_digits > k
            digit[~inside] = 0
            values[inside] *= 10
        if np.any(digit > 9):
            return None
        values += digit
    if not values.all():
        return None
    mult[three] = values

    tok_start = np.empty(2 * n, dtype=np.int64)
    tok_start[0::2], tok_start[1::2] = starts, first + 1
    tok_len = np.empty(2 * n, dtype=np.int64)
    tok_len[0::2], tok_len[1::2] = first - starts, target_end - first - 1
    return buf, tok_start, tok_len, mult


def _key_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(group_keys, first, group): the distinct keys, the index of the first
    token of each, and each token's group."""
    order = np.argsort(keys)
    sorted_keys = keys[order]
    head = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    at = np.flatnonzero(head)
    group = np.empty(len(keys), dtype=np.int64)
    group[order] = np.cumsum(head) - 1
    return sorted_keys[at], np.minimum.reduceat(order, at), group


def _bulk_edges(data: bytes, table: _NameTable, src: array, dst: array) -> np.ndarray | None:
    """Parse a block of edge lines, each ending in LF, as bytes in NumPy.

    Lines starting with '#' and empty lines are skipped.  The name tokens
    are grouped by key, and each group's key is looked up among the known
    names' keys.  Every token is proved byte for byte equal to its group's
    first token, and that one to the known name it matched.  Only names new
    to the graph are decoded.

    Appends the source and target node index of the block's edges to src
    and dst and returns their multiplicities (int64).  Returns None, having
    changed nothing, when any line needs the per-line parser: one
    _edge_fields refuses, an empty or padded name, or two names sharing a key.
    """
    fields = _edge_fields(data)
    if fields is None:
        return None
    buf, tok_start, tok_len, values = fields
    if not len(tok_start):
        return values
    table.sync()
    words = _words(buf)
    group_keys, rep, group = _key_groups(_name_keys(words, tok_start, tok_len))
    rep_of = rep[group]
    if np.any(tok_len != tok_len[rep_of]) or not _same_bytes(
        words, tok_start, words, tok_start[rep_of], tok_len
    ):
        return None

    node = table.lookup(group_keys)
    known = node >= 0
    known_ids, known_rep = node[known], rep[known]
    known_len = table.starts[known_ids + 1] - table.starts[known_ids] - 1
    if np.any(tok_len[known_rep] != known_len) or not _same_bytes(
        words, tok_start[known_rep], _words(table.store), table.starts[known_ids], known_len
    ):
        return None

    # Decode the new names, in order of first appearance, in one call.
    new = np.flatnonzero(~known)
    new = new[np.argsort(rep[new])]
    new_start, new_len = tok_start[rep[new]], tok_len[rep[new]]
    spans = new_len + 1  # each name and the tab or LF after it
    span_end = np.cumsum(spans)
    blob = buf[np.repeat(new_start - (span_end - spans), spans) + np.arange(spans.sum())]
    blob[span_end - 1] = 10
    new_names = blob.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]
    if not all(new_names) or list(map(str.strip, new_names)) != new_names:
        return None

    if len(table.names) + len(new) > _INT32_MAX:
        raise ContractViolation(_TOO_MANY_NAMES)
    node[new] = np.arange(len(table.names), len(table.names) + len(new))
    table.names.extend(new_names)
    table.add_bytes(blob, new_len, group_keys[new])
    ends = node[group].astype(np.intc)
    src.frombytes(ends[0::2].tobytes())
    dst.frombytes(ends[1::2].tobytes())
    return values


def _parse_edge_lines(
    text: str, first_line_no: int, table: _NameTable, src: array, dst: array
) -> list[int]:
    """Parse a block of edge lines, each ending in LF, one line at a time:
    every form the format allows, and the first malformed line reported by
    its number.  Appends node indices as _bulk_edges does and returns the
    multiplicities."""
    names, index, mult = table.names, table.index(), []

    def intern(name: str, line_no: int) -> int:
        name = name.strip()
        if not name:
            raise ParseError("empty node name", line_no)
        i = index.setdefault(name, len(names))
        if i == len(names):
            if i == _INT32_MAX:
                raise ContractViolation(_TOO_MANY_NAMES)
            names.append(name)
        return i

    for line_no, line in enumerate(text[:-1].split("\n"), start=first_line_no):
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
        src.append(s)
        dst.append(t)
        mult.append(m)
    return mult


class _Digesting:
    """A text stream whose reads feed their UTF-8 bytes to a digest.  Read
    from a path opened by open_text, strict UTF-8 with no newline
    translation, those are the file's bytes."""

    def __init__(self, stream: IO[str], digest) -> None:
        self._stream, self._digest = stream, digest

    def read(self, chars: int) -> str:
        text = self._stream.read(chars)
        self._digest.update(text.encode("utf-8"))
        return text


def load_edge_list(source: str | Path | IO[str]) -> DirectedGraph:
    """Parse an edge list into a graph with merged multiplicities.

    Node indices are assigned in first-appearance order (source before
    target within a line), which makes repeated runs on the same file
    deterministic.  Read from a path, the SHA-256 of the file's bytes is
    recorded in g.ingest.
    """
    table = _NameTable()
    # Grown in place (by realloc): block arrays joined at the end would hold
    # every record twice at the peak.  The node indices are C ints (int32),
    # which the sparse build takes without a copy; so are the multiplicities
    # while their running total fits (_int_type), then C long longs (int64).
    src, dst, mult = array("i"), array("i"), array("i")
    weight = 0.0  # exact below 2**53, and far past 2**31 - 1 above it
    digest = hashlib.sha256() if isinstance(source, (str, Path)) else None
    with open_text(source) as stream:
        blocks = line_blocks(_Digesting(stream, digest) if digest else stream, _BLOCK_BYTES)
        for line_no, text in blocks:
            # Lone surrogates, which only a caller's stream holds, are kept.
            values = _bulk_edges(text.encode("utf-8", "surrogatepass"), table, src, dst)
            if values is None:
                values = np.array(_parse_edge_lines(text, line_no, table, src, dst), np.int64)
            weight += values.sum(dtype=np.float64)
            if mult.typecode == "i" and _int_type(weight) is np.int64:
                mult = array("q", mult)
            # An array's typecode is also its NumPy type character.
            mult.frombytes(values.astype(mult.typecode).tobytes())

    records = len(mult)
    if records == 0:
        raise ParseError("empty edge list: no edge records found")

    names = table.names
    del table  # the name bytes, keys and hash index: only the names are kept
    columns = [np.frombuffer(a, a.typecode) for a in (src, dst, mult)]
    g = DirectedGraph.from_edges(names, *columns)
    g.ingest = IngestStats(records, digest.hexdigest() if digest else None)
    return g


def write_edge_list(g: DirectedGraph, target: str | Path | IO[str]) -> None:
    """Serialize in canonical CSR order; reloading reproduces the graph.

    Refused before anything is written: a name that is empty, padded or holds
    a tab, CR or LF, one a path cannot hold in UTF-8, and an edge source
    named '#…', whose line is a comment.

    The lines are built as UTF-8 bytes in NumPy, a block of rows at a time,
    and written as text (lone surrogates kept for a caller's stream).
    """
    names = g.names
    indptr, indices, data = g._indptr, g._indices, g._data
    text = joined_fields(names, target)
    if not (names and all(names) and list(map(str.strip, names)) == names):
        raise ContractViolation("no node, or a node name that is empty or padded")
    if "\n" + COMMENT_CHAR in "\n" + text:
        for i in np.flatnonzero(np.diff(indptr)).tolist():
            if names[i].startswith(COMMENT_CHAR):
                raise ContractViolation(f"edge source {names[i]!r} would be a comment line")
    # Every name's bytes followed by a tab, then, rewritten for each block,
    # the block's distinct multiplicity texts, each followed by LF (room for
    # about 200 of them, grown when a block has more).
    raw = (text + "\n").encode("utf-8", "surrogatepass")
    del text
    names_end = len(raw)
    store = np.zeros(names_end + (1 << 12), dtype=np.uint8)
    store[:names_end] = np.frombuffer(raw, dtype=np.uint8)
    del raw
    name_end = np.flatnonzero(store[:names_end] == 10) + 1  # past each name's tab
    store[name_end - 1] = 9
    name_start = np.concatenate(([0], name_end[:-1]))
    name_size = name_end - name_start
    del name_end

    with open_text(target, "w") as out:
        out.write(f"{COMMENT_CHAR} directed edge list: source\ttarget\tmultiplicity\n")
        for rows in row_blocks(len(data)):
            # The rows the block's edges lie in, each repeated once per edge.
            # (Searched for in indptr's own dtype: any other casts all of it.)
            span = np.array([rows.start, rows.stop - 1], dtype=indptr.dtype)
            first, last = np.searchsorted(indptr, span, side="right") - 1
            edges = np.diff(np.clip(indptr[first : last + 2], rows.start, rows.stop))
            sources = np.repeat(np.arange(first, last + 1), edges)
            values, which = np.unique(data[rows], return_inverse=True)
            texts = [f"{v}\n".encode() for v in values.tolist()]
            text_size = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
            text_start = names_end + np.cumsum(text_size) - text_size
            texts_end = names_end + int(text_size.sum())
            store = _grown(store, names_end, texts_end)
            store[names_end:texts_end] = np.frombuffer(b"".join(texts), dtype=np.uint8)
            # Three pieces per line: source and tab, target and tab, text.
            starts = np.empty((len(sources), 3), dtype=np.int64)
            sizes = np.empty((len(sources), 3), dtype=np.int64)
            starts[:, 0], sizes[:, 0] = name_start[sources], name_size[sources]
            targets = indices[rows]
            starts[:, 1], sizes[:, 1] = name_start[targets], name_size[targets]
            starts[:, 2], sizes[:, 2] = text_start[which], text_size[which]
            starts, sizes = starts.ravel(), sizes.ravel()
            ends = np.cumsum(sizes)
            lines = store[np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])]
            out.write(lines.tobytes().decode("utf-8", "surrogatepass"))
