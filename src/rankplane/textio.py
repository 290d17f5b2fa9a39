"""The text formats the modules share: column files (an optional '# key=value'
header line, a column line, one row per point), name files (one name per
line) and the node subsets read from them, and the line blocks both are read
and written in.  Only the converters of number columns import NumPy, so the
commands that read and write names start without it.
"""

from __future__ import annotations

import ast
import contextlib
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, ContextManager, Iterable, Iterator, Mapping

from .errors import ContractViolation, ParseError

COMMENT_CHAR = "#"

# Column files and name files, from a path or a caller's stream, are read
# about _BLOCK_CHARS characters of whole lines at a time (the edge-list reader
# asks for larger blocks), and every text file is written _BLOCK_ROWS rows at a
# time.  Both are bounded so that no file is held whole as text: the rank
# table of 10^6 nodes is 74 MB of it.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 13

# Header value texts that write_series quotes; read_header reads the rest bare.
_QUOTED = re.compile(r"\s|\A['\"]")
# The header keys write_series accepts: any other reads back as another key.
_HEADER_KEY = re.compile(r"[^\s=]+")
_HEADER_PAIR = re.compile(r"""([^\s=]*)=(?:('(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")(?!\S)|(\S*))""")


def open_text(target: str | Path | IO[str], mode: str = "r") -> ContextManager[IO[str]]:
    """A path opened as UTF-8 text, or the caller's stream, which is left open.

    Line ends pass untranslated both ways: files are written with LF on every
    platform, and line_blocks decides which line ends a file read holds.
    """
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8", newline="")
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
    before anything is written, as is a header a path cannot hold in UTF-8,
    and columns of unequal length."""
    lengths = set(map(len, columns.values()))
    if len(lengths) > 1:
        raise ContractViolation(f"columns of unequal length: {sorted(lengths)}")
    for key in meta or ():
        if not _HEADER_KEY.fullmatch(str(key)):
            raise ContractViolation(f"header key {key!r} is empty or holds whitespace or '='")
    head = sep.join(columns) + "\n"
    if meta:
        texts = zip(meta, map(str, meta.values()))
        pairs = (f"{k}={repr(v) if _QUOTED.search(v) else v}" for k, v in texts)
        head = "# " + " ".join(pairs) + "\n" + head
    _check_utf8(head, target, "the header")
    with open_text(target, "w") as out:
        out.write(head)
        for rows in row_blocks(max(lengths, default=0)):
            blocks = (column[rows] for column in columns.values())
            fields = (map(str, b.tolist() if hasattr(b, "tolist") else b) for b in blocks)
            out.write(tsv_block(rows.stop - rows.start, *fields, sep=sep))


# Column types: "U" text (a list of str), "d" float64, "q" int64 (NumPy arrays).
# NumPy converts str to these exactly as float() and int() do, accepting and
# rejecting the same odd forms (tests/test_text_blocks.py checks them).
_PARSERS = {"U": str, "d": float, "q": int}


def read_series(
    source: str | Path | IO[str], types: Mapping[str, str], sep: str = ","
) -> tuple[dict[str, str], dict]:
    """The header values and the columns of a column file.

    Before the column line, '#' lines are header lines of key=value pairs,
    every value a string; after it, every line that is not blank is a row of
    sep-separated fields.  The column line must name exactly the columns of
    types (column -> type code), in order, and each converts to its type.  A
    missing or wrong column line, a row with the wrong field count or a value
    that does not convert is a ParseError.
    """
    meta: dict[str, str] = {}
    columns: dict | None = None
    with open_text(source) as stream:
        for first_line_no, text in line_blocks(stream):
            if columns is not None and _bulk_columns(text, columns, types, sep):
                continue
            for line_no, line in enumerate(text[:-1].split("\n"), start=first_line_no):
                if not line:
                    continue
                if columns is None and line.startswith(COMMENT_CHAR):
                    meta.update(read_header(line))
                    continue
                fields = line.split(sep)
                if columns is None:
                    if fields != list(types):
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
        raise ParseError(f"missing the column line {','.join(types)}")
    import numpy as np

    return meta, {k: v if isinstance(v, list) else np.array(v) for k, v in columns.items()}


def _bulk_columns(text: str, columns: dict, types: Mapping[str, str], sep: str) -> bool:
    """Append a block of plain rows to the columns in one pass.

    The text is a block of line_blocks, every line ending in one LF.
    Returns False, having changed nothing, when any line needs the per-line
    parser: a blank line, a wrong field count or a value that does not
    convert.  It is called only after the column line, where a line starting
    with '#' is a row like any other.
    """
    import numpy as np

    # One "\n" token per line: finding all of them at the row-closing
    # positions proves that every line has len(columns) fields.
    tokens = text.replace("\n", f"{sep}\n{sep}").split(sep)
    n, width = text.count("\n"), len(columns) + 1
    if len(tokens) != width * n + 1 or tokens[width - 1 :: width].count("\n") != n:
        return False
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


def line_blocks(stream: IO[str], chars: int = 0) -> Iterator[tuple[int, str]]:
    """Yield (number of the first line, text) for consecutive blocks of whole
    lines, read about chars (by default _BLOCK_CHARS) characters at a time.
    LF, CRLF and a lone CR each end one line and become one LF, and a last
    line without an end gets one, so every block ends in LF.  One U+FEFF (a
    byte order mark) that starts the stream is dropped; any other is text."""
    line_no, pending, more = 1, [], True
    while more:
        try:
            chunk = stream.read(chars or _BLOCK_CHARS)
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None
        if not chunk:
            if not any(pending):
                return
            # An LF ends the last line, or makes its CR a CRLF.
            chunk, more = "\n", False
        # After the last line end known whole: a CR last in the read may be
        # the first half of a CRLF.
        cut = max(chunk.rfind("\n"), chunk.rfind("\r", 0, -1)) + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        text = "".join(pending)
        pending = [chunk[cut:]]
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if line_no == 1:  # a byte order mark, not the first line's text
            text = text.removeprefix("\ufeff")
        yield line_no, text
        line_no += text.count("\n")


def name_lines(source: str | Path | IO[str]) -> Iterator[tuple[int, str, bool]]:
    """Yield (line number, name, repeated) for each stripped line of a name
    file that is not blank; repeated tells whether an earlier line held it.

    The column files' rule: a line starting with '#' is a comment only
    before the first name; after it, every line that is not blank is a name.
    """
    seen: set[str] = set()
    with open_text(source) as stream:
        for first_line_no, text in line_blocks(stream):
            for line_no, line in enumerate(text[:-1].split("\n"), start=first_line_no):
                name = line.strip()
                if name and (seen or not name.startswith(COMMENT_CHAR)):
                    yield line_no, name, name in seen
                    seen.add(name)


@dataclass(frozen=True)
class NodeSubset:
    """Named, ordered collection of node indices (category members)."""

    label: str
    members: tuple[int, ...]
    names: tuple[str, ...] = field(repr=False, default=())

    def __len__(self) -> int:
        return len(self.members)


def load_node_subset(
    source: str | Path | IO[str],
    name_index: Mapping[str, int],
    label: str = "subset",
    strict: bool = True,
) -> tuple[NodeSubset, tuple[str, ...]]:
    """Resolve a name file against a node table: (subset, unresolved names).

    Duplicated names keep their first occurrence.  In strict mode any
    unresolved name aborts with its line number; in lenient mode unresolved
    names are skipped and returned in file order.
    """
    members: list[int] = []
    member_names: list[str] = []
    unresolved: list[str] = []
    for line_no, name, repeated in name_lines(source):
        if repeated:
            continue
        if (idx := name_index.get(name)) is not None:
            members.append(idx)
            member_names.append(name)
        elif strict:
            raise ParseError(f"unknown node name {name!r}", line_no)
        else:
            unresolved.append(name)
    return NodeSubset(label, tuple(members), tuple(member_names)), tuple(unresolved)


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


def joined_fields(names: list[str], target: str | Path | IO[str]) -> str:
    """The names joined by LF, checked all at once for writing to target: a
    name holding a tab, CR or LF, which would not read back as one field of
    one line, is a ContractViolation, as is one a path cannot hold in UTF-8."""
    text = "\n".join(names)
    if "\t" in text or "\r" in text or text.count("\n") != max(len(names) - 1, 0):
        raise ContractViolation("a node name holds a tab, CR or LF")
    _check_utf8(text, target, "a node name")
    return text


def _check_utf8(text: str, target: str | Path | IO[str], what: str) -> None:
    """Refuse, before a path is opened, text UTF-8 cannot encode: a lone
    surrogate, as Python decodes an undecodable argument or file-name byte.
    A caller's stream encodes as it was opened, if at all."""
    if isinstance(target, (str, Path)):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start : exc.end]
            raise ContractViolation(f"{what} holds {bad!r}, which UTF-8 cannot encode") from None
