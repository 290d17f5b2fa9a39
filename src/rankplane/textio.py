"""The text formats the modules share: column files (an optional '# key=value'
header line, a column line, one row per point), name files (one name per
line), and the line blocks both are read and written in.  Only the
converters of number columns import NumPy, so the commands that read and
write names start without it.
"""

from __future__ import annotations

import ast
import contextlib
import re
from array import array
from pathlib import Path
from typing import IO, ContextManager, Iterable, Iterator, Mapping

from .errors import ContractViolation, ParseError

COMMENT_CHAR = "#"

# Text files are read about _BLOCK_CHARS characters of whole lines at a time
# and written _BLOCK_ROWS rows at a time.  Both are bounded on purpose:
# holding a whole 15 MB edge list as text raises the peak memory of `rank`
# from about 122 MB to 188 MB.
_BLOCK_CHARS = 1 << 16
_BLOCK_ROWS = 1 << 13

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
            fields = (map(str, b.tolist() if hasattr(b, "tolist") else b) for b in blocks)
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
    import numpy as np

    return meta, {k: v if isinstance(v, list) else np.array(v) for k, v in columns.items()}


def _bulk_columns(lines: list[str], columns: dict, types: Mapping[str, str], sep: str) -> bool:
    """Append a block of plain rows to the columns in one pass.

    Returns False, having changed nothing, when any line needs the per-line
    parser: a blank line, a line starting with '#', a wrong field count or a
    value that does not convert.
    """
    import numpy as np

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


def line_blocks(stream: IO[str], chars: int = 0) -> Iterator[tuple[int, list[str]]]:
    """Yield (number of the first line, lines) for consecutive blocks of
    about chars (by default _BLOCK_CHARS) characters of lines."""
    line_no = 1
    while True:
        try:
            lines = stream.readlines(chars or _BLOCK_CHARS)
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc.reason}") from None
        if not lines:
            return
        yield line_no, lines
        line_no += len(lines)


def name_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, name) for each stripped line that is not blank.

    The column files' rule: a line starting with '#' is a comment only
    before the first name; after it, every line that is not blank is a name.
    """
    named = False
    for first_line_no, lines in line_blocks(stream):
        for line_no, raw in enumerate(lines, start=first_line_no):
            name = raw.strip()
            if name and (named or not name.startswith(COMMENT_CHAR)):
                named = True
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


def joined_fields(names: list[str]) -> str:
    """The names joined by LF, checked all at once: a name holding a tab, CR
    or LF, which would not read back as one field of one line, is a
    ContractViolation."""
    text = "\n".join(names)
    if "\t" in text or "\r" in text or text.count("\n") != max(len(names) - 1, 0):
        raise ContractViolation("a node name holds a tab, CR or LF")
    return text
