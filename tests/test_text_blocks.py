"""The block-at-a-time text readers and writers against line-at-a-time references.

The edge-list loader parses blocks of bytes in NumPy and the rank-table
reader blocks of lines in one pass; each hands any block it cannot prove
clean to a per-line parser.  The writers format blocks of rows at once.
The references below are the line-at-a-time implementations these
replaced, kept verbatim but for two rules: a rank-table line starting with
'#' is a header line only before the column line, and a row after it; and a
rank table that is not whole is refused before a RankTable is made
(reference_check_table).  The block sizes are drawn small, so block
boundaries fall everywhere: between clean and odd lines, inside runs of
comments, next to the file's last line.  textio.line_blocks, which cuts
every text input into blocks, is checked on its own against a
universal-newline read of the same text.
"""

import dataclasses
import hashlib
import io
import math
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankplane import (
    ContractViolation,
    DirectedGraph,
    IngestStats,
    ParseError,
    RankTable,
    load_edge_list,
    read_rank_table,
    write_edge_list,
    write_rank_table,
)
from rankplane import graph, textio, twodrank
from test_graph import named_edges

COMMENT_CHAR = "#"
_TABLE_COLUMNS = ("name", "pagerank", "pagerank_rank", "cheirank", "cheirank_rank", "rank2d")


# ---- references: one line or one row at a time --------------------------------


def reference_load_edge_list(stream) -> DirectedGraph:
    names: list[str] = []
    index: dict[str, int] = {}
    src: list[int] = []
    dst: list[int] = []
    mult: list[int] = []
    records = 0
    self_loop_records = 0

    def intern(name: str, line_no: int) -> int:
        name = name.strip()
        if not name:
            raise ParseError("empty node name", line_no)
        i = index.get(name)
        if i is None:
            i = len(names)
            index[name] = i
            names.append(name)
        return i

    for line_no, raw in enumerate(stream, start=1):
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
            if not text.isdigit() or (m := int(text)) <= 0:
                raise ParseError(
                    f"multiplicity must be a positive integer, got {text!r}", line_no
                )
        else:
            m = 1
        src.append(s)
        dst.append(t)
        mult.append(m)
        records += 1
        if s == t:
            self_loop_records += 1

    if records == 0:
        raise ParseError("empty edge list: no edge records found")

    g = DirectedGraph.from_edges(
        names,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(mult, dtype=np.int64),
    )
    g.ingest = IngestStats(lines=records)
    return g


def reference_read_rank_table(source) -> RankTable:
    meta: dict = {}
    names: list[str] = []
    columns: list[list] = [[], [], [], [], []]
    saw_header = False
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#") and not saw_header:
            for token in line[1:].split():
                if "=" in token:
                    key, _, val = token.partition("=")
                    meta[key] = val.strip("'\"")
            continue
        fields = line.split("\t")
        if not saw_header:
            if tuple(fields) != _TABLE_COLUMNS:
                raise ParseError(
                    f"expected column header {_TABLE_COLUMNS}, got {fields}", line_no
                )
            saw_header = True
            continue
        if len(fields) != len(_TABLE_COLUMNS):
            raise ParseError(f"expected {len(_TABLE_COLUMNS)} columns", line_no)
        names.append(fields[0])
        for j, parse in enumerate((float, int, float, int, int), start=1):
            columns[j - 1].append(parse(fields[j]))
    if not names:
        raise ParseError("empty rank table file")
    columns = dict(zip(_TABLE_COLUMNS[1:], columns))
    reference_check_table(names, columns, meta)
    return RankTable(
        names=names,
        pagerank=np.asarray(columns["pagerank"], dtype=np.float64),
        pagerank_rank=np.asarray(columns["pagerank_rank"], dtype=np.int64),
        cheirank=np.asarray(columns["cheirank"], dtype=np.float64),
        cheirank_rank=np.asarray(columns["cheirank_rank"], dtype=np.int64),
        rank2d=np.asarray(columns["rank2d"], dtype=np.int64),
        meta=meta,
    )


def is_count(text: str, least: int) -> bool:
    """text is ASCII digits that read as an integer of at least least."""
    return text != "" and all("0" <= c <= "9" for c in text) and int(text) >= least


def reference_check_table(names: list[str], columns: dict[str, list], meta: dict) -> None:
    """Nothing, unless a rank column is not a permutation of 1..N, N is not
    the header's subset_size or n_nodes, a probability lies outside [0, 1],
    in a full table a probability column does not sum to 1 within 1e-9, a
    probability rises from one rank to the next, a header value the package
    writes is bad, or a name is on two rows."""
    n = len(names)
    for col in ("pagerank_rank", "cheirank_rank", "rank2d"):
        if sorted(columns[col]) != list(range(1, n + 1)):
            raise ParseError(f"{col} is not a permutation")
    size = meta.get("subset_size", meta.get("n_nodes"))
    if size is not None and size != str(n):
        raise ParseError(f"{n} rows, header {size}")
    if "subset_size" not in meta:
        for col in ("pagerank", "cheirank"):
            try:
                total = math.fsum(columns[col])
            except (OverflowError, ValueError):
                total = math.nan
            if not abs(total - 1.0) <= 1e-9:
                raise ParseError(f"{col} does not sum to 1")
    for col in ("pagerank", "cheirank"):
        if not all(0.0 <= p <= 1.0 for p in columns[col]):
            raise ParseError(f"{col} has an entry outside [0, 1]")
    for col in ("pagerank", "cheirank"):
        by_rank = [p for _, p in sorted(zip(columns[col + "_rank"], columns[col]))]
        if any(later > earlier for earlier, later in zip(by_rank, by_rank[1:])):
            raise ParseError(f"{col}_rank does not follow {col}")
    for key, good in (
        ("alpha", lambda v: 0.0 < float(v) <= 1.0),
        ("alpha_star", lambda v: 0.0 < float(v) <= 1.0),
        ("tol", lambda v: 0.0 < float(v) < math.inf),
        ("max_iter", lambda v: is_count(v, 1)),
        ("n_nodes", lambda v: is_count(v, n)),
        ("graph_hash", lambda v: len(v) == 16 and all(c in "0123456789abcdef" for c in v)),
    ):
        try:
            if key in meta and not good(meta[key]):
                raise ValueError(meta[key])
        except ValueError:
            raise ParseError(f"bad {key} in the header") from None
    if len(set(names)) != n:
        raise ParseError("a name is on two rows")


def reference_write_edge_list(g: DirectedGraph, out) -> None:
    out.write(f"{COMMENT_CHAR} directed edge list: source\ttarget\tmultiplicity\n")
    indptr, indices, data = g.adj.indptr, g.adj.indices, g.adj.data
    for s in range(g.n_nodes):
        row = slice(indptr[s], indptr[s + 1])
        for t, m in zip(indices[row], data[row]):
            out.write(f"{g.names[s]}\t{g.names[int(t)]}\t{int(m)}\n")


def header_text(value) -> str:
    """A header value as written: its str, quoted by repr when that text holds
    whitespace or starts with a quote."""
    text = str(value)
    return repr(text) if any(c.isspace() for c in text) or text[:1] in ("'", '"') else text


def reference_write_rank_table(table: RankTable, out) -> None:
    if table.meta:
        pairs = " ".join(f"{k}={header_text(table.meta[k])}" for k in sorted(table.meta))
        out.write(f"# {pairs}\n")
    out.write("\t".join(_TABLE_COLUMNS) + "\n")
    for i in np.argsort(table.pagerank_rank):
        out.write(
            f"{table.names[i]}\t{float(table.pagerank[i])!r}\t{int(table.pagerank_rank[i])}"
            f"\t{float(table.cheirank[i])!r}\t{int(table.cheirank_rank[i])}\t{int(table.rank2d[i])}\n"
        )


# ---- generated texts -------------------------------------------------------------

WRITER_HEADER = f"{COMMENT_CHAR} directed edge list: source\ttarget\tmultiplicity\n"
# Names of 1-4-byte UTF-8 characters, names longer than 16 bytes that share
# their length and their first and last 8 bytes, and names ending in a
# padding character that is not ASCII.
NAMES = st.sampled_from([
    "a", "b", "c", "n01", "a b", "\u00e9", "x#y", "#t", "\u0663", "\u20ac\u4e2d",
    "\U0001f600", "a\U00010348b", "abcdefgh-1-ijklmnop", "abcdefgh-2-ijklmnop",
    "abcdefgh-12-ijklmnop", "abcdefgh" * 3 + "x", "abcdefgh" * 3 + "y", "b\u00a0",
])
# Names a caller's stream can hold but no UTF-8 file: lone surrogates.
SURROGATE_NAMES = st.sampled_from([chr(0xDC80), "a" + chr(0xD800), chr(0xD83D) + chr(0xDE00)])
CLEAN_COUNTS = st.sampled_from(["1", "2", "3", "007", "123456789012345678",
                                "000000000000000001"])
# Forms only the per-line parser accepts or rejects; multiplicities beyond
# int64 are left out: the reference fails on them only after reading the
# whole file (see test_out_of_range_multiplicity_is_a_parse_error).  Forty
# lines of the largest stay below 2**63 in total.
ODD_COUNTS = st.sampled_from(["0", "00", "", " 2", "2 ", "-1", "x", "1.5", "\u0663", "\u00b2",
                              "+1", "0123456789012345678", "0000000000000000000000001",
                              "000000000000000000"])


@st.composite
def edge_lines(draw, two_fields=False, names=NAMES):
    kind = draw(st.sampled_from(["clean"] * 8 + ["two", "three", "odd_count", "padded",
                                                 "comment", "blank", "fields", "empty_name",
                                                 "crlf", "cr"]))
    s, t = draw(names), draw(names)
    if kind == "two" or kind == "clean" and two_fields:
        return f"{s}\t{t}\n"
    if kind in ("clean", "three"):
        return f"{s}\t{t}\t{draw(CLEAN_COUNTS)}\n"
    if kind == "odd_count":
        return f"{s}\t{t}\t{draw(ODD_COUNTS)}\n"
    if kind == "padded":
        return f" {s}\t{t}\u3000\t1\n"  # an ASCII and an ideographic space
    if kind == "comment":
        return draw(st.sampled_from(["# comment\n", "  # a\tb\t1\n", "#a\tb\t1\n",
                                     WRITER_HEADER]))
    if kind == "blank":
        return draw(st.sampled_from(["\n", "   \n", "\t\n"]))
    if kind == "fields":
        return draw(st.sampled_from(["a\n", "a\tb\t1\t2\n", "a\tb\t\t1\n"]))
    if kind == "empty_name":
        return draw(st.sampled_from(["\tb\t1\n", "a\t \t1\n"]))
    if kind == "cr":
        return f"{s}\t{t}\r"  # a lone CR: a line end in a file and in any stream
    return f"{s}\t{t}\t1\r\n"


@st.composite
def edge_texts(draw, names=NAMES | SURROGATE_NAMES):
    """Edge lists of mostly clean lines, all of 3 fields or all of 2, after
    the writer's header or not."""
    lines = edge_lines(two_fields=draw(st.booleans()), names=names)
    text = draw(st.sampled_from(["", WRITER_HEADER])) + "".join(draw(st.lists(lines, max_size=40)))
    if text and draw(st.booleans()):
        text = text[:-1]  # the last line without its newline
    return text


def outcome(parse, text, newline="\n"):
    """What a reader makes of text: its result, or the error and line number."""
    try:
        return "ok", parse(io.StringIO(text, newline=newline))
    except ParseError as exc:
        return "parse_error", exc.line_no
    except (ValueError, OverflowError) as exc:
        return "error", type(exc).__name__


def compare_outcomes(expected, got):
    if expected[0] == "error":
        # A number the reference let through to int() or float() and crashed
        # on: now a ParseError.
        assert got[0] == "parse_error" and got[1] is not None
        return False
    assert got[0] == expected[0]
    if expected[0] == "parse_error":
        assert got[1] == expected[1]
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(text=edge_texts(), chars=st.integers(1, 200))
@example(text="a\tb\t1\nb\tc\t\n", chars=100)
@example(text="a\tb\t1\n a\tc\t2\n", chars=100)
@example(text="a\tb\t1\r\nb\tc\t1\n", chars=100)
def test_edge_list_blocks_match_the_per_line_loader(text, chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", chars)
        # The reference is handed the lines a file holds: newline=None
        # translates every line end to LF, a lone CR's too.
        expected = outcome(reference_load_edge_list, text, newline=None)
        got = outcome(load_edge_list, text)
    if compare_outcomes(expected, got):
        a, b = expected[1], got[1]
        assert b.names == a.names
        assert b.ingest == a.ingest
        for attr in ("indptr", "indices", "data"):
            x, y = getattr(a.adj, attr), getattr(b.adj, attr)
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert b.content_hash() == a.content_hash()


def same_graph(a: DirectedGraph, b: DirectedGraph) -> None:
    assert b.names == a.names
    for attr in ("indptr", "indices", "data"):
        x, y = getattr(a.adj, attr), getattr(b.adj, attr)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert b.content_hash() == a.content_hash()


@settings(max_examples=300, deadline=None)
@given(text=edge_texts(names=NAMES), chars=st.integers(1, 200))
@example(text="a\tb\t1\rb\tc\t2\r\nc\ta\n", chars=100)
@example(text="a\tb\r\nc\td\rc\n", chars=4)  # a CRLF split between two reads
def test_edge_list_files_match_the_per_line_loader(text, chars, tmp_path_factory):
    """Read from a path: the same graph as text mode reads (any line end),
    and the digest of the file's bytes."""
    path = tmp_path_factory.getbasetemp() / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    with path.open(encoding="utf-8") as f:
        expected = outcome(lambda _: reference_load_edge_list(f), text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", chars)
        got = outcome(lambda _: load_edge_list(path), text)
    if compare_outcomes(expected, got):
        a, b = expected[1], got[1]
        same_graph(a, b)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert b.ingest == dataclasses.replace(a.ingest, sha256=digest)


def test_a_stream_that_splits_lines_at_a_cr_is_read_as_it_splits_them():
    """A stream opened with newline='' hands its CRs over as they are;
    line_blocks ends a line at each lone CR, as in a file, and turns every
    line end into an LF."""
    with pytest.raises(ParseError) as err:
        load_edge_list(io.StringIO("a\tb\rc\n", newline=""))
    assert err.value.line_no == 2
    text = "a\tb\rb\tc\r\nc\ta\n"
    expected = reference_load_edge_list(io.StringIO(text, newline=""))
    same_graph(expected, load_edge_list(io.StringIO(text, newline="")))


def full_outcome(text):
    """load_edge_list's graph, or its ParseError's text and line number."""
    try:
        return load_edge_list(io.StringIO(text))
    except ParseError as exc:
        return str(exc), exc.line_no


@settings(max_examples=200, deadline=None)
@given(text=edge_texts(), chars=st.integers(1, 200))
@example(text="a\tb\t1\nb\tc\t1\nc\ta\t1\n", chars=200)
def test_names_sharing_a_key_are_never_merged(text, chars):
    """With every name given one key, each match is refuted byte for byte:
    the same graph, or the same error at the same line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", chars)
        expected = full_outcome(text)
        mp.setattr(graph, "_name_keys", lambda words, starts, lengths: np.zeros(len(starts), np.uint64))
        got = full_outcome(text)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        same_graph(expected, got)
        assert got.ingest == expected.ingest


def test_only_odd_blocks_take_the_per_line_parser(monkeypatch, tmp_path):
    """Clean blocks take the byte pass, comments and the writer's header
    included, so the property tests above compare two different code paths."""
    per_line_blocks = []
    parse_lines = graph._parse_edge_lines

    def spy(text, *args):
        per_line_blocks.append(text)
        return parse_lines(text, *args)

    monkeypatch.setattr(graph, "_BLOCK_BYTES", 16)
    monkeypatch.setattr(graph, "_parse_edge_lines", spy)
    names = [f"n{i}" for i in range(30)]
    written = DirectedGraph.from_edges(names, np.arange(30), (np.arange(30) * 7) % 30, np.arange(1, 31))
    three, two = tmp_path / "three.tsv", tmp_path / "two.tsv"
    write_edge_list(written, three)
    two.write_text("# links\n" + "".join(f"n{i}\tn{(i * 7) % 30}\n# note\n\n" for i in range(30)))
    assert named_edges(load_edge_list(three)) == named_edges(written)
    assert load_edge_list(two).total_edge_weight == 30
    assert per_line_blocks == []

    # Read 16 characters at a time: the fourth read ends 4 characters into
    # the padded line, and the block the fifth read ends holds it and the
    # two whole lines after it.
    g = load_edge_list(io.StringIO("a\tb\t1\n" * 10 + " a\tc\t2\n" + "b\tc\t2\n" * 10))
    assert g.ingest.lines == 21 and g.total_edge_weight == 32
    assert per_line_blocks == [" a\tc\t2\nb\tc\t2\nb\tc\t2\n"]


# Line text: characters str.splitlines would also split at, but no file does.
LINE_TEXT = st.text(
    st.sampled_from("ab\t \x85\u2028\x0c\x1eé")
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=8,
)


@st.composite
def ended_texts(draw):
    """Lines ending in LF, CRLF or a lone CR in any mix, the last line with
    or without its end."""
    lines = draw(st.lists(st.tuples(LINE_TEXT, st.sampled_from(["\n", "\r\n", "\r"])), max_size=20))
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(lines[-1][1])]
    return text


@settings(max_examples=300, deadline=None)
@given(text=ended_texts(), chars=st.integers(1, 200))
@example(text="ab\r\ncd\n", chars=3)  # a CRLF split between two reads
@example(text="ab\rcd\r", chars=200)  # a CR last in the stream
@example(text="ab\n\r", chars=3)  # a CR alone in the last read
def test_line_blocks_end_every_line_in_one_lf(text, chars, tmp_path_factory):
    """From a path and from a StringIO under every newline setting, the
    blocks end in LF, join to the lines the text holds (as a universal-newline
    read splits them) each ended by one LF, and number their first lines."""
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    streams = [io.StringIO(text, newline=nl) for nl in (None, "", "\n", "\r", "\r\n")]
    # A StringIO holds the text as its newline setting writes it: every line
    # end made LF under None, each LF made CR or CRLF under those two.
    for held, source in [(text, path)] + [(s.getvalue(), s) for s in streams]:
        lines = io.StringIO(held, newline="").readlines()
        expected = "".join(line.rstrip("\r\n") + "\n" for line in lines)
        with textio.open_text(source) as stream:
            blocks = list(textio.line_blocks(stream, chars))
        assert all(block.endswith("\n") for _, block in blocks)
        assert "".join(block for _, block in blocks) == expected
        line_no = 1
        for first_line_no, block in blocks:
            assert first_line_no == line_no
            line_no += block.count("\n")


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e-300, 0.1, 5e-324])
INTS = st.integers(-(2**63), 2**63 - 1)
# Numbers a table writer never produces but float() or int() may accept: the
# bulk reader converts columns in NumPy and must accept and reject exactly these.
ODD_NUMBERS = ["1_0", "1_", " 5", "5 ", "\u30002", "١٢", "１２", "nan", "-nan", "inf",
               "-Infinity", "1e400", "1E5", "0x10", "", "+7", "-0", ".5", "1_000.5", "ⅷ"]


@st.composite
def table_lines(draw):
    kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "fields", "bad_number",
                                               "odd_number", "crlf", "padded", "space"]))
    name = draw(NAMES)
    row = [name, repr(draw(FLOATS)), str(draw(INTS)), repr(draw(FLOATS)),
           str(draw(INTS)), str(draw(INTS))]
    if kind == "comment":
        return draw(st.sampled_from(["# alpha=0.9 note\n", "#x\t1\t1\t1\t1\t1\n"]))
    if kind == "blank":
        return "\n"
    if kind == "fields":
        return "\t".join(row[: draw(st.sampled_from([1, 5, 7]))]) + "\n"
    if kind == "bad_number":
        # Ranks beyond int64 are left out: the reference fails on them only
        # after reading the whole file (see test_out_of_range_rank_is_a_parse_error).
        row[draw(st.integers(1, 5))] = draw(st.sampled_from(["x", "", "1.5", "2**70", "١"]))
    if kind == "odd_number":
        row[draw(st.integers(1, 5))] = draw(st.sampled_from(ODD_NUMBERS))
    if kind == "padded":
        row[draw(st.integers(1, 5))] += " "
    text = "\t".join(row)
    if kind == "space":
        return " " + text + "\n"
    return text + ("\r\n" if kind == "crlf" else "\n")


@st.composite
def odd_table_texts(draw):
    head = draw(st.sampled_from(["", "# alpha=0.85 tol=1e-10\n", "\n# n=3\n"]))
    header = draw(st.sampled_from(["\t".join(_TABLE_COLUMNS) + "\n"] * 5 + ["name\tpagerank\n", ""]))
    text = head + header + "".join(draw(st.lists(table_lines(), max_size=40)))
    if draw(st.booleans()):
        text = text[:-1]
    return text


def int_forms(value: int) -> list[str]:
    """Texts int() reads as value."""
    digits = str(value)
    return [digits, f" {digits}", f"{digits} ", f"+{digits}", f"0{digits}",
            "".join(chr(0x660 + int(d)) for d in digits)]


def ranks_by(values: list[float], tie_order: list[int]) -> list[int]:
    """Each row's 1-based rank by descending value, equal values in tie_order."""
    ranks = [0] * len(values)
    for position, i in enumerate(sorted(tie_order, key=lambda i: -values[i]), start=1):
        ranks[i] = position
    return ranks


@st.composite
def whole_table_texts(draw):
    """Tables a solve could have written, each number in any text float() or
    int() reads the same, some with a row repeated or dropped, a rank
    changed, two ranks of unequal probabilities swapped, a name repeated, or
    a header that gives another size or a bad value."""
    n = draw(st.integers(1, 8))
    names = draw(st.lists(NAMES, min_size=n, max_size=n, unique=True))
    columns, ranks = [], []
    for _ in range(2):
        weights = draw(st.lists(st.integers(1, draw(st.sampled_from([2, 1000]))), min_size=n, max_size=n))
        columns.append([w / sum(weights) for w in weights])
        ranks.append(ranks_by(columns[-1], draw(st.permutations(range(n)))))
    ranks.append(draw(st.permutations(range(1, n + 1))))
    fault = draw(st.sampled_from(["none"] * 4 + ["repeat", "drop", "rank", "order", "name"]))
    if fault == "order":
        column = draw(st.integers(0, 1))
        values = columns[column]
        unequal = [(i, j) for i in range(n) for j in range(i) if values[i] != values[j]]
        if unequal:
            i, j = draw(st.sampled_from(unequal))
            ranks[column][i], ranks[column][j] = ranks[column][j], ranks[column][i]
    elif fault == "name" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        names[i] = names[j]
    rows = []
    for i in range(n):
        floats = [draw(st.sampled_from([repr(p), f" {p!r}", f"{p!r} "])) for p in (c[i] for c in columns)]
        ints = [draw(st.sampled_from(int_forms(r[i]))) for r in ranks]
        rows.append([names[i], floats[0], ints[0], floats[1], ints[1], ints[2]])
    if fault == "repeat":
        rows.append(rows[draw(st.integers(0, n - 1))])
    elif fault == "drop" and n > 1:
        del rows[draw(st.integers(0, n - 1))]
    elif fault == "rank":
        rows[draw(st.integers(0, n - 1))][draw(st.sampled_from([2, 4, 5]))] = str(draw(st.integers(0, n + 1)))
    head = draw(st.sampled_from([
        "", f"# alpha=0.85 n_nodes={n}\n", f"# n_nodes={n + 1}\n", f"# n_nodes=99 subset_size={n}\n",
        f"# n_nodes={n - 1} subset_size={n}\n", "# tol=nan\n", "# max_iter=-5\n", "# graph_hash=xyz\n",
        f"# graph_hash=0123456789abcdef max_iter=100 n_nodes={n} tol=1e-10\n",
    ]))
    return head + "\t".join(_TABLE_COLUMNS) + "\n" + "".join("\t".join(r) + "\n" for r in rows)


table_texts = st.one_of(odd_table_texts(), whole_table_texts())


@settings(max_examples=300, deadline=None)
@given(text=table_texts, chars=st.integers(1, 300))
@example(text="a\t0.5\t1\t0.5\t1\t1\n", chars=100)
@example(text="\t".join(_TABLE_COLUMNS) + "\na\t1.0\t1\t1.0\t1\t1\n", chars=100)
@example(
    text="\t".join(_TABLE_COLUMNS) + "\na\t1_0\t ١٢\t-nan\t1_0\t+7 \nb\t1e400\t-0\t.5\t2\t3\n",
    chars=300,
)
def test_rank_table_blocks_match_the_per_line_reader(text, chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_CHARS", chars)
        expected = outcome(reference_read_rank_table, text)
        got = outcome(read_rank_table, text)
    if compare_outcomes(expected, got):
        a, b = expected[1], got[1]
        assert b.names == a.names and b.meta == a.meta
        for col in ("pagerank", "pagerank_rank", "cheirank", "cheirank_rank", "rank2d"):
            x, y = getattr(a, col), getattr(b, col)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert y.flags.writeable


@pytest.mark.parametrize("column", range(1, 6))
@pytest.mark.parametrize("text", ODD_NUMBERS + ["9223372036854775808", "-9223372036854775809"])
def test_bulk_table_columns_convert_like_float_and_int(text, column):
    """The bulk pass takes a row exactly when every field converts with the
    column's own float() or int(), and to the same value."""
    fields = ["a", "0.5", "1", "0.5", "1", "1"]
    fields[column] = text
    types = twodrank._TABLE_TYPES
    name, code = list(types.items())[column]
    try:
        expected = {"d": float, "q": int}[code](text)
        accepted = code == "d" or -(2**63) <= expected < 2**63
    except ValueError:
        accepted = False
    columns = {k: [] if c == "U" else array(c) for k, c in types.items()}
    assert textio._bulk_columns("\t".join(fields) + "\n", columns, types, "\t") == accepted
    if accepted:
        got = columns[name][0]
        assert np.array([got], dtype=code).tobytes() == np.array([expected], dtype=code).tobytes()


# ---- writers ---------------------------------------------------------------------

WRITTEN_NAMES = st.text(st.characters(blacklist_characters="\t\n\r"), min_size=1, max_size=6)


@st.composite
def graphs(draw):
    names = draw(st.lists(WRITTEN_NAMES, min_size=1, max_size=12, unique=True))
    n = len(names)
    m = draw(st.integers(1, 40))
    src, dst = (draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)) for _ in range(2))
    mult = draw(st.lists(st.integers(1, 2**40), min_size=m, max_size=m))
    return DirectedGraph.from_edges(names, np.asarray(src), np.asarray(dst), np.asarray(mult))


@settings(max_examples=200, deadline=None)
@given(g=graphs(), rows=st.integers(1, 10))
def test_edge_list_writer_matches_the_per_row_writer(g, rows):
    expected, got = io.StringIO(), io.StringIO()
    reference_write_edge_list(g, expected)
    sources = np.flatnonzero(np.diff(g.adj.indptr)).tolist()
    # Padded names and '#' sources would read back changed, so the writer refuses them.
    refused = any(name != name.strip() for name in g.names) or any(
        g.names[i].startswith(COMMENT_CHAR) for i in sources
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_ROWS", rows)
        if refused:
            with pytest.raises(ContractViolation):
                write_edge_list(g, got)
            assert got.getvalue() == ""
        else:
            write_edge_list(g, got)
            assert got.getvalue() == expected.getvalue()


# Names of characters 1, 2, 3 and 4 bytes long in UTF-8, none of them
# whitespace (a padded name is refused) and none starting with '#'.
WIDE_CHARS = st.one_of(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    st.characters(min_codepoint=0x80, max_codepoint=0x7FF),
    st.characters(min_codepoint=0x800, max_codepoint=0xFFFF, blacklist_categories=("Cs",)),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
).filter(lambda c: not c.isspace())
WIDE_NAMES = st.text(WIDE_CHARS, min_size=1, max_size=5).filter(lambda s: s[0] != COMMENT_CHAR)
MULTIPLICITIES = st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1))


@st.composite
def csr_graphs(draw):
    """Graphs built by from_csr, as the generator builds them: isolated nodes,
    self-loops and multiplicities up to 2**63 - 1 included."""
    names = draw(st.lists(WIDE_NAMES, min_size=1, max_size=12, unique=True))
    n = len(names)
    node = st.integers(0, n - 1)
    pairs = sorted(draw(st.sets(st.tuples(node, node), max_size=40)))
    mult = draw(st.lists(MULTIPLICITIES, min_size=len(pairs), max_size=len(pairs)))
    rows = np.bincount(np.array([s for s, _ in pairs], dtype=np.int64), minlength=n)
    indptr = np.concatenate(([0], np.cumsum(rows))).astype(np.int32)
    indices = np.array([t for _, t in pairs], dtype=np.int32)
    return DirectedGraph.from_csr(names, indptr, indices, np.array(mult, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(
    g=csr_graphs(),
    surrogate=st.sampled_from([None, chr(0xDC80), "a" + chr(0xD800), chr(0xD83D) + "x"]),
    rows=st.integers(1, 10),
)
def test_edge_list_bytes_match_the_per_line_writer(g, surrogate, rows, tmp_path_factory):
    """To a path and to a stream; a lone surrogate, which no UTF-8 file can
    hold, only to a stream."""
    if surrogate is not None:
        adj = g.adj
        g = DirectedGraph.from_csr([*g.names[:-1], surrogate], adj.indptr, adj.indices, adj.data)
    expected, got = io.StringIO(), io.StringIO()
    reference_write_edge_list(g, expected)
    path = tmp_path_factory.mktemp("written") / "edges.tsv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_ROWS", rows)
        write_edge_list(g, got)
        assert got.getvalue() == expected.getvalue()
        if surrogate is None:
            write_edge_list(g, path)
            assert path.read_bytes() == expected.getvalue().encode("utf-8")
        else:
            with pytest.raises(ContractViolation, match="UTF-8 cannot encode"):
                write_edge_list(g, path)
            assert not path.exists()


def test_a_block_of_many_long_multiplicities_matches_the_per_line_writer():
    """More distinct multiplicity texts in one block than the writer first
    makes room for."""
    n = 3000
    mult = 10**15 + np.arange(n, dtype=np.int64)  # 16 bytes of text each
    g = DirectedGraph.from_csr(
        [f"n{i}" for i in range(n)],
        np.arange(n + 1, dtype=np.int32),
        np.arange(n, dtype=np.int32)[::-1].copy(),
        mult,
    )
    expected, got = io.StringIO(), io.StringIO()
    reference_write_edge_list(g, expected)
    write_edge_list(g, got)
    assert got.getvalue() == expected.getvalue()


PROBABILITIES = st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 0.1]) | st.floats(0.0, 1.0)
LABELS = st.one_of(st.floats(), st.integers(), st.text(max_size=5))


@st.composite
def tables(draw):
    """Tables RankTable accepts, full and subset: rank columns that follow
    the probabilities, ties in any order, and header values that pass."""
    names = draw(st.lists(WRITTEN_NAMES, min_size=1, max_size=30, unique=True))
    n = len(names)
    full = draw(st.booleans())
    columns = {}
    for key in ("pagerank", "cheirank"):
        values = draw(st.lists(PROBABILITIES, min_size=n, max_size=n))
        if full:
            total = math.fsum(values)
            values = [v / total for v in values] if total else [1.0] + values[1:]
        columns[key] = np.asarray(values, dtype=np.float64)
        columns[f"{key}_rank"] = ranks_by(values, draw(st.permutations(range(n))))
    # A subset table is one whose header has subset_size.
    meta = draw(st.fixed_dictionaries({} if full else {"subset_size": st.just(n)}, optional={
        "n_nodes": st.just(n) if full else st.integers(n, 2**63 - 1) | st.just(str(n)),
        "alpha": st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from(["1", "0.85"]),
        "tol": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "max_iter": st.integers(1, 2**63 - 1),
        "graph_hash": st.text("0123456789abcdef", min_size=16, max_size=16),
        "label": LABELS,
        "n": LABELS,
    }))
    return RankTable(names=names, rank2d=draw(st.permutations(range(1, n + 1))), meta=meta,
                     **columns)


@settings(max_examples=200, deadline=None)
@given(table=tables(), rows=st.integers(1, 10))
def test_rank_table_writer_matches_the_per_row_writer(table, rows):
    expected, got = io.StringIO(), io.StringIO()
    reference_write_rank_table(table, expected)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textio, "_BLOCK_ROWS", rows)
        write_rank_table(table, got)
    assert got.getvalue() == expected.getvalue()


BAD_HEADER_VALUES = {
    "alpha": [math.nan, 0.0, -1.0, 1.5, "abc"],
    "alpha_star": [math.nan, 0.0, math.inf],
    "tol": [math.nan, 0.0, -1e-10, math.inf, "x"],
    "max_iter": [0, -5, math.nan, 1.5, "x", "\u0663"],
    "graph_hash": ["xyz", "0123456789ABCDEF", "0123456789abcde", math.nan],
    "subset_size": [-1, math.nan, "x"],
}


@st.composite
def refused_fields(draw):
    """An accepted table's fields with one of them made bad: a probability
    that is NaN, infinite or outside [0, 1], a rank out of range or
    repeated, or a bad header value."""
    table = draw(tables())
    fields = {f.name: getattr(table, f.name) for f in dataclasses.fields(table) if f.init}
    n = len(table)
    kind = draw(st.sampled_from(["probability", "rank", "header"]))
    if kind == "probability":
        key = draw(st.sampled_from(["pagerank", "cheirank"]))
        bad = st.just(math.nan) | st.floats(max_value=-5e-324) | st.floats(1.0, exclude_min=True)
        fields[key] = fields[key].copy()
        fields[key][draw(st.integers(0, n - 1))] = draw(bad)
    elif kind == "rank":
        key = draw(st.sampled_from(["pagerank_rank", "cheirank_rank", "rank2d"]))
        bad = st.integers(-(2**63), 0) | st.integers(n + 1, 2**63 - 1)
        if n > 1:
            bad |= st.sampled_from(fields[key].tolist())  # a rank twice, one missing
        ranks = fields[key].copy()
        i = draw(st.integers(0, n - 1))
        ranks[i] = draw(bad.filter(lambda r: r != ranks[i]))
        fields[key] = ranks
    else:
        bad = {**BAD_HEADER_VALUES, "n_nodes": [n - 1, "x", math.nan]}
        key = draw(st.sampled_from(sorted(bad)))
        fields["meta"] = {**table.meta, key: draw(st.sampled_from(bad[key]))}
    return fields


@settings(max_examples=300, deadline=None)
@given(fields=refused_fields())
def test_a_table_that_is_not_whole_cannot_be_made(fields):
    """The NaN, infinite, out-of-range and non-permutation columns the writer
    test once drew, and bad header values: RankTable refuses each."""
    with pytest.raises(ContractViolation):
        RankTable(**fields)

