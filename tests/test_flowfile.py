from __future__ import annotations

import tracemalloc
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from botdetect import flowfile
from botdetect.flowfile import (
    _BLOCK_CHARS,
    _ROW,
    HEADER,
    BadHeader,
    FlowFileError,
    MalformedRow,
    _blocks,
    _parse_row,
    format_seconds,
    parse_flow_file,
    write_flow_file,
)
from botdetect.model import FlowRecord, Proto, TcpState
from botdetect.table import FlowTable, TableBuilder

from .conftest import make_flow


def _file(*rows: str) -> bytes:
    return ("\n".join([HEADER, *rows]) + "\n").encode()


class TestParse:
    def test_header_only_gives_empty_list(self):
        assert parse_flow_file(_file()) == []

    def test_single_row_with_payload(self):
        rows = parse_flow_file(
            _file("1000.0,10.0,tcp,10.0.0.5,43211,93.10.1.2,6667,20,1000,established,4e49434b20626f740d0a")
        )
        assert len(rows) == 1
        rec = rows[0]
        assert rec.nbytes == 1000
        assert rec.payload_prefix == b"NICK bot\r\n"
        assert rec.proto is Proto.TCP
        assert rec.tcp_state is TcpState.ESTABLISHED

    def test_wrong_column_count_is_malformed(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_flow_file(_file("1000.0,10.0,tcp,10.0.0.5,43211,93.10.1.2,6667,20,1000,established"))

    def test_bad_header_detected(self):
        with pytest.raises(BadHeader):
            parse_flow_file(b"sip,dip\n")

    def test_missing_header_detected(self):
        with pytest.raises(BadHeader):
            parse_flow_file(b"# only a comment\n")

    def test_comments_and_blank_lines_skipped(self):
        data = ("# leading\n" + HEADER + "\n\n# mid\n"
                "0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,\n").encode()
        assert len(parse_flow_file(data)) == 1

    def test_invariant_violation_is_malformed(self):
        with pytest.raises(MalformedRow, match="not_tcp"):
            parse_flow_file(_file("0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,established,"))

    def test_unparsable_fields_report_line_number(self):
        with pytest.raises(MalformedRow, match="line 3"):
            parse_flow_file(
                _file(
                    "0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,",
                    "zero,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,",
                )
            )

    def test_bad_hex_rejected(self):
        with pytest.raises(MalformedRow, match="payload_prefix_hex"):
            parse_flow_file(_file("0,0,tcp,1.2.3.4,1,5.6.7.8,2,1,10,established,zz"))

    @pytest.mark.parametrize("text", ["1_0", "+80", "080"])
    def test_non_canonical_integer_rejected(self, text):
        with pytest.raises(MalformedRow, match="bad dport"):
            parse_flow_file(_file(f"0,0,udp,1.2.3.4,1,5.6.7.8,{text},1,10,not_tcp,"))

    @pytest.mark.parametrize("text", ["1_0", "+5", "1e3", " 7", ".5", "5.", "1e-7", "+1e-07", "1E-07"])
    def test_non_canonical_seconds_rejected(self, text):
        with pytest.raises(MalformedRow, match="bad duration"):
            parse_flow_file(_file(f"0,{text},udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,"))

    @pytest.mark.parametrize("text", ["7", "1000.0", "0.000001", "1e-07", "0.30000000000000004", "-0"])
    def test_plain_and_written_seconds_accepted(self, text):
        rows = parse_flow_file(_file(f"0,{text},udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,"))
        assert rows[0].duration == float(text)

    @pytest.mark.parametrize("text", ["4745 54", "4E"])
    def test_non_canonical_hex_rejected(self, text):
        with pytest.raises(MalformedRow, match="payload_prefix_hex"):
            parse_flow_file(_file(f"0,0,tcp,1.2.3.4,1,5.6.7.8,2,1,10,established,{text}"))

    @pytest.mark.parametrize("column", ["npkts", "nbytes"])
    @pytest.mark.parametrize("text", [str(2**64), str(10**400)], ids=["2**64", "10**400"])
    def test_counter_past_64_bits_rejected(self, column, text):
        npkts, nbytes = (text, "1") if column == "npkts" else ("1", text)
        row = f"0,0,udp,1.2.3.4,1,5.6.7.8,2,{npkts},{nbytes},not_tcp,"
        with pytest.raises(MalformedRow, match=f"line 3: {column} must be <= 2\\*\\*64 - 1"):
            parse_flow_file(_file("0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,", row))

    def test_largest_counter_accepted(self):
        top = 2**64 - 1
        (rec,) = parse_flow_file(_file(f"0,0,udp,1.2.3.4,1,5.6.7.8,2,{top},{top},not_tcp,"))
        assert rec.npkts == rec.nbytes == top

    def test_not_utf8_rejected(self):
        with pytest.raises(Exception, match="UTF-8"):
            parse_flow_file(b"\xff\xfe" + HEADER.encode())


class TestWrite:
    def test_empty_list_gives_header_only(self):
        assert write_flow_file([]) == (HEADER + "\n").encode()

    def test_single_flow_round_trips(self):
        rec = make_flow(payload=b"NICK bot\r\n")
        data = write_flow_file([rec])
        assert data.decode().count("\n") == 2
        assert parse_flow_file(data) == [rec]

    def test_enums_and_hex_are_lowercase(self):
        rec = make_flow(payload=b"\xab\xcd")
        line = write_flow_file([rec]).decode().splitlines()[1]
        assert ",tcp," in line
        assert line.endswith(",established,abcd")


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0"), (1000.0, "1000"), (10.5, "10.5"), (0.000001, "0.000001"), (21599.999, "21599.999")],
    )
    def test_compact_rendering(self, value, expected):
        assert format_seconds(value) == expected

    def test_fallback_keeps_exactness(self):
        # not representable in 6 decimal digits; numpy's repr names its type
        for value in (0.1 + 0.2, np.float64(1e-7)):
            assert float(format_seconds(value)) == value
            (rec,) = FlowTable.from_records([make_flow(start_ts=value, duration=value)])
            assert rec.start_ts == rec.duration == value


_proto_state = st.one_of(
    st.tuples(st.just(Proto.TCP), st.sampled_from([TcpState.ESTABLISHED, TcpState.SYN_ONLY, TcpState.RESET])),
    st.tuples(st.sampled_from([Proto.UDP, Proto.ICMP, Proto.OTHER]), st.just(TcpState.NOT_TCP)),
)
_ip = st.integers(0, 2**32 - 1).map(lambda v: f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}")
_seconds = st.one_of(
    st.integers(0, 10**9).map(lambda n: n / 1e6),
    st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def flow_records(draw):
    proto, state = draw(_proto_state)
    npkts = draw(st.integers(0, 10**6))
    return FlowRecord(
        start_ts=draw(_seconds),
        duration=draw(_seconds),
        proto=proto,
        sip=draw(_ip),
        sport=draw(st.integers(0, 65535)),
        dip=draw(_ip),
        dport=draw(st.integers(0, 65535)),
        npkts=npkts,
        nbytes=draw(st.integers(0, 10**9)) if npkts else 0,
        tcp_state=state,
        payload_prefix=draw(st.binary(max_size=64)),
    )


class TestRoundTrip:
    @settings(max_examples=200)
    @given(st.lists(flow_records(), max_size=8))
    def test_parse_write_identity(self, flows):
        assert parse_flow_file(write_flow_file(flows)) == flows

    def test_thousand_flow_file_round_trips(self):
        from botdetect.synth import generate, p2p_botnet_scenario

        flows, _ = generate(p2p_botnet_scenario(42))
        assert len(flows) > 900
        assert parse_flow_file(write_flow_file(flows)) == flows


def _row_by_row(data: bytes) -> list[FlowRecord]:
    """The reference parse: every data line through the per-row path in turn."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FlowFileError(f"flow file is not valid UTF-8: {exc}") from None
    records: list[FlowRecord] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header_seen:
            records.append(_parse_row(line, lineno))
        elif line == HEADER:
            header_seen = True
        else:
            raise BadHeader(f"line {lineno}: expected header {HEADER!r}")
    if not header_seen:
        raise BadHeader("missing header line")
    return records


def _outcome(parse, data: bytes) -> tuple[str, str]:
    """What ``parse`` makes of ``data``: the records' repr (exact to the
    float bit), or the error's type and message."""
    try:
        return "records", repr(list(parse(data)))
    except FlowFileError as exc:
        return type(exc).__name__, str(exc)


# replacement text per column, covering every kind of malformed row: bad
# text, non-finite seconds, unknown enums, non-canonical or oversized
# numbers, bad addresses and hex, and broken invariants; some are accepted
_BAD_FIELDS = (
    ("1e3", "+5", "1_0", " 7", "nan", "inf", "1" * 400, "-1", "-0", "1e-07"),
    ("5.", ".5", "1.1234567", "0.30000000000000004", "1" * 400, "-1"),
    ("tcp", "icmp", "TCP", "x", ""),
    ("256.0.0.1", "01.2.3.4", "::1", "1.2.3"),
    ("65535", "65536", "99999", "-1", "080", "1" * 5000),
    ("0.0.0.0", "1.2.3.4.5", "1.2.3.٤"),
    ("0", "65536", "+80", "-0"),
    ("0", "-1", str(2**64 - 1), str(2**64), "0" + "1" * 19, "1" * 5000),
    ("0", "7", str(2**64), "1_0"),
    ("established", "not_tcp", "reset", "x"),
    ("4E", "abc", "zz", "ab" * 64, "ab" * 65, "4745 54"),
)


_BASE_ROW = "0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,"
# how many _BASE_ROW lines fill a block
_BASE_ROWS_PER_BLOCK = _BLOCK_CHARS // len(_BASE_ROW + "\n")
# written rows are some 50 to 200 characters, so this many span one to four blocks
_ROWS_PER_BLOCK = _BLOCK_CHARS // 64


def _mutated_rows():
    """``_BASE_ROW`` with one field replaced, for every text of
    ``_BAD_FIELDS``, and with one column too many and too few."""
    for column, (name, texts) in enumerate(zip(HEADER.split(","), _BAD_FIELDS)):
        for text in texts:
            parts = _BASE_ROW.split(",")
            parts[column] = text
            shown = text if len(text) <= 20 else f"{text[:4]}...({len(text)})"
            yield pytest.param(",".join(parts), id=f"{name}={shown}")
    yield pytest.param(_BASE_ROW + ",x", id="12 columns")
    yield pytest.param(_BASE_ROW.rsplit(",", 1)[0], id="10 columns")


_MUTATED_ROWS = list(_mutated_rows())


@st.composite
def flow_files(draw) -> bytes:
    """A flow file of a few distinct rows repeated to a count near a multiple
    of ``_ROWS_PER_BLOCK``, with comments, blank lines, a chosen line ending and
    (three times in four) one mutated field."""
    rows = write_flow_file(draw(st.lists(flow_records(), min_size=1, max_size=4))).decode()
    distinct = rows.splitlines()[1:]
    near_chunks = st.builds(lambda k, d: k * _ROWS_PER_BLOCK + d, st.integers(1, 2), st.integers(-2, 2))
    count = draw(st.integers(0, 2) | near_chunks)
    lines = [distinct[i % len(distinct)] for i in range(count)]
    if lines and draw(st.integers(0, 3)):
        at = draw(st.integers(0, count - 1))
        parts = lines[at].split(",")
        column = draw(st.integers(0, len(parts)))
        if column == len(parts):  # one column too many or too few
            parts = parts + ["x"] if draw(st.booleans()) else parts[:-1]
        else:
            parts[column] = draw(st.sampled_from(_BAD_FIELDS[column]))
        lines[at] = ",".join(parts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "  ", "# comment", " # indented, comment"])))
    lines.insert(0, HEADER)
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", "# before the header"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (newline.join(lines) + newline).encode()


# every line boundary that str.splitlines knows
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def broken_texts(draw) -> str:
    """Short pieces of text, each followed by a line break: every break
    at least once, in any order (so a lone ``\r`` may meet a ``\n``)."""
    breaks = draw(st.permutations(LINE_BREAKS)) + draw(st.lists(st.sampled_from(LINE_BREAKS)))
    pieces = draw(st.lists(st.text("ab #\t", max_size=4), min_size=len(breaks), max_size=len(breaks)))
    return "".join(piece + brk for piece, brk in zip(pieces, breaks)) + draw(st.text("ab ", max_size=3))


@given(broken_texts(), st.integers(1, 9), st.data())
def test_lines_are_split_where_splitlines_splits(text, block, data):
    lines = text.splitlines(keepends=True)
    skipped = data.draw(st.integers(0, len(lines)), label="lines before the start offset")
    start = len("".join(lines[:skipped]).encode())
    blocks = list(_blocks(text.encode(), block, start))
    assert "".join(blocks) == "".join(lines[skipped:])
    assert all(len(piece.encode()) >= block and piece.endswith(("\n", "\r")) for piece in blocks[:-1])
    # each block ends at a line end, so its lines, numbered on from the
    # blocks before it, are the text's lines
    got = [line for piece in blocks for line in piece.splitlines(keepends=True)]
    assert got == lines[skipped:]


def _numbered_file() -> list[str]:
    """The lines of a flow file with a comment before the header, a blank
    line, an indented comment, a row wrapped in whitespace and six rows."""
    flows = [make_flow(start_ts=i + 0.5, sport=1024 + i, payload=b"NICK x\r\n" * (i % 2)) for i in range(6)]
    rows = write_flow_file(flows).decode().splitlines()[1:]
    return ["# before the header", HEADER, rows[0], "", rows[1], "  # indented", rows[2],
            f" {rows[3]}\t", rows[4], rows[5]]


def _broken(line: str, column: int, text: str) -> str:
    parts = line.split(",")
    parts[column] = text
    return ",".join(parts)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize(
    "bad",
    [None, (2, 2, "xyz"), (2, 4, "65536"), (8, 2, "xyz"), (8, 4, "65536"), (8, 6, "080")],
    ids=["good", "first-row-ungrammatical", "first-row-invariant", "late-row-ungrammatical",
         "late-row-invariant", "late-row-leading-zero"],
)
def test_block_split_parse_agrees_with_the_row_path(newline, bad):
    """At every block size from one character up (so a block's nominal end
    falls at every point of every line, inside rows too, and a bad row comes
    right after a block boundary), the parse equals the row-by-row one."""
    lines = _numbered_file()
    if bad is not None:
        at, column, text = bad
        lines[at] = _broken(lines[at], column, text)
    text = newline.join(lines) + newline
    data = text.encode()
    expected = _outcome(_row_by_row, data)
    if bad is not None:  # an ungrammatical row and one breaking an invariant alike
        assert expected[1].startswith(f"line {at + 1}: ")
    else:
        assert len(_row_by_row(data)) == 6
    ends = set()
    for size in range(1, len(text) + 2):
        with mock.patch.object(flowfile, "_BLOCK_CHARS", size):
            assert _outcome(parse_flow_file, data) == expected, size
        ends.update(accumulate(map(len, _blocks(data, size))))
    if bad is not None:
        assert len(newline.join(lines[:at]) + newline) in ends


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "late-row-invariant"])
def test_non_ascii_comments_keep_their_line_numbers(newline, bad):
    """Valid non-ASCII comments, before the header and among the rows, each
    holding a character that str.splitlines breaks at ("\x85", "\u2028"),
    leave the rows and every line number as the row-by-row parse has them,
    at every block size in bytes (so a block's nominal end falls inside a
    multi-byte character too)."""
    lines = _numbered_file()
    lines[0] = "# café\x85# naïve"  # two lines
    lines[5] = "  # ünïcödé \u2028 # — ok"  # two lines
    if bad:
        lines[8] = _broken(lines[8], 4, "65536")
    data = (newline.join(lines) + newline).encode()
    expected = _outcome(_row_by_row, data)
    if bad:  # line 9 of the list, after two lines split in two
        assert expected[1].startswith("line 11: ")
    else:
        assert len(_row_by_row(data)) == 6
    for size in range(1, len(data) + 2):
        with mock.patch.object(flowfile, "_BLOCK_CHARS", size):
            assert _outcome(parse_flow_file, data) == expected, size


@pytest.mark.parametrize("block", [_BLOCK_CHARS, 1], ids=["default-block", "one-char-block"])
@pytest.mark.parametrize("text", ["080", "00", "0123"])
@pytest.mark.parametrize("column", [4, 6, 7, 8], ids=["sport", "dport", "npkts", "nbytes"])
def test_a_leading_zero_in_an_integer_raises_the_row_path_error(column, text, block):
    """``_ROW`` takes an integer as a run of digits, so a row with a
    leading zero matches it; the column pass refuses its block, in the
    first row of a block as in a later one, and the row path names the
    field and the line."""
    row = _broken(_BASE_ROW, column, text)
    assert _ROW.fullmatch(row)
    data = _file(_BASE_ROW, row, _BASE_ROW)
    name = HEADER.split(",")[column]
    with mock.patch.object(flowfile, "_BLOCK_CHARS", block):
        with pytest.raises(MalformedRow, match=f"^line 3: bad {name}: '{text}'$"):
            parse_flow_file(data)


@pytest.mark.parametrize("digits", [19, 20])
def test_a_counter_past_19_digits_goes_to_the_row_path(digits):
    """``_COUNTER`` takes up to 19 digits; a 20-digit counter below 2**64
    is checked alone by ``_parse_row`` and parses all the same."""
    top = 10**19 - 1 if digits == 19 else 2**64 - 1
    data = _file(_BASE_ROW, _BASE_ROW.replace(",1,10,", f",{top},{top},"))
    with mock.patch.object(flowfile, "_parse_row", wraps=_parse_row) as row_path:
        records = parse_flow_file(data)
    assert records[1].npkts == records[1].nbytes == top and len(str(top)) == digits
    assert row_path.call_count == (digits == 20)


@pytest.mark.parametrize(
    "address", ["0.0.0.0", "255.255.255.255", "256.0.0.1", "01.2.3.4", "1.2.3", "1..2.3", "1.2.3.4.5"]
)
@pytest.mark.parametrize("column", [3, 5], ids=["sip", "dip"])
@pytest.mark.parametrize("at", [2, 8], ids=["first-row", "late-row"])
def test_address_edge_cases_agree_with_the_row_path_at_every_block_size(address, column, at):
    """An address at the edge of ``_ROW``'s loose octets, in either column
    of the first or a late row, parses as row by row at every block size.
    Its block is refused exactly when the address is bad, and a good one
    stays on the column path: only the whitespace-wrapped row goes to
    ``_parse_row``."""
    lines = _numbered_file()
    lines[at] = _broken(lines[at], column, address)
    text = "\n".join(lines) + "\n"
    data = text.encode()
    expected = _outcome(_row_by_row, data)
    for size in range(1, len(text) + 2):
        with mock.patch.object(flowfile, "_BLOCK_CHARS", size):
            assert _outcome(parse_flow_file, data) == expected, size
    with mock.patch.object(flowfile, "_parse_row", wraps=_parse_row) as row_path:
        taken = flowfile._parse_block("\n".join(lines[2:]) + "\n", TableBuilder())
    if expected[0] == "records":
        assert taken == 8 and row_path.call_count == 1
    else:
        assert taken is None and expected[1].startswith(f"line {at + 1}: ")


class TestChunkedParse:
    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(max_size=200)
        | st.binary(max_size=200).map(lambda tail: f"{HEADER}\n".encode() + tail)
        | st.text("0123456789.,-+e abcdf:#tcpudpicmpothernot_tcpestablishedsyn_onlyreset\n\r\x0c")
        .map(lambda tail: f"{HEADER}\n{tail}".encode())
    )
    def test_any_bytes_give_records_or_a_flow_file_error(self, data):
        try:
            records = list(parse_flow_file(data))
        except FlowFileError:
            return
        assert isinstance(records, list)
        assert all(type(rec) is FlowRecord for rec in records)

    @settings(max_examples=120, deadline=None)
    @given(flow_files())
    def test_agrees_with_the_row_by_row_parse(self, data):
        assert _outcome(parse_flow_file, data) == _outcome(_row_by_row, data)

    @settings(max_examples=60, deadline=None)
    @given(flow_files(), st.integers(1, 400))
    def test_agrees_with_the_row_by_row_parse_at_any_block_size(self, data, size):
        with mock.patch.object(flowfile, "_BLOCK_CHARS", size):
            assert _outcome(parse_flow_file, data) == _outcome(_row_by_row, data)

    @pytest.mark.parametrize("row", _MUTATED_ROWS)
    def test_row_in_a_later_chunk_parses_as_row_by_row(self, row):
        rows = [_BASE_ROW] * (_BASE_ROWS_PER_BLOCK + 5)
        rows[_BASE_ROWS_PER_BLOCK + 2] = row
        data = ("# a comment\n" + "\n".join([HEADER, *rows]) + "\n").encode()
        outcome = _outcome(parse_flow_file, data)
        assert outcome == _outcome(_row_by_row, data)
        if outcome[0] != "records":  # named by its own line: comment, header, rows before it
            assert outcome[1].startswith(f"line {2 + _BASE_ROWS_PER_BLOCK + 3}: ")

    def test_written_seconds_in_a_later_chunk_round_trip(self):
        flows = [make_flow(start_ts=float(i)) for i in range(2 * _ROWS_PER_BLOCK)]
        flows[-3] = flows[-3]._replace(duration=1e-07)
        data = write_flow_file(flows)
        assert data.index(b",1e-07,") > _BLOCK_CHARS
        assert parse_flow_file(data) == flows

    @pytest.mark.parametrize(
        "form",
        ["LF", "CRLF", "CR", "comment first", "19-digit counters", "comment every 200 rows",
         "blank line every 200 rows", "1e-07 in every block", "space-wrapped row in every block",
         "20-digit counter"],
    )
    def test_every_row_of_a_written_file_comes_out_of_the_block_parse(self, form):
        """Every line after the header is taken by the block parse: a data
        line outside ``_ROW`` goes to ``_parse_row`` once, on its own, and a
        comment or blank line never does."""
        flows = [make_flow(start_ts=i * 0.5, sport=1024 + i, payload=b"NICK x\r\n" * (i % 2))
                 for i in range(3 * _ROWS_PER_BLOCK)]
        if form == "19-digit counters":  # the largest that _COUNTER matches
            flows = [rec._replace(npkts=10**19 - 1 - i, nbytes=10**19 - 1) for i, rec in enumerate(flows)]
        elif form == "1e-07 in every block":  # some 900 rows fill a block
            flows = [rec._replace(duration=1e-07) if i % 300 == 7 else rec for i, rec in enumerate(flows)]
        elif form == "20-digit counter":
            flows[1500] = flows[1500]._replace(npkts=2**64 - 1, nbytes=2**64 - 1)
        header, *lines = write_flow_file(flows).decode().splitlines()
        if form == "space-wrapped row in every block":
            lines = [f" {line}\t" if i % 300 == 7 else line for i, line in enumerate(lines)]
        elif form in ("comment every 200 rows", "blank line every 200 rows"):
            extra = "# a comment" if form.startswith("comment") else ""
            lines = [new for i, line in enumerate(lines) for new in ([extra, line] if i % 200 == 0 else [line])]
        off_grammar = [line.strip() for line in lines if line and line[0] != "#" and not _ROW.fullmatch(line)]
        text = "\n".join([header, *lines]) + "\n"
        if form == "CRLF":
            text = text.replace("\n", "\r\n")
        elif form == "CR":
            text = text.replace("\n", "\r")
        elif form == "comment first":
            text = "# before the header\n" + text
        parse_block = flowfile._parse_block
        row_path = mock.Mock(wraps=flowfile._parse_row)
        per_block = []  # lines taken, and rows sent to _parse_row

        def counted(block, table):
            before = row_path.call_count
            taken = parse_block(block, table)
            per_block.append((taken or 0, row_path.call_count - before))
            return taken

        with (
            mock.patch.object(flowfile, "_parse_block", counted),
            mock.patch.object(flowfile, "_parse_row", row_path),
        ):
            assert parse_flow_file(text.encode()) == flows
        assert len(per_block) >= 3
        assert sum(taken for taken, _ in per_block) == len(lines)
        assert [call.args[0] for call in row_path.call_args_list] == off_grammar
        assert len(off_grammar) == {"1e-07 in every block": 11, "space-wrapped row in every block": 11,
                                    "20-digit counter": 1}.get(form, 0)
        if form.endswith("in every block"):  # the last block may be short
            assert all(calls for _, calls in per_block[:-1])

    def test_a_utf8_error_in_a_later_block_comes_before_a_bad_row_in_the_first(self):
        rows = [_BASE_ROW] * (2 * _BASE_ROWS_PER_BLOCK)
        rows[1] = _broken(_BASE_ROW, 4, "65536")
        head = _file(*rows)
        data = head + b"# \xff\n"
        assert len(head) > _BLOCK_CHARS
        outcome = _outcome(parse_flow_file, data)
        assert outcome == _outcome(_row_by_row, data)
        assert outcome[0] == "FlowFileError"
        assert f"can't decode byte 0xff in position {len(head) + 2}:" in outcome[1]

    @pytest.mark.parametrize(
        "row, outcome",
        [
            pytest.param(_BASE_ROW.replace(",1,10,", f",{2**64 - 1},{2**64 - 1},"), "records",
                         id="2**64-1 counters"),
            pytest.param(_BASE_ROW.replace(",udp,", ",sctp,"), "MalformedRow", id="unknown proto"),
            pytest.param(_BASE_ROW.replace(",not_tcp,", ",closed,"), "MalformedRow", id="unknown tcp_state"),
            pytest.param(_BASE_ROW.replace(",not_tcp,", ",established,"), "MalformedRow",
                         id="udp established"),
            pytest.param(_BASE_ROW + "abc", "MalformedRow", id="odd-length payload"),
            pytest.param(_BASE_ROW.replace(",udp,", ",tcp,"), "records", id="tcp not_tcp"),
            pytest.param(_BASE_ROW.replace(",udp,", ",icmp,").replace(",not_tcp,", ",established,"),
                         "MalformedRow", id="icmp established"),
            pytest.param("\n".join([_BASE_ROW] * 40 + [_BASE_ROW.replace(",udp,", ",sctp,")]), "MalformedRow",
                         id="unknown proto in a late row"),
        ],
    )
    def test_a_refused_block_adds_nothing_and_takes_the_row_path(self, row, outcome):
        """A block is refused exactly when its row path raises; a good one,
        rows outside ``_ROW`` and all, is added whole."""
        # the first row's payload would be the table's first
        data = _file("0,0,tcp,1.2.3.4,1,5.6.7.8,2,1,10,established,4e49434b", row)
        table = TableBuilder()
        taken = flowfile._parse_block(data.decode().split("\n", 1)[1], table)
        got = _outcome(parse_flow_file, data)
        assert got == _outcome(_row_by_row, data)
        assert got[0] == outcome
        if outcome == "records":
            assert taken == 2 and table.build() == _row_by_row(data)
        else:
            assert taken is None
            assert len(table.build()) == 0 and table.build().payloads == ()

    @pytest.mark.parametrize("newline", ["\n", "\r"], ids=["LF", "CR"])
    def test_transient_memory_is_bounded_by_the_chunk(self, newline):
        # 8192 rows in an 0.8 MB file.  Beyond the records, the parse holds
        # one 64 KiB block, as bytes and as text, with its cells and columns
        # (about 0.6 MB); a list of every line would add about 1.1 MB, and
        # splitting the whole file into columns at once would take about 8 MB.
        data, flows, records, kept, peak = _traced_parse(newline)
        assert records == flows
        assert peak - kept < 2_200_000

    @pytest.mark.parametrize("newline", ["\n", "\r"], ids=["LF", "CR"])
    def test_no_second_copy_of_the_file_is_held(self, newline):
        # the whole decoded text, or the table's chunks beside the joined
        # table, would each come to some 0.8 MB on this file
        data, flows, records, kept, peak = _traced_parse(newline)
        assert records == flows
        assert peak - kept < len(data)


def _traced_parse(newline: str) -> tuple[bytes, list[FlowRecord], FlowTable, int, int]:
    """A written file of 8192 rows ended by ``newline``, its flows, its
    parse, and the memory the parse kept and its peak under tracemalloc."""
    rows = 8192
    flows = [
        make_flow(start_ts=i * 0.5, sip=f"10.0.{i % 7}.{i % 250}", sport=1024 + i, nbytes=1000 + i,
                  payload=b"GET / HTTP/1.1\r\n")
        for i in range(rows)
    ]
    data = write_flow_file(flows).replace(b"\n", newline.encode())
    assert len(data) >= 3 * _BLOCK_CHARS
    tracemalloc.start()
    try:
        records = parse_flow_file(data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return data, flows, records, kept, peak
