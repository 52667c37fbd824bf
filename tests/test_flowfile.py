from __future__ import annotations

import tracemalloc
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from botdetect import flowfile
from botdetect.flowfile import (
    _BLOCK_CHARS,
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

    @pytest.mark.parametrize("text", ["1_0", "+5", "1e3", " 7", ".5", "5."])
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
        value = 0.1 + 0.2  # not representable in 6 decimal digits
        assert float(format_seconds(value)) == value


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
        return "records", repr(parse(data))
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
    start = sum(map(len, lines[:skipped]))
    blocks = list(_blocks(text, block, start))
    assert "".join(blocks) == text[start:]
    assert all(len(piece) >= block and piece.endswith(("\n", "\r")) for piece in blocks[:-1])
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
    [None, (2, 2, "xyz"), (2, 4, "65536"), (8, 2, "xyz"), (8, 4, "65536")],
    ids=["good", "first-row-ungrammatical", "first-row-invariant", "late-row-ungrammatical",
         "late-row-invariant"],
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
        ends.update(accumulate(map(len, _blocks(text, size))))
    if bad is not None:
        assert len(newline.join(lines[:at]) + newline) in ends


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
            records = parse_flow_file(data)
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

    @pytest.mark.parametrize("form", ["LF", "CRLF", "comment first"])
    def test_every_row_of_a_written_file_comes_out_of_the_block_parse(self, form):
        flows = [make_flow(start_ts=i * 0.5, sport=1024 + i, payload=b"NICK x\r\n" * (i % 2))
                 for i in range(3 * _ROWS_PER_BLOCK)]
        text = write_flow_file(flows).decode()
        if form == "CRLF":
            text = text.replace("\n", "\r\n")
        elif form == "comment first":
            text = "# before the header\n" + text
        parse_block = flowfile._parse_block
        rows_per_block = []

        def counted(block):
            records = parse_block(block)
            rows_per_block.append(len(records or ()))
            return records

        with (
            mock.patch.object(flowfile, "_parse_block", counted),
            mock.patch.object(flowfile, "_parse_row", side_effect=AssertionError("parsed row by row")),
        ):
            assert parse_flow_file(text.encode()) == flows
        assert len(rows_per_block) >= 3
        assert sum(rows_per_block) == len(flows)

    @pytest.mark.parametrize("newline", ["\n", "\r"], ids=["LF", "CR"])
    def test_transient_memory_is_bounded_by_the_chunk(self, newline):
        # 8192 rows in an 0.8 MB file.  Beyond the records, the parse holds
        # the decoded text (about 0.8 MB) and one 64 KiB block with its cells
        # and columns (about 0.6 MB); a list of every line would add about
        # 1.1 MB, and splitting the whole file into columns at once would
        # take about 8 MB.
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
        assert records == flows
        assert peak - kept < 2_200_000
