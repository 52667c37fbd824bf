"""Reading and writing the canonical CSV flow-record format.

This is the only I/O boundary for traffic data, and the parser is the one
way into a ``FlowTable``: ``FlowTable.from_records`` parses what
:func:`write_flow_file` writes.  The wire format is bit-exact: fixed column
order, lowercase enum values, lowercase hex for the payload prefix, and
decimal seconds with up to six fractional digits.
"""

from __future__ import annotations

import math
import re
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .model import PAYLOAD_PREFIX_MAX, FlowRecord, Proto, TcpState, validate_flow
from .table import PROTOS, STATES, FlowTable, TableBuilder, addresses

HEADER = "start_ts,duration,proto,sip,sport,dip,dport,npkts,nbytes,tcp_state,payload_prefix_hex"
_COLUMNS = HEADER.count(",") + 1

_PROTO_BY_NAME = {p.value: p for p in Proto}
_STATE_BY_NAME = {s.value: s for s in TcpState}
_PROTO_NAME = {p: p.value for p in Proto}
_STATE_NAME = {s: s.value for s in TcpState}
_PROTO_CODE = {p.value: code for code, p in enumerate(PROTOS)}
_STATE_CODE = {s.value: code for code, s in enumerate(STATES)}
_PLAIN_SECONDS = re.compile(r"[0-9]++(?:\.[0-9]{1,6}+)?+")
# _VALID_PAIR[proto code, tcp_state code]: the pairs that validate_flow accepts
_VALID_PAIR = np.array([[p is Proto.TCP or s is TcpState.NOT_TCP for s in STATES] for p in PROTOS])

# The file's bytes are cut a block of at least this many bytes at a time,
# each block ending at a line end, and decoded a block at a time: only one
# block is ever decoded and split into lines and columns, so the transient
# memory is bounded, not proportional to the file.
_BLOCK_CHARS = 1 << 16
# the line ends a block may end at, a "\r\n" whole
_LINE_END = re.compile(rb"\r\n?|\n")

# Integers are matched as digit runs, each quantifier possessive: the match
# never branches or backtracks.  _integers checks a column's integers for a
# leading zero all at once.
_PORT = "[0-9]{1,5}+"  # up to 5 digits; _parse_block checks <= 65535
# Up to 19 digits, so below 10**19 < 2**64: a row with a larger counter is
# checked alone by _parse_row, which accepts up to 2**64 - 1.
_COUNTER = "[0-9]{1,19}+"
# one to three digits an octet; _parse_block checks that each is at most
# 255 with no leading zero, as model._DOTTED_QUAD has it
_QUAD = r"\.".join(["[0-9]{1,3}+"] * 4)
# a digit run with a leading zero, after a ","
_LEADING_ZERO = re.compile(",0[0-9]")
# A canonical row with every field in its plainest form (seconds as the
# writer emits them when six fractional digits hold them).  Every other
# field is matched loosely, as a run of the characters it may hold:
# _parse_block checks the integers' leading zeros and ranges, the octets,
# each (proto, tcp_state) pair and each distinct payload's even length.
_ROW = re.compile(
    ",".join(
        (
            _PLAIN_SECONDS.pattern,
            _PLAIN_SECONDS.pattern,
            "[a-z]++",
            _QUAD,
            _PORT,
            _QUAD,
            _PORT,
            _COUNTER,
            _COUNTER,
            "[a-z_]++",
            f"[0-9a-f]{{0,{2 * PAYLOAD_PREFIX_MAX}}}+",
        )
    )
)
# A run of canonical rows, each ended by "\n" or the end of the text, so
# holding no comment, blank line or surrounding whitespace.  The repeat is
# possessive (Python 3.11+): a match keeps no backtracking state per row,
# which for a 64 KiB block would take some 2.8 MB.
_ROWS = re.compile(f"(?:(?:{_ROW.pattern})(?:\n|\\Z))*+")

_lines_with_ends = partial(str.splitlines, keepends=True)


class FlowFileError(ValueError):
    """Base error for unreadable flow files."""


class BadHeader(FlowFileError):
    pass


class MalformedRow(FlowFileError):
    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno
        self.reason = reason


def format_seconds(value: float) -> str:
    """Render seconds with six fractional digits, trimmed.

    Falls back to the ``repr`` of the float for values that six digits
    cannot represent exactly (a numpy float's own ``repr`` names its type),
    so parse(write(x)) always reproduces x.
    """
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    if float(text) == value:
        return text
    return repr(float(value))


def _parse_seconds(name: str, text: str, lineno: int) -> float:
    # canonical only: float() alone would also take "1_0", "+5", "1e3" and " 7";
    # what the writer emits beyond plain decimals (its repr fallback, "-0")
    # is accepted because it renders back to itself
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not (_PLAIN_SECONDS.fullmatch(text) or format_seconds(value) == text):
        raise MalformedRow(lineno, f"bad {name}: {text!r}")
    if not math.isfinite(value):
        raise MalformedRow(lineno, f"{name} must be finite, got {text!r}")
    return value


def _parse_int(name: str, text: str, lineno: int) -> int:
    # canonical decimal only: int() alone would also take "+80", "080" and "1_0"
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise MalformedRow(lineno, f"bad {name}: {text!r}")
    return value


def _parse_row(line: str, lineno: int) -> FlowRecord:
    """Parse one data line, raising :class:`MalformedRow` for its first
    problem (or, for invariants, all of them)."""
    parts = line.split(",")
    if len(parts) != _COLUMNS:
        raise MalformedRow(lineno, f"expected {_COLUMNS} columns, got {len(parts)}")
    proto = _PROTO_BY_NAME.get(parts[2])
    if proto is None:
        raise MalformedRow(lineno, f"unknown proto: {parts[2]!r}")
    state = _STATE_BY_NAME.get(parts[9])
    if state is None:
        raise MalformedRow(lineno, f"unknown tcp_state: {parts[9]!r}")
    # canonical lowercase hex only: fromhex() alone would also take "4E" and "4745 54"
    try:
        payload = bytes.fromhex(parts[10])
    except ValueError:
        payload = None
    if payload is None or payload.hex() != parts[10]:
        raise MalformedRow(lineno, f"bad payload_prefix_hex: {parts[10]!r}")
    rec = FlowRecord(
        start_ts=_parse_seconds("start_ts", parts[0], lineno),
        duration=_parse_seconds("duration", parts[1], lineno),
        proto=proto,
        sip=parts[3],
        sport=_parse_int("sport", parts[4], lineno),
        dip=parts[5],
        dport=_parse_int("dport", parts[6], lineno),
        npkts=_parse_int("npkts", parts[7], lineno),
        nbytes=_parse_int("nbytes", parts[8], lineno),
        tcp_state=state,
        payload_prefix=payload,
    )
    problems = validate_flow(rec)
    if problems:
        raise MalformedRow(lineno, "; ".join(problems))
    return rec


def _blocks(data: bytes, size: int, start: int = 0) -> Iterator[str]:
    """Yield ``data`` from ``start``, a line boundary, decoded in consecutive
    blocks of at least ``size`` bytes (the last may be shorter), each but the
    last ending just after a ``\n``, a ``\r\n`` or a bare ``\r``.

    Each of those always ends a line, and a ``\r\n`` is never split, so the
    blocks' lines are the text's lines, and a block holding less than one
    whole line grows to its end.  Neither byte occurs inside a multi-byte
    UTF-8 sequence, so each block of valid UTF-8 decodes to the matching
    slice of the whole text without that text being built.
    """
    end = len(data)
    while start < end:
        found = _LINE_END.search(data, start + size - 1)
        stop = found.end() if found else end
        yield data[start:stop].decode("utf-8")
        start = stop


def _column_text(block: str) -> tuple[str, int]:
    """The rows of ``block``, whose ``\r\n`` and bare ``\r`` line ends are
    already ``\n``, as text for the column pass, and the count of comment
    and blank lines left out of it; a row outside ``_ROW`` that is bad
    raises its :class:`MalformedRow`, a ``ValueError``.

    ``_ROWS`` matches the runs of canonical rows.  Each line between them,
    up to its ``\n`` and split further where ``str.splitlines`` splits, is
    left out if it is a comment or blank; any other line is checked alone
    by :func:`_parse_row` and kept at its place, stripped and ``\n``-ended.
    Every field :func:`_parse_row` accepts converts in the column pass as a
    canonical one does.
    """
    end = _ROWS.match(block).end()
    if end == len(block):
        return block, 0
    pieces = []
    start = skipped = 0
    while end < len(block):
        pieces.append(block[start:end])
        start = block.find("\n", end) + 1 or len(block)
        for line in block[end:start].splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                skipped += 1
                continue
            _parse_row(line, 0)  # refuses the block; the row path then names the line
            pieces.append(line + "\n")
        end = _ROWS.match(block, start).end()
    pieces.append(block[start:])
    return "".join(pieces), skipped


def _integers(texts: list[str], dtype: type) -> np.ndarray:
    """The decimal digit runs ``texts`` as a ``dtype`` column, parsed in one
    numpy call; ``ValueError`` if any has a leading zero, which
    :func:`_parse_int` refuses."""
    joined = ",".join(texts)
    # the first run has no "," before it in joined
    if _LEADING_ZERO.match("," + texts[0]) or _LEADING_ZERO.search(joined):
        raise ValueError("an integer with a leading zero")
    return np.fromstring(joined, dtype=dtype, sep=",")


def _parse_block(block: str, table: TableBuilder) -> int | None:
    """Add the rows of a block to ``table`` in one column pass and return
    the block's line count; None, adding nothing, unless every row is good.

    A comment or blank line is skipped, and a row outside ``_ROW`` is
    checked on its own and converted with the rest (:func:`_column_text`).
    Every refusal in the pass is a ``KeyError`` or ``ValueError``, caught
    once.  A block with a bad row of either kind is refused whole: checking
    its rows one at a time then raises the first bad line's own error.
    """
    # every "\r\n" and bare "\r" ends a line, as a "\n" does
    if "\r" in block:
        block = block.replace("\r\n", "\n").replace("\r", "\n")
    try:
        rows, skipped = _column_text(block)
        if not rows:
            return skipped
        cells = rows.replace("\n", ",").split(",")
        if rows.endswith("\n"):
            cells.pop()
        start_ts, duration, proto, sip, sport, dip, dport, npkts, nbytes, state, payload = (
            cells[i::_COLUMNS] for i in range(_COLUMNS)
        )
        n = len(start_ts)
        start_ts = np.fromiter(map(float, start_ts), np.float64, n)
        duration = np.fromiter(map(float, duration), np.float64, n)
        # five-digit ports parse exactly as int32, and counters below 2**64 as uint64
        sport = _integers(sport, np.int32)
        dport = _integers(dport, np.int32)
        npkts = _integers(npkts, np.uint64)
        nbytes = _integers(nbytes, np.uint64)
        sip = addresses(sip)
        dip = addresses(dip)
        # an unknown name has no code; fromhex refuses an odd number of
        # digits, each distinct payload decoded before any is added
        proto = np.fromiter(map(_PROTO_CODE.__getitem__, proto), np.uint8, n)
        state = np.fromiter(map(_STATE_CODE.__getitem__, state), np.uint8, n)
        payloads = {text: bytes.fromhex(text) for text in dict.fromkeys(payload)}
    except (KeyError, ValueError):
        return None
    # validate_flow's invariants that _ROW cannot express; digit-only
    # seconds are finite unless they overflow to inf
    if not (
        np.isfinite(start_ts).all()
        and np.isfinite(duration).all()
        and sport.max() <= 65535
        and dport.max() <= 65535
        and _VALID_PAIR[proto, state].all()
        and not (nbytes[npkts == 0] != 0).any()
    ):
        return None
    table.add(
        start_ts, duration, proto, sip, sport, dip, dport, npkts, nbytes, state,
        table.payload_codes(payload, payloads),
    )  # fmt: skip
    return n + skipped


def parse_flow_file(data: bytes) -> FlowTable:
    """Parse a flow CSV into a table of its rows, in row order.

    Raises :class:`BadHeader` on a schema mismatch and :class:`MalformedRow`
    (with its line number) on the first bad row.

    Lines are numbered as ``str.splitlines`` numbers them.  A file that is
    not valid UTF-8 is refused before anything else.  The lines up to and
    including the header are read one at a time.  The rest of the bytes are
    cut at line ends into blocks (:func:`_blocks`), each decoded on its own
    and parsed in one column pass by :func:`_parse_block`, which skips
    comments and blank lines and checks each row outside ``_ROW`` (such as
    the writer's ``1e-07``) on its own with :func:`_parse_row`.  A block
    holding a bad row adds nothing: its lines are then only checked, one at
    a time by :func:`_parse_row`, which raises the first bad row's own
    error.  Beyond ``data`` and the table, the parse holds one block (and,
    checking a non-ASCII file, its whole text for a moment).
    """
    # every UTF-8 error comes first, named by its place in the whole file;
    # the text decoded to find it is dropped before the first block
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FlowFileError(f"flow file is not valid UTF-8: {exc}") from None
    start = 0  # where the rows begin: the byte just after the header's line end
    for lineno, line in enumerate(chain.from_iterable(map(_lines_with_ends, _blocks(data, 1))), 1):
        start += len(line.encode("utf-8"))
        line = line.strip()
        if line == HEADER:
            break
        if line and not line.startswith("#"):
            raise BadHeader(f"line {lineno}: expected header {HEADER!r}")
    else:
        raise BadHeader("missing header line")
    # from here on, lineno is the number of lines before the next block
    table = TableBuilder()
    for block in _blocks(data, _BLOCK_CHARS, start):
        lines = _parse_block(block, table)
        if lines is None:
            # a refused block holds a bad row: the row path names the first
            for n, line in enumerate(map(str.strip, block.splitlines()), lineno + 1):
                if line and not line.startswith("#"):
                    _parse_row(line, n)
            raise AssertionError(f"a block after line {lineno} was refused, yet each of its rows parses")
        lineno += lines
    return table.build()


def write_flow_file(flows: Iterable[FlowRecord]) -> bytes:
    """Serialize flows; inverse of :func:`parse_flow_file` field-for-field."""
    lines = [
        f"{format_seconds(start)},{format_seconds(duration)},{_PROTO_NAME[proto]},"
        f"{sip},{sport},{dip},{dport},{npkts},{nbytes},{_STATE_NAME[state]},{payload.hex()}"
        for start, duration, proto, sip, sport, dip, dport, npkts, nbytes, state, payload in flows
    ]
    return ("\n".join([HEADER, *lines]) + "\n").encode("utf-8")
