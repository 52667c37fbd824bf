"""Reading and writing the canonical CSV flow-record format.

This is the only I/O boundary for traffic data.  The wire format is
bit-exact: fixed column order, lowercase enum values, lowercase hex for the
payload prefix, and decimal seconds with up to six fractional digits.
"""

from __future__ import annotations

import math
import re
from functools import partial
from itertools import chain, compress
from operator import not_
from typing import Iterator

from .model import _DOTTED_QUAD, PAYLOAD_PREFIX_MAX, FlowRecord, Proto, TcpState, validate_flow

HEADER = "start_ts,duration,proto,sip,sport,dip,dport,npkts,nbytes,tcp_state,payload_prefix_hex"
_COLUMNS = HEADER.count(",") + 1

_PROTO_BY_NAME = {p.value: p for p in Proto}
_STATE_BY_NAME = {s.value: s for s in TcpState}
_PLAIN_SECONDS = re.compile(r"[0-9]+(?:\.[0-9]{1,6})?")
# the (proto, tcp_state) text pairs that validate_flow accepts
_VALID_PAIRS = frozenset(
    (p.value, s.value) for p in Proto for s in TcpState if p is Proto.TCP or s is TcpState.NOT_TCP
)

# The decoded text is split a block of at least this many characters at a
# time, each block ending at a line end: only one block is ever split into
# lines and columns, so the transient memory is bounded, not proportional to
# the file.
_BLOCK_CHARS = 1 << 16
# the line ends a block may end at, a "\r\n" whole
_LINE_END = re.compile(r"\r\n?|\n")

_PORT = "(?:0|[1-9][0-9]{0,4})"  # up to 5 digits; _parse_block checks <= 65535
_COUNTER = "(?:0|[1-9][0-9]{0,19})"  # up to 20 digits; _parse_block checks < 2**64
# A canonical row with every field in its plainest form (seconds as the
# writer emits them when six fractional digits hold them).
_ROW = re.compile(
    ",".join(
        (
            _PLAIN_SECONDS.pattern,
            _PLAIN_SECONDS.pattern,
            "(?:" + "|".join(_PROTO_BY_NAME) + ")",
            _DOTTED_QUAD.pattern,
            _PORT,
            _DOTTED_QUAD.pattern,
            _PORT,
            _COUNTER,
            _COUNTER,
            "(?:" + "|".join(_STATE_BY_NAME) + ")",
            f"(?:[0-9a-f]{{2}}){{0,{PAYLOAD_PREFIX_MAX}}}",
        )
    )
)
# A block of canonical rows, each ended by "\n", "\r\n" or the end of the
# text; so it holds no bare "\r", comment, blank line or surrounding
# whitespace either.  The repeat is possessive (Python 3.11+): a match keeps no
# backtracking state per row, which for a 64 KiB block would take some 2.8 MB.
_ROWS = re.compile(f"(?:(?:{_ROW.pattern})(?:\r?\n|\\Z))*+")

_new_record = partial(tuple.__new__, FlowRecord)  # FlowRecord(*fields) without a Python call
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

    Falls back to ``repr`` for values that six digits cannot represent
    exactly, so parse(write(x)) always reproduces x.
    """
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    if not text:
        text = "0"
    if float(text) == value:
        return text
    return repr(value)


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


def _blocks(text: str, size: int, start: int = 0) -> Iterator[str]:
    """Yield ``text`` from ``start``, a line boundary, in consecutive blocks
    of at least ``size`` characters (the last may be shorter), each but the
    last ending just after a ``\n``, a ``\r\n`` or a bare ``\r``.

    Each of those always ends a line, and a ``\r\n`` is never split, so the
    blocks' lines are the text's lines, and a block holding less than one
    whole line grows to its end.
    """
    end = len(text)
    while start < end:
        found = _LINE_END.search(text, start + size - 1)
        stop = found.end() if found else end
        yield text[start:stop]
        start = stop


def _parse_block(block: str) -> list[FlowRecord] | None:
    """Parse a block of canonical rows a column at a time; None unless
    every row matches ``_ROW`` and meets every invariant."""
    if not _ROWS.fullmatch(block):
        return None
    # after the match, a "\r" can only stand just before a "\n"
    cells = block.replace("\r", "").replace("\n", ",").split(",")
    if block.endswith("\n"):
        cells.pop()
    start_ts, duration, proto, sip, sport, dip, dport, npkts, nbytes, state, payload = (
        cells[i::_COLUMNS] for i in range(_COLUMNS)
    )
    start_ts = list(map(float, start_ts))
    duration = list(map(float, duration))
    sport = list(map(int, sport))
    dport = list(map(int, dport))
    npkts = list(map(int, npkts))
    nbytes = list(map(int, nbytes))
    # validate_flow's invariants that _ROW cannot express; digit-only
    # seconds are finite unless they overflow to inf
    if not (
        math.inf not in start_ts
        and math.inf not in duration
        and max(sport) <= 65535
        and max(dport) <= 65535
        and max(npkts) < 2**64
        and max(nbytes) < 2**64
        and {*zip(proto, state)} <= _VALID_PAIRS
        and not (0 in npkts and any(compress(nbytes, map(not_, npkts))))
    ):
        return None
    return list(
        map(
            _new_record,
            zip(
                start_ts,
                duration,
                map(_PROTO_BY_NAME.__getitem__, proto),
                sip,
                sport,
                dip,
                dport,
                npkts,
                nbytes,
                map(_STATE_BY_NAME.__getitem__, state),
                map(bytes.fromhex, payload),
            ),
        )
    )


def parse_flow_file(data: bytes) -> list[FlowRecord]:
    """Parse a flow CSV into records, preserving row order.

    Raises :class:`BadHeader` on a schema mismatch and :class:`MalformedRow`
    (with its line number) on the first bad row.

    Lines are numbered as ``str.splitlines`` numbers them.  The lines up to
    and including the header are read one at a time.  The rest of the text
    goes in blocks, each parsed as one piece by :func:`_parse_block`, or,
    when it holds a comment, a blank line, a bare ``\r``, surrounding
    whitespace or a row outside ``_ROW``, line by line through
    :func:`_parse_row`, which accepts the rows the grammar leaves out (such
    as the writer's ``1e-07``) and raises the first bad row's own message.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FlowFileError(f"flow file is not valid UTF-8: {exc}") from None
    start = 0  # where the rows begin: just after the header's line end
    for lineno, line in enumerate(chain.from_iterable(map(_lines_with_ends, _blocks(text, 1))), 1):
        start += len(line)
        line = line.strip()
        if line == HEADER:
            break
        if line and not line.startswith("#"):
            raise BadHeader(f"line {lineno}: expected header {HEADER!r}")
    else:
        raise BadHeader("missing header line")
    # from here on, lineno is the number of lines before the next block
    records: list[FlowRecord] = []
    for block in _blocks(text, _BLOCK_CHARS, start):
        parsed = _parse_block(block)
        if parsed is None:
            lines = block.splitlines()
            parsed = [
                _parse_row(line, n)
                for n, line in enumerate(map(str.strip, lines), lineno + 1)
                if line and not line.startswith("#")
            ]
            lineno += len(lines)
        else:
            lineno += block.count("\n")
        records += parsed
    return records


def write_flow_file(flows: list[FlowRecord]) -> bytes:
    """Serialize flows; inverse of :func:`parse_flow_file` field-for-field."""
    lines = [HEADER]
    for rec in flows:
        lines.append(
            ",".join(
                (
                    format_seconds(rec.start_ts),
                    format_seconds(rec.duration),
                    rec.proto.value,
                    rec.sip,
                    str(rec.sport),
                    rec.dip,
                    str(rec.dport),
                    str(rec.npkts),
                    str(rec.nbytes),
                    rec.tcp_state.value,
                    rec.payload_prefix.hex(),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")
