"""Reading and writing the canonical CSV flow-record format.

This is the only I/O boundary for traffic data.  The wire format is
bit-exact: fixed column order, lowercase enum values, lowercase hex for the
payload prefix, and decimal seconds with up to six fractional digits.
"""

from __future__ import annotations

import math
import re
from itertools import islice
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

# Lines are split from the decoded text this many characters at a time.
_BLOCK_CHARS = 1 << 16
# Rows are parsed a chunk at a time so that only one chunk is ever split
# into columns: the transient memory is bounded, not proportional to the file.
_CHUNK_ROWS = 1024

_PORT = "(?:0|[1-9][0-9]{0,4})"  # up to 5 digits; _parse_chunk checks <= 65535
_COUNTER = "(?:0|[1-9][0-9]{0,19})"  # up to 20 digits; _parse_chunk checks < 2**64
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


def _lines(text: str, block: int = _BLOCK_CHARS) -> Iterator[str]:
    """Yield ``text.splitlines(keepends=True)`` one line at a time.

    The text is split a block of about ``block`` characters at a time, so
    no list of every line is ever held.  A block's last line may be cut
    short (or be a ``\r`` whose ``\n`` follows), so it is split again
    with the next block; a block holding less than one whole line grows.
    """
    start, end = 0, len(text)
    while start < end:
        lines = text[start : start + block].splitlines(keepends=True)
        if start + block < end:
            if len(lines) < 2:
                block *= 2
                continue
            lines.pop()
        yield from lines
        start += sum(map(len, lines))


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each stripped row after the header,
    skipping blank lines and ``#`` comments; raise :class:`BadHeader` first
    if the header is missing or wrong."""
    # every line boundary that splitlines knows is whitespace, so strip()
    # removes the line end that _lines keeps
    lines = enumerate(_lines(text), start=1)
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            if line != HEADER:
                raise BadHeader(f"line {lineno}: expected header {HEADER!r}")
            break
    else:
        raise BadHeader("missing header line")
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_chunk(rows: list[tuple[int, str]]) -> list[FlowRecord]:
    """Parse ``(lineno, line)`` rows a column at a time.

    The rows must all match the canonical grammar and, as columns, meet
    every invariant that the grammar cannot express; otherwise the chunk
    goes row by row through :func:`_parse_row`, which accepts the rows the
    grammar leaves out (such as the writer's ``1e-07``) and raises the first
    bad row's own message.
    """
    _, lines = zip(*rows)
    if all(map(_ROW.fullmatch, lines)):
        cells = ",".join(lines).split(",")
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
        if (
            math.inf not in start_ts
            and math.inf not in duration
            and max(sport) <= 65535
            and max(dport) <= 65535
            and max(npkts) < 2**64
            and max(nbytes) < 2**64
            and {*zip(proto, state)} <= _VALID_PAIRS
            and not (0 in npkts and any(b for p, b in zip(npkts, nbytes) if not p))
        ):
            return list(
                map(
                    FlowRecord,
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
                )
            )
    return [_parse_row(line, lineno) for lineno, line in rows]


def parse_flow_file(data: bytes) -> list[FlowRecord]:
    """Parse a flow CSV into records, preserving row order.

    Raises :class:`BadHeader` on a schema mismatch and :class:`MalformedRow`
    (with its line number) on the first bad row.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FlowFileError(f"flow file is not valid UTF-8: {exc}") from None
    rows = _data_lines(text)
    records: list[FlowRecord] = []
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        records += _parse_chunk(chunk)
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
