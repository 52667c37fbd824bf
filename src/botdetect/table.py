"""Flow records stored a column at a time, the form every stage works on.

A :class:`FlowTable` holds one numpy array per :class:`FlowRecord` field:
addresses as ``uint32``, protocol and TCP state as codes into
:data:`PROTOS` and :data:`STATES`, counters as ``uint64`` and the payload
as a code into the table's distinct payloads.  The flow parser fills one
block by block (:class:`TableBuilder`) and makes no record; windowing,
filtering, classification, grouping and activity index and reduce its
columns.  Iterating a table yields the records it holds.  A table has one
way in, the parser: :meth:`FlowTable.from_records` parses what the writer
writes of the records.  :func:`addresses` is the one dotted-quad parser,
and :func:`runs` the one sort into runs of equal keys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from ipaddress import IPv4Network
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .model import FlowRecord, Proto, TcpState

PROTOS = tuple(Proto)
STATES = tuple(TcpState)
PROTO_CODE = {p: code for code, p in enumerate(PROTOS)}

_new_record = partial(tuple.__new__, FlowRecord)  # FlowRecord(*fields) without a Python call


def addresses(texts: list[str]) -> np.ndarray:
    """The dotted quads ``texts``, each four octets of one to three digits,
    as ``uint32`` addresses, all parsed in one numpy call; ``ValueError``
    unless every octet is at most 255 with no leading zero, as
    ``model._valid_ipv4`` has it."""
    joined = ".".join(texts)
    octets = np.fromstring(joined, dtype=np.uint32, sep=".")
    # a leading zero makes the text longer than its octets' plainest digits
    digits = octets.size + np.count_nonzero(octets >= 10) + np.count_nonzero(octets >= 100)
    if octets.size and (octets.max() > 255 or len(joined) != digits + octets.size - 1):
        raise ValueError("an octet above 255 or with a leading zero")
    octets = octets.reshape(-1, 4)
    return octets[:, 0] << 24 | octets[:, 1] << 16 | octets[:, 2] << 8 | octets[:, 3]


def runs(keys: list[np.ndarray], ties: tuple[np.ndarray, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The rows in key order (``keys[0]`` first, then the ``ties`` columns
    in turn, remaining ties in row order) and the start of each run of
    equal ``keys`` in that order, then the row count."""
    order = np.lexsort([*keys, *ties][::-1])
    changed = np.zeros(len(order), dtype=bool)
    changed[:1] = True
    for key in keys:
        column = key[order]
        changed[1:] |= column[1:] != column[:-1]
    return order, np.append(np.flatnonzero(changed), len(order))


def dotted(values: np.ndarray) -> list[str]:
    """The ``uint32`` addresses ``values`` as dotted quads, each distinct
    value rendered once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    texts = [f"{a >> 24}.{a >> 16 & 255}.{a >> 8 & 255}.{a & 255}" for a in distinct.tolist()]
    return list(map(texts.__getitem__, inverse.tolist()))


def inside(values: np.ndarray, networks: Iterable[IPv4Network]) -> np.ndarray:
    """Whether each ``uint32`` address lies in any of ``networks``: one
    integer mask per network."""
    found = np.zeros(len(values), dtype=bool)
    for network in networks:
        found |= values & int(network.netmask) == int(network.network_address)
    return found


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Flows as columns of equal length, in row order.

    ``payload`` holds each row's index into ``payloads``, the distinct
    payload prefixes; the other columns are named and ordered as the
    :class:`FlowRecord` fields.  Indexing with an integer gives one record;
    with a slice, a boolean mask or an index array it gives a table of
    those rows (sharing ``payloads``).  A table equals a table, list or tuple
    of the same records.
    """

    start_ts: np.ndarray  # float64
    duration: np.ndarray  # float64
    proto: np.ndarray  # uint8 index into PROTOS
    sip: np.ndarray  # uint32
    sport: np.ndarray  # int32
    dip: np.ndarray  # uint32
    dport: np.ndarray  # int32
    npkts: np.ndarray  # uint64
    nbytes: np.ndarray  # uint64
    tcp_state: np.ndarray  # uint8 index into STATES
    payload: np.ndarray  # int32 index into payloads
    payloads: tuple[bytes, ...]

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> FlowTable:
        """The table of ``records``, in order: the parse of what the writer
        writes of them, so a record the parser refuses raises its
        ``flowfile.MalformedRow``."""
        from .flowfile import parse_flow_file, write_flow_file  # flowfile imports this module

        return parse_flow_file(write_flow_file(records))

    def __len__(self) -> int:
        return len(self.start_ts)

    def __iter__(self) -> Iterator[FlowRecord]:
        return map(
            _new_record,
            zip(
                self.start_ts.tolist(),
                self.duration.tolist(),
                map(PROTOS.__getitem__, self.proto.tolist()),
                dotted(self.sip),
                self.sport.tolist(),
                dotted(self.dip),
                self.dport.tolist(),
                self.npkts.tolist(),
                self.nbytes.tolist(),
                map(STATES.__getitem__, self.tcp_state.tolist()),
                map(self.payloads.__getitem__, self.payload.tolist()),
            ),
        )

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            (record,) = self[[index]]
            return record
        # a mask of the table's length is scanned once, not once a column;
        # numpy refuses any other mask as before
        if isinstance(index, np.ndarray) and index.dtype == bool and index.shape == (len(self),):
            index = np.flatnonzero(index)
        return FlowTable(*[column[index] for column in _COLUMNS(self)], self.payloads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FlowTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"FlowTable({list(self)!r})"


# every field but payloads, in order
_COLUMNS = attrgetter(*(f.name for f in fields(FlowTable)[:-1]))


class TableBuilder:
    """A table built a chunk of rows at a time, with one payload index
    shared by every chunk."""

    def __init__(self) -> None:
        self._chunks: tuple[list[np.ndarray], ...] = tuple([] for _ in _DTYPES)  # per column
        self._codes: dict[bytes, int] = {}  # payload -> code, in first-seen order

    def payload_codes(self, values: list, payloads: dict) -> np.ndarray:
        """Each row's payload code; ``payloads`` maps each distinct value,
        in first-seen order, to its payload bytes."""
        codes = self._codes
        code_of = {value: codes.setdefault(payload, len(codes)) for value, payload in payloads.items()}
        return np.fromiter(map(code_of.__getitem__, values), np.int32, len(values))

    def add(self, *columns: np.ndarray) -> None:
        """Append rows given as the table's columns, ``payload`` as codes
        from :meth:`payload_codes`."""
        for chunks, column in zip(self._chunks, columns):
            chunks.append(column)

    def build(self) -> FlowTable:
        """The table of every row added, in order, taking the chunks out of
        the builder: each column's chunks are joined and dropped before the
        next column's, so the chunks and the table are never both held
        whole."""
        columns = []
        for chunks, dtype in zip(self._chunks, _DTYPES):
            # one chunk is taken as it is; with no chunk the column is empty
            column = chunks[0] if len(chunks) == 1 else np.concatenate([np.zeros(0, dtype), *chunks])
            columns.append(column)
            chunks.clear()
        return FlowTable(*columns, tuple(self._codes))


_DTYPES = (
    np.float64, np.float64, np.uint8, np.uint32, np.int32, np.uint32, np.int32,
    np.uint64, np.uint64, np.uint8, np.int32,
)  # fmt: skip
