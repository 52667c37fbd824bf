"""Application classifier: label flows IRC, HTTP, or OTHER from payload bytes.

The label is decided purely from (proto, payload_prefix).  Port numbers are
deliberately ignored: C&C servers routinely listen on uncommon ports, so the
destination port carries no signal here.  Traffic with no recognizable
prefix (including encrypted traffic) falls through to OTHER and is handled
by the peer-to-peer path.
"""

from __future__ import annotations

import enum

import numpy as np

from .model import FlowRecord, Proto
from .table import PROTOS, FlowTable

# Client-side IRC commands; each must start a line and be followed by a space.
IRC_TOKENS = (b"NICK ", b"PASS ", b"USER ", b"JOIN ", b"OPER ", b"PRIVMSG ")

# HTTP request methods; must start the payload itself.
HTTP_METHODS = (b"GET ", b"POST ", b"HEAD ")


class AppLabel(enum.Enum):
    IRC = "irc"
    HTTP = "http"
    OTHER = "other"

    __hash__ = object.__hash__  # as Proto's: identity, in C


def classify_flow(rec: FlowRecord) -> AppLabel:
    """Classify one flow.

    IRC: TCP and any payload line starts with an IRC command token
    (uppercase, case-sensitive).  HTTP: TCP, not IRC, and the payload itself
    starts with a request method.  Everything else: OTHER.  Prefixes shorter
    than a token never match.

    The scalar reference for :func:`flow_labels`, and tested against it, as
    ``curve_similarity`` is for the clustering's scorer.
    """
    return _label(rec.proto, rec.payload_prefix)


def _label(proto: Proto, payload: bytes) -> AppLabel:
    if proto is not Proto.TCP or not payload:
        return AppLabel.OTHER
    # a line's trailing \r cannot decide a match: every token ends in a space
    for line in payload.split(b"\n"):
        if line.startswith(IRC_TOKENS):
            return AppLabel.IRC
    if payload.startswith(HTTP_METHODS):
        return AppLabel.HTTP
    return AppLabel.OTHER


LABELS = tuple(AppLabel)


def flow_labels(table: FlowTable) -> np.ndarray:
    """Each flow's :func:`classify_flow` label, as its index into :data:`LABELS`.

    Only the protocol and the payload decide a label, so it is decided once
    per distinct ``(proto, payload)`` of the table, and every row takes its
    pair's label by index.
    """
    pairs, inverse = np.unique(
        table.proto.astype(np.int64) << 32 | table.payload, return_inverse=True
    )
    decided = [
        LABELS.index(_label(PROTOS[pair >> 32], table.payloads[pair & 0xFFFFFFFF]))
        for pair in pairs.tolist()
    ]
    return np.array(decided, dtype=np.uint8)[inverse]


def partition_by_label(table: FlowTable) -> tuple[FlowTable, FlowTable, FlowTable]:
    """Split flows into (irc, http, other) streams, order preserved."""
    labels = flow_labels(table)
    irc, http, other = (table[labels == code] for code in range(len(LABELS)))
    return irc, http, other
