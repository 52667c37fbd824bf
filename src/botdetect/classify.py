"""Application classifier: label flows IRC, HTTP, or OTHER from payload bytes.

The label is decided purely from (proto, payload_prefix).  Port numbers are
deliberately ignored: C&C servers routinely listen on uncommon ports, so the
destination port carries no signal here.  Traffic with no recognizable
prefix (including encrypted traffic) falls through to OTHER and is handled
by the peer-to-peer path.
"""

from __future__ import annotations

import enum
from itertools import compress, repeat
from operator import attrgetter, is_

from .model import FlowRecord, Proto

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
    """
    if rec.proto is not Proto.TCP or not rec.payload_prefix:
        return AppLabel.OTHER
    # a line's trailing \r cannot decide a match: every token ends in a space
    for line in rec.payload_prefix.split(b"\n"):
        if line.startswith(IRC_TOKENS):
            return AppLabel.IRC
    if rec.payload_prefix.startswith(HTTP_METHODS):
        return AppLabel.HTTP
    return AppLabel.OTHER


# the only fields that classify_flow reads
_LABEL_INPUTS = attrgetter("proto", "payload_prefix")


def flow_labels(flows: list[FlowRecord]) -> list[AppLabel]:
    """Each flow's :func:`classify_flow` label, in order.

    The label is decided once per distinct ``(proto, payload_prefix)``, the
    only fields it depends on, and looked up for every flow in C.
    """
    inputs = list(map(_LABEL_INPUTS, flows))
    # one flow per distinct input stands for all the flows that share it
    label = {key: classify_flow(rec) for key, rec in dict(zip(inputs, flows)).items()}
    return list(map(label.__getitem__, inputs))


def partition_by_label(
    flows: list[FlowRecord],
) -> tuple[list[FlowRecord], list[FlowRecord], list[FlowRecord]]:
    """Split flows into (irc, http, other) streams, order preserved."""
    labels = flow_labels(flows)
    irc, http, other = (
        list(compress(flows, map(is_, labels, repeat(label)))) for label in AppLabel
    )
    return irc, http, other
