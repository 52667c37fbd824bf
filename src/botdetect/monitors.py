"""Windowing and per-window flow grouping for the P2P and IRC paths.

The input is carved into fixed windows once; within a window each path
groups flows by a key, and each group's feature points later become one
curve to cluster (see ``pipeline``).  The paths differ only in the key — the
IRC key additionally includes the source port and the quantized flow start
time (its "packet arrival time" bin), because pushed C&C traffic from one
server reaches all its clients over persistent connections at nearly the
same moment.

Flows whose protocol is neither TCP nor UDP carry no grouping semantics
here and are skipped (counted).  So are flows with zero packets, whose
features are undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from ipaddress import IPv4Address
from itertools import compress, repeat
from operator import add, and_, attrgetter, floordiv, gt
from typing import Callable, NamedTuple

from .model import ConfigError, DetectorConfig, FlowRecord, Proto, buckets
from .similarity import FlowGroup, batch_features

_GROUPABLE = frozenset((Proto.TCP, Proto.UDP))
_START_TS, _PROTO, _NPKTS = attrgetter("start_ts"), attrgetter("proto"), attrgetter("npkts")
_P2P_KEY = attrgetter("sip", "dip", "dport", "proto")
_IRC_ENDPOINTS = attrgetter("sip", "dip", "sport", "dport")


def _bins(flows: list[FlowRecord], seconds: float, name: str) -> map:
    """Each flow's bin of ``seconds``, int(start_ts // seconds), in C.

    Raises :class:`ConfigError` naming the setting ``name`` when the last
    bin's end is past the float range: its index or bounds would overflow.
    """
    top = max(map(_START_TS, flows), default=0.0)
    if not math.isfinite((top // seconds + 1) * seconds):
        raise ConfigError(f"{name} = {seconds!r} puts the bin of start_ts {top!r} past the float range")
    return map(int, map(floordiv, map(_START_TS, flows), repeat(seconds)))


@dataclass(frozen=True)
class WindowIndex:
    """Half-open analysis interval [start, end), aligned to absolute time."""

    index: int
    start: float
    end: float


def window_partition(
    flows: list[FlowRecord], window_seconds: float
) -> list[tuple[WindowIndex, list[FlowRecord]]]:
    """Assign each flow to window floor(start_ts / window_seconds).

    Windows come out in ascending index order; empty windows are omitted.
    """
    by_index = buckets(_bins(flows, window_seconds, "window_seconds"), flows)
    return [
        (WindowIndex(index=i, start=i * window_seconds, end=(i + 1) * window_seconds), by_index[i])
        for i in sorted(by_index)
    ]


class P2PGroupKey(NamedTuple):
    """A P2P grouping key; its field order is its canonical sort order."""

    sip: IPv4Address
    dip: IPv4Address
    dport: int
    proto: str  # Proto.value, so keys compare as plain tuples

    def label(self) -> str:
        return f"{self.proto}:{self.sip}->{self.dip}:{self.dport}"


class IRCGroupKey(NamedTuple):
    """An IRC grouping key; its field order is its canonical sort order."""

    sip: IPv4Address
    dip: IPv4Address
    sport: int
    dport: int
    pat_bin: int
    proto: str  # Proto.value, so keys compare as plain tuples

    def label(self) -> str:
        return f"{self.proto}:{self.sip}:{self.sport}->{self.dip}:{self.dport}@b{self.pat_bin}"


class GroupingResult(NamedTuple):
    groups: list[FlowGroup]
    skipped: int


def _collect_groups(
    flows: list[FlowRecord],
    keys: Callable[[list[FlowRecord]], map],
    key_type: type,
    duration_floor: float,
) -> GroupingResult:
    # keys maps the groupable flows to key tuples of address text, the other
    # fields and the Proto member last; each distinct key becomes one key_type
    # with parsed addresses and Proto.value, so addresses are parsed and the
    # value read per group, not per flow, and the groups still sort in
    # numeric address order
    tcp_or_udp = map(_GROUPABLE.__contains__, map(_PROTO, flows))
    has_packets = map(gt, map(_NPKTS, flows), repeat(0))
    kept = list(compress(flows, map(and_, tcp_or_udp, has_packets)))
    points = buckets(keys(kept), batch_features(kept, duration_floor))
    by_key = {
        key_type(IPv4Address(sip), IPv4Address(dip), *rest, proto.value): pts
        for (sip, dip, *rest, proto), pts in points.items()
    }
    groups = [FlowGroup(key, tuple(by_key[key])) for key in sorted(by_key)]
    return GroupingResult(groups=groups, skipped=len(flows) - len(kept))


def group_flows_p2p(flows: list[FlowRecord], duration_floor: float) -> GroupingResult:
    """Group one window's flows by (sip, dip, dport, proto)."""
    return _collect_groups(flows, partial(map, _P2P_KEY), P2PGroupKey, duration_floor)


def group_flows_irc(flows: list[FlowRecord], cfg: DetectorConfig) -> GroupingResult:
    """Group one window's flows by (sip, dip, sport, dport, PAT bin, proto).

    The PAT bin is floor(start_ts / pat_bin_seconds): exact-time equality
    would never aggregate flow records, while binning captures one-to-many
    push synchrony.
    """

    def keys(kept: list[FlowRecord]) -> map:
        tails = zip(_bins(kept, cfg.pat_bin_seconds, "pat_bin_seconds"), map(_PROTO, kept))
        return map(add, map(_IRC_ENDPOINTS, kept), tails)

    return _collect_groups(flows, keys, IRCGroupKey, cfg.duration_floor)
