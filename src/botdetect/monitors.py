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

from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import NamedTuple

from .model import DetectorConfig, FlowRecord, Proto
from .similarity import FlowFeatures, FlowGroup, flow_features

_GROUPABLE = (Proto.TCP, Proto.UDP)


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
    buckets: dict[int, list[FlowRecord]] = {}
    for rec in flows:
        buckets.setdefault(int(rec.start_ts // window_seconds), []).append(rec)
    return [
        (WindowIndex(index=i, start=i * window_seconds, end=(i + 1) * window_seconds), buckets[i])
        for i in sorted(buckets)
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


def _collect_groups(flows, key_fn, key_type, duration_floor: float) -> GroupingResult:
    # key_fn keys by address text; each distinct key becomes one key_type with
    # parsed addresses, so addresses are parsed per group, not per flow, and
    # the groups still sort in numeric address order
    points: dict[tuple, list[FlowFeatures]] = {}
    skipped = 0
    for rec in flows:
        if rec.proto not in _GROUPABLE or rec.npkts < 1:
            skipped += 1
            continue
        points.setdefault(key_fn(rec), []).append(flow_features(rec, duration_floor))
    by_key = {
        key_type(IPv4Address(sip), IPv4Address(dip), *rest): pts
        for (sip, dip, *rest), pts in points.items()
    }
    groups = [FlowGroup(key, tuple(by_key[key])) for key in sorted(by_key)]
    return GroupingResult(groups=groups, skipped=skipped)


def group_flows_p2p(flows: list[FlowRecord], duration_floor: float) -> GroupingResult:
    """Group one window's flows by (sip, dip, dport, proto)."""

    def key_fn(rec: FlowRecord) -> tuple:
        return (rec.sip, rec.dip, rec.dport, rec.proto.value)

    return _collect_groups(flows, key_fn, P2PGroupKey, duration_floor)


def group_flows_irc(flows: list[FlowRecord], cfg: DetectorConfig) -> GroupingResult:
    """Group one window's flows by (sip, dip, sport, dport, PAT bin, proto).

    The PAT bin is floor(start_ts / pat_bin_seconds): exact-time equality
    would never aggregate flow records, while binning captures one-to-many
    push synchrony.
    """

    def key_fn(rec: FlowRecord) -> tuple:
        return (
            rec.sip,
            rec.dip,
            rec.sport,
            rec.dport,
            int(rec.start_ts // cfg.pat_bin_seconds),
            rec.proto.value,
        )

    return _collect_groups(flows, key_fn, IRCGroupKey, cfg.duration_floor)
