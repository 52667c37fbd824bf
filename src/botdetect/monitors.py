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
from ipaddress import IPv4Address
from typing import NamedTuple

import numpy as np

from .model import ConfigError, DetectorConfig, Proto
from .similarity import FlowGroup, batch_features
from .table import PROTOS, FlowTable, runs

# whether flows of each protocol are grouped, by protocol code; the two that
# are come in the order of their values ("tcp" < "udp"), so keys sorted by
# code are sorted by Proto.value
_GROUPABLE = np.array([proto in (Proto.TCP, Proto.UDP) for proto in PROTOS])


def _bins(start_ts: np.ndarray, seconds: float, name: str) -> np.ndarray:
    """Each start's bin of ``seconds``, ``start_ts // seconds`` as float64.

    numpy's float floor division is Python's, so ``int`` of a bin is
    ``int(ts // seconds)``; an integral float stands for its int exactly,
    so bins compare, sort and group as their ints do, and only the ones
    kept need converting.  Raises :class:`ConfigError` naming the setting
    ``name`` when the last bin's end is past the float range: its index or
    bounds would overflow.
    """
    top = float(start_ts.max()) if len(start_ts) else 0.0
    if not math.isfinite((top // seconds + 1) * seconds):
        raise ConfigError(f"{name} = {seconds!r} puts the bin of start_ts {top!r} past the float range")
    return np.floor_divide(start_ts, seconds)


@dataclass(frozen=True)
class WindowIndex:
    """Half-open analysis interval [start, end), aligned to absolute time."""

    index: int
    start: float
    end: float


def window_partition(table: FlowTable, window_seconds: float) -> list[tuple[WindowIndex, FlowTable]]:
    """Assign each flow to window floor(start_ts / window_seconds).

    Windows come out in ascending index order, each window's flows in
    their input order; empty windows are omitted.  A window whose rows are
    consecutive in ``table``, as every window of a time-ordered file is, is
    a view of its rows (a slice, sharing memory with ``table``); any other
    window's rows are gathered into a table of their own.
    """
    bins = _bins(table.start_ts, window_seconds, "window_seconds")
    order, starts = runs([bins])
    windows = []
    for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):
        rows = order[start:stop]  # ascending: the sort is stable
        first, last = int(rows[0]), int(rows[-1])
        flows = table[first : last + 1] if last - first + 1 == len(rows) else table[rows]
        i = int(bins[first])
        windows.append(
            (WindowIndex(index=i, start=i * window_seconds, end=(i + 1) * window_seconds), flows)
        )
    return windows


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
    table: FlowTable, key_columns: list[np.ndarray], key_type: type, duration_floor: float
) -> list[FlowGroup]:
    # key_columns are the groupable rows' key columns in key_type's field
    # order: sip and dip as uint32, the other fields as ints or float bins,
    # proto last as its code; addresses become IPv4Address and the code
    # Proto.value once per group, and the groups come in numeric key order,
    # each group's points sorted by nbpp, then nbps
    nbpp, nbps = batch_features(table.npkts, table.nbytes, table.duration, duration_floor)
    order, starts = runs(key_columns, (nbpp, nbps))
    points = np.column_stack((nbpp[order], nbps[order]))
    points.flags.writeable = False
    firsts = order[starts[:-1]]
    sips, dips, *rest, protos = (column[firsts].tolist() for column in key_columns)
    address = {value: IPv4Address(value) for value in {*sips, *dips}}
    return [
        FlowGroup(
            key_type(address[sip], address[dip], *map(int, fields), PROTOS[proto].value),
            points[start:stop],
        )
        for sip, dip, *fields, proto, start, stop in zip(
            sips, dips, *rest, protos, starts[:-1].tolist(), starts[1:].tolist()
        )
    ]


def _groupable(table: FlowTable) -> tuple[FlowTable, int]:
    """The TCP and UDP flows with packets, and how many others were skipped."""
    kept = table[_GROUPABLE[table.proto] & (table.npkts > 0)]
    return kept, len(table) - len(kept)


def group_flows_p2p(flows: FlowTable, duration_floor: float) -> GroupingResult:
    """Group one window's flows by (sip, dip, dport, proto)."""
    kept, skipped = _groupable(flows)
    keys = [kept.sip, kept.dip, kept.dport, kept.proto]
    return GroupingResult(_collect_groups(kept, keys, P2PGroupKey, duration_floor), skipped)


def group_flows_irc(flows: FlowTable, cfg: DetectorConfig) -> GroupingResult:
    """Group one window's flows by (sip, dip, sport, dport, PAT bin, proto).

    The PAT bin is floor(start_ts / pat_bin_seconds): exact-time equality
    would never aggregate flow records, while binning captures one-to-many
    push synchrony.
    """
    kept, skipped = _groupable(flows)
    bins = _bins(kept.start_ts, cfg.pat_bin_seconds, "pat_bin_seconds")
    keys = [kept.sip, kept.dip, kept.sport, kept.dport, bins, kept.proto]
    return GroupingResult(_collect_groups(kept, keys, IRCGroupKey, cfg.duration_floor), skipped)
