"""The per-window stage graph: window once, then filter, classify, score,
group, cluster and correlate each window.

``window_streams`` and ``group_path`` carry the graph up to grouping;
``detect`` and the ``curves``/``scan-score``/``spam-score`` subcommands all
go through them, so every stage runs on the same windows.  The pipeline
only runs stages: what is reported is decided by ``report.correlate``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from ipaddress import IPv4Network
from typing import Iterator

from .activity import window_activity
from .classify import partition_by_label
from .filtering import FilterOutput, Whitelist, run_filter
from .model import DetectorConfig
from .monitors import GroupingResult, WindowIndex, group_flows_irc, group_flows_p2p, window_partition
from .report import BotnetReport, BotPath, build_report, correlate_irc, correlate_p2p
from .similarity import cluster_groups
from .table import FlowTable


@dataclass(frozen=True)
class WindowStreams:
    """One window's flows after the filter and the classifier."""

    window: WindowIndex
    filtered: FilterOutput
    irc: FlowTable
    http: FlowTable
    other: FlowTable


def window_streams(flows: FlowTable, whitelist: Whitelist, cfg: DetectorConfig) -> Iterator[WindowStreams]:
    """Window the flows once, then filter and classify each window.

    Windows come in ascending index order.  Filtering and classification
    judge one flow at a time, so running them per window yields the same
    streams as running them over the whole input and windowing each.
    """
    for window, window_flows in window_partition(flows, cfg.window_seconds):
        filtered = run_filter(window_flows, whitelist)
        irc, http, other = partition_by_label(filtered.clean)
        yield WindowStreams(window, filtered, irc, http, other)


def group_path(path: BotPath, streams: WindowStreams, cfg: DetectorConfig) -> GroupingResult:
    """Group one window's flows for a path: IRC-labeled flows or OTHER-labeled ones."""
    if path is BotPath.IRC:
        return group_flows_irc(streams.irc, cfg)
    return group_flows_p2p(streams.other, cfg.duration_floor)


def run_detection(
    flows: FlowTable, whitelist: Whitelist, internal: IPv4Network, cfg: DetectorConfig
) -> BotnetReport:
    """Run the whole pipeline over one flow table and build the report.

    Deterministic: the report (and its JSON) is a pure function of the
    inputs, invariant under permutation of the flow rows.
    """
    groups = []
    counts: Counter[str] = Counter()
    for streams in window_streams(flows, whitelist, cfg):
        filtered = streams.filtered
        counts.update(
            whitelisted=filtered.whitelisted_count,
            failed_handshake=len(filtered.failed),
            irc=len(streams.irc),
            http=len(streams.http),
            other=len(streams.other),
        )
        activity = window_activity(filtered.clean, filtered.failed, internal, cfg)
        for path, correlate_path in ((BotPath.P2P, correlate_p2p), (BotPath.IRC, correlate_irc)):
            flow_groups, _ = group_path(path, streams, cfg)
            clusters = cluster_groups(flow_groups, cfg.similarity_threshold, cfg.resample_points)
            groups.extend(correlate_path(clusters, activity, cfg, streams.window))

    counters = {
        "flows_ingested": len(flows),
        "whitelisted": counts["whitelisted"],
        "failed_handshake": counts["failed_handshake"],
        "labels": {label: counts[label] for label in ("irc", "http", "other")},
    }
    return build_report(groups, counters, cfg)
