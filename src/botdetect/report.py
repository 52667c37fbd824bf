"""Correlation of similarity clusters with malicious activity, and the report.

One function, ``correlate``, decides what is reported on both paths: it
splits an IRC cluster by server, then applies its gates, in order:
multi-host, malicious and size.  ``correlate_p2p`` and ``correlate_irc``
are ``correlate`` with its path bound.

The report is a pure function of its inputs and serializes to stable JSON:
top-level keys ``config``, ``counters``, ``groups``.
"""

from __future__ import annotations

import enum
import json
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import partial
from ipaddress import IPv4Address
from typing import Iterable, Mapping

from .activity import HostActivity
from .model import DetectorConfig
from .monitors import WindowIndex
from .similarity import SimilarityCluster


class BotPath(enum.Enum):
    P2P = "p2p"
    IRC = "irc"


@dataclass(frozen=True)
class BotnetGroup:
    window: WindowIndex
    path: BotPath
    hosts: tuple[IPv4Address, ...]
    cluster_keys: tuple[str, ...]
    activity_flags: Mapping[str, dict[str, bool]]


@dataclass(frozen=True)
class BotnetReport:
    groups: tuple[BotnetGroup, ...]
    counters: dict
    config: DetectorConfig


def _flags_for(
    hosts: Iterable[IPv4Address], activity: Mapping[IPv4Address, HostActivity]
) -> dict[str, dict[str, bool]]:
    flags = {}
    for host in hosts:
        act = activity.get(host)
        flags[str(host)] = {
            "isd": bool(act and act.isd_flagged),
            "osd": bool(act and act.scores.flagged),
            "spam": bool(act and act.spam.flagged),
        }
    return flags


def _by_server(cluster: SimilarityCluster) -> list[SimilarityCluster]:
    """``cluster``'s keys split by their ``(dip, dport)``: parts in order of
    their first key, keys in order within each."""
    parts = defaultdict(list)
    for key in cluster.group_keys:
        parts[key.dip, key.dport].append(key)
    return [SimilarityCluster(group_keys=tuple(keys)) for keys in parts.values()]


def correlate(
    path: BotPath,
    clusters: list[SimilarityCluster],
    activity: Mapping[IPv4Address, HostActivity],
    cfg: DetectorConfig,
    window: WindowIndex,
) -> list[BotnetGroup]:
    """The report's groups from one window's clusters on one path.

    On the IRC path each cluster is first split by server, the
    ``(dip, dport)`` of its keys: one IRC botnet's bots talk to one C&C
    server (BotSniffer, Gu, Zhang & Lee, NDSS 2008), so hosts that only
    chat alike on different servers are judged apart.  A cluster, or such a
    part, becomes a group only if it passes every gate, in this order:

    1. *multi-host*: its keys name at least two source hosts; a cluster
       confined to one host carries no cross-host evidence;
    2. *malicious*: on the P2P path, and on the IRC path under
       ``irc_require_malicious``, only the hosts that ``activity`` marks
       malicious are kept;
    3. *size*: at least ``min_group_size`` hosts remain.
    """
    malicious_only = path is BotPath.P2P or cfg.irc_require_malicious
    if path is BotPath.IRC:
        clusters = [part for cluster in clusters for part in _by_server(cluster)]
    groups = []
    for cluster in clusters:
        hosts = cluster.hosts
        if len(hosts) < 2:
            continue
        if malicious_only:
            hosts = tuple(h for h in hosts if h in activity and activity[h].malicious)
        if len(hosts) >= cfg.min_group_size:
            groups.append(
                BotnetGroup(
                    window=window,
                    path=path,
                    hosts=hosts,
                    cluster_keys=tuple(k.label() for k in cluster.group_keys),
                    activity_flags=_flags_for(hosts, activity),
                )
            )
    return groups


correlate_p2p = partial(correlate, BotPath.P2P)
correlate_irc = partial(correlate, BotPath.IRC)


def build_report(
    groups: Iterable[BotnetGroup], counters: dict, cfg: DetectorConfig
) -> BotnetReport:
    """Assemble the final report with canonical group ordering."""
    ordered = tuple(
        sorted(groups, key=lambda g: (g.window.index, g.path.value, g.hosts[0]))
    )
    return BotnetReport(groups=ordered, counters=counters, config=cfg)


def config_echo(cfg: DetectorConfig) -> dict:
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    echo["osd_mode"] = cfg.osd_mode.value
    echo["hs_ports"] = sorted(f"{proto.value}:{port}" for proto, port in cfg.hs_ports)
    return echo


def report_to_dict(report: BotnetReport) -> dict:
    return {
        "config": config_echo(report.config),
        "counters": report.counters,
        "groups": [
            {
                "window": {
                    "index": g.window.index,
                    "start": g.window.start,
                    "end": g.window.end,
                },
                "path": g.path.value,
                "hosts": [str(h) for h in g.hosts],
                "evidence": {
                    "cluster_keys": list(g.cluster_keys),
                    "activity": dict(g.activity_flags),
                },
            }
            for g in report.groups
        ],
    }


def report_to_json(report: BotnetReport) -> str:
    """Deterministic JSON rendering: same report, same bytes."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
