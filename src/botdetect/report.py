"""Correlation of similarity clusters with malicious activity, and the report.

One gate, ``correlate``, serves both paths.  A P2P botnet group is a
similarity cluster's hosts that the window's activity map marks malicious,
kept only when at least ``min_group_size`` hosts survive.  IRC clusters are
emitted directly at the same size gate: their grouping key (source port +
arrival-time bin) is already strong evidence of one-to-many C&C pushes.
Setting ``irc_require_malicious`` applies the malicious-intersection rule to
the IRC path as well.  ``correlate_p2p`` and ``correlate_irc`` are
``correlate`` with its path bound.

The report is a pure function of its inputs and serializes to stable JSON:
top-level keys ``config``, ``counters``, ``groups``.
"""

from __future__ import annotations

import enum
import json
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


def correlate(
    path: BotPath,
    clusters: list[SimilarityCluster],
    activity: Mapping[IPv4Address, HostActivity],
    cfg: DetectorConfig,
    window: WindowIndex,
) -> list[BotnetGroup]:
    """One group per cluster whose hosts number at least ``min_group_size``,
    counting only the malicious ones on the P2P path, and on the IRC path
    under ``irc_require_malicious``."""
    malicious_only = path is BotPath.P2P or cfg.irc_require_malicious
    groups = []
    for cluster in clusters:
        hosts = cluster.hosts
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
