from __future__ import annotations

import dataclasses
import json
from ipaddress import IPv4Address, IPv4Network

import pytest

from botdetect.activity import HostActivity, ScanScores, SpamReport
from botdetect.filtering import EMPTY_WHITELIST
from botdetect.model import default_config
from botdetect.monitors import IRCGroupKey, P2PGroupKey, WindowIndex
from botdetect.pipeline import group_path, run_detection, window_streams
from botdetect.report import (
    BotPath,
    build_report,
    config_echo,
    correlate,
    correlate_irc,
    correlate_p2p,
    report_to_json,
)
from botdetect.similarity import SimilarityCluster, cluster_groups
from botdetect.synth import generate, irc_botnet_scenario
from botdetect.table import FlowTable

CFG = default_config()
WINDOW = WindowIndex(index=0, start=0.0, end=21600.0)


SERVER = IPv4Address("198.51.100.7")
OTHER_SERVER = IPv4Address("198.51.100.8")


def cluster(*ips: str, irc: bool = False, server: IPv4Address = SERVER) -> SimilarityCluster:
    """A cluster of one group per host, every group talking to ``server``:
    P2P grouping keys, or IRC ones of one arrival-time bin."""
    hosts = tuple(sorted(IPv4Address(ip) for ip in ips))
    keys = tuple(
        IRCGroupKey(host, server, 40000, 6667, 3, "tcp") if irc else P2PGroupKey(host, server, 6881, "tcp")
        for host in hosts
    )
    return SimilarityCluster(group_keys=keys)


def merged(*clusters: SimilarityCluster) -> SimilarityCluster:
    """One cluster of every key of ``clusters``, in key order."""
    keys = tuple(sorted(k for c in clusters for k in c.group_keys))
    return SimilarityCluster(group_keys=keys)


def hosts_of(group) -> list[str]:
    return [str(h) for h in group.hosts]


def host_activity(flagged: bool) -> HostActivity:
    scores = ScanScores(s1=0.0, s2=0.0, s3=0.0, scans=0, targets=0, flagged=flagged)
    spam = SpamReport(smtp_flows=0, distinct_servers=0, flagged=False)
    return HostActivity(scores=scores, spam=spam, isd_s=0.0, isd_flagged=False)


def activity_map(malicious=(), benign=()) -> dict[IPv4Address, HostActivity]:
    """A window's activity: ``malicious`` hosts flagged by the outbound vote,
    ``benign`` hosts scored but unflagged."""
    activity = {IPv4Address(ip): host_activity(False) for ip in benign}
    activity.update((IPv4Address(ip), host_activity(True)) for ip in malicious)
    return activity


def one_host_cluster(irc: bool) -> SimilarityCluster:
    """Two groups of one host, both talking to ``SERVER``."""
    host = IPv4Address("10.0.0.1")
    if irc:
        keys = tuple(IRCGroupKey(host, SERVER, sport, 6667, 3, "tcp") for sport in (40000, 40001))
    else:
        keys = tuple(P2PGroupKey(host, SERVER, dport, "tcp") for dport in (6881, 6882))
    return SimilarityCluster(group_keys=keys)


class TestCorrelateGates:
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("path", list(BotPath))
    def test_a_single_host_cluster_is_never_reported(self, path, strict):
        cfg = dataclasses.replace(CFG, min_group_size=1, irc_require_malicious=strict)
        activity = activity_map(("10.0.0.1", "10.0.0.2"))
        irc = path is BotPath.IRC
        assert correlate(path, [one_host_cluster(irc)], activity, cfg, WINDOW) == []
        # a second host is cross-host evidence, and the size gate is 1
        (group,) = correlate(path, [cluster("10.0.0.1", "10.0.0.2", irc=irc)], activity, cfg, WINDOW)
        assert hosts_of(group) == ["10.0.0.1", "10.0.0.2"]


class TestCorrelateP2P:
    def test_intersection_with_min_size(self):
        activity = activity_map(("10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"), ("10.0.0.1",))
        groups = correlate_p2p([cluster("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")],
                               activity, CFG, WINDOW)
        assert len(groups) == 1
        assert hosts_of(groups[0]) == ["10.0.0.2", "10.0.0.3", "10.0.0.4"]

    def test_two_common_hosts_is_below_gate(self):
        activity = activity_map(("10.0.0.1", "10.0.0.2"))
        assert correlate_p2p([cluster("10.0.0.1", "10.0.0.2")], activity, CFG, WINDOW) == []

    def test_empty_malicious_set(self):
        activity = activity_map(benign=("10.0.0.1", "10.0.0.2", "10.0.0.3"))
        clusters = [cluster("10.0.0.1", "10.0.0.2", "10.0.0.3")]
        assert correlate_p2p(clusters, activity, CFG, WINDOW) == []

    def test_host_missing_from_activity_is_not_malicious(self):
        # a clustered source outside --internal gets no activity entry
        activity = activity_map(("10.0.0.2", "10.0.0.3", "10.0.0.4"))
        hosts = ("8.8.8.8", "10.0.0.2", "10.0.0.3", "10.0.0.4")
        (group,) = correlate_p2p([cluster(*hosts)], activity, CFG, WINDOW)
        assert hosts_of(group) == ["10.0.0.2", "10.0.0.3", "10.0.0.4"]
        (irc,) = correlate_irc([cluster(*hosts, irc=True)], activity, CFG, WINDOW)
        assert hosts_of(irc) == ["8.8.8.8", "10.0.0.2", "10.0.0.3", "10.0.0.4"]
        assert irc.activity_flags["8.8.8.8"] == {"isd": False, "osd": False, "spam": False}
        assert irc.activity_flags["10.0.0.2"] == {"isd": False, "osd": True, "spam": False}


class TestCorrelateIRC:
    def test_three_host_cluster_emitted_directly(self):
        groups = correlate_irc([cluster("10.0.0.1", "10.0.0.2", "10.0.0.3", irc=True)], {}, CFG, WINDOW)
        assert len(groups) == 1 and groups[0].path is BotPath.IRC

    def test_two_host_cluster_not_emitted(self):
        assert correlate_irc([cluster("10.0.0.1", "10.0.0.2", irc=True)], {}, CFG, WINDOW) == []

    def test_empty(self):
        assert correlate_irc([], {}, CFG, WINDOW) == []

    def test_a_cluster_that_spans_two_servers_is_judged_per_server(self):
        on_one = cluster("10.0.0.1", "10.0.0.2", "10.0.0.3", irc=True)
        on_other = cluster("10.0.0.4", "10.0.0.5", irc=True, server=OTHER_SERVER)
        # five hosts in all, but only three of them on one server
        (group,) = correlate_irc([merged(on_one, on_other)], {}, CFG, WINDOW)
        assert hosts_of(group) == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert group.cluster_keys == tuple(k.label() for k in on_one.group_keys)
        on_other = cluster("10.0.0.4", "10.0.0.5", "10.0.0.6", irc=True, server=OTHER_SERVER)
        groups = correlate_irc([merged(on_one, on_other)], {}, CFG, WINDOW)
        assert [hosts_of(g) for g in groups] == [
            ["10.0.0.1", "10.0.0.2", "10.0.0.3"], ["10.0.0.4", "10.0.0.5", "10.0.0.6"],
        ]

    def test_a_host_chatting_alike_on_its_own_server_is_not_reported(self):
        # benign 10.0.1.16 chats with its own IRC server, and its curve is
        # close enough to a bot's to join the bots' cluster
        flows, truth = generate(irc_botnet_scenario(11))
        table = FlowTable.from_records(flows)
        benign = IPv4Address("10.0.1.16")
        (streams,) = window_streams(table, EMPTY_WHITELIST, CFG)
        groups, _ = group_path(BotPath.IRC, streams, CFG)
        clusters = cluster_groups(groups, CFG.similarity_threshold, CFG.resample_points)
        bots = set(truth.groups[0].hosts)
        assert any(benign in c.hosts and bots <= set(c.hosts) for c in clusters)
        report = run_detection(table, EMPTY_WHITELIST, IPv4Network("10.0.0.0/16"), CFG)
        (group,) = report.groups
        assert set(group.hosts) == bots

    def test_strict_mode_requires_malicious(self):
        strict = dataclasses.replace(CFG, irc_require_malicious=True)
        hosts = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
        clusters = [cluster(*hosts, irc=True)]
        assert correlate_irc(clusters, activity_map(benign=hosts), strict, WINDOW) == []
        assert len(correlate_irc(clusters, activity_map(hosts), strict, WINDOW)) == 1


class TestReport:
    def _one_group(self):
        activity = activity_map(("10.0.0.1", "10.0.0.2", "10.0.0.3"))
        return correlate_p2p([cluster("10.0.0.1", "10.0.0.2", "10.0.0.3")], activity, CFG, WINDOW)

    def test_empty_report_shape(self):
        counters = {"flows_ingested": 0, "whitelisted": 0, "failed_handshake": 0,
                    "labels": {"irc": 0, "http": 0, "other": 0}}
        doc = json.loads(report_to_json(build_report([], counters, CFG)))
        assert set(doc) == {"config", "counters", "groups"}
        assert doc["groups"] == []
        assert doc["counters"] == counters

    def test_group_rendering(self):
        counters = {"flows_ingested": 9, "whitelisted": 1, "failed_handshake": 2,
                    "labels": {"irc": 0, "http": 0, "other": 6}}
        doc = json.loads(report_to_json(build_report(self._one_group(), counters, CFG)))
        (entry,) = doc["groups"]
        assert entry["path"] == "p2p"
        assert entry["hosts"] == ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
        assert entry["window"] == {"index": 0, "start": 0.0, "end": 21600.0}
        assert entry["evidence"]["cluster_keys"] == [
            f"tcp:10.0.0.{i}->198.51.100.7:6881" for i in (1, 2, 3)
        ]
        assert set(entry["evidence"]["activity"]["10.0.0.1"]) == {"isd", "osd", "spam"}

    def test_groups_sorted_by_window_path_first_host(self):
        w1 = WindowIndex(index=1, start=21600.0, end=43200.0)
        activity = activity_map([f"10.0.0.{i}" for i in range(1, 7)])
        later = correlate_p2p([cluster("10.0.0.1", "10.0.0.2", "10.0.0.3")], activity, CFG, w1)
        irc = correlate_irc([cluster("10.0.0.4", "10.0.0.5", "10.0.0.6", irc=True)], activity, CFG, WINDOW)
        p2p = correlate_p2p([cluster("10.0.0.4", "10.0.0.5", "10.0.0.6")], activity, CFG, WINDOW)
        report = build_report(later + p2p + irc, {}, CFG)
        assert [(g.window.index, g.path.value) for g in report.groups] == [
            (0, "irc"), (0, "p2p"), (1, "p2p"),
        ]

    def test_json_is_deterministic(self):
        counters = {"flows_ingested": 1, "whitelisted": 0, "failed_handshake": 0,
                    "labels": {"irc": 0, "http": 0, "other": 1}}
        a = report_to_json(build_report(self._one_group(), counters, CFG))
        b = report_to_json(build_report(self._one_group(), counters, CFG))
        assert a == b

    def test_config_echo_covers_every_field(self):
        echo = config_echo(CFG)
        assert echo["osd_mode"] == "majority"
        assert "tcp:445" in echo["hs_ports"]
        assert echo["irc_require_malicious"] is False
        assert len(echo) == 18
