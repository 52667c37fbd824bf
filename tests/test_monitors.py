from __future__ import annotations

from ipaddress import IPv4Address

import numpy as np
from hypothesis import given, strategies as st

from botdetect.filtering import EMPTY_WHITELIST
from botdetect.model import Proto, default_config
from botdetect.monitors import (
    GroupingResult,
    IRCGroupKey,
    P2PGroupKey,
    group_flows_irc,
    group_flows_p2p,
    window_partition,
)
from botdetect.pipeline import group_path, window_streams
from botdetect.report import BotPath
from botdetect.similarity import FlowGroup, cluster_groups, flow_features
from botdetect.synth import Xorshift64Star, generate, irc_botnet_scenario, p2p_botnet_scenario
from botdetect.table import FlowTable

from .conftest import make_flow, pooled_flows

CFG = default_config()


def candidates(flows, path: BotPath):
    """Each window's multi-host clusters on one path, grouped and clustered
    as the pipeline does it."""
    results = []
    for streams in window_streams(FlowTable.from_records(flows), EMPTY_WHITELIST, CFG):
        groups, _ = group_path(path, streams, CFG)
        clusters = cluster_groups(groups, CFG.similarity_threshold, CFG.resample_points)
        results.append((streams.window, [c for c in clusters if len(c.hosts) >= 2]))
    return results


class TestWindowPartition:
    def test_half_open_boundary(self):
        flows = [make_flow(start_ts=0.0), make_flow(start_ts=21599.999)]
        windows = window_partition(FlowTable.from_records(flows), 21600)
        assert len(windows) == 1
        assert windows[0][0].index == 0
        assert len(windows[0][1]) == 2

    def test_exact_boundary_starts_next_window(self):
        windows = window_partition(FlowTable.from_records([make_flow(start_ts=21600.0)]), 21600)
        assert windows[0][0].index == 1
        assert windows[0][0].start == 21600.0
        assert windows[0][0].end == 43200.0

    def test_empty_input(self):
        assert window_partition(FlowTable.from_records([]), 21600) == []

    def test_empty_windows_omitted_and_order_ascending(self):
        flows = [make_flow(start_ts=90000.0), make_flow(start_ts=10.0)]
        windows = window_partition(FlowTable.from_records(flows), 21600)
        assert [w.index for w, _ in windows] == [0, 4]

    def test_every_flow_lands_in_exactly_one_window(self):
        rng = Xorshift64Star(1)
        flows = [make_flow(start_ts=rng.uniform(0, 10 * 21600)) for _ in range(500)]
        windows = window_partition(FlowTable.from_records(flows), 21600)
        assert sum(len(f) for _, f in windows) == len(flows)
        for window, chunk in windows:
            for rec in chunk:
                assert window.start <= rec.start_ts < window.end

    def test_consecutive_rows_are_a_view_and_interleaved_rows_are_gathered(self):
        rng = Xorshift64Star(2)
        starts = sorted(rng.uniform(0, 3 * 21600) for _ in range(300))
        table = FlowTable.from_records([make_flow(start_ts=t, sport=1024 + i) for i, t in enumerate(starts)])
        ordered = window_partition(table, 21600)
        assert [w.index for w, _ in ordered] == [0, 1, 2]
        assert all(np.shares_memory(flows.start_ts, table.start_ts) for _, flows in ordered)
        # windows 0 and 1 interleaved, each in its own order; window 2 after them
        first, second, third = (np.flatnonzero(table.start_ts // 21600 == i) for i in range(3))
        k = min(len(first), len(second))
        pairs = np.stack([first[:k], second[:k]], axis=1).ravel()
        mixed = table[np.concatenate([pairs, first[k:], second[k:], third])]
        windows = window_partition(mixed, 21600)
        shared = [np.shares_memory(flows.start_ts, mixed.start_ts) for _, flows in windows]
        assert shared == [False, False, True]
        assert [(w, list(flows)) for w, flows in windows] == [(w, list(flows)) for w, flows in ordered]


class TestP2PGrouping:
    def test_same_key_same_group(self):
        flows = [make_flow(sport=1), make_flow(sport=2)]
        groups, skipped = group_flows_p2p(FlowTable.from_records(flows), CFG.duration_floor)
        assert len(groups) == 1 and skipped == 0
        assert len(groups[0].points) == 2

    def test_distinct_dport_distinct_groups(self):
        flows = [make_flow(dport=80), make_flow(dport=81)]
        groups, _ = group_flows_p2p(FlowTable.from_records(flows), CFG.duration_floor)
        assert len(groups) == 2

    def test_icmp_skipped_with_counter(self):
        flow = make_flow(proto=Proto.ICMP, sport=0, dport=0)
        groups, skipped = group_flows_p2p(FlowTable.from_records([flow]), CFG.duration_floor)
        assert groups == [] and skipped == 1

    def test_zero_packet_flows_skipped(self):
        flows = FlowTable.from_records([make_flow(npkts=0, nbytes=0)])
        groups, skipped = group_flows_p2p(flows, CFG.duration_floor)
        assert groups == [] and skipped == 1

    def test_points_permutation_invariant(self):
        flows = [make_flow(sport=i, nbytes=100 * (i + 1)) for i in range(6)]
        a, _ = group_flows_p2p(FlowTable.from_records(flows), CFG.duration_floor)
        b, _ = group_flows_p2p(FlowTable.from_records(list(reversed(flows))), CFG.duration_floor)
        # each group's points come sorted by nbpp, then nbps
        assert a[0].points.tolist() == b[0].points.tolist() == sorted(a[0].points.tolist())


class TestIRCGrouping:
    def test_same_bin_same_group(self):
        flows = [make_flow(start_ts=10.0), make_flow(start_ts=20.0)]
        groups, _ = group_flows_irc(FlowTable.from_records(flows), CFG)
        assert len(groups) == 1

    def test_different_bins_split(self):
        flows = [make_flow(start_ts=10.0), make_flow(start_ts=70.0)]
        groups, _ = group_flows_irc(FlowTable.from_records(flows), CFG)
        assert len(groups) == 2
        assert {g.key.pat_bin for g in groups} == {0, 1}

    def test_sport_splits_groups_unlike_p2p(self):
        flows = [make_flow(sport=1000), make_flow(sport=1001)]
        irc_groups, _ = group_flows_irc(FlowTable.from_records(flows), CFG)
        p2p_groups, _ = group_flows_p2p(FlowTable.from_records(flows), CFG.duration_floor)
        assert len(irc_groups) == 2 and len(p2p_groups) == 1

    def test_refines_p2p_grouping(self):
        flows, _ = generate(irc_botnet_scenario(3))
        established = FlowTable.from_records(
            f for f in flows if f.npkts >= 1 and f.proto in (Proto.TCP, Proto.UDP)
        )
        irc_groups, _ = group_flows_irc(established, CFG)
        p2p_groups, _ = group_flows_p2p(established, CFG.duration_floor)
        p2p_points = {g.key: g.points.tolist() for g in p2p_groups}
        for g in irc_groups:
            projected = (g.key.sip, g.key.dip, g.key.dport, g.key.proto)
            matches = [
                k for k in p2p_points if (k.sip, k.dip, k.dport, k.proto) == projected
            ]
            assert len(matches) == 1
            coarse = p2p_points[matches[0]]
            for point in g.points.tolist():
                assert point in coarse


class TestCanonicalOrder:
    """Groups come out in key field order: numeric addresses, integer ports,
    the protocol last, whatever the input order."""

    P2P_LABELS = [
        "tcp:10.0.0.9->198.51.100.9:80",
        "tcp:10.0.0.9->198.51.100.9:443",
        "tcp:10.0.0.9->198.51.100.10:80",
        "udp:10.0.0.9->198.51.100.10:80",
        "tcp:10.0.0.10->198.51.100.9:80",
    ]

    def p2p_flows(self):
        flows = []
        for label in self.P2P_LABELS:
            proto, rest = label.split(":", 1)
            sip, dst = rest.split("->")
            dip, dport = dst.split(":")
            flows.append(make_flow(proto=Proto(proto), sip=sip, dip=dip, dport=int(dport)))
        return list(reversed(flows))

    def test_p2p_groups(self):
        groups, _ = group_flows_p2p(FlowTable.from_records(self.p2p_flows()), CFG.duration_floor)
        assert [g.key.label() for g in groups] == self.P2P_LABELS

    def test_irc_groups_sort_by_sport_then_dport_then_bin(self):
        flows = [
            make_flow(sport=2000, dport=6667, start_ts=10.0),
            make_flow(sport=900, dport=7000, start_ts=10.0),
            make_flow(sport=900, dport=6667, start_ts=70.0),
        ]
        groups, _ = group_flows_irc(FlowTable.from_records(flows), CFG)
        assert [(g.key.sport, g.key.dport, g.key.pat_bin) for g in groups] == [
            (900, 6667, 1),
            (900, 7000, 0),
            (2000, 6667, 0),
        ]

    def test_cluster_keeps_key_order(self):
        groups, _ = group_flows_p2p(FlowTable.from_records(self.p2p_flows()), CFG.duration_floor)
        clusters = cluster_groups(list(reversed(groups)), CFG.similarity_threshold, CFG.resample_points)
        assert len(clusters) == 1
        assert [k.label() for k in clusters[0].group_keys] == self.P2P_LABELS
        assert [str(h) for h in clusters[0].hosts] == ["10.0.0.9", "10.0.0.10"]


def oracle_groups(flows, key_fn, duration_floor: float) -> GroupingResult:
    """Reference grouping: ``key_fn`` builds the typed key of every flow."""
    points = {}
    skipped = 0
    for rec in flows:
        if rec.proto not in (Proto.TCP, Proto.UDP) or rec.npkts < 1:
            skipped += 1
            continue
        points.setdefault(key_fn(rec), []).append(flow_features(rec, duration_floor))
    groups = [
        FlowGroup(key, np.array(sorted(points[key]), dtype=np.float64).reshape(-1, 2))
        for key in sorted(points)
    ]
    return GroupingResult(groups=groups, skipped=skipped)


def oracle_p2p_key(rec) -> P2PGroupKey:
    return P2PGroupKey(
        sip=IPv4Address(rec.sip),
        dip=IPv4Address(rec.dip),
        dport=rec.dport,
        proto=rec.proto.value,
    )


def oracle_irc_key(rec) -> IRCGroupKey:
    return IRCGroupKey(
        sip=IPv4Address(rec.sip),
        dip=IPv4Address(rec.dip),
        sport=rec.sport,
        dport=rec.dport,
        pat_bin=int(rec.start_ts // CFG.pat_bin_seconds),
        proto=rec.proto.value,
    )


def typed(result: GroupingResult) -> list:
    """Each group with its key's type, which plain tuple equality ignores,
    and its points as (nbpp, nbps) lists."""
    return [(type(g.key), g.key, g.points.tolist()) for g in result.groups]


class TestGroupingOracle:
    """Both paths equal a grouping that parses both addresses of every flow:
    same keys in the same numeric order, same points, same skipped count."""

    @given(st.lists(pooled_flows(), max_size=40))
    def test_p2p(self, flows):
        got = group_flows_p2p(FlowTable.from_records(flows), CFG.duration_floor)
        want = oracle_groups(flows, oracle_p2p_key, CFG.duration_floor)
        assert typed(got) == typed(want)
        assert got.skipped == want.skipped

    @given(st.lists(pooled_flows(), max_size=40))
    def test_irc(self, flows):
        got = group_flows_irc(FlowTable.from_records(flows), CFG)
        want = oracle_groups(flows, oracle_irc_key, CFG.duration_floor)
        assert typed(got) == typed(want)
        assert got.skipped == want.skipped


class TestDetection:
    def test_planted_p2p_bots_recovered(self):
        flows, truth = generate(p2p_botnet_scenario(42))
        results = candidates(flows, BotPath.P2P)
        assert len(results) == 1
        window, clusters = results[0]
        assert window.index == 0
        bots = set(truth.groups[0].hosts)
        assert any(bots <= set(c.hosts) for c in clusters)

    def test_planted_p2p_bots_never_split_across_clusters(self):
        # the monitor stage is deliberately permissive (a cluster may pick up
        # a benign straggler; the correlator strips it), but the planted bots
        # must always land in one cluster together
        for seed in range(1, 11):
            flows, truth = generate(p2p_botnet_scenario(seed))
            results = candidates(flows, BotPath.P2P)
            bots = set(truth.groups[0].hosts)
            containing = [
                c for _, clusters in results for c in clusters if bots & set(c.hosts)
            ]
            assert len(containing) == 1
            assert bots <= set(containing[0].hosts)

    def test_benign_irc_chatter_produces_no_multi_host_clusters(self):
        from botdetect.synth import benign_scenario

        for seed in range(1, 11):
            flows, _ = generate(benign_scenario(seed))
            results = candidates(flows, BotPath.IRC)
            assert all(clusters == [] for _, clusters in results)

    def test_single_host_emits_nothing(self):
        flows = [make_flow(sport=i) for i in range(10)]
        results = candidates(flows, BotPath.P2P)
        assert results[0][1] == []

    def test_disjoint_feature_ranges_emit_nothing(self):
        # two hosts whose nbpp ranges cannot overlap -> similarity 0
        a = [make_flow(sip="10.0.0.1", npkts=10, nbytes=100 + i, sport=i) for i in range(3)]
        b = [make_flow(sip="10.0.0.2", npkts=1, nbytes=90000 + i, sport=i) for i in range(3)]
        results = candidates(a + b, BotPath.P2P)
        assert results[0][1] == []

    def test_planted_irc_bots_recovered(self):
        flows, truth = generate(irc_botnet_scenario(7))
        results = candidates(flows, BotPath.IRC)
        bots = set(truth.groups[0].hosts)
        found = [c for _, clusters in results for c in clusters if bots <= set(c.hosts)]
        assert found

    def test_empty_stream(self):
        assert candidates([], BotPath.IRC) == []

    def test_output_invariant_under_permutation(self):
        flows, _ = generate(p2p_botnet_scenario(5))
        base = candidates(flows, BotPath.P2P)
        assert candidates(list(reversed(flows)), BotPath.P2P) == base
