from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, strategies as st

from botdetect.activity import (
    AllZero,
    FailedCounts,
    HostActivity,
    count_failed,
    entropy_norm,
    inside_texts,
    isd_score,
    osd_s2,
    osd_scores,
    osd_vote,
    spam_detect,
    window_activity,
)
from botdetect.model import OsdMode, Proto, TcpState, default_config

from .conftest import make_flow, pooled_flows

CFG = default_config()


def malicious(all_flows, failed_flows, internal):
    """Hosts flagged by any detector, as the pipeline selects them from window_activity."""
    activity = window_activity(all_flows, failed_flows, internal, CFG)
    return sorted(host for host, act in activity.items() if act.malicious)


def scan_flow(i: int, dport: int = 8080, sip: str = "10.0.0.5") -> object:
    return make_flow(
        sip=sip, dip=f"198.51.{i // 250}.{i % 250 + 1}", dport=dport,
        tcp_state=TcpState.SYN_ONLY, npkts=1, nbytes=60, duration=0.0, sport=2000 + i,
    )


class TestIsdScore:
    def test_zero_counts(self):
        assert isd_score(FailedCounts(0, 0), 3.0, 1.0) == 0.0

    def test_hand_arithmetic(self):
        assert isd_score(FailedCounts(fhs=2, fls=5), 3.0, 1.0) == 11.0

    def test_crosses_default_threshold(self):
        score = isd_score(FailedCounts(fhs=4, fls=0), 3.0, 1.0)
        assert score == 12.0 and score >= CFG.isd_threshold

    def test_linear_in_counts(self):
        a, b = FailedCounts(2, 3), FailedCounts(5, 1)
        combined = FailedCounts(a.fhs + b.fhs, a.fls + b.fls)
        assert isd_score(combined, 3.0, 1.0) == isd_score(a, 3.0, 1.0) + isd_score(b, 3.0, 1.0)


class TestOsdS2:
    def test_no_scans_is_zero(self):
        assert osd_s2(FailedCounts(5, 5), 2.0, 1.0, 0) == 0.0

    def test_hand_arithmetic(self):
        assert osd_s2(FailedCounts(fhs=2, fls=2), 2.0, 1.0, 10) == 0.6

    def test_all_failed_low_severity_with_unit_weight(self):
        assert osd_s2(FailedCounts(fhs=0, fls=25), 3.0, 1.0, 25) == 1.0


class TestEntropyNorm:
    def test_uniform_is_one(self):
        assert entropy_norm([1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_single_target_is_zero(self):
        assert entropy_norm([17]) == 0.0

    def test_direct_summation_oracle(self):
        # counts (2,1,1): H = 1.0397207708399179, ln 3 = 1.0986122886681098
        assert entropy_norm([2, 1, 1]) == pytest.approx(0.946394630357186, abs=1e-12)

    def test_zeros_dropped(self):
        assert entropy_norm([0, 5, 0, 5]) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(AllZero):
            entropy_norm([0, 0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_norm([3, -1])

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50).filter(lambda c: sum(c) > 0))
    def test_bounded_and_permutation_invariant(self, counts):
        value = entropy_norm(counts)
        assert 0.0 <= value <= 1.0
        assert entropy_norm(list(reversed(counts))) == value

    @given(st.integers(2, 64), st.integers(1, 1000))
    def test_equal_counts_hit_one_exactly(self, m, k):
        assert abs(entropy_norm([k] * m) - 1.0) <= 1e-12


class TestVote:
    def test_majority_two_of_three(self):
        cfg = dataclasses.replace(CFG, osd_mode=OsdMode.MAJORITY)
        assert osd_vote(10.0, 1.0, 0.0, cfg) is True

    def test_and_requires_all(self):
        cfg = dataclasses.replace(CFG, osd_mode=OsdMode.AND)
        assert osd_vote(10.0, 0.0, 0.0, cfg) is False

    def test_or_needs_any(self):
        cfg = dataclasses.replace(CFG, osd_mode=OsdMode.OR)
        assert osd_vote(10.0, 0.0, 0.0, cfg) is True

    @given(st.floats(0, 10), st.floats(0, 2), st.floats(0, 1))
    def test_lattice_implication(self, s1, s2, s3):
        a = osd_vote(s1, s2, s3, dataclasses.replace(CFG, osd_mode=OsdMode.AND))
        m = osd_vote(s1, s2, s3, dataclasses.replace(CFG, osd_mode=OsdMode.MAJORITY))
        o = osd_vote(s1, s2, s3, dataclasses.replace(CFG, osd_mode=OsdMode.OR))
        assert (not a or m) and (not m or o)


class TestOsdScores:
    def test_no_flows_all_zero(self):
        scores = osd_scores([], [], CFG)
        assert (scores.scans, scores.targets) == (0, 0)
        assert scores.s1 == scores.s2 == scores.s3 == 0.0
        assert scores.flagged is False

    def test_hundred_uniform_failures(self):
        failed = [scan_flow(i) for i in range(100)]
        scores = osd_scores([], failed, CFG)
        assert scores.s1 == pytest.approx(100 / 360)
        assert scores.s3 == pytest.approx(1.0, abs=1e-12)
        assert scores.s2 == 1.0  # all low-severity, w2 = 1
        assert scores.scans == 100 and scores.targets == 100
        assert scores.flagged is True  # s2 and s3 vote under MAJORITY

    def test_single_target_entropy_zero(self):
        failed = [
            make_flow(dip="198.51.100.9", tcp_state=TcpState.SYN_ONLY, sport=i, npkts=1, nbytes=60)
            for i in range(50)
        ]
        scores = osd_scores([], failed, CFG)
        assert scores.s3 == 0.0 and scores.targets == 1

    def test_min_scans_gate(self):
        failed = [scan_flow(i) for i in range(9)]  # below osd_min_scans=10
        scores = osd_scores([], failed, CFG)
        assert scores.flagged is False

    def test_high_severity_ports_weighted(self):
        failed = [scan_flow(i, dport=445) for i in range(10)]
        scores = osd_scores([], failed, CFG)
        assert scores.s2 == 3.0  # w1 * fhs / C


class TestCountFailed:
    def test_split_by_port_severity(self):
        flows = [scan_flow(0, dport=445), scan_flow(1, dport=8080), scan_flow(2, dport=1433)]
        fc = count_failed(flows, CFG.hs_ports)
        assert (fc.fhs, fc.fls) == (2, 1)

    def test_udp_port_severity_uses_proto(self):
        udp_1434 = make_flow(proto=Proto.UDP, dport=1434, tcp_state=TcpState.NOT_TCP)
        tcp_1434 = make_flow(dport=1434, tcp_state=TcpState.SYN_ONLY)
        assert count_failed([udp_1434], CFG.hs_ports).fhs == 1
        assert count_failed([tcp_1434], CFG.hs_ports).fhs == 0


class TestSpamDetect:
    def smtp(self, i, dport=25, sip="10.0.0.5"):
        return make_flow(sip=sip, dip=f"203.0.113.{i + 1}", dport=dport, sport=3000 + i)

    def test_single_mail_flow_not_flagged(self):
        report = spam_detect([self.smtp(0)], CFG)
        assert report.smtp_flows == 1 and report.flagged is False

    def test_heavy_fanout_flagged_on_both_criteria(self):
        flows = [self.smtp(i % 10) for i in range(60)]
        report = spam_detect(flows, CFG)
        assert report.smtp_flows == 60 and report.distinct_servers == 10
        assert report.flagged is True

    def test_boundary_below_both_thresholds(self):
        flows = [self.smtp(i % 4) for i in range(49)]
        report = spam_detect(flows, CFG)
        assert report.distinct_servers == 4 and report.smtp_flows == 49
        assert report.flagged is False

    def test_submission_port_counts(self):
        flows = [self.smtp(i, dport=587) for i in range(5)]
        assert spam_detect(flows, CFG).flagged is True

    def test_udp_25_ignored(self):
        flows = [
            make_flow(proto=Proto.UDP, dport=25, dip=f"203.0.113.{i}", tcp_state=TcpState.NOT_TCP)
            for i in range(10)
        ]
        assert spam_detect(flows, CFG).smtp_flows == 0

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_monotone_under_added_flows(self, n_before, n_extra):
        before = [self.smtp(i % 7) for i in range(n_before)]
        after = before + [self.smtp(7 + i % 5) for i in range(n_extra)]
        if spam_detect(before, CFG).flagged:
            assert spam_detect(after, CFG).flagged


class TestWindowActivity:
    def test_scanner_and_spammer_both_reported(self, internal_net):
        scanner = [scan_flow(i, sip="10.0.0.5") for i in range(40)]
        spammer = [
            make_flow(sip="10.0.0.6", dip=f"203.0.113.{i + 1}", dport=25, sport=4000 + i)
            for i in range(10)
        ]
        hosts = malicious(spammer, scanner, internal_net)
        assert [str(h) for h in hosts] == ["10.0.0.5", "10.0.0.6"]

    def test_flagged_by_two_detectors_appears_once(self, internal_net):
        both = [scan_flow(i, sip="10.0.0.7") for i in range(40)]
        smtp = [
            make_flow(sip="10.0.0.7", dip=f"203.0.113.{i + 1}", dport=25, sport=5000 + i)
            for i in range(10)
        ]
        hosts = malicious(smtp, both, internal_net)
        assert [str(h) for h in hosts] == ["10.0.0.7"]

    def test_inbound_failures_flag_targeted_internal_host(self, internal_net):
        inbound = [
            make_flow(sip=f"198.51.100.{i + 1}", dip="10.0.0.9", dport=445,
                      tcp_state=TcpState.SYN_ONLY, npkts=1, nbytes=60)
            for i in range(4)
        ]  # 4 * w1 = 12 >= 10
        activity = window_activity([], inbound, internal_net, CFG)
        host = IPv4Address("10.0.0.9")
        assert activity[host].isd_flagged is True
        assert activity[host].isd_s == 12.0
        assert [str(h) for h in malicious([], inbound, internal_net)] == ["10.0.0.9"]

    def test_internal_to_internal_traffic_not_scored(self, internal_net):
        flows = [make_flow(sip="10.0.0.5", dip="10.0.0.6", sport=i) for i in range(100)]
        assert malicious(flows, [], internal_net) == []

    def test_external_scanners_not_reported(self, internal_net):
        # an external host probing external targets is outside our network
        flows = [scan_flow(i, sip="172.16.0.9") for i in range(40)]
        assert malicious([], flows, internal_net) == []

    def test_benign_fanout_not_flagged(self, internal_net):
        # plenty of successful traffic to a few services: s3 votes, nothing else
        flows = [make_flow(dip=f"198.51.100.{1 + i % 4}", sport=6000 + i) for i in range(40)]
        assert malicious(flows, [], internal_net) == []

    def test_concurrent_equivalence_is_order_free(self, internal_net):
        scanner = [scan_flow(i, sip="10.0.0.5") for i in range(40)]
        assert malicious([], list(reversed(scanner)), internal_net) == malicious(
            [], scanner, internal_net
        )


def oracle_window_activity(all_flows, failed_flows, internal, cfg) -> dict:
    """Reference ``window_activity``: both addresses of every flow are parsed
    and tested against ``internal``."""
    outbound, outbound_failed, inbound_failed = {}, {}, {}
    for rec in all_flows:
        sip = IPv4Address(rec.sip)
        if sip in internal and IPv4Address(rec.dip) not in internal:
            outbound.setdefault(sip, []).append(rec)
    for rec in failed_flows:
        sip, dip = IPv4Address(rec.sip), IPv4Address(rec.dip)
        src_internal, dst_internal = sip in internal, dip in internal
        if src_internal and not dst_internal:
            outbound_failed.setdefault(sip, []).append(rec)
        if dst_internal and not src_internal:
            inbound_failed.setdefault(dip, []).append(rec)
    activity = {}
    for host in sorted(set(outbound) | set(outbound_failed) | set(inbound_failed)):
        clean = outbound.get(host, [])
        inbound_fc = count_failed(inbound_failed.get(host, []), cfg.hs_ports)
        isd_s = isd_score(inbound_fc, cfg.w1, cfg.w2)
        activity[host] = HostActivity(
            scores=osd_scores(clean, outbound_failed.get(host, []), cfg),
            spam=spam_detect(clean, cfg),
            isd_s=isd_s,
            isd_flagged=isd_s >= cfg.isd_threshold,
        )
    return activity


class TestWindowActivityOracle:
    # thresholds low enough that a few pooled flows flip every verdict
    LOW = dataclasses.replace(
        CFG, osd_min_scans=2, spam_total_flows=3, spam_distinct_servers=2, isd_threshold=2.0
    )

    @given(st.lists(pooled_flows(), max_size=30), st.lists(pooled_flows(), max_size=30))
    def test_same_hosts_in_same_order_with_same_scores(self, all_flows, failed_flows):
        internal = IPv4Network("10.0.0.0/16")
        got = window_activity(all_flows, failed_flows, internal, self.LOW)
        want = oracle_window_activity(all_flows, failed_flows, internal, self.LOW)
        assert [type(host) for host in got] == [IPv4Address] * len(want)
        assert list(got.items()) == list(want.items())


# dotted quads clustered near the edges of small networks, plus any address
QUADS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.tuples(st.sampled_from((0, 10, 127, 192, 255)), st.integers(0, 255), st.integers(0, 255),
              st.sampled_from((0, 1, 127, 128, 255))).map(lambda q: int.from_bytes(bytes(q), "big")),
).map(lambda n: str(IPv4Address(n)))


@given(st.lists(QUADS, max_size=20), QUADS)
def test_inside_texts_is_network_membership(texts, base):
    for prefixlen in range(33):
        network = IPv4Network(f"{base}/{prefixlen}", strict=False)
        edges = [str(network.network_address), str(network.broadcast_address)]
        want = {t for t in texts + edges if IPv4Address(t) in network}
        assert inside_texts(texts + edges, network) == want
