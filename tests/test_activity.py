from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address, IPv4Network

import numpy as np
import pytest
from hypothesis import given, strategies as st

from botdetect.activity import (
    AllZero,
    FailedCounts,
    HostActivity,
    ScanScores,
    SpamReport,
    _entropy_column,
    _isd_column,
    _s2_column,
    _vote_column,
    entropy_norm,
    isd_score,
    osd_s2,
    osd_vote,
    window_activity,
)
from botdetect.model import OsdMode, Proto, TcpState, default_config
from botdetect.table import FlowTable

from .conftest import make_flow, pooled_flows

CFG = default_config()
INTERNAL = IPv4Network("10.0.0.0/16")


def malicious(all_flows, failed_flows, internal):
    """Hosts flagged by any detector, as the pipeline selects them from window_activity."""
    activity = window_activity(
        FlowTable.from_records(all_flows), FlowTable.from_records(failed_flows), internal, CFG
    )
    return sorted(host for host, act in activity.items() if act.malicious)


def one_host(clean=(), failed=()) -> HostActivity:
    """The window's activity of 10.0.0.5, the only internal host that
    ``clean`` and ``failed`` reach."""
    activity = window_activity(FlowTable.from_records(clean), FlowTable.from_records(failed), INTERNAL, CFG)
    assert list(activity) == [IPv4Address("10.0.0.5")]
    return activity[IPv4Address("10.0.0.5")]


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


def host_counts():
    """One host's target counts: m from 0 to 300 (a small m as often as a
    large one), and counts up to 2**40, repeated or not, in any order."""
    count = st.one_of(st.integers(1, 3), st.integers(1, 2**40))
    m = st.one_of(st.integers(0, 17), st.integers(0, 300))
    return m.flatmap(lambda m: st.lists(count, min_size=m, max_size=m))


# each score at random or at its threshold, where the comparison flips
THRESHOLDS = (CFG.osd_s1_threshold, CFG.osd_s2_threshold, CFG.osd_s3_threshold)
VOTE_SCORES = st.tuples(*(st.one_of(st.floats(0, 10), st.just(t)) for t in THRESHOLDS))


class TestScoreColumns:
    """Each column ``window_activity`` computes for a window's hosts equals
    the scalar helper it stands for, host by host, to the last bit."""

    @given(st.lists(host_counts(), min_size=1, max_size=3), st.randoms(use_true_random=False))
    def test_entropy_column_is_entropy_norm(self, hosts, rng):
        pairs = [(h, c) for h, host in enumerate(hosts) for c in host]
        rng.shuffle(pairs)
        pair_host = np.array([h for h, _ in pairs], dtype=np.intp)
        counts = np.array([c for _, c in pairs], dtype=np.int64)
        totals = np.array([sum(host) for host in hosts], dtype=np.int64)
        targets = np.array([len(host) for host in hosts], dtype=np.int64)
        got = _entropy_column(pair_host, counts, totals, targets).tolist()
        # a host with no attempts has no spread, as window_activity has it
        want = [entropy_norm(host) if host else 0.0 for host in hosts]
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    @given(
        st.lists(st.tuples(*[st.integers(0, 2**40)] * 3), min_size=1, max_size=20),
        st.floats(0, 10),
        st.floats(0, 10),
    )
    def test_s2_and_isd_columns_are_the_scalar_scores(self, per_host, w1, w2):
        fhs, fls, scans = (np.array(column, dtype=np.int64) for column in zip(*per_host))
        s2 = _s2_column(fhs, fls, w1, w2, scans).tolist()
        isd = _isd_column(fhs, fls, w1, w2).tolist()
        for (h, l, c), got_s2, got_isd in zip(per_host, s2, isd):
            assert got_s2.hex() == osd_s2(FailedCounts(h, l), w1, w2, c).hex()
            assert got_isd.hex() == isd_score(FailedCounts(h, l), w1, w2).hex()

    @pytest.mark.parametrize("mode", list(OsdMode), ids=lambda mode: mode.value)
    @given(st.lists(VOTE_SCORES, min_size=1, max_size=20))
    def test_vote_column_is_osd_vote(self, mode, scores):
        cfg = dataclasses.replace(CFG, osd_mode=mode)
        s1, s2, s3 = (np.array(column) for column in zip(*scores))
        assert _vote_column(s1, s2, s3, cfg).tolist() == [osd_vote(*host, cfg) for host in scores]


class TestOsdScores:
    def test_no_flows_all_zero(self):
        # a host seen only through inbound failures has no outbound flows
        inbound = make_flow(sip="198.51.100.1", dip="10.0.0.5", tcp_state=TcpState.SYN_ONLY)
        scores = one_host(failed=[inbound]).scores
        assert (scores.scans, scores.targets) == (0, 0)
        assert scores.s1 == scores.s2 == scores.s3 == 0.0
        assert scores.flagged is False

    def test_hundred_uniform_failures(self):
        failed = [scan_flow(i) for i in range(100)]
        scores = one_host(failed=failed).scores
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
        scores = one_host(failed=failed).scores
        assert scores.s3 == 0.0 and scores.targets == 1

    def test_min_scans_gate(self):
        failed = [scan_flow(i) for i in range(9)]  # below osd_min_scans=10
        scores = one_host(failed=failed).scores
        assert scores.flagged is False

    def test_high_severity_ports_weighted(self):
        failed = [scan_flow(i, dport=445) for i in range(10)]
        scores = one_host(failed=failed).scores
        assert scores.s2 == 3.0  # w1 * fhs / C


class TestCountFailed:
    def test_split_by_port_severity(self):
        flows = [scan_flow(0, dport=445), scan_flow(1, dport=8080), scan_flow(2, dport=1433)]
        # (w1*fhs + w2*fls) / C, with C = fhs + fls and w1 != w2, gives the split
        assert one_host(failed=flows).scores.s2 == (CFG.w1 * 2 + CFG.w2 * 1) / 3

    def test_udp_port_severity_uses_proto(self):
        udp_1434 = make_flow(proto=Proto.UDP, dport=1434, tcp_state=TcpState.NOT_TCP)
        tcp_1434 = make_flow(dport=1434, tcp_state=TcpState.SYN_ONLY)
        # one failure, so s2 is the weight of its severity
        assert one_host(failed=[udp_1434]).scores.s2 == CFG.w1  # fhs = 1
        assert one_host(failed=[tcp_1434]).scores.s2 == CFG.w2  # fhs = 0


class TestSpamDetect:
    def smtp(self, i, dport=25, sip="10.0.0.5"):
        return make_flow(sip=sip, dip=f"203.0.113.{i + 1}", dport=dport, sport=3000 + i)

    def test_single_mail_flow_not_flagged(self):
        report = one_host([self.smtp(0)]).spam
        assert report.smtp_flows == 1 and report.flagged is False

    def test_heavy_fanout_flagged_on_both_criteria(self):
        flows = [self.smtp(i % 10) for i in range(60)]
        report = one_host(flows).spam
        assert report.smtp_flows == 60 and report.distinct_servers == 10
        assert report.flagged is True

    def test_boundary_below_both_thresholds(self):
        flows = [self.smtp(i % 4) for i in range(49)]
        report = one_host(flows).spam
        assert report.distinct_servers == 4 and report.smtp_flows == 49
        assert report.flagged is False

    def test_submission_port_counts(self):
        flows = [self.smtp(i, dport=587) for i in range(5)]
        assert one_host(flows).spam.flagged is True

    def test_udp_25_ignored(self):
        flows = [
            make_flow(proto=Proto.UDP, dport=25, dip=f"203.0.113.{i}", tcp_state=TcpState.NOT_TCP)
            for i in range(10)
        ]
        assert one_host(flows).spam.smtp_flows == 0

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_monotone_under_added_flows(self, n_before, n_extra):
        before = [self.smtp(i % 7) for i in range(n_before)]
        after = before + [self.smtp(7 + i % 5) for i in range(n_extra)]
        # no flows at all is no host, and so not flagged
        if before and one_host(before).spam.flagged:
            assert one_host(after).spam.flagged


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
        activity = window_activity(
            FlowTable.from_records([]), FlowTable.from_records(inbound), internal_net, CFG
        )
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


def _failed_counts(failed, hs_ports) -> FailedCounts:
    """Failed flows to a high-severity ``(proto, dport)`` and to any other."""
    severe = sum((rec.proto, rec.dport) in hs_ports for rec in failed)
    return FailedCounts(fhs=severe, fls=len(failed) - severe)


def oracle_window_activity(all_flows, failed_flows, internal, cfg) -> dict:
    """Reference ``window_activity``: both addresses of every flow are parsed
    and tested against ``internal``, and every count is made from the
    records in plain Python; only the scalar score helpers are shared."""
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
        clean, failed = outbound.get(host, []), outbound_failed.get(host, [])
        attempts = clean + failed
        per_target: dict[str, int] = {}
        for rec in attempts:
            per_target[rec.dip] = per_target.get(rec.dip, 0) + 1
        scans, m = len(attempts), len(per_target)
        s1 = m / (cfg.window_seconds / 60.0)
        s2 = osd_s2(_failed_counts(failed, cfg.hs_ports), cfg.w1, cfg.w2, scans)
        s3 = entropy_norm(list(per_target.values())) if scans else 0.0
        smtp = [rec for rec in clean if rec.proto is Proto.TCP and rec.dport in (25, 587)]
        servers = len({rec.dip for rec in smtp})
        isd_s = isd_score(_failed_counts(inbound_failed.get(host, []), cfg.hs_ports), cfg.w1, cfg.w2)
        activity[host] = HostActivity(
            scores=ScanScores(
                s1=s1, s2=s2, s3=s3, scans=scans, targets=m,
                flagged=scans >= cfg.osd_min_scans and osd_vote(s1, s2, s3, cfg),
            ),
            spam=SpamReport(
                smtp_flows=len(smtp),
                distinct_servers=servers,
                flagged=servers >= cfg.spam_distinct_servers or len(smtp) >= cfg.spam_total_flows,
            ),
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
        got = window_activity(
            FlowTable.from_records(all_flows), FlowTable.from_records(failed_flows), internal, self.LOW
        )
        want = oracle_window_activity(all_flows, failed_flows, internal, self.LOW)
        assert [type(host) for host in got] == [IPv4Address] * len(want)
        assert list(got.items()) == list(want.items())
