from __future__ import annotations

from ipaddress import IPv4Address, ip_network

import pytest
from hypothesis import given, strategies as st

from botdetect.filtering import EMPTY_WHITELIST, WhitelistError, parse_whitelist, run_filter
from botdetect.model import Proto, TcpState
from botdetect.table import FlowTable

from .conftest import ADDRESS_POOL, make_flow, pooled_flows


def kept(flows, wl):
    """The flows ``run_filter`` keeps, in input order, and how many it dropped."""
    out = run_filter(FlowTable.from_records(flows), wl)
    return sorted(list(out.clean) + list(out.failed), key=flows.index), out.whitelisted_count


class TestWhitelist:
    def test_empty_whitelist_keeps_everything(self):
        flows = [make_flow(), make_flow(dip="8.8.8.8")]
        assert kept(flows, EMPTY_WHITELIST) == (flows, 0)

    def test_cidr_containment(self):
        wl = parse_whitelist("8.8.8.0/24")
        assert kept([make_flow(dip="8.8.8.8")], wl) == ([], 1)

    def test_only_destination_is_checked(self):
        wl = parse_whitelist("8.8.8.0/24")
        flow = make_flow(sip="8.8.8.8", dip="10.0.0.1")
        assert kept([flow], wl) == ([flow], 0)

    def test_bare_ip_means_slash_32(self):
        wl = parse_whitelist("8.8.8.8")
        assert run_filter(FlowTable.from_records([make_flow(dip="8.8.8.8")]), wl).whitelisted_count == 1
        assert run_filter(FlowTable.from_records([make_flow(dip="8.8.8.9")]), wl).whitelisted_count == 0

    def test_comments_blanks_and_dedup(self):
        wl = parse_whitelist("# corp\n8.8.8.0/24\n\n8.8.8.0/24  # repeat\n")
        assert len(wl) == 1

    def test_bad_line_reports_number(self):
        with pytest.raises(WhitelistError, match="line 2"):
            parse_whitelist("8.8.8.0/24\nnot-an-ip\n")

    @pytest.mark.parametrize("line", ["010.0.0.1", "256.0.0.1", "1.2.3", "::1"])
    def test_non_canonical_or_non_ipv4_address_refused(self, line):
        with pytest.raises(WhitelistError, match=f"^line 2: .*{line!r}$"):
            parse_whitelist(f"8.8.8.0/24\n{line}\n")

    def test_idempotent(self):
        wl = parse_whitelist("198.51.100.0/24")
        flows = [make_flow(dip="198.51.100.9"), make_flow(dip="203.0.113.1")]
        once, _ = kept(flows, wl)
        assert kept(once, wl) == (once, 0)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 32))
    def test_matches_ipaddress_oracle(self, ip_int, prefix):
        net = ip_network((ip_int & (0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF, prefix))
        wl = parse_whitelist(str(net))
        dip = str(IPv4Address(ip_int))
        dropped = run_filter(FlowTable.from_records([make_flow(dip=dip)]), wl).whitelisted_count
        assert dropped == (1 if IPv4Address(dip) in net else 0)


class TestSplitHandshake:
    def test_syn_only_goes_to_failed(self):
        out = run_filter(FlowTable.from_records([make_flow(tcp_state=TcpState.SYN_ONLY)]), EMPTY_WHITELIST)
        assert len(out.failed) == 1 and out.clean == []

    def test_reset_goes_to_failed(self):
        out = run_filter(FlowTable.from_records([make_flow(tcp_state=TcpState.RESET)]), EMPTY_WHITELIST)
        assert len(out.failed) == 1

    def test_udp_stays_clean(self):
        out = run_filter(FlowTable.from_records([make_flow(proto=Proto.UDP)]), EMPTY_WHITELIST)
        assert len(out.clean) == 1 and out.failed == []

    def test_established_stays_clean(self):
        out = run_filter(FlowTable.from_records([make_flow(tcp_state=TcpState.ESTABLISHED)]), EMPTY_WHITELIST)
        assert len(out.clean) == 1

    def test_routing_ignores_payload_and_counters(self):
        base = make_flow(tcp_state=TcpState.SYN_ONLY)
        mutated = base._replace(payload_prefix=b"GET /\r\n", npkts=999, nbytes=12345)
        for rec in (base, mutated):
            out = run_filter(FlowTable.from_records([rec]), EMPTY_WHITELIST)
            assert out.failed == [rec]

    def test_order_preserved_within_streams(self):
        flows = [
            make_flow(sport=1),
            make_flow(sport=2, tcp_state=TcpState.SYN_ONLY),
            make_flow(sport=3),
            make_flow(sport=4, tcp_state=TcpState.RESET),
        ]
        out = run_filter(FlowTable.from_records(flows), EMPTY_WHITELIST)
        assert [f.sport for f in out.clean] == [1, 3]
        assert [f.sport for f in out.failed] == [2, 4]


class TestRunFilter:
    def test_partition_property(self):
        wl = parse_whitelist("8.8.8.0/24")
        flows = [
            make_flow(dip="8.8.8.8"),
            make_flow(tcp_state=TcpState.SYN_ONLY),
            make_flow(),
            make_flow(proto=Proto.UDP),
        ]
        out = run_filter(FlowTable.from_records(flows), wl)
        assert len(out.clean) + len(out.failed) + out.whitelisted_count == len(flows)
        assert out.whitelisted_count == 1

    def test_whitelist_applies_before_split(self):
        # a failed handshake to a whitelisted target is dropped, not failed
        wl = parse_whitelist("8.8.8.8")
        out = run_filter(FlowTable.from_records([make_flow(dip="8.8.8.8", tcp_state=TcpState.SYN_ONLY)]), wl)
        assert out.failed == [] and out.whitelisted_count == 1


TCP_STATES = [state for state in TcpState if state is not TcpState.NOT_TCP]
# CIDRs around the pool: 10.0.0.8/29 holds 10.0.0.9 and 10.0.0.10 only
WHITELIST_ENTRIES = (*ADDRESS_POOL, "10.0.0.8/29", "10.0.0.0/16", "9.0.0.0/8", "0.0.0.0/0")


@st.composite
def any_state_flows(draw):
    """A pooled flow whose TCP handshake state is drawn too."""
    rec = draw(pooled_flows())
    if rec.proto is Proto.TCP:
        rec = rec._replace(tcp_state=draw(st.sampled_from(TCP_STATES)))
    return rec


def oracle_filter(flows, entries):
    """Drop flows to covered dips, then split the rest by tcp_state."""
    nets = [ip_network(entry, strict=False) for entry in entries]
    kept = [rec for rec in flows if not any(IPv4Address(rec.dip) in net for net in nets)]
    failed_states = (TcpState.SYN_ONLY, TcpState.RESET)
    clean = [rec for rec in kept if rec.tcp_state not in failed_states]
    failed = [rec for rec in kept if rec.tcp_state in failed_states]
    return clean, failed, len(flows) - len(kept)


@given(
    st.lists(any_state_flows(), max_size=12),
    st.lists(st.sampled_from(WHITELIST_ENTRIES), max_size=3),
)
def test_run_filter_equals_drop_then_split_oracle(flows, entries):
    out = run_filter(FlowTable.from_records(flows), parse_whitelist("\n".join(entries)))
    assert (out.clean, out.failed, out.whitelisted_count) == oracle_filter(flows, entries)
