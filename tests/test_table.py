"""The flow table: records in and out, the address columns, the sort into
runs of equal keys, and the bins that windowing and IRC grouping take from
its ``start_ts`` column."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from functools import lru_cache
from ipaddress import IPv4Address, IPv4Network

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from botdetect.filtering import EMPTY_WHITELIST, Whitelist
from botdetect.flowfile import MalformedRow, parse_flow_file, write_flow_file
from botdetect.model import ConfigError, FlowRecord, Proto, TcpState, default_config
from botdetect.monitors import group_flows_irc, window_partition
from botdetect.pipeline import run_detection
from botdetect.report import report_to_json
from botdetect.similarity import batch_features
from botdetect.synth import benign_scenario, generate, irc_botnet_scenario, p2p_botnet_scenario
from botdetect.table import FlowTable, addresses, dotted, inside, runs

from .conftest import NO_SHRINK, make_flow

CFG = default_config()
INTERNAL = IPv4Network("10.0.0.0/16")

_proto_state = st.one_of(
    st.tuples(st.just(Proto.TCP), st.sampled_from([TcpState.ESTABLISHED, TcpState.SYN_ONLY, TcpState.RESET])),
    st.tuples(st.sampled_from([Proto.UDP, Proto.ICMP, Proto.OTHER]), st.just(TcpState.NOT_TCP)),
)
_ip = st.integers(0, 2**32 - 1).map(lambda v: str(IPv4Address(v)))
_counter = st.one_of(st.integers(0, 10), st.integers(0, 2**64 - 1), st.just(2**64 - 1), st.just(2**53 + 1))
# a few payloads, so that rows share them, and any payload
_payload = st.one_of(st.sampled_from([b"", b"NICK b\r\n", b"GET / HTTP/1.1"]), st.binary(max_size=64))


@st.composite
def wide_flows(draw) -> FlowRecord:
    """Any valid flow, counters up to 2**64 - 1."""
    proto, state = draw(_proto_state)
    npkts = draw(_counter)
    return FlowRecord(
        start_ts=draw(st.floats(min_value=0, max_value=1e12, allow_nan=False)),
        duration=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        proto=proto,
        sip=draw(_ip),
        sport=draw(st.integers(0, 65535)),
        dip=draw(_ip),
        dport=draw(st.integers(0, 65535)),
        npkts=npkts,
        nbytes=draw(_counter) if npkts else 0,
        tcp_state=state,
        payload_prefix=draw(_payload),
    )


class TestRecords:
    @given(st.lists(wide_flows(), max_size=12))
    def test_from_records_yields_the_records(self, flows):
        table = FlowTable.from_records(flows)
        assert len(table) == len(flows)
        assert list(table) == flows
        assert [table[i] for i in range(len(flows))] == flows

    def test_repr_lists_the_records(self):
        assert repr(FlowTable.from_records([])) == "FlowTable([])"
        flows = [make_flow(), make_flow(proto=Proto.UDP, dport=53)]
        assert repr(FlowTable.from_records(flows)) == f"FlowTable([{flows[0]!r}, {flows[1]!r}])"

    @given(st.lists(wide_flows(), max_size=12))
    def test_parse_of_written_flows_yields_the_records(self, flows):
        assert list(parse_flow_file(write_flow_file(flows))) == flows

    @given(st.lists(wide_flows(), max_size=12), st.data())
    def test_rows_of_a_table_are_a_table_of_those_records(self, flows, data):
        mask = data.draw(st.lists(st.booleans(), min_size=len(flows), max_size=len(flows)))
        picked = FlowTable.from_records(flows)[mask]
        assert list(picked) == [rec for rec, keep in zip(flows, mask) if keep]

    @pytest.mark.parametrize("pattern", ["none", "all", "interleaved"])
    def test_a_mask_picks_what_its_row_indices_pick(self, pattern):
        flows = [make_flow(sport=1024 + i, payload=b"NICK x\r\n" * (i % 3)) for i in range(9)]
        table = FlowTable.from_records(flows)
        mask = {"none": np.zeros(9, bool), "all": np.ones(9, bool),
                "interleaved": np.arange(9) % 2 == 1}[pattern]
        picked, indexed = table[mask], table[np.flatnonzero(mask)]
        assert picked == indexed == [rec for rec, keep in zip(flows, mask) if keep]
        assert picked.payloads is table.payloads
        for name in ("start_ts", "sip", "sport", "npkts", "tcp_state", "payload"):
            got, want = getattr(picked, name), getattr(indexed, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_a_mask_one_row_short_is_refused(self):
        table = FlowTable.from_records([make_flow(sport=1024 + i) for i in range(4)])
        with pytest.raises(IndexError):
            table[np.ones(3, bool)]

    def test_record_types_are_the_fields_own(self):
        (rec,) = FlowTable.from_records([make_flow(npkts=2**64 - 1, nbytes=2**64 - 1)])
        assert [type(v) for v in rec] == [float, float, Proto, str, int, str, int, int, int, TcpState, bytes]
        assert rec.npkts == rec.nbytes == 2**64 - 1

    def test_equality_is_by_records(self):
        flows = [make_flow(sport=1), make_flow(sport=2)]
        table = FlowTable.from_records(flows)
        assert table == flows and table == FlowTable.from_records(flows) and table == tuple(flows)
        assert table != flows[:1] and table != list(reversed(flows))
        assert FlowTable.from_records([]) == []

    @pytest.mark.parametrize(
        "flow", [make_flow(payload=bytes(65)), make_flow(proto=Proto.UDP, tcp_state=TcpState.SYN_ONLY)]
    )
    def test_from_records_refuses_what_the_parser_refuses(self, flow):
        with pytest.raises(MalformedRow, match="^line 2: "):
            FlowTable.from_records([flow, make_flow()])


@given(st.lists(_ip, max_size=20))
def test_addresses_and_dotted_are_inverse(texts):
    values = addresses(texts)
    assert values.tolist() == [int(IPv4Address(t)) for t in texts]
    assert dotted(values) == texts


@pytest.mark.parametrize("bad", ["256.0.0.1", "10.0.0.01", "0.00.0.1"])
def test_addresses_refuses_what_the_row_path_refuses(bad):
    # an octet above 255 or with a leading zero, in any row
    with pytest.raises(ValueError):
        addresses(["10.0.0.1", bad])


# dotted quads clustered near the edges of small networks, plus any address
QUADS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.tuples(st.sampled_from((0, 10, 127, 192, 255)), st.integers(0, 255), st.integers(0, 255),
              st.sampled_from((0, 1, 127, 128, 255))).map(lambda q: int.from_bytes(bytes(q), "big")),
).map(lambda n: str(IPv4Address(n)))


NETWORKS = st.lists(
    st.tuples(QUADS, st.one_of(st.sampled_from((0, 32)), st.integers(0, 32))).map(
        lambda pair: IPv4Network(f"{pair[0]}/{pair[1]}", strict=False)
    ),
    max_size=3,
)


@given(st.lists(QUADS, max_size=20), NETWORKS)
def test_inside_is_network_membership(texts, networks):
    edges = [str(address) for n in networks for address in (n.network_address, n.broadcast_address)]
    want = [any(IPv4Address(t) in n for n in networks) for t in texts + edges]
    assert inside(addresses(texts + edges), networks).tolist() == want
    assert inside(addresses([]), networks).tolist() == []


@st.composite
def run_columns(draw):
    """Key columns and tie columns of one length: small ints, or floats
    with nan, both zeros and infinities, so that values tie often."""
    n = draw(st.integers(0, 30))

    def column():
        values = st.integers(-2, 2) if draw(st.booleans()) else st.sampled_from([math.nan, -0.0, 0.0, 1.5, -math.inf])
        return draw(st.lists(values, min_size=n, max_size=n))

    return [column() for _ in range(draw(st.integers(1, 3)))], [column() for _ in range(draw(st.integers(0, 2)))]


def _sort_key(value) -> tuple:
    # numpy's order: nan last, -0.0 equal to 0.0
    return (value != value, 0.0 if value != value else value)


@given(run_columns())
def test_runs_is_a_stable_sort_into_runs_of_equal_keys(columns):
    keys, ties = columns
    n = len(keys[0])
    want = sorted(range(n), key=lambda row: [_sort_key(column[row]) for column in keys + ties])
    # a run starts where any key differs from the row before (a nan from every value)
    starts = [p for p in range(n) if p == 0 or any(c[want[p]] != c[want[p - 1]] for c in keys)]
    order, got = runs([np.array(c) for c in keys], tuple(np.array(c) for c in ties))
    assert order.tolist() == want
    assert got.tolist() == [*starts, n]


# start times and bin widths at the edges of float floor division: zero,
# subnormals, integers past 2**53, the largest floats, and near multiples
EDGE_STARTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 0.1, 59.99999999999999, 60.0, 2.0**53, 2.0**53 + 2, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6).map(lambda n: n * 0.1),
)
EDGE_SECONDS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.1, 0.3, 1.0, 60.0, 21600.0, 1e300]),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)


def _past_float_range(starts: list[float], seconds: float) -> bool:
    top = max(starts)
    return not math.isfinite((top // seconds + 1) * seconds)


@given(st.lists(EDGE_STARTS, min_size=1, max_size=12), EDGE_SECONDS)
def test_windows_are_python_floor_division(starts, seconds):
    flows = FlowTable.from_records(make_flow(start_ts=t, sport=i) for i, t in enumerate(starts))
    if _past_float_range(starts, seconds):
        with pytest.raises(ConfigError, match="window_seconds"):
            window_partition(flows, seconds)
        return
    got = [(w.index, rec.sport) for w, rows in window_partition(flows, seconds) for rec in rows]
    # each window's flows in input order, windows ascending
    want = sorted(((int(t // seconds), i) for i, t in enumerate(starts)), key=lambda pair: pair[0])
    assert got == want
    assert all(type(index) is int for index, _ in got)


@given(st.lists(EDGE_STARTS, min_size=1, max_size=12), EDGE_SECONDS)
def test_irc_time_bins_are_python_floor_division(starts, seconds):
    cfg = dataclasses.replace(CFG, pat_bin_seconds=seconds)
    flows = FlowTable.from_records(make_flow(start_ts=t) for t in starts)
    if _past_float_range(starts, seconds):
        with pytest.raises(ConfigError, match="pat_bin_seconds"):
            group_flows_irc(flows, cfg)
        return
    groups, _ = group_flows_irc(flows, cfg)
    assert [(g.key.pat_bin, len(g.points)) for g in groups] == sorted(
        Counter(int(t // seconds) for t in starts).items()
    )


def _report(records: list[FlowRecord], whitelist: Whitelist) -> dict:
    """The ``detect`` report of ``records``, as its JSON reads back."""
    report = run_detection(FlowTable.from_records(records), whitelist, INTERNAL, CFG)
    return json.loads(report_to_json(report))


def _scenario_flows(scenario, seed: int, rounded: bool) -> list[FlowRecord]:
    """``scenario(seed)``'s flows; with each start rounded to 1/1024 s if
    ``rounded``."""
    flows = generate(scenario(seed))[0]
    if rounded:
        flows = [rec._replace(start_ts=round(rec.start_ts * 1024) / 1024) for rec in flows]
    return flows


@lru_cache(maxsize=None)
def _scenario_report(scenario, seed: int, rounded: bool) -> str:
    """The report JSON of ``_scenario_flows(scenario, seed, rounded)``, with
    no whitelist, made once per scenario and seed: each example of the
    whole-pipeline properties below then runs ``run_detection`` once."""
    return json.dumps(_report(_scenario_flows(scenario, seed, rounded), EMPTY_WHITELIST))


def _shift_windows(report: dict, k: int, cfg) -> dict:
    """``report`` as it reads when every start_ts is later by k windows."""
    seconds = k * cfg.window_seconds
    bins = round(seconds / cfg.pat_bin_seconds)
    for group in report["groups"]:
        window = group["window"]
        window.update(index=window["index"] + k, start=window["start"] + seconds, end=window["end"] + seconds)
        group["evidence"]["cluster_keys"] = [
            re.sub(r"@b(\d+)$", lambda m: f"@b{int(m[1]) + bins}", key)
            for key in group["evidence"]["cluster_keys"]
        ]
    return report


@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(
    scenario=st.sampled_from([p2p_botnet_scenario, irc_botnet_scenario]),
    seed=st.integers(1, 50),
    k=st.integers(1, 40),
)
def test_time_shift_by_whole_windows_moves_only_the_windows(scenario, seed, k):
    """Shifting every start by k windows shifts each reported window by k
    (and each IRC time bin with it) and changes nothing else.

    Starts are rounded to 1/1024 s first, so each shifted start, and so
    its window and time bin, is exact.
    """
    flows = _scenario_flows(scenario, seed, rounded=True)
    shifted = [rec._replace(start_ts=rec.start_ts + k * CFG.window_seconds) for rec in flows]
    base = json.loads(_scenario_report(scenario, seed, rounded=True))
    moved = _report(shifted, EMPTY_WHITELIST)
    assert base["groups"]  # the planted group is reported, so there is something to shift
    assert moved == _shift_windows(base, k, CFG)


# TEST-NET-1, which no generated flow reaches
WHITELISTED = IPv4Network("192.0.2.0/24")
# TCP in a clean and both failed states, and UDP; an IRC, an HTTP and no payload
_WHITELISTED_KINDS = st.tuples(
    st.sampled_from([
        (Proto.TCP, TcpState.ESTABLISHED),
        (Proto.TCP, TcpState.SYN_ONLY),
        (Proto.TCP, TcpState.RESET),
        (Proto.UDP, TcpState.NOT_TCP),
    ]),
    st.sampled_from([b"", b"NICK bot\r\nJOIN #cc\r\n", b"GET / HTTP/1.1\r\n"]),
    st.sampled_from([25, 80, 445, 6667]),
    st.integers(0, 255),
)


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(
    scenario=st.sampled_from([p2p_botnet_scenario, irc_botnet_scenario, benign_scenario]),
    seed=st.integers(1, 50),
    data=st.data(),
)
def test_whitelisted_flows_move_only_their_counters(scenario, seed, data):
    """Adding N flows to a whitelisted network, from the scenario's own
    hosts, at its own times, in any row order, raises ``flows_ingested``
    and ``whitelisted`` by N and changes nothing else in the report."""
    flows = _scenario_flows(scenario, seed, rounded=False)
    assert not inside(FlowTable.from_records(flows).dip, (WHITELISTED,)).any()
    lo, hi = flows[0].start_ts, flows[-1].start_ts  # the generator sorts by start
    sips = sorted({rec.sip for rec in flows})
    n = data.draw(st.integers(1, 300))
    drawn = st.tuples(st.floats(lo, hi), st.sampled_from(sips), _WHITELISTED_KINDS)
    rows = data.draw(st.lists(drawn, min_size=n, max_size=n))
    extra = [
        make_flow(
            start_ts=start, sip=sip, dip=str(WHITELISTED[host]), dport=dport,
            proto=proto, tcp_state=state, payload=payload,
        )
        for start, sip, ((proto, state), payload, dport, host) in rows
    ]
    mixed = flows + extra
    data.draw(st.randoms(use_true_random=False)).shuffle(mixed)
    want = json.loads(_scenario_report(scenario, seed, rounded=False))
    want["counters"]["flows_ingested"] += len(extra)
    want["counters"]["whitelisted"] += len(extra)
    assert _report(mixed, Whitelist(frozenset({WHITELISTED}))) == want


_QUAD = re.compile(r"[0-9]+(?:\.[0-9]+){3}")
# a cluster key's label: proto:sip->dip:dport for P2P, proto:sip:sport->dip:dport@bN for IRC
_KEY_LABEL = re.compile(r"([a-z]+):([0-9.]+)(?::([0-9]+))?->([0-9.]+):([0-9]+)(?:@b([0-9]+))?")


def _key_order(label: str) -> tuple:
    """The grouping key's canonical sort order, read back from its label."""
    proto, sip, sport, dip, dport, pat_bin = _KEY_LABEL.fullmatch(label).groups()
    return IPv4Address(sip), IPv4Address(dip), int(sport or 0), int(dport), int(pat_bin or 0), proto


def _relabeled(report: dict, rename) -> dict:
    """``report`` with each address ``a`` renamed ``rename(a)``, sorted again
    as ``detect`` sorts: hosts and keys within a group, then the groups by
    window, path, first host and first key."""
    for group in report["groups"]:
        evidence = group["evidence"]
        group["hosts"] = sorted(map(rename, group["hosts"]), key=IPv4Address)
        keys = [_QUAD.sub(lambda m: rename(m[0]), key) for key in evidence["cluster_keys"]]
        evidence["cluster_keys"] = sorted(keys, key=_key_order)
        evidence["activity"] = {rename(host): flags for host, flags in evidence["activity"].items()}

    def order(group):
        first_key = _key_order(group["evidence"]["cluster_keys"][0])
        return group["window"]["index"], group["path"], IPv4Address(group["hosts"][0]), first_key

    report["groups"].sort(key=order)
    return report


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(
    scenario=st.sampled_from([p2p_botnet_scenario, irc_botnet_scenario]),
    seed=st.integers(1, 50),
    data=st.data(),
)
def test_relabeling_internal_addresses_relabels_the_report(scenario, seed, data):
    """Renaming the internal addresses by a bijection that stays inside
    ``INTERNAL`` renames them in the report and changes nothing else, once
    the report is sorted again."""
    flows = _scenario_flows(scenario, seed, rounded=False)
    inside_hosts = {a for rec in flows for a in (rec.sip, rec.dip) if IPv4Address(a) in INTERNAL}
    hosts = sorted(inside_hosts, key=IPv4Address)
    offset = st.integers(0, INTERNAL.num_addresses - 1)
    offsets = st.lists(offset, min_size=len(hosts), max_size=len(hosts), unique=True)
    relabel = {host: str(INTERNAL[k]) for host, k in zip(hosts, data.draw(offsets))}

    def rename(address: str) -> str:
        return relabel.get(address, address)

    moved = [rec._replace(sip=rename(rec.sip), dip=rename(rec.dip)) for rec in flows]
    base = json.loads(_scenario_report(scenario, seed, rounded=False))
    assert base["groups"]  # the planted group is reported, so there is something to relabel
    assert _report(moved, EMPTY_WHITELIST) == _relabeled(base, rename)


@given(st.lists(wide_flows().filter(lambda rec: rec.npkts > 0), max_size=12), st.sampled_from([0.001, 1.0]))
def test_features_of_table_columns_are_python_division(flows, floor):
    table = FlowTable.from_records(flows)
    nbpp, nbps = batch_features(table.npkts, table.nbytes, table.duration, floor)
    assert nbpp.tolist() == [rec.nbytes / rec.npkts for rec in flows]
    assert nbps.tolist() == [rec.nbytes / max(rec.duration, floor) for rec in flows]
