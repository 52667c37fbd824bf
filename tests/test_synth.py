from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from ipaddress import IPv4Address
from itertools import combinations
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import botdetect
from botdetect import synth
from botdetect.cli import main
from botdetect.flowfile import write_flow_file
from botdetect.model import Proto, TcpState, default_config, validate_flow
from botdetect.monitors import group_flows_irc, group_flows_p2p
from botdetect.similarity import build_curve, curve_similarity
from botdetect.synth import (
    GroundTruth,
    InvalidSpec,
    PlantedGroup,
    PlantedKind,
    ScenarioSpec,
    Xorshift64Star,
    benign_scenario,
    generate,
    irc_botnet_scenario,
    p2p_botnet_scenario,
    parse_scenario,
    parse_truth,
    validate_spec,
    write_truth,
)
from botdetect.table import FlowTable

from .conftest import NON_FINITE, bench_workloads, float_fields, make_flow, setting_text

CFG = default_config()


class TestRng:
    def test_known_stream_is_stable(self):
        rng = Xorshift64Star(42)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = Xorshift64Star(42)
        assert first == [rng2.next_u64() for _ in range(3)]

    def test_distinct_seeds_diverge(self):
        assert Xorshift64Star(1).next_u64() != Xorshift64Star(2).next_u64()

    def test_fraction_in_unit_interval(self):
        rng = Xorshift64Star(7)
        for _ in range(1000):
            assert 0.0 <= rng.fraction() < 1.0

    def test_zero_seed_works(self):
        assert Xorshift64Star(0).next_u64() != 0

    def test_log2_uniform_range(self):
        rng = Xorshift64Star(9)
        for _ in range(1000):
            v = rng.log2_uniform(5, 9)
            assert 32.0 <= v < 1024.0


BLOCK = synth._JUMP_BLOCK
SEEDS = st.integers(0, 2**64 - 1)


class TestBulkDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        n=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 5])
        | st.integers(0, 2 * BLOCK + 2),
    )
    def test_draws_are_the_next_scalar_draws(self, seed, n):
        bulk, scalar = Xorshift64Star(seed), Xorshift64Star(seed)
        out = bulk.draws(n)
        assert out.dtype == np.uint64 and out.shape == (n,)
        assert out.tolist() == [scalar.next_u64() for _ in range(n)]
        assert bulk._state == scalar._state

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, steps=st.lists(st.tuples(st.booleans(), st.integers(0, BLOCK + 2)), max_size=5))
    def test_mixed_scalar_and_bulk_draws_are_one_stream(self, seed, steps):
        mixed, reference = Xorshift64Star(seed), Xorshift64Star(seed)
        drawn = []
        for bulk, n in steps:
            drawn += mixed.draws(n).tolist() if bulk else [mixed.next_u64() for _ in range(n)]
        assert drawn == [reference.next_u64() for _ in drawn]
        assert mixed.fraction() == reference.fraction()

    def test_jump_table_is_built_on_the_first_bulk_draw(self):
        synth._jump_table.cache_clear()
        rng = Xorshift64Star(3)
        rng.next_u64(), rng.fraction(), rng.uniform(-1.0, 1.0), rng.randint(7), rng.log2_uniform(5, 9)
        assert synth._jump_table.cache_info().currsize == 0
        rng.draws(2)
        assert synth._jump_table.cache_info().currsize == 1
        assert synth._jump_table().shape == (64, BLOCK)


class TestGenerate:
    def test_deterministic_bytes(self):
        spec = p2p_botnet_scenario(42)
        f1, t1 = generate(spec)
        f2, t2 = generate(spec)
        assert write_flow_file(f1) == write_flow_file(f2)
        assert t1 == t2

    def test_every_flow_is_valid(self):
        for spec in (p2p_botnet_scenario(3), irc_botnet_scenario(3), benign_scenario(3)):
            flows, _ = generate(spec)
            for rec in flows:
                assert validate_flow(rec) == []

    def test_no_background_means_only_planted_sources(self):
        spec = p2p_botnet_scenario(11, benign_hosts=0)
        flows, truth = generate(spec)
        bots = {str(h) for h in truth.groups[0].hosts}
        assert {f.sip for f in flows} == bots
        assert bots == {"10.0.2.1", "10.0.2.2", "10.0.2.3"}

    def test_scanner_construction(self):
        spec = ScenarioSpec(
            seed=5, benign_hosts=0,
            planted=(PlantedGroup(kind=PlantedKind.SCANNER, size=1, scan_targets=100),),
        )
        flows, truth = generate(spec)
        assert len(flows) == 100
        assert all(f.tcp_state is TcpState.SYN_ONLY for f in flows)
        assert len({f.dip for f in flows}) == 100
        assert truth.malicious == truth.groups[0].hosts

    def test_spammer_construction(self):
        spec = ScenarioSpec(
            seed=5, benign_hosts=0,
            planted=(PlantedGroup(kind=PlantedKind.SPAMMER, size=1, smtp_fanout=8),),
        )
        flows, truth = generate(spec)
        assert len({f.dip for f in flows}) == 8
        assert all(f.dport in (25, 587) and f.proto is Proto.TCP for f in flows)
        assert truth.malicious == truth.groups[0].hosts

    @pytest.mark.parametrize(
        "kind", [PlantedKind.SCANNER, PlantedKind.SPAMMER], ids=lambda k: k.value
    )
    def test_scan_and_mail_fields_honoured_by_every_kind(self, kind):
        spec = ScenarioSpec(
            seed=5, benign_hosts=0,
            planted=(PlantedGroup(kind=kind, size=2, scan_targets=3, smtp_fanout=2),),
        )
        flows, truth = generate(spec)
        for host in truth.groups[0].hosts:
            sent = [f for f in flows if f.sip == str(host)]
            probes = [f for f in sent if f.tcp_state is TcpState.SYN_ONLY]
            mail = [f for f in sent if f.dport in (25, 587)]
            assert len(probes) == 3 and len({f.dip for f in probes}) == 3
            assert len({f.dip for f in mail}) == 2
            assert all(f.tcp_state is TcpState.ESTABLISHED for f in mail)
            assert len(probes) + len(mail) == len(sent)

    def test_bot_group_without_attacks_is_not_malicious(self):
        flows, truth = generate(irc_botnet_scenario(4, benign_hosts=0))
        assert truth.malicious == ()

    def test_flows_sorted_by_time(self):
        flows, _ = generate(benign_scenario(8, hosts=10))
        times = [f.start_ts for f in flows]
        assert times == sorted(times)

    def test_within_group_similarity_invariant(self):
        # planted groups must stay mutually similar at the default jitter
        for seed in range(1, 11):
            flows, truth = generate(p2p_botnet_scenario(seed, benign_hosts=0))
            cc = FlowTable.from_records(f for f in flows if f.tcp_state is TcpState.ESTABLISHED)
            groups, _ = group_flows_p2p(cc, CFG.duration_floor)
            curves = [build_curve(g.points, CFG.resample_points) for g in groups]
            for a, b in combinations(curves, 2):
                assert curve_similarity(a, b) >= 0.95

    def test_irc_bots_share_one_pat_bin(self):
        flows, _ = generate(irc_botnet_scenario(6, benign_hosts=0))
        cc = [f for f in flows if f.tcp_state is TcpState.ESTABLISHED]
        bins = {int(f.start_ts // CFG.pat_bin_seconds) for f in cc}
        assert len(bins) == 1
        groups, _ = group_flows_irc(FlowTable.from_records(cc), CFG)
        assert len(groups) == 4  # one per bot

    def test_invalid_spec_rejected(self):
        bad = ScenarioSpec(planted=(PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=-3),))
        assert validate_spec(bad)
        with pytest.raises(InvalidSpec):
            generate(bad)

    def test_scanner_without_targets_rejected(self):
        bad = ScenarioSpec(planted=(PlantedGroup(kind=PlantedKind.SCANNER, size=1),))
        with pytest.raises(InvalidSpec):
            generate(bad)

    def test_benign_hosts_past_250_take_the_upper_slash_24s(self, tmp_path):
        """Hosts past the first /24 go to 10.0.202.0/24 upward, never into a
        planted group's 10.0.2-201; detect runs on the result."""
        spec = ScenarioSpec(
            seed=4, duration=3600.0, benign_hosts=600, benign_flow_rate=2.0,
            planted=(PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=3, scan_targets=30),),
        )
        flows, truth = generate(spec)
        planted = {str(h) for h in truth.groups[0].hosts}
        benign = {f.sip for f in flows} - planted
        assert len(benign) == 600
        assert {sip.rsplit(".", 2)[1] for sip in benign} == {"1", "202", "203"}
        assert {"10.0.1.250", "10.0.202.1", "10.0.203.100"} <= benign
        assert planted == {"10.0.2.1", "10.0.2.2", "10.0.2.3"}
        path = tmp_path / "wide.flows.csv"
        path.write_bytes(write_flow_file(flows))
        out = tmp_path / "report.json"
        assert main(["detect", "--flows", str(path), "--internal", "10.0.0.0/16", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["counters"]["flows_ingested"] == len(flows)

    def test_benign_host_cap_is_what_the_upper_slash_24s_hold(self):
        # 250 in 10.0.1.0/24, then 250 in each of 10.0.202.0/24 ... 10.0.255.0/24
        assert validate_spec(ScenarioSpec(benign_hosts=250 * 55)) == []
        assert validate_spec(ScenarioSpec(benign_hosts=250 * 55 + 1)) == [
            "benign_hosts must be in [0, 13750]"
        ]
        assert synth._benign_address(250 * 55 - 1) == "10.0.255.250"

    def test_package_root_exports_the_generator(self):
        from botdetect import GroundTruth as root_truth, generate as root_generate

        assert root_generate is generate and root_truth is GroundTruth
        assert {"generate", "ScenarioSpec", "PlantedGroup", "PlantedKind", "GroundTruth"} <= set(
            botdetect.__all__
        )
        with pytest.raises(AttributeError):
            botdetect.no_such_name


# the order generate() promises: start_ts, sip, dip, sport, dport, ties kept
# in generation order
FLOW_ORDER = itemgetter(0, 3, 5, 4, 6)


class TestSortFlows:
    def test_equal_starts_are_ordered_by_the_other_four_keys(self):
        # generation order is the reverse of the order wanted, at one start
        wanted = [
            make_flow(start_ts=5.0, sip="10.0.1.1", dip="198.51.0.9", sport=2000, dport=80),
            make_flow(start_ts=5.0, sip="10.0.1.1", dip="198.51.0.9", sport=2000, dport=443),
            make_flow(start_ts=5.0, sip="10.0.1.1", dip="198.51.0.9", sport=3000, dport=22),
            make_flow(start_ts=5.0, sip="10.0.1.1", dip="198.51.1.1", sport=1024, dport=22),
            make_flow(start_ts=5.0, sip="10.0.1.2", dip="198.51.0.1", sport=1024, dport=22),
        ]
        flows = [make_flow(start_ts=9.0), *wanted[::-1], make_flow(start_ts=1.0)]
        synth._sort_flows(flows)
        assert flows[1:-1] == wanted
        assert [f.start_ts for f in flows] == [1.0] + [5.0] * 5 + [9.0]

    def test_records_tied_on_every_key_keep_their_generation_order(self):
        # equal on all five keys, told apart only by their other fields
        tied = [make_flow(start_ts=3.0, npkts=k) for k in (7, 2, 9)]
        flows = [make_flow(start_ts=3.0, sip="10.0.9.9"), tied[0], make_flow(start_ts=1.0), tied[1], tied[2]]
        synth._sort_flows(flows)
        assert [f.npkts for f in flows[1:4]] == [7, 2, 9]
        assert all(got is want for got, want in zip(flows[1:4], tied))
        assert flows[4].sip == "10.0.9.9"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                st.sampled_from(["10.0.1.1", "10.0.1.2", "10.0.2.1"]),
                st.sampled_from(["198.51.0.1", "198.51.0.2"]),
                st.sampled_from([1024, 2048]),
                st.sampled_from([25, 80]),
            ),
            max_size=40,
        )
    )
    def test_same_order_as_one_sort_by_the_whole_key(self, keys):
        flows = [
            make_flow(start_ts=start, sip=sip, dip=dip, sport=sport, dport=dport, npkts=k + 1)
            for k, (start, sip, dip, sport, dport) in enumerate(keys)
        ]
        wanted = sorted(flows, key=FLOW_ORDER)
        synth._sort_flows(flows)
        assert all(got is want for got, want in zip(flows, wanted, strict=True))

    def test_generated_flows_tied_on_every_key_keep_their_generation_order(self):
        """Benign IRC chatter in the last arrival-time bin is clipped to
        ``duration * 0.999``: here one chat's three flows share a start, host,
        server and ports, and its JOIN, generated first, stays first."""
        spec = benign_scenario(5)
        flows, _ = generate(spec)
        tied = [f for f in flows if f.start_ts == round(spec.duration * 0.999, 6)]
        assert len({FLOW_ORDER(f) for f in tied}) == 1
        assert [f.payload_prefix for f in tied] == [b"JOIN #news\r\n"] + [b"PRIVMSG #news :hi\r\n"] * 2


class TestAllocator:
    @pytest.mark.parametrize("count, n", [(0, 0), (0, 1), (0, 256), (254, 3), (255, 1), (65_530, 20), (0, 70_000)])
    def test_externals_count_on_from_198_51_0_1(self, count, n):
        alloc = synth._Allocator()
        alloc.count = count
        got = alloc.externals(n)
        assert alloc.count == count + n
        assert got == [str(IPv4Address("198.51.0.0") + count + k) for k in range(1, n + 1)]


# sha256 of write_flow_file(flows) and write_truth(truth) from generate(spec),
# recorded from the one-draw-at-a-time generator, for bench/workloads.py's
# specs at full scale
GENERATOR_SHA256 = {
    ("deep_day", 1): (
        "57b91259070a8d3dc66109ddba94b27ef076708f513a02f1db07a080599f59b4",
        "dcfa25d27ec92888fb7f3e1e3196208a86af9f2adf620fa858f2ccaa52da0925",
    ),
    ("deep_day", 2): (
        "61d535d2dd5ceb1f8b69030430aabaddd640c679440d3d3e3275da3c9a907c31",
        "dcfa25d27ec92888fb7f3e1e3196208a86af9f2adf620fa858f2ccaa52da0925",
    ),
    ("deep_day", 3): (
        "7323412a5748acd62d7dd11485552e676ef615a5ef4f3e76f43a84869cfb8422",
        "dcfa25d27ec92888fb7f3e1e3196208a86af9f2adf620fa858f2ccaa52da0925",
    ),
    ("scan_mix", 1): (
        "3d9384ab5ff18169c0cfe6acc1021eb179a5126162c6239fc039acab5bf653f5",
        "c461baea7bf000c2a1293a4cd13a81e0eba2911c7472faf6470a0c43d3ac0b84",
    ),
    ("scan_mix", 2): (
        "10e55da05d6946f9140b9fb491c8a01522c0188ed008c9d4d5d2fc7fca79b4ef",
        "c461baea7bf000c2a1293a4cd13a81e0eba2911c7472faf6470a0c43d3ac0b84",
    ),
    ("scan_mix", 3): (
        "58860e718cb32410c51b6bcfb88c2bdf90617d171f24e2fb9ba01efcd6435828",
        "c461baea7bf000c2a1293a4cd13a81e0eba2911c7472faf6470a0c43d3ac0b84",
    ),
    ("wide_window", 1): (
        "7fbcf5e52b414c62c6d35d451422f3d9b68ebe77958b233964f9389016cfaed3",
        "ba4de7c4d9eca8cc8b352055d3f556759d14ffadcd431d1cc22eeb687ec4132a",
    ),
    ("wide_window", 2): (
        "7cc101d112a2a2006e29db930e91a7a4042e63e33e628920b579a545d213e28b",
        "ba4de7c4d9eca8cc8b352055d3f556759d14ffadcd431d1cc22eeb687ec4132a",
    ),
    ("wide_window", 3): (
        "96cb3e97282c6231598989a065665448b9efc9e2e189260cb4c14ed4c47772c5",
        "ba4de7c4d9eca8cc8b352055d3f556759d14ffadcd431d1cc22eeb687ec4132a",
    ),
}

# plants every kind (a P2P group that also scans and mails, an IRC group
# that mails, scanners, spammers) over benign hosts whose draws reach the
# ICMP and IRC-chatter branches
EVERY_KIND = ScenarioSpec(
    seed=7, duration=7200.0, benign_hosts=20, benign_flow_rate=3.0,
    planted=(
        PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=3, flows_per_peer=5, scan_targets=4, smtp_fanout=2),
        PlantedGroup(kind=PlantedKind.IRC_BOT_GROUP, size=2, peers=1, flows_per_peer=1, smtp_fanout=1),
        PlantedGroup(kind=PlantedKind.SCANNER, size=2, scan_targets=7),
        PlantedGroup(kind=PlantedKind.SPAMMER, size=2, smtp_fanout=3),
    ),
)
EVERY_KIND_SHA256 = (
    "dc91eb13375c15393d25675ed919daae5049ce5321d28d9f5d8250175ac70ffa",
    "0f82b4714612d0a36f9e084cc7badfb7a0627474a7633372df9e88b733b4dead",
)


def _digests(spec: ScenarioSpec) -> tuple[list, tuple[str, str]]:
    flows, truth = generate(spec)
    return flows, (
        hashlib.sha256(write_flow_file(flows)).hexdigest(),
        hashlib.sha256(write_truth(truth).encode()).hexdigest(),
    )


class TestGeneratorBytes:
    @pytest.mark.parametrize("workload, seed", sorted(GENERATOR_SHA256))
    def test_bench_workload_bytes(self, monkeypatch, workload, seed):
        spec = bench_workloads(monkeypatch)[workload].make_spec(seed, 1.0)
        assert _digests(spec)[1] == GENERATOR_SHA256[workload, seed]

    def test_every_kind_and_branch_bytes(self):
        flows, digests = _digests(EVERY_KIND)
        assert digests == EVERY_KIND_SHA256
        benign = [f for f in flows if f.sip.startswith("10.0.1.")]
        assert any(f.proto is Proto.ICMP for f in benign)
        assert any(f.dport == 6667 for f in benign)
        assert {f.sip.rsplit(".", 1)[0] for f in flows} == {f"10.0.{i}" for i in range(1, 6)}

    def test_each_external_address_has_one_owner(self, monkeypatch):
        # every flow to one external address comes from one benign host or
        # from members of one planted group, so the only flows equal on the
        # whole sort key are one host's to one address, and a planted
        # group's layout within its block does not change the file
        specs = [EVERY_KIND] + [w.make_spec(1, 1.0) for w in bench_workloads(monkeypatch).values()]
        for spec in specs:
            flows, truth = generate(spec)
            group_of = {str(h): g for g, entry in enumerate(truth.groups) for h in entry.hosts}
            sources: dict[str, set[str]] = {}
            for f in flows:
                sources.setdefault(f.dip, set()).add(f.sip)
            for dip, hosts in sources.items():
                assert not dip.startswith("10.") and len({group_of.get(h, h) for h in hosts}) == 1, dip
            if spec is EVERY_KIND:  # its P2P and IRC groups share their destinations
                assert max(map(len, sources.values())) > 1


P2P_GROUP = PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=3)


def planted(*groups: PlantedGroup) -> ScenarioSpec:
    return ScenarioSpec(planted=groups)


# each rule of ``validate_spec`` (but the size and scanner rules, tested with
# ``generate``): a spec breaking it, and its message
SPEC_RULES = {
    "duration": (ScenarioSpec(duration=0.0), "duration must be > 0"),
    "benign_flow_rate": (ScenarioSpec(benign_flow_rate=-0.5), "benign_flow_rate must be >= 0"),
    "planted_cap": (planted(*[P2P_GROUP] * 201), "too many planted groups (max 200)"),
    "nbpp": (planted(dataclasses.replace(P2P_GROUP, nbpp=0.0)), "planted.0: nbpp and nbps must be > 0"),
    "nbps": (planted(dataclasses.replace(P2P_GROUP, nbps=-1.0)), "planted.0: nbpp and nbps must be > 0"),
    "jitter_pct_100": (
        planted(dataclasses.replace(P2P_GROUP, jitter_pct=100.0)),
        "planted.0: jitter_pct must be in [0, 100)",
    ),
    "jitter_pct_negative": (
        planted(dataclasses.replace(P2P_GROUP, jitter_pct=-1.0)),
        "planted.0: jitter_pct must be in [0, 100)",
    ),
    "peers": (planted(dataclasses.replace(P2P_GROUP, peers=0)), "planted.0: peers must be >= 1"),
    "flows_per_peer": (
        planted(dataclasses.replace(P2P_GROUP, flows_per_peer=0)),
        "planted.0: flows_per_peer must be >= 1",
    ),
    "scan_targets": (
        planted(dataclasses.replace(P2P_GROUP, scan_targets=-1)),
        "planted.0: scan_targets and smtp_fanout must be >= 0",
    ),
    "smtp_fanout": (
        planted(dataclasses.replace(P2P_GROUP, smtp_fanout=-1)),
        "planted.0: scan_targets and smtp_fanout must be >= 0",
    ),
    "spammer": (
        planted(PlantedGroup(kind=PlantedKind.SPAMMER, size=1)),
        "planted.0: spammer needs smtp_fanout >= 1",
    ),
    "second_group": (
        planted(P2P_GROUP, dataclasses.replace(P2P_GROUP, peers=0)),
        "planted.1: peers must be >= 1",
    ),
}


class TestValidateSpec:
    @pytest.mark.parametrize("rule", SPEC_RULES)
    def test_each_broken_rule_is_named(self, rule):
        spec, message = SPEC_RULES[rule]
        assert validate_spec(spec) == [message]

    def test_the_planted_cap_is_inclusive(self):
        assert validate_spec(planted(*[P2P_GROUP] * 200)) == []


SPEC_TEXT = """
# three-bot scenario
seed = 42
duration = 21600
benign_hosts = 20
benign_flow_rate = 6
planted.0.kind = p2p_bot_group
planted.0.size = 3
planted.0.nbpp = 420
planted.0.nbps = 2600
planted.0.jitter_pct = 5
planted.0.peers = 2
planted.0.flows_per_peer = 8
planted.0.scan_targets = 60
"""


class TestScenarioFiles:
    def test_parse_matches_canned_scenario(self):
        assert parse_scenario(SPEC_TEXT) == p2p_botnet_scenario(42)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidSpec, match="unknown scenario key"):
            parse_scenario("bots = 3")

    def test_unknown_planted_key_rejected(self):
        with pytest.raises(InvalidSpec, match="unknown planted key"):
            parse_scenario("planted.0.kind = scanner\nplanted.0.size = 1\nplanted.0.speed = 9")

    @pytest.mark.parametrize("key", ["planted.x.kind", "planted.0", "planted..size"])
    def test_bad_planted_key_is_named(self, key):
        with pytest.raises(InvalidSpec) as err:
            parse_scenario(f"seed = 1\n{key} = scanner")
        assert str(err.value) == f"line 2: bad planted key {key!r}"

    def test_missing_kind_rejected(self):
        with pytest.raises(InvalidSpec, match="missing kind"):
            parse_scenario("planted.0.size = 3")

    def test_noncontiguous_indices_rejected(self):
        text = "planted.1.kind = scanner\nplanted.1.size = 1\nplanted.1.scan_targets = 5"
        with pytest.raises(InvalidSpec, match="contiguous"):
            parse_scenario(text)

    def test_bad_value_reports_line(self):
        with pytest.raises(InvalidSpec, match="line 1"):
            parse_scenario("seed = forty-two")

    @pytest.mark.parametrize(
        "field",
        [f for f in dataclasses.fields(ScenarioSpec) if f.name != "planted"],
        ids=lambda f: f.name,
    )
    def test_every_key_parses_to_its_field_type(self, field):
        default = getattr(ScenarioSpec(), field.name)
        value = getattr(parse_scenario(f"{field.name} = {setting_text(default)}"), field.name)
        assert value == default
        assert type(value) is type(default)

    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("key", float_fields(ScenarioSpec))
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(InvalidSpec) as err:
            parse_scenario(f"seed = 1\n{key} = {text}")
        assert str(err.value) == f"line 2: bad value for {key}: {text!r}"

    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("key", float_fields(PlantedGroup))
    def test_non_finite_planted_float_rejected(self, key, text):
        with pytest.raises(InvalidSpec) as err:
            parse_scenario(f"planted.0.kind = p2p_bot_group\nplanted.0.{key} = {text}")
        assert str(err.value) == f"line 2: bad value for {key}: {text!r}"

    @pytest.mark.parametrize("field", dataclasses.fields(PlantedGroup), ids=lambda f: f.name)
    def test_every_planted_key_parses_to_its_field_type(self, field):
        base = PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=3)
        default = getattr(base, field.name)
        text = (
            f"planted.0.kind = {setting_text(base.kind)}\n"
            f"planted.0.size = {base.size}\n"
            f"planted.0.{field.name} = {setting_text(default)}\n"
        )
        value = getattr(parse_scenario(text).planted[0], field.name)
        assert value == default
        assert type(value) is type(default)


class TestShippedScenarios:
    SCENARIO_DIR = __import__("pathlib").Path(__file__).parent.parent / "scenarios"

    def test_p2p_file_matches_canned_factory(self):
        text = (self.SCENARIO_DIR / "p2p_botnet.spec").read_text()
        assert parse_scenario(text) == p2p_botnet_scenario(42)

    def test_irc_file_matches_canned_factory(self):
        text = (self.SCENARIO_DIR / "irc_botnet.spec").read_text()
        assert parse_scenario(text) == irc_botnet_scenario(7)

    def test_benign_file_matches_canned_factory(self):
        text = (self.SCENARIO_DIR / "benign.spec").read_text()
        assert parse_scenario(text) == benign_scenario(1)


class TestTruthFile:
    def test_round_trip(self):
        _, truth = generate(p2p_botnet_scenario(42))
        assert parse_truth(write_truth(truth)) == truth

    def test_exact_format(self):
        _, truth = generate(p2p_botnet_scenario(42, benign_hosts=0))
        text = write_truth(truth)
        assert text == (
            "# synthetic scenario ground truth\n"
            "group 0 p2p_bot_group 10.0.2.1 10.0.2.2 10.0.2.3\n"
            "malicious 10.0.2.1 10.0.2.2 10.0.2.3\n"
        )

    def test_empty_malicious_line(self):
        truth = GroundTruth(groups=(), malicious=())
        assert parse_truth(write_truth(truth)) == truth

    def test_round_trip_of_shipped_and_bench_specs(self, monkeypatch):
        shipped = sorted(TestShippedScenarios.SCENARIO_DIR.glob("*.spec"))
        specs = [parse_scenario(path.read_text()) for path in shipped]
        specs += [w.make_spec(1, 1.0) for w in bench_workloads(monkeypatch).values()] + [EVERY_KIND]
        assert len(specs) == 7
        for spec in specs:
            _, truth = generate(spec)
            assert parse_truth(write_truth(truth)) == truth

    def test_missing_malicious_line_refused(self):
        with pytest.raises(InvalidSpec, match=r"^missing malicious line$"):
            parse_truth("group 0 scanner 10.0.2.1\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("group 0 scanner 10.0.2.1 10.0.2.1\nmalicious 10.0.2.1\n", 1),
            ("group 0 scanner 10.0.2.1\nmalicious 10.0.2.1 10.0.2.1\n", 2),
            ("group 0 scanner 10.0.2.1\nmalicious 10.9.9.9\n", 2),
            ("group 0 scanner 10.0.2.1\nmalicious 10.0.2.1\ngroup 1 scanner 10.0.2.2\n", 3),
        ],
        ids=["repeat-in-group", "repeat-in-malicious", "malicious-in-no-group", "group-after-malicious"],
    )
    def test_sidecar_write_truth_cannot_produce_is_named(self, text, lineno):
        line = text.splitlines()[lineno - 1]
        with pytest.raises(InvalidSpec, match=f"^line {lineno}: bad truth line: {re.escape(repr(line))}$"):
            parse_truth(text)

    @pytest.mark.parametrize(
        "line",
        [
            "group 0",
            "group 0 botnet 10.0.2.1",
            "group 0 scanner 10.0.2.1 10.0.2.300",
            "group x scanner 10.0.2.1",
            "group 7 scanner 10.0.2.1",
            "group 0 scanner",
            "malicious 1.2.3",
            "hosts 10.0.2.1",
        ],
    )
    def test_bad_line_named(self, line):
        with pytest.raises(InvalidSpec) as err:
            parse_truth(f"# truth\n{line}\n")
        assert str(err.value).startswith("line 2: ")
        assert str(err.value).endswith(repr(line))

    def test_second_malicious_line_named(self):
        text = "group 0 scanner 10.0.2.1\nmalicious 10.0.2.1\nmalicious 10.0.2.2\n"
        with pytest.raises(InvalidSpec, match=r"^line 3: bad truth line: 'malicious 10\.0\.2\.2'$"):
            parse_truth(text)
