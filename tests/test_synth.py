from __future__ import annotations

import dataclasses
from itertools import combinations

import pytest

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

from .conftest import NON_FINITE, float_fields, setting_text

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
            cc = [f for f in flows if f.tcp_state is TcpState.ESTABLISHED]
            groups, _ = group_flows_p2p(cc, CFG.duration_floor)
            curves = [build_curve(g.points, CFG.resample_points) for g in groups]
            for a, b in combinations(curves, 2):
                assert curve_similarity(a, b) >= 0.95

    def test_irc_bots_share_one_pat_bin(self):
        flows, _ = generate(irc_botnet_scenario(6, benign_hosts=0))
        cc = [f for f in flows if f.tcp_state is TcpState.ESTABLISHED]
        bins = {int(f.start_ts // CFG.pat_bin_seconds) for f in cc}
        assert len(bins) == 1
        groups, _ = group_flows_irc(cc, CFG)
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

    @pytest.mark.parametrize(
        "line",
        [
            "group 0",
            "group 0 botnet 10.0.2.1",
            "group 0 scanner 10.0.2.1 10.0.2.300",
            "malicious 1.2.3",
            "hosts 10.0.2.1",
        ],
    )
    def test_bad_line_named(self, line):
        with pytest.raises(InvalidSpec) as err:
            parse_truth(f"# truth\n{line}\n")
        assert str(err.value).startswith("line 2: ")
        assert str(err.value).endswith(repr(line))
