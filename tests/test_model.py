from __future__ import annotations

import dataclasses
import itertools
from ipaddress import IPv4Address
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from botdetect.model import (
    ConfigError,
    DetectorConfig,
    OsdMode,
    Proto,
    TcpState,
    _valid_ipv4,
    default_config,
    parse_config,
    validate_flow,
)
from botdetect.synth import InvalidSpec, parse_scenario

from .conftest import NON_FINITE, float_fields, make_flow, setting_text


class TestValidateFlow:
    def test_well_formed_tcp_flow_is_ok(self):
        assert validate_flow(make_flow()) == []

    def test_udp_flow_with_established_state_is_flagged(self):
        rec = make_flow(proto=Proto.UDP, tcp_state=TcpState.ESTABLISHED)
        problems = validate_flow(rec)
        assert any("not_tcp" in p for p in problems)

    def test_zero_packets_with_bytes_is_flagged(self):
        rec = make_flow(npkts=0, nbytes=10)
        problems = validate_flow(rec)
        assert any("npkts=0" in p for p in problems)

    def test_zero_packets_zero_bytes_is_ok(self):
        assert validate_flow(make_flow(npkts=0, nbytes=0)) == []

    def test_oversized_payload_prefix_is_flagged(self):
        rec = make_flow(payload=b"x" * 65)
        assert any("payload_prefix" in p for p in validate_flow(rec))

    def test_reports_every_violation_at_once(self):
        rec = make_flow(proto=Proto.ICMP, tcp_state=TcpState.ESTABLISHED, npkts=0, nbytes=5, sport=70000)
        assert len(validate_flow(rec)) == 3

    @pytest.mark.parametrize("field", ["npkts", "nbytes"])
    def test_counters_are_unsigned_64_bit(self, field):
        assert validate_flow(make_flow(npkts=2**64 - 1, nbytes=2**64 - 1)) == []
        for value in (2**64, 10**5000):
            problems = validate_flow(make_flow(**{field: value}))
            assert problems == [f"{field} must be <= 2**64 - 1 (an unsigned 64-bit counter)"]

    @pytest.mark.parametrize("field", ["sport", "dport"])
    @pytest.mark.parametrize("value", [-1, 65536, -(10**5000), 10**5000], ids=["-1", "65536", "-10**5000", "10**5000"])
    def test_ports_are_16_bit_and_never_printed(self, field, value):
        assert validate_flow(make_flow(**{field: 0})) == validate_flow(make_flow(**{field: 65535})) == []
        assert validate_flow(make_flow(**{field: value})) == [f"{field} must be in 0..65535 (a 16-bit port)"]

    @pytest.mark.parametrize("field", ["npkts", "nbytes"])
    @pytest.mark.parametrize("value", [-1, -(10**5000)], ids=["-1", "-10**5000"])
    def test_negative_counters_are_flagged_unprinted(self, field, value):
        assert validate_flow(make_flow(**{field: value})) == [f"{field} must be >= 0"]

    def test_bad_addresses_are_flagged(self):
        assert validate_flow(make_flow(sip="not-an-ip")) != []
        assert validate_flow(make_flow(dip="::1")) != []

    @pytest.mark.parametrize("sip", [167772161, IPv4Address("10.0.0.1"), None, b"10.0.0.1"])
    def test_non_text_address_is_a_problem_not_a_crash(self, sip):
        problems = validate_flow(make_flow(sip=sip))
        assert problems == [f"sip is not a valid IPv4 address: {sip!r}"]


def stdlib_accepts(text) -> bool:
    try:
        IPv4Address(text)
    except ValueError:
        return False
    return True


class TestValidIPv4:
    """``_valid_ipv4`` accepts exactly the texts ``IPv4Address`` accepts."""

    # a non-ASCII digit (ARABIC-INDIC THREE) among ASCII digits, signs,
    # separators and a letter
    ALPHABET = "0123456789 +-_.a\u0663"

    def test_every_short_octet_in_every_position(self):
        octets = [
            "".join(chars)
            for length in range(5)
            for chars in itertools.product(self.ALPHABET, repeat=length)
        ]
        mismatches = []
        for octet in octets:
            for position in range(4):
                parts = ["10", "0", "0", "1"]
                parts[position] = octet
                text = ".".join(parts)
                if _valid_ipv4(text) != stdlib_accepts(text):
                    mismatches.append(text)
        assert len(octets) == 1 + 17 + 17**2 + 17**3 + 17**4
        assert mismatches == []

    @given(st.text())
    def test_any_text(self, text):
        assert _valid_ipv4(text) == stdlib_accepts(text)

    @given(st.from_regex(r"\d{1,4}\.\d{1,4}\.\d{1,4}\.\d{1,4}\n?", fullmatch=True))
    def test_dotted_quads(self, text):
        assert _valid_ipv4(text) == stdlib_accepts(text)


class TestDefaults:
    def test_window_is_six_hours(self):
        assert default_config().window_seconds == 21600

    def test_min_group_size_is_three(self):
        assert default_config().min_group_size == 3

    def test_similarity_threshold_default(self):
        assert default_config().similarity_threshold == 0.85

    def test_scan_weights_and_voting(self):
        cfg = default_config()
        assert (cfg.w1, cfg.w2) == (3.0, 1.0)
        assert cfg.osd_mode is OsdMode.MAJORITY

    def test_hs_ports_default_contains_both_protocols(self):
        cfg = default_config()
        assert (Proto.TCP, 445) in cfg.hs_ports
        assert (Proto.UDP, 1434) in cfg.hs_ports
        assert (Proto.TCP, 1434) not in cfg.hs_ports


# each rule of ``config_violations`` (but duration_floor's, tested on its
# own): a config text breaking it, and its message
CONFIG_RULES = {
    "window_seconds = 0": "window_seconds must be > 0",
    "similarity_threshold = -0.1": "similarity_threshold must be in [0, 1]",
    "resample_points = 1": "resample_points must be >= 2",
    "min_group_size = 0": "min_group_size must be >= 1",
    "pat_bin_seconds = 0": "pat_bin_seconds must be > 0",
    **{
        f"{name} = -1": f"{name} must be >= 0"
        for name in (
            "w1",
            "w2",
            "isd_threshold",
            "osd_s1_threshold",
            "osd_s2_threshold",
            "osd_s3_threshold",
            "osd_min_scans",
            "spam_distinct_servers",
            "spam_total_flows",
        )
    },
    # every broken rule is named, in the order checked
    "resample_points = 1\nwindow_seconds = -1": "window_seconds must be > 0; resample_points must be >= 2",
}

# each refused ``hs_ports`` port and the message naming it
HS_PORTS_ERRORS = {
    "tcp:http": "hs_ports port 'http' is not an integer",
    "tcp:65536": "hs_ports port out of range: 65536",
    "udp:-1": "hs_ports port out of range: -1",
}


class TestConfigFile:
    def test_parse_overrides_and_comments(self):
        cfg = parse_config(
            """
            # tuning
            similarity_threshold = 0.9
            min_group_size = 4   # stricter
            osd_mode = AND
            hs_ports = tcp:445,udp:1434
            irc_require_malicious = true
            """
        )
        assert cfg.similarity_threshold == 0.9
        assert cfg.min_group_size == 4
        assert cfg.osd_mode is OsdMode.AND
        assert cfg.hs_ports == frozenset({(Proto.TCP, 445), (Proto.UDP, 1434)})
        assert cfg.irc_require_malicious is True

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == default_config()

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("not_a_key = 1")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("min_group_size = many")

    def test_bad_bool_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("irc_require_malicious = maybe")

    @pytest.mark.parametrize("field", dataclasses.fields(DetectorConfig), ids=lambda f: f.name)
    def test_every_key_parses_to_its_field_type(self, field):
        default = getattr(default_config(), field.name)
        value = getattr(parse_config(f"{field.name} = {setting_text(default)}"), field.name)
        assert value == default
        assert type(value) is type(default)

    @pytest.mark.parametrize("text", NON_FINITE)
    @pytest.mark.parametrize("key", float_fields(DetectorConfig))
    def test_non_finite_float_rejected(self, key, text):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# comment\n{key} = {text}")
        assert str(err.value) == f"line 2: bad value for {key}: {text!r}"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigError, match="similarity_threshold"):
            parse_config("similarity_threshold = 1.5")

    @pytest.mark.parametrize("text", ["0", "0.0", "-0.5"])
    def test_duration_floor_must_be_positive(self, text):
        # nbps divides by max(duration, duration_floor), and durations may be 0
        with pytest.raises(ConfigError) as err:
            parse_config(f"duration_floor = {text}")
        assert str(err.value) == "duration_floor must be > 0"

    def test_empty_hs_ports_value_clears_the_set(self):
        assert parse_config("hs_ports =").hs_ports == frozenset()

    def test_bad_hs_ports_syntax(self):
        with pytest.raises(ConfigError, match="hs_ports"):
            parse_config("hs_ports = 445")
        with pytest.raises(ConfigError, match="hs_ports"):
            parse_config("hs_ports = icmp:445")

    @pytest.mark.parametrize("text", CONFIG_RULES)
    def test_each_broken_rule_is_named(self, text):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == CONFIG_RULES[text]

    @pytest.mark.parametrize("entry", HS_PORTS_ERRORS)
    def test_each_bad_hs_ports_port_is_named(self, entry):
        with pytest.raises(ConfigError) as err:
            parse_config(f"# ports\nhs_ports = tcp:445, {entry}")
        assert str(err.value) == f"line 2: {HS_PORTS_ERRORS[entry]}"

    @pytest.mark.parametrize("parse, error", [(parse_config, ConfigError), (parse_scenario, InvalidSpec)])
    def test_a_line_without_equals_is_named(self, parse, error):
        with pytest.raises(error) as err:
            parse("# header\n\nseed 42  # no equals sign\n")
        assert str(err.value) == "line 3: expected key = value, got 'seed 42'"

    def test_readme_table_lists_every_key_in_order(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("**Config**", 1)[1].split("\n\n", 2)[1]
        keys = [
            name.strip("` ")
            for row in table.splitlines()[2:]
            for name in row.split("|")[1].split(",")
        ]
        assert keys == [f.name for f in dataclasses.fields(DetectorConfig)]

    def test_config_is_immutable(self):
        cfg = default_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.w1 = 5.0
