from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from botdetect.model import (
    ConfigError,
    DetectorConfig,
    OsdMode,
    Proto,
    TcpState,
    default_config,
    parse_config,
    validate_flow,
)

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

    def test_bad_addresses_are_flagged(self):
        assert validate_flow(make_flow(sip="not-an-ip")) != []
        assert validate_flow(make_flow(dip="::1")) != []


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

    def test_empty_hs_ports_value_clears_the_set(self):
        assert parse_config("hs_ports =").hs_ports == frozenset()

    def test_bad_hs_ports_syntax(self):
        with pytest.raises(ConfigError, match="hs_ports"):
            parse_config("hs_ports = 445")
        with pytest.raises(ConfigError, match="hs_ports"):
            parse_config("hs_ports = icmp:445")

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
