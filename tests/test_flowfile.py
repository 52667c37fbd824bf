from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from botdetect.flowfile import (
    HEADER,
    BadHeader,
    MalformedRow,
    format_seconds,
    parse_flow_file,
    write_flow_file,
)
from botdetect.model import FlowRecord, Proto, TcpState

from .conftest import make_flow


def _file(*rows: str) -> bytes:
    return ("\n".join([HEADER, *rows]) + "\n").encode()


class TestParse:
    def test_header_only_gives_empty_list(self):
        assert parse_flow_file(_file()) == []

    def test_single_row_with_payload(self):
        rows = parse_flow_file(
            _file("1000.0,10.0,tcp,10.0.0.5,43211,93.10.1.2,6667,20,1000,established,4e49434b20626f740d0a")
        )
        assert len(rows) == 1
        rec = rows[0]
        assert rec.nbytes == 1000
        assert rec.payload_prefix == b"NICK bot\r\n"
        assert rec.proto is Proto.TCP
        assert rec.tcp_state is TcpState.ESTABLISHED

    def test_wrong_column_count_is_malformed(self):
        with pytest.raises(MalformedRow, match="line 2"):
            parse_flow_file(_file("1000.0,10.0,tcp,10.0.0.5,43211,93.10.1.2,6667,20,1000,established"))

    def test_bad_header_detected(self):
        with pytest.raises(BadHeader):
            parse_flow_file(b"sip,dip\n")

    def test_missing_header_detected(self):
        with pytest.raises(BadHeader):
            parse_flow_file(b"# only a comment\n")

    def test_comments_and_blank_lines_skipped(self):
        data = ("# leading\n" + HEADER + "\n\n# mid\n"
                "0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,\n").encode()
        assert len(parse_flow_file(data)) == 1

    def test_invariant_violation_is_malformed(self):
        with pytest.raises(MalformedRow, match="not_tcp"):
            parse_flow_file(_file("0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,established,"))

    def test_unparsable_fields_report_line_number(self):
        with pytest.raises(MalformedRow, match="line 3"):
            parse_flow_file(
                _file(
                    "0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,",
                    "zero,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,",
                )
            )

    def test_bad_hex_rejected(self):
        with pytest.raises(MalformedRow, match="payload_prefix_hex"):
            parse_flow_file(_file("0,0,tcp,1.2.3.4,1,5.6.7.8,2,1,10,established,zz"))

    @pytest.mark.parametrize("text", ["1_0", "+80", "080"])
    def test_non_canonical_integer_rejected(self, text):
        with pytest.raises(MalformedRow, match="bad dport"):
            parse_flow_file(_file(f"0,0,udp,1.2.3.4,1,5.6.7.8,{text},1,10,not_tcp,"))

    @pytest.mark.parametrize("text", ["1_0", "+5", "1e3", " 7", ".5", "5."])
    def test_non_canonical_seconds_rejected(self, text):
        with pytest.raises(MalformedRow, match="bad duration"):
            parse_flow_file(_file(f"0,{text},udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,"))

    @pytest.mark.parametrize("text", ["7", "1000.0", "0.000001", "1e-07", "0.30000000000000004", "-0"])
    def test_plain_and_written_seconds_accepted(self, text):
        rows = parse_flow_file(_file(f"0,{text},udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,"))
        assert rows[0].duration == float(text)

    @pytest.mark.parametrize("text", ["4745 54", "4E"])
    def test_non_canonical_hex_rejected(self, text):
        with pytest.raises(MalformedRow, match="payload_prefix_hex"):
            parse_flow_file(_file(f"0,0,tcp,1.2.3.4,1,5.6.7.8,2,1,10,established,{text}"))

    @pytest.mark.parametrize("column", ["npkts", "nbytes"])
    @pytest.mark.parametrize("text", [str(2**64), str(10**400)], ids=["2**64", "10**400"])
    def test_counter_past_64_bits_rejected(self, column, text):
        npkts, nbytes = (text, "1") if column == "npkts" else ("1", text)
        row = f"0,0,udp,1.2.3.4,1,5.6.7.8,2,{npkts},{nbytes},not_tcp,"
        with pytest.raises(MalformedRow, match=f"line 3: {column} must be <= 2\\*\\*64 - 1"):
            parse_flow_file(_file("0,0,udp,1.2.3.4,1,5.6.7.8,2,1,10,not_tcp,", row))

    def test_largest_counter_accepted(self):
        top = 2**64 - 1
        (rec,) = parse_flow_file(_file(f"0,0,udp,1.2.3.4,1,5.6.7.8,2,{top},{top},not_tcp,"))
        assert rec.npkts == rec.nbytes == top

    def test_not_utf8_rejected(self):
        with pytest.raises(Exception, match="UTF-8"):
            parse_flow_file(b"\xff\xfe" + HEADER.encode())


class TestWrite:
    def test_empty_list_gives_header_only(self):
        assert write_flow_file([]) == (HEADER + "\n").encode()

    def test_single_flow_round_trips(self):
        rec = make_flow(payload=b"NICK bot\r\n")
        data = write_flow_file([rec])
        assert data.decode().count("\n") == 2
        assert parse_flow_file(data) == [rec]

    def test_enums_and_hex_are_lowercase(self):
        rec = make_flow(payload=b"\xab\xcd")
        line = write_flow_file([rec]).decode().splitlines()[1]
        assert ",tcp," in line
        assert line.endswith(",established,abcd")


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.0, "0"), (1000.0, "1000"), (10.5, "10.5"), (0.000001, "0.000001"), (21599.999, "21599.999")],
    )
    def test_compact_rendering(self, value, expected):
        assert format_seconds(value) == expected

    def test_fallback_keeps_exactness(self):
        value = 0.1 + 0.2  # not representable in 6 decimal digits
        assert float(format_seconds(value)) == value


_proto_state = st.one_of(
    st.tuples(st.just(Proto.TCP), st.sampled_from([TcpState.ESTABLISHED, TcpState.SYN_ONLY, TcpState.RESET])),
    st.tuples(st.sampled_from([Proto.UDP, Proto.ICMP, Proto.OTHER]), st.just(TcpState.NOT_TCP)),
)
_ip = st.integers(0, 2**32 - 1).map(lambda v: f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}")
_seconds = st.one_of(
    st.integers(0, 10**9).map(lambda n: n / 1e6),
    st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@st.composite
def flow_records(draw):
    proto, state = draw(_proto_state)
    npkts = draw(st.integers(0, 10**6))
    return FlowRecord(
        start_ts=draw(_seconds),
        duration=draw(_seconds),
        proto=proto,
        sip=draw(_ip),
        sport=draw(st.integers(0, 65535)),
        dip=draw(_ip),
        dport=draw(st.integers(0, 65535)),
        npkts=npkts,
        nbytes=draw(st.integers(0, 10**9)) if npkts else 0,
        tcp_state=state,
        payload_prefix=draw(st.binary(max_size=64)),
    )


class TestRoundTrip:
    @settings(max_examples=200)
    @given(st.lists(flow_records(), max_size=8))
    def test_parse_write_identity(self, flows):
        assert parse_flow_file(write_flow_file(flows)) == flows

    def test_thousand_flow_file_round_trips(self):
        from botdetect.synth import generate, p2p_botnet_scenario

        flows, _ = generate(p2p_botnet_scenario(42))
        assert len(flows) > 900
        assert parse_flow_file(write_flow_file(flows)) == flows
