from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from botdetect.classify import AppLabel, HTTP_METHODS, IRC_TOKENS, classify_flow, partition_by_label
from botdetect.model import Proto
from botdetect.table import FlowTable

from .conftest import make_flow


class TestIrc:
    @pytest.mark.parametrize("token", [t.decode() for t in IRC_TOKENS])
    def test_every_token_recognized_at_line_start(self, token):
        rec = make_flow(payload=f"{token}something\r\n".encode())
        assert classify_flow(rec) is AppLabel.IRC

    def test_token_on_later_line_counts(self):
        rec = make_flow(payload=b"USER bot 0 * :b\r\nNICK bot\r\n")
        assert classify_flow(rec) is AppLabel.IRC

    def test_lf_only_lines_accepted(self):
        rec = make_flow(payload=b"JOIN #chan\n")
        assert classify_flow(rec) is AppLabel.IRC

    def test_udp_never_irc(self):
        rec = make_flow(proto=Proto.UDP, payload=b"NICK bot\r\n")
        assert classify_flow(rec) is AppLabel.OTHER


class TestHttp:
    @pytest.mark.parametrize("method", [m.decode() for m in HTTP_METHODS])
    def test_methods_at_payload_start(self, method):
        rec = make_flow(payload=f"{method}/index.html HTTP/1.1\r\n".encode())
        assert classify_flow(rec) is AppLabel.HTTP

    def test_method_on_second_line_is_other(self):
        rec = make_flow(payload=b"junk\r\nGET / HTTP/1.1\r\n")
        assert classify_flow(rec) is AppLabel.OTHER


ADVERSARIAL = [
    b"nick bot\r\n",          # lowercase token
    b"pass hunter2\r\n",
    b"join #chan\r\n",
    b"get / HTTP/1.1\r\n",    # lowercase method
    b"post /x\r\n",
    b"head /\r\n",
    b"xNICK bot\r\n",         # token not at line start
    b" NICK bot\r\n",         # leading space
    b"size GET payload",      # method mid-line
    b"NICKbot\r\n",           # missing separating space
    b"PRIVMSGfoo\r\n",
    b"USER_agent: x\r\n",
    b"GET\t/ HTTP/1.1\r\n",   # tab instead of space
    b"POST",                  # bare method, no space
    b"NIC",                   # shorter than any token
    b"JOI N #chan\r\n",
    b"OPERATOR x\r\n",
    b"HE AD /\r\n",
    b"\r\nGET / HTTP/1.1",    # method on second line
    b"\x00NICK bot\r\n",      # binary prefix byte
]


class TestAdversarial:
    @pytest.mark.parametrize("payload", ADVERSARIAL)
    def test_near_misses_are_other(self, payload):
        assert classify_flow(make_flow(payload=payload)) is AppLabel.OTHER

    def test_empty_payload_udp_is_other(self):
        rec = make_flow(proto=Proto.UDP, payload=b"")
        assert classify_flow(rec) is AppLabel.OTHER

    def test_irc_takes_precedence_over_http(self):
        # both patterns present: IRC token on a later line wins by rule order
        rec = make_flow(payload=b"GET / HTTP/1.1\r\nNICK bot\r\n")
        assert classify_flow(rec) is AppLabel.IRC


class TestPartition:
    def test_empty(self):
        assert partition_by_label(FlowTable.from_records([])) == ([], [], [])

    def test_one_of_each(self):
        irc = make_flow(payload=b"NICK a\r\n")
        http = make_flow(payload=b"GET / HTTP/1.1\r\n")
        other = make_flow()
        got_irc, got_http, got_other = partition_by_label(FlowTable.from_records([other, irc, http]))
        assert got_irc == [irc] and got_http == [http] and got_other == [other]

    def test_partition_agrees_with_per_flow_labels(self):
        payloads = [b"NICK a\r\n", b"GET /\r\n", b"", b"PRIVMSG #c :m\r\n", b"HEAD / x\r\n"] * 20
        flows = [make_flow(payload=p, sport=i) for i, p in enumerate(payloads)]
        irc, http, other = partition_by_label(FlowTable.from_records(flows))
        by_label = {AppLabel.IRC: irc, AppLabel.HTTP: http, AppLabel.OTHER: other}
        for rec in flows:
            assert rec in by_label[classify_flow(rec)]
        assert len(irc) + len(http) + len(other) == len(flows)


class TestLabelDependsOnlyOnProtoAndPayload:
    @given(
        payload=st.binary(max_size=64),
        sport=st.integers(0, 65535),
        dport=st.integers(0, 65535),
        npkts=st.integers(1, 1000),
        start=st.floats(0, 1e9, allow_nan=False),
    )
    def test_mutating_other_fields_keeps_label(self, payload, sport, dport, npkts, start):
        base = make_flow(payload=payload)
        mutated = base._replace(
            sport=sport, dport=dport, npkts=npkts, nbytes=npkts * 7, start_ts=start
        )
        assert classify_flow(base) is classify_flow(mutated)


# payload pieces: every token, its every proper prefix, line ends and spaces
PIECES = sorted(
    {t[:k] for t in IRC_TOKENS + HTTP_METHODS for k in range(1, len(t) + 1)} | {b"\r", b"\n", b" "}
)


@given(pieces=st.lists(st.sampled_from(PIECES), max_size=12))
def test_a_trailing_carriage_return_never_decides_the_label(pieces):
    payload = b"".join(pieces)
    # the rule with each line's one trailing \r stripped before matching
    lines = [line[:-1] if line.endswith(b"\r") else line for line in payload.split(b"\n")]
    if payload and any(line.startswith(IRC_TOKENS) for line in lines):
        stripped = AppLabel.IRC
    elif payload.startswith(HTTP_METHODS):
        stripped = AppLabel.HTTP
    else:
        stripped = AppLabel.OTHER
    assert classify_flow(make_flow(payload=payload)) is stripped
