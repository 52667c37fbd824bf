from __future__ import annotations

import enum
from ipaddress import IPv4Network
from typing import get_type_hints

import pytest

from botdetect.model import FlowRecord, Proto, TcpState


def make_flow(
    start_ts=100.0,
    duration=10.0,
    proto=Proto.TCP,
    sip="10.0.0.5",
    sport=43211,
    dip="198.51.100.9",
    dport=8080,
    npkts=20,
    nbytes=1000,
    tcp_state=None,
    payload=b"",
) -> FlowRecord:
    if tcp_state is None:
        tcp_state = TcpState.ESTABLISHED if proto is Proto.TCP else TcpState.NOT_TCP
    return FlowRecord(
        start_ts=start_ts,
        duration=duration,
        proto=proto,
        sip=sip,
        sport=sport,
        dip=dip,
        dport=dport,
        npkts=npkts,
        nbytes=nbytes,
        tcp_state=tcp_state,
        payload_prefix=payload,
    )


# settings-file spellings of floats that no float setting accepts
NON_FINITE = ("nan", "inf", "-inf")


def float_fields(cls: type) -> list[str]:
    """The names of the dataclass ``cls``'s float fields, in order."""
    return [name for name, kind in get_type_hints(cls).items() if kind is float]


def setting_text(value) -> str:
    """Render a field value as a settings file may spell it: whole floats
    without a fraction, enums in upper case, port sets as ``proto:port``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    if isinstance(value, enum.Enum):
        return value.value.upper()
    if isinstance(value, frozenset):
        return ",".join(f"{proto.value}:{port}" for proto, port in sorted(value, key=str))
    return str(value)


@pytest.fixture
def internal_net() -> IPv4Network:
    return IPv4Network("10.0.0.0/16")
