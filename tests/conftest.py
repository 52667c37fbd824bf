from __future__ import annotations

import enum
import importlib.util
import sys
from ipaddress import IPv4Network
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import Phase, strategies as st

from botdetect.model import FlowRecord, Proto, TcpState


# The whole-pipeline properties skip shrinking: one of their examples takes
# a scenario's full run, and a failure already names the scenario, the seed
# and the draws that reproduce it.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


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


def bench_workloads(monkeypatch) -> dict:
    """``bench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.fixture
def internal_net() -> IPv4Network:
    return IPv4Network("10.0.0.0/16")


# around 10.0.0.0/16 (10.0.255.255 in, 9.255.255.255 and 10.1.0.0 out), in
# an order where text and numeric order disagree (10.0.0.10 < 10.0.0.9 and
# 100.x < 2.x < 9.x as text)
ADDRESS_POOL = (
    "2.0.0.1",
    "9.255.255.255",
    "10.0.0.9",
    "10.0.0.10",
    "10.0.0.100",
    "10.0.255.255",
    "10.1.0.0",
    "100.0.0.1",
)


@st.composite
def pooled_flows(draw) -> FlowRecord:
    """A flow between two pool addresses, of any protocol, on a severe, a
    mail and a plain port, over a few minutes."""
    npkts = draw(st.integers(0, 3))
    return make_flow(
        start_ts=draw(st.sampled_from([0.0, 59.5, 60.0, 185.25])),
        duration=draw(st.sampled_from([0.0, 2.5])),
        proto=draw(st.sampled_from(list(Proto))),
        sip=draw(st.sampled_from(ADDRESS_POOL)),
        sport=draw(st.sampled_from([1025, 6667])),
        dip=draw(st.sampled_from(ADDRESS_POOL)),
        dport=draw(st.sampled_from([25, 80, 137, 445])),
        npkts=npkts,
        nbytes=60 * npkts,
    )
