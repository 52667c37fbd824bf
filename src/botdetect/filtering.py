"""Stage one of the pipeline: whitelist drop and failed-handshake split.

Flows to whitelisted destinations are discarded outright.  Flows whose TCP
handshake never completed (``syn_only`` or ``reset``) are not discarded:
they are routed to the ``failed`` stream, which is exactly the
failed-connection evidence the scan scorer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network

from .model import FlowRecord, TcpState, content_lines, inside_texts

_FAILED_STATES = (TcpState.SYN_ONLY, TcpState.RESET)


class WhitelistError(ValueError):
    """Raised for malformed whitelist input."""


@dataclass(frozen=True)
class Whitelist:
    """Deduplicated set of IPv4 CIDR prefixes matched against flow dips."""

    entries: frozenset[IPv4Network]


EMPTY_WHITELIST = Whitelist(frozenset())


def parse_whitelist(text: str) -> Whitelist:
    """Parse one CIDR or bare IPv4 per line; bare address means /32.

    ``#`` starts a comment, blank lines are ignored.
    """
    entries: set[IPv4Network] = set()
    for lineno, line in content_lines(text):
        try:
            if "/" in line:
                entries.add(IPv4Network(line, strict=False))
            else:
                entries.add(IPv4Network(f"{IPv4Address(line)}/32"))
        except ValueError:
            raise WhitelistError(f"line {lineno}: not an IPv4 address or CIDR: {line!r}") from None
    return Whitelist(frozenset(entries))


@dataclass(frozen=True)
class FilterOutput:
    """Result of the filtering stage: a partition of the input flows."""

    clean: list[FlowRecord]
    failed: list[FlowRecord]
    whitelisted_count: int


def run_filter(flows: list[FlowRecord], wl: Whitelist) -> FilterOutput:
    """Drop flows to whitelisted destinations, then route incomplete-handshake
    TCP flows to ``failed`` and the rest to ``clean``, in one pass.

    Only the dip is matched, once per distinct dip; only tcp_state decides
    the split, so non-TCP flows stay clean.  Order is preserved within each
    stream.
    """
    covered = inside_texts({rec.dip for rec in flows}, wl.entries) if wl.entries else set()
    clean: list[FlowRecord] = []
    failed: list[FlowRecord] = []
    for rec in flows:
        if rec.dip not in covered:
            (failed if rec.tcp_state in _FAILED_STATES else clean).append(rec)
    return FilterOutput(clean, failed, whitelisted_count=len(flows) - len(clean) - len(failed))
