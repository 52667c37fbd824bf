"""Stage one of the pipeline: whitelist drop and failed-handshake split.

Flows to whitelisted destinations are discarded outright.  Flows whose TCP
handshake never completed (``syn_only`` or ``reset``) are not discarded:
they are routed to the ``failed`` stream, which is exactly the
failed-connection evidence the scan scorer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network

from .model import FlowRecord, TcpState, content_lines

_FAILED_STATES = (TcpState.SYN_ONLY, TcpState.RESET)


class WhitelistError(ValueError):
    """Raised for malformed whitelist input."""


@dataclass(frozen=True)
class Whitelist:
    """Deduplicated set of IPv4 CIDR prefixes matched against flow dips."""

    entries: frozenset[IPv4Network]

    def covers(self, ip: str) -> bool:
        addr = IPv4Address(ip)
        return any(addr in net for net in self.entries)


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


def apply_whitelist(flows: list[FlowRecord], wl: Whitelist) -> tuple[list[FlowRecord], int]:
    """Drop flows whose destination matches any whitelist prefix.

    Only the dip is checked; order is preserved among kept flows.
    """
    if not wl.entries:
        return list(flows), 0
    covered = {dip for dip in {rec.dip for rec in flows} if wl.covers(dip)}
    kept = [rec for rec in flows if rec.dip not in covered]
    return kept, len(flows) - len(kept)


def split_handshake(flows: list[FlowRecord]) -> FilterOutput:
    """Route incomplete-handshake TCP flows to ``failed``, the rest to ``clean``.

    Looks only at tcp_state; non-TCP flows have no handshake and stay clean.
    """
    clean: list[FlowRecord] = []
    failed: list[FlowRecord] = []
    for rec in flows:
        if rec.tcp_state in _FAILED_STATES:
            failed.append(rec)
        else:
            clean.append(rec)
    return FilterOutput(clean=clean, failed=failed, whitelisted_count=0)


def run_filter(flows: list[FlowRecord], wl: Whitelist) -> FilterOutput:
    """Whitelist first, then handshake split."""
    kept, dropped = apply_whitelist(flows, wl)
    out = split_handshake(kept)
    return FilterOutput(clean=out.clean, failed=out.failed, whitelisted_count=dropped)
