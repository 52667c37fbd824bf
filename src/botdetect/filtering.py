"""Stage one of the pipeline: whitelist drop and failed-handshake split.

Flows to whitelisted destinations are discarded outright.  Flows whose TCP
handshake never completed (``syn_only`` or ``reset``) are not discarded:
they are routed to the ``failed`` stream, which is exactly the
failed-connection evidence the scan scorer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network

import numpy as np

from .model import TcpState, content_lines
from .table import STATES, FlowTable, inside

# whether a handshake in each state failed, by state code
_FAILED = np.array([state in (TcpState.SYN_ONLY, TcpState.RESET) for state in STATES])


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

    clean: FlowTable
    failed: FlowTable
    whitelisted_count: int


def run_filter(table: FlowTable, wl: Whitelist) -> FilterOutput:
    """Drop flows to whitelisted destinations, then route incomplete-handshake
    TCP flows to ``failed`` and the rest to ``clean``.

    Only the dip is matched, one integer mask per whitelist entry; only
    tcp_state decides the split, so non-TCP flows stay clean.  Order is
    preserved within each stream.
    """
    kept = ~inside(table.dip, wl.entries)
    failed = _FAILED[table.tcp_state]
    return FilterOutput(
        clean=table[kept & ~failed],
        failed=table[kept & failed],
        whitelisted_count=len(table) - int(np.count_nonzero(kept)),
    )
