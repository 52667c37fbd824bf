"""Malicious activity detection: scan scoring and the spam fan-out heuristic.

Scanning is scored per internal host from failed connection attempts,
weighted by port severity, on both directions of traffic:

  inbound  S  = w1*fhs + w2*fls           (failures targeting the host)
  outbound s2 = (w1*fhs + w2*fls) / C     (failure rate over C attempts)
  outbound s3 = H / ln(m)                 (normalized target entropy,
                                           H = -sum p_i ln p_i)
  outbound s1 = distinct targets per minute of the window

fhs/fls count failed attempts at high-/low-severity ports.  The three
outbound detectors vote (AND, OR, or MAJORITY) once a host has made at
least ``osd_min_scans`` outbound attempts.

Spamming is flagged from mail-submission fan-out alone: many flows to TCP
ports 25/587, or flows to many distinct mail servers.  Message content is
never inspected.

Direction is inferred from a configured internal network: a flow with an
internal sip is outbound, one with an internal dip is inbound.  Only
traffic crossing that boundary is scored.

``window_activity`` computes every score as a numpy column over a window's
hosts.  The scalar helpers ``entropy_norm``, ``osd_s2``, ``isd_score`` and
``osd_vote`` are the references those columns equal, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from ipaddress import IPv4Address, IPv4Network
from itertools import repeat
from operator import add, gt, lt, mul, neg, truediv
from typing import NamedTuple

import numpy as np

from .model import DetectorConfig, OsdMode, Proto
from .table import PROTO_CODE, FlowTable, inside

SMTP_PORTS = (25, 587)
_SMTP = frozenset((Proto.TCP, port) for port in SMTP_PORTS)


class AllZero(ValueError):
    pass


@dataclass(frozen=True)
class FailedCounts:
    """Failed connection attempts split by port severity."""

    fhs: int
    fls: int


class ScanScores(NamedTuple):
    """Per-host scan scores for one window.

    ``scans`` is C, the total outbound connection attempts; ``targets`` is
    m, the number of distinct destination addresses.  ``flagged`` is the
    outbound vote.
    """

    s1: float
    s2: float
    s3: float
    scans: int
    targets: int
    flagged: bool


class SpamReport(NamedTuple):
    smtp_flows: int
    distinct_servers: int
    flagged: bool


class HostActivity(NamedTuple):
    """One host's window: outbound scan scores, spam fan-out, and the inbound
    score ``isd_s`` with its threshold verdict."""

    scores: ScanScores
    spam: SpamReport
    isd_s: float
    isd_flagged: bool

    @property
    def malicious(self) -> bool:
        return self.isd_flagged or self.scores.flagged or self.spam.flagged


def isd_score(fc: FailedCounts, w1: float, w2: float) -> float:
    return w1 * fc.fhs + w2 * fc.fls


def osd_s2(fc: FailedCounts, w1: float, w2: float, scans: int) -> float:
    """Severity-weighted failure rate; 0 when the host made no attempts."""
    if scans == 0:
        return 0.0
    return (w1 * fc.fhs + w2 * fc.fls) / scans


def entropy_norm(counts: list[int]) -> float:
    """Normalized entropy H/ln(m) of a count distribution, in [0, 1].

    Zero counts are dropped.  A single target has zero spread by decision
    (ln 1 = 0).  Raises :class:`AllZero` when every count is zero.
    """
    if any(map(partial(gt, 0), counts)):  # 0 > c
        raise ValueError("counts must be >= 0")
    # canonical summation order makes the result exactly permutation-invariant
    positive = sorted(filter(partial(lt, 0), counts))  # 0 < c
    if not positive:
        raise AllZero("entropy of an empty distribution is undefined")
    m = len(positive)
    if m == 1:
        return 0.0
    total = sum(positive)
    shares = list(map(truediv, positive, repeat(total)))
    # summed left to right: ``sum`` of floats compensates on Python 3.12+
    h = -reduce(add, map(mul, shares, map(math.log, shares)), 0.0)
    return min(max(h / math.log(m), 0.0), 1.0)


def osd_vote(s1: float, s2: float, s3: float, cfg: DetectorConfig) -> bool:
    votes = (
        (s1 >= cfg.osd_s1_threshold)
        + (s2 >= cfg.osd_s2_threshold)
        + (s3 >= cfg.osd_s3_threshold)
    )
    if cfg.osd_mode is OsdMode.AND:
        return votes == 3
    if cfg.osd_mode is OsdMode.OR:
        return votes >= 1
    return votes >= 2


# Each score below is a column over a window's n hosts, made from a table and
# ``host``, the index in 0..n-1 of the host each of its rows is charged to:
# counts come from bincount over those indices, and the float arithmetic is
# the scalar helpers' above, one float64 operation for each of theirs, so
# every column equals what they give host by host.


def _to_ports(flows: FlowTable, ports: frozenset[tuple[Proto, int]]) -> np.ndarray:
    """Whether each flow's ``(proto, dport)`` is one of ``ports``."""
    found = np.zeros(len(flows), dtype=bool)
    for proto, port in ports:
        found |= (flows.proto == PROTO_CODE[proto]) & (flows.dport == port)
    return found


def _distinct_per_host(host: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The host of each distinct ``(host, value)`` of the rows (``values``
    uint32), in order of host, and how many rows hold each."""
    pairs, counts = np.unique(host.astype(np.uint64) << 32 | values, return_counts=True)
    return (pairs >> 32).astype(np.intp), counts


def _severity_counts(host: np.ndarray, severe: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """fhs and fls per host, of the failed attempts charged to ``host``,
    ``severe`` marking those at a high-severity port."""
    return np.bincount(host[severe], minlength=n), np.bincount(host[~severe], minlength=n)


def _isd_column(fhs: np.ndarray, fls: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """``isd_score`` of each host's counts."""
    return w1 * fhs + w2 * fls


def _s2_column(
    fhs: np.ndarray, fls: np.ndarray, w1: float, w2: float, scans: np.ndarray
) -> np.ndarray:
    """``osd_s2`` of each host's counts."""
    s2 = np.zeros(len(scans))
    np.divide(_isd_column(fhs, fls, w1, w2), scans, out=s2, where=scans > 0)
    return s2


# the votes of the three outbound detectors that each mode needs
_VOTES_NEEDED = {OsdMode.AND: 3, OsdMode.MAJORITY: 2, OsdMode.OR: 1}


def _vote_column(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    """``osd_vote`` of each host's scores."""
    votes = (
        (s1 >= cfg.osd_s1_threshold).astype(np.intp)
        + (s2 >= cfg.osd_s2_threshold)
        + (s3 >= cfg.osd_s3_threshold)
    )
    return votes >= _VOTES_NEEDED[cfg.osd_mode]


def _entropy_column(
    pair_host: np.ndarray, counts: np.ndarray, totals: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """``entropy_norm`` of each host's target counts, bit for bit; 0 for a
    host with fewer than two targets.

    ``counts`` are the counts of every host's targets, ``pair_host`` the
    host of each, ``totals`` each host's sum of counts and ``targets`` its
    m.  Each host's counts are sorted ascending and divided by its total, as
    ``entropy_norm`` does; ``math.log`` is taken once per run of equal
    shares and once per host's m (numpy's ``log`` may differ from libm's in
    the last bit).  The terms are summed left to right, as ``entropy_norm``
    sums them, by ``np.add.accumulate`` along the rows of a zero-padded
    matrix (``np.add.reduce`` and ``reduceat`` would sum pairwise).  Hosts
    are grouped by the bit length of m - 1, so a row is less than twice its
    host's m long.
    """
    s3 = np.zeros(len(targets))
    spread = targets >= 2  # one target has zero spread
    keep = spread[pair_host]
    pair_host, counts = pair_host[keep], counts[keep]
    bits = np.frexp(targets - 1)[1].astype(np.intp)  # intp, as the other row arithmetic
    # rows in order of width, then host; each row's counts ascending
    order = np.lexsort((counts, pair_host, bits[pair_host]))
    pair_host, counts = pair_host[order], counts[order]
    rows = np.flatnonzero(spread)
    rows = rows[np.argsort(bits[rows], kind="stable")]
    m, width = targets[rows], 1 << bits[rows]
    shares = counts / totals[pair_host]
    # equal shares sit side by side: one log and one term per run of them; a
    # term is p * -ln p, exactly entropy_norm's p * ln p negated, so a row
    # sums to H itself
    starts = np.ones(len(shares), dtype=bool)
    starts[1:] = shares[1:] != shares[:-1]
    first = np.flatnonzero(starts)
    run_shares = shares[first]
    minus_logs = np.fromiter(map(neg, map(math.log, run_shares.tolist())), np.float64, len(first))
    terms = np.repeat(run_shares * minus_logs, np.diff(first, append=len(shares)))
    # a row's j-th term lands at its row's start plus j
    row_start = np.cumsum(width) - width
    padded = np.zeros(width.sum())
    padded[np.arange(len(terms)) + np.repeat(row_start - (np.cumsum(m) - m), m)] = terms
    h = np.empty(len(rows))
    row = at = 0
    for b, k in enumerate(np.bincount(bits[rows]).tolist()):
        if k:  # k rows of width 2**b
            block = padded[at : at + (k << b)].reshape(k, 1 << b)
            h[row : row + k] = np.add.accumulate(block, axis=1)[:, -1]
            row, at = row + k, at + (k << b)
    log_m = np.fromiter(map(math.log, m.tolist()), np.float64, len(m))
    s3[rows] = np.minimum(np.maximum(h / log_m, 0.0), 1.0)
    return s3


def _crossing(flows: FlowTable, internal: IPv4Network) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the flows leaving the internal network and of those
    entering it: exactly one endpoint is inside, and it is the source or
    the destination respectively."""
    src_internal = inside(flows.sip, (internal,))
    dst_internal = inside(flows.dip, (internal,))
    return src_internal & ~dst_internal, dst_internal & ~src_internal


def window_activity(
    clean: FlowTable, failed: FlowTable, internal: IPv4Network, cfg: DetectorConfig
) -> dict[IPv4Address, HostActivity]:
    """Score every internal host seen in one window, in address order.

    ``clean`` are the window's completed flows, ``failed`` its failed
    connection attempts.  A host's outbound completed and failed flows
    together are its C connection attempts, and its target distribution
    runs over the distinct destination addresses of all of them.  Spam is
    judged on completed flows only.

    Every score is a column over the window's hosts; only the result
    objects are made per host.  The hosts of the three crossing streams are
    indexed together by one ``np.unique`` with its inverse (a plain
    ``np.unique`` would import ``numpy.ma`` on numpy 2.4, a cost paid by
    every fresh ``detect``).
    """
    outbound, _ = _crossing(clean, internal)
    outbound_failed, inbound_failed = _crossing(failed, internal)
    found = [clean.sip[outbound], failed.sip[outbound_failed], failed.dip[inbound_failed]]
    hosts, host = np.unique(np.concatenate(found), return_inverse=True)
    n = len(hosts)
    # rows of host: outbound completed, outbound failed, then inbound failed
    a = np.count_nonzero(outbound)
    b = a + np.count_nonzero(outbound_failed)
    severe = _to_ports(failed, cfg.hs_ports)
    # the C attempts and m distinct targets of each host, and each target's count
    dips = np.concatenate([clean.dip[outbound], failed.dip[outbound_failed]])
    pair_host, counts = _distinct_per_host(host[:b], dips)
    scans = np.bincount(host[:b], minlength=n)
    targets = np.bincount(pair_host, minlength=n)
    s1 = targets / (cfg.window_seconds / 60.0)
    fhs, fls = _severity_counts(host[a:b], severe[outbound_failed], n)
    s2 = _s2_column(fhs, fls, cfg.w1, cfg.w2, scans)
    s3 = _entropy_column(pair_host, counts, scans, targets)
    flagged = (scans >= cfg.osd_min_scans) & _vote_column(s1, s2, s3, cfg)
    smtp = _to_ports(clean, _SMTP)[outbound]
    smtp_flows = np.bincount(host[:a][smtp], minlength=n)
    servers = np.bincount(_distinct_per_host(host[:a][smtp], dips[:a][smtp])[0], minlength=n)
    spam = (servers >= cfg.spam_distinct_servers) | (smtp_flows >= cfg.spam_total_flows)
    isd_s = _isd_column(*_severity_counts(host[b:], severe[inbound_failed], n), cfg.w1, cfg.w2)
    scores = zip(*(column.tolist() for column in (s1, s2, s3, scans, targets, flagged)))
    mail = zip(smtp_flows.tolist(), servers.tolist(), spam.tolist())
    inbound = zip(isd_s.tolist(), (isd_s >= cfg.isd_threshold).tolist())
    return {
        IPv4Address(address): HostActivity(ScanScores(*score), SpamReport(*spam), *isd)
        for address, score, spam, isd in zip(hosts.tolist(), scores, mail, inbound)
    }
