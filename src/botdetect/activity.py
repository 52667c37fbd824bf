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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from ipaddress import IPv4Address, IPv4Network
from itertools import repeat
from operator import gt, lt, mul, truediv

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


@dataclass(frozen=True)
class ScanScores:
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


@dataclass(frozen=True)
class SpamReport:
    smtp_flows: int
    distinct_servers: int
    flagged: bool


@dataclass(frozen=True)
class HostActivity:
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
    h = -sum(map(mul, shares, map(math.log, shares)))
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


# Each per-host score below is computed for n hosts at once from a table and
# ``host``, the index in 0..n-1 of the host each of its rows is charged to;
# counts come from bincount over those indices, and only the final float
# arithmetic runs per host, in Python, on Python ints.


def _per_host(host: np.ndarray, n: int) -> list[int]:
    return np.bincount(host, minlength=n).tolist()


def _distinct_per_host(host: np.ndarray, values: np.ndarray, n: int) -> tuple[list[int], list[int]]:
    """For each host, how many distinct ``values`` (uint32) its rows hold,
    and how many rows hold each: the counts of host 0's values first, then
    host 1's, and so on."""
    pairs, counts = np.unique(host.astype(np.uint64) << 32 | values, return_counts=True)
    return _per_host((pairs >> 32).astype(np.intp), n), counts.tolist()


def _to_ports(flows: FlowTable, ports: frozenset[tuple[Proto, int]]) -> np.ndarray:
    """Whether each flow's ``(proto, dport)`` is one of ``ports``."""
    found = np.zeros(len(flows), dtype=bool)
    for proto, port in ports:
        found |= (flows.proto == PROTO_CODE[proto]) & (flows.dport == port)
    return found


def _failed_counts(
    host: np.ndarray, failed: FlowTable, n: int, hs_ports: frozenset[tuple[Proto, int]]
) -> list[FailedCounts]:
    severe = _to_ports(failed, hs_ports)
    return list(map(FailedCounts, _per_host(host[severe], n), _per_host(host[~severe], n)))


def _scan_scores(
    host_clean: np.ndarray,
    clean: FlowTable,
    host_failed: np.ndarray,
    failed: FlowTable,
    n: int,
    cfg: DetectorConfig,
) -> list[ScanScores]:
    attempts = np.bincount(host_clean, minlength=n) + np.bincount(host_failed, minlength=n)
    targets, target_counts = _distinct_per_host(
        np.concatenate([host_clean, host_failed]), np.concatenate([clean.dip, failed.dip]), n
    )
    scores = []
    end = 0
    for scans, m, fc in zip(
        attempts.tolist(), targets, _failed_counts(host_failed, failed, n, cfg.hs_ports)
    ):
        start, end = end, end + m
        s1 = m / (cfg.window_seconds / 60.0)
        s2 = osd_s2(fc, cfg.w1, cfg.w2, scans)
        s3 = entropy_norm(target_counts[start:end]) if scans else 0.0
        flagged = scans >= cfg.osd_min_scans and osd_vote(s1, s2, s3, cfg)
        scores.append(ScanScores(s1=s1, s2=s2, s3=s3, scans=scans, targets=m, flagged=flagged))
    return scores


def _spam_reports(host: np.ndarray, flows: FlowTable, n: int, cfg: DetectorConfig) -> list[SpamReport]:
    smtp = _to_ports(flows, _SMTP)
    servers, _ = _distinct_per_host(host[smtp], flows.dip[smtp], n)
    return [
        SpamReport(
            smtp_flows=total,
            distinct_servers=distinct,
            flagged=distinct >= cfg.spam_distinct_servers or total >= cfg.spam_total_flows,
        )
        for total, distinct in zip(_per_host(host[smtp], n), servers)
    ]


def _crossing(
    flows: FlowTable, internal: IPv4Network, outbound: bool
) -> tuple[np.ndarray, FlowTable]:
    """The flows leaving the internal network (``outbound``) or entering
    it: exactly one endpoint is inside, and it is the source or the
    destination respectively; with that endpoint's address per flow."""
    src_internal = inside(flows.sip, (internal,))
    dst_internal = inside(flows.dip, (internal,))
    crossing = src_internal & ~dst_internal if outbound else dst_internal & ~src_internal
    rows = flows[crossing]
    return (rows.sip if outbound else rows.dip), rows


def window_activity(
    clean: FlowTable, failed: FlowTable, internal: IPv4Network, cfg: DetectorConfig
) -> dict[IPv4Address, HostActivity]:
    """Score every internal host seen in one window, in address order.

    ``clean`` are the window's completed flows, ``failed`` its failed
    connection attempts.  A host's outbound completed and failed flows
    together are its C connection attempts, and its target distribution
    runs over the distinct destination addresses of all of them.  Spam is
    judged on completed flows only.

    The hosts of the three crossing streams are indexed together by one
    ``np.unique`` with its inverse (a plain ``np.unique`` would import
    ``numpy.ma`` on numpy 2.4, a cost paid by every fresh ``detect``).
    """
    out_hosts, outbound = _crossing(clean, internal, outbound=True)
    out_failed_hosts, outbound_failed = _crossing(failed, internal, outbound=True)
    in_hosts, inbound_failed = _crossing(failed, internal, outbound=False)
    found = np.concatenate([out_hosts, out_failed_hosts, in_hosts])
    hosts, host = np.unique(found, return_inverse=True)
    n = len(hosts)
    out, out_failed, into = np.split(host, np.cumsum([len(out_hosts), len(out_failed_hosts)]))
    scores = _scan_scores(out, outbound, out_failed, outbound_failed, n, cfg)
    spam = _spam_reports(out, outbound, n, cfg)
    inbound_fc = _failed_counts(into, inbound_failed, n, cfg.hs_ports)
    activity: dict[IPv4Address, HostActivity] = {}
    for host, host_scores, host_spam, fc in zip(hosts.tolist(), scores, spam, inbound_fc):
        isd_s = isd_score(fc, cfg.w1, cfg.w2)
        activity[IPv4Address(host)] = HostActivity(
            scores=host_scores,
            spam=host_spam,
            isd_s=isd_s,
            isd_flagged=isd_s >= cfg.isd_threshold,
        )
    return activity
