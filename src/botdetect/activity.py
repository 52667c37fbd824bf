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
from collections import Counter
from dataclasses import dataclass
from functools import partial
from ipaddress import IPv4Address, IPv4Network
from itertools import compress, repeat
from operator import attrgetter, gt, lt, mul, truediv

from .model import DetectorConfig, FlowRecord, OsdMode, Proto, buckets, inside_texts

SMTP_PORTS = (25, 587)
_SMTP = frozenset((Proto.TCP, port) for port in SMTP_PORTS)
_SIP, _DIP = attrgetter("sip"), attrgetter("dip")
_PROTO_PORT = attrgetter("proto", "dport")


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


def count_failed(
    failed: list[FlowRecord], hs_ports: frozenset[tuple[Proto, int]]
) -> FailedCounts:
    fhs = sum(map(hs_ports.__contains__, map(_PROTO_PORT, failed)))
    return FailedCounts(fhs=fhs, fls=len(failed) - fhs)


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


def osd_scores(
    outbound_flows: list[FlowRecord], failed: list[FlowRecord], cfg: DetectorConfig
) -> ScanScores:
    """Score one host's outbound behavior for a window.

    ``outbound_flows`` are the host's completed connections, ``failed`` its
    failed attempts; together they are the C connection attempts.  The
    target distribution runs over distinct destination addresses of all
    attempts.
    """
    attempts = len(outbound_flows) + len(failed)
    target_counts = Counter(map(_DIP, outbound_flows))
    target_counts.update(map(_DIP, failed))
    m = len(target_counts)
    s1 = m / (cfg.window_seconds / 60.0)
    fc = count_failed(failed, cfg.hs_ports)
    s2 = osd_s2(fc, cfg.w1, cfg.w2, attempts)
    s3 = entropy_norm(list(target_counts.values())) if attempts else 0.0
    flagged = attempts >= cfg.osd_min_scans and osd_vote(s1, s2, s3, cfg)
    return ScanScores(s1=s1, s2=s2, s3=s3, scans=attempts, targets=m, flagged=flagged)


def spam_detect(flows: list[FlowRecord], cfg: DetectorConfig) -> SpamReport:
    """Flag mail fan-out: many SMTP/Submission flows or many distinct servers."""
    is_smtp = map(_SMTP.__contains__, map(_PROTO_PORT, flows))
    smtp_servers = list(compress(map(_DIP, flows), is_smtp))
    servers = set(smtp_servers)
    flagged = (
        len(servers) >= cfg.spam_distinct_servers or len(smtp_servers) >= cfg.spam_total_flows
    )
    return SpamReport(smtp_flows=len(smtp_servers), distinct_servers=len(servers), flagged=flagged)


def _crossing(
    flows: list[FlowRecord], inside: set[str], outbound: bool
) -> dict[str, list[FlowRecord]]:
    """The flows leaving the internal network, by sip (``outbound``), or
    entering it, by dip: exactly one endpoint is inside, and it is that one."""
    src_internal = map(inside.__contains__, map(_SIP, flows))
    dst_internal = map(inside.__contains__, map(_DIP, flows))
    # True > False: the source inside and the destination not, and vice versa
    crossing = list(compress(flows, map(gt if outbound else lt, src_internal, dst_internal)))
    return buckets(map(_SIP if outbound else _DIP, crossing), crossing)


def window_activity(
    all_flows: list[FlowRecord],
    failed_flows: list[FlowRecord],
    internal: IPv4Network,
    cfg: DetectorConfig,
) -> dict[IPv4Address, HostActivity]:
    """Score every internal host seen in one window.

    ``all_flows`` are the window's completed (clean) flows, ``failed_flows``
    its failed connection attempts.  Spam is judged on completed flows only;
    failed attempts still count toward the scan scores.
    """
    # direction is decided once per distinct address text, not once per flow
    texts = {*map(_SIP, all_flows), *map(_DIP, all_flows)}
    texts.update(map(_SIP, failed_flows), map(_DIP, failed_flows))
    inside = inside_texts(texts, (internal,))
    outbound = _crossing(all_flows, inside, outbound=True)
    outbound_failed = _crossing(failed_flows, inside, outbound=True)
    inbound_failed = _crossing(failed_flows, inside, outbound=False)

    addrs = {host: IPv4Address(host) for host in {*outbound, *outbound_failed, *inbound_failed}}
    activity: dict[IPv4Address, HostActivity] = {}
    for host in sorted(addrs, key=addrs.__getitem__):
        clean = outbound.get(host, [])
        failed = outbound_failed.get(host, [])
        inbound_fc = count_failed(inbound_failed.get(host, []), cfg.hs_ports)
        isd_s = isd_score(inbound_fc, cfg.w1, cfg.w2)
        activity[addrs[host]] = HostActivity(
            scores=osd_scores(clean, failed, cfg),
            spam=spam_detect(clean, cfg),
            isd_s=isd_s,
            isd_flagged=isd_s >= cfg.isd_threshold,
        )
    return activity
