"""Deterministic labeled traffic generator.

Scenarios plant P2P bot groups, IRC bot groups, scanners, and spammers in a
configurable benign background, and return the ground truth alongside the
flows.  Output is a pure function of the scenario (seed included): the
random source is a self-contained xorshift64* generator with documented
constants, so identical scenarios reproduce bit-for-bit anywhere.

Behavior models:

* P2P bot group — every member exchanges the same command traffic with a
  shared peer set: per-flow packet/byte counts are identical across members
  (same commands), only the transfer timing varies, so bytes-per-second
  jitters within the configured percentage while bytes-per-packet matches
  exactly.  Optional scanning/spamming makes the members malicious.
* IRC bot group — one server pushes the same commands to every member over
  persistent connections, all within a single arrival-time bin.
* Scanner — failed (SYN-only) probes to many distinct addresses.
* Spammer — completed SMTP/Submission connections fanned out across many
  mail servers.
* Benign host — a few stable external peers with wide log-uniform flow
  shapes, occasional ICMP, an HTTP mix, and rare legitimate IRC chatter.

Every planted kind is emitted by one function, as one block a group: its
members' command flows (none for scanners and spammers), then their
``scan_targets`` probes each, whatever the kind, then their mail to
``smtp_fanout`` servers each.  Each external address is allocated once,
so the only flows the sort below leaves in generation order (equal on its
whole key) are one member's command flows to one destination, or its mail
to one server: the order within a block, which keeps each of those runs,
does not change the file.

Addresses: internal hosts live in 10.0.0.0/16.  Benign host i is
10.0.1.(i+1) for the first 250; later ones fill 10.0.202.0/24 upward, 250
to a /24, so they never meet planted group g in 10.0.(2+g).0/24.  External
endpoints are allocated in order from 198.51.0.1, past 198.51.255.255 into
198.52.0.0 and up.

Per-flow loops of a fixed number of draws (the benign flows, a planted
group's command flows and scan probes) take their draws in one
:meth:`Xorshift64Star.draws` call, the same xorshift64* sequence computed a
block at a time, and do their float arithmetic on numpy columns with the
same IEEE-754 operations as the scalar draws, so every byte is what one draw
at a time would give.  A planted group's command-flow and probe draws form
one (members, draws per member) matrix: one call for the whole group, or one
row per member when the group mails, since the mail between them draws
scalars.  The flows are put in order by one stable sort on the start time,
then a sort of each run of equal starts by (start, sip, dip, sport, dport).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cache
from ipaddress import IPv4Address
from itertools import repeat
from operator import itemgetter

import numpy as np

from .model import ConfigError, FlowRecord, Proto, TcpState, content_lines, field_parsers
from .model import parse_setting, read_settings

MASK64 = (1 << 64) - 1

# states per block of a bulk draw: the jump table holds 64 * _JUMP_BLOCK
# uint64 (512 KiB)
_JUMP_BLOCK = 1024

_EXT_BASE = (198 << 24) | (51 << 16)  # 198.51.0.0
_OCTETS = tuple(map(str, range(256)))

# anchor-ladder shape constants shared by every planted group
_ANCHOR_NPKTS_BASE = 3
_ANCHOR_NPKTS_STEP = 2
_ANCHOR_X_LO = 0.5
_ANCHOR_X_HI = 2.0
_ANCHOR_LEVEL_START = 0.25
_ANCHOR_LEVEL_RATIO = 1.34

_SCAN_PORTS = (445, 139, 135, 22, 23, 80, 1433, 3389, 5900, 8080)
_UDP_SERVICE_PORTS = (53, 123, 161, 5353)
_PAT_BIN = 60.0  # IRC groups synchronize to the default arrival-time bin

_BENIGN_IRC_PROB = 0.08
_BENIGN_ICMP_PROB = 0.05
_BENIGN_HTTP_PAYLOAD = b"GET /index.html HTTP/1.1\r\nHost: upd.example\r\n"

# benign hosts fill 10.0.1.0/24, then 10.0.202.0/24 up to 10.0.255.0/24,
# 250 to a /24, above every planted group's /24 (10.0.2-201)
_HOSTS_PER_24 = 250
_MAX_BENIGN_HOSTS = _HOSTS_PER_24 * (256 - 201)


class Xorshift64Star:
    """xorshift64* with a splitmix64-scrambled seed.

    next_u64: x ^= x >> 12; x ^= x << 25; x ^= x >> 27; return x * M
    with M = 0x2545F4914F6CDD1D, all in 64-bit arithmetic.  Floats come
    from the top 53 bits ((u >> 11) * 2**-53), so every draw is exactly
    reproducible in any language with IEEE-754 doubles.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        s = seed & MASK64
        s = (s + 0x9E3779B97F4A7C15) & MASK64
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & MASK64
        s ^= s >> 31
        self._state = s or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self._state = x
        return (x * self.MULTIPLIER) & MASK64

    def draws(self, n: int) -> np.ndarray:
        """The next ``n`` ``next_u64()`` outputs as uint64, a block at a time.

        The step is linear over GF(2), so the state ``k + 1`` steps on is
        the XOR of ``T^(k+1)(1 << j)`` over the state's set bits ``j``
        (Haramoto et al., "Efficient Jump Ahead for F2-Linear Random Number
        Generators", 2008): one XOR reduction over the jump table's rows
        gives a block of states.
        """
        states = np.empty(n, dtype=np.uint64)
        x = self._state
        for lo in range(0, n, _JUMP_BLOCK):
            hi = min(n, lo + _JUMP_BLOCK)
            bits = [j for j in range(64) if x >> j & 1]
            np.bitwise_xor.reduce(_jump_table()[bits, : hi - lo], axis=0, out=states[lo:hi])
            x = int(states[hi - 1])
        self._state = x
        # array products wrap modulo 2**64, as the scalar mask does
        return states * np.uint64(self.MULTIPLIER)

    def fraction(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.fraction()

    def randint(self, n: int) -> int:
        if n < 1:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def log2_uniform(self, lo_exp: int, hi_exp: int) -> float:
        """Log-spread positive float in [2**lo_exp, 2**(hi_exp+1))."""
        exponent = lo_exp + self.randint(hi_exp - lo_exp + 1)
        return math.ldexp(1.0 + self.fraction(), exponent)


@cache
def _jump_table() -> np.ndarray:
    """Row ``j``, column ``k``: the xorshift step applied ``k + 1`` times to
    the state ``1 << j``; built on the first bulk draw."""
    table = np.empty((64, _JUMP_BLOCK), dtype=np.uint64)
    x = np.uint64(1) << np.arange(64, dtype=np.uint64)
    for k in range(_JUMP_BLOCK):
        x ^= x >> np.uint64(12)
        x ^= x << np.uint64(25)
        x ^= x >> np.uint64(27)
        table[:, k] = x
    table.flags.writeable = False  # shared by every generator in the process
    return table


def _uniform(draws: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Xorshift64Star.uniform(lo, hi)`` of each draw (its top 53 bits are
    exact in a float64)."""
    return lo + (hi - lo) * ((draws >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def _randint(draws: np.ndarray, n: int) -> np.ndarray:
    """``Xorshift64Star.randint(n)`` of each draw, as int64."""
    return (draws % np.uint64(n)).astype(np.int64)


class PlantedKind(enum.Enum):
    P2P_BOT_GROUP = "p2p_bot_group"
    IRC_BOT_GROUP = "irc_bot_group"
    SCANNER = "scanner"
    SPAMMER = "spammer"


@dataclass(frozen=True)
class PlantedGroup:
    kind: PlantedKind
    size: int
    nbpp: float = 420.0
    nbps: float = 2600.0
    jitter_pct: float = 5.0
    peers: int = 2
    flows_per_peer: int = 8
    scan_targets: int = 0
    smtp_fanout: int = 0

    @property
    def malicious(self) -> bool:
        if self.kind in (PlantedKind.SCANNER, PlantedKind.SPAMMER):
            return True
        return self.scan_targets > 0 or self.smtp_fanout > 0


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 42
    duration: float = 21600.0
    benign_hosts: int = 20
    benign_flow_rate: float = 6.0
    planted: tuple[PlantedGroup, ...] = ()


@dataclass(frozen=True)
class PlantedTruth:
    kind: PlantedKind
    hosts: tuple[IPv4Address, ...]


@dataclass(frozen=True)
class GroundTruth:
    groups: tuple[PlantedTruth, ...]
    malicious: tuple[IPv4Address, ...]


class InvalidSpec(ConfigError):
    """A bad scenario spec or ground-truth sidecar; a :class:`ConfigError`,
    so the command line exits 3 on it without importing this module."""


def validate_spec(spec: ScenarioSpec) -> list[str]:
    problems = []
    if spec.duration <= 0:
        problems.append("duration must be > 0")
    if not 0 <= spec.benign_hosts <= _MAX_BENIGN_HOSTS:
        problems.append(f"benign_hosts must be in [0, {_MAX_BENIGN_HOSTS}]")
    if spec.benign_flow_rate < 0:
        problems.append("benign_flow_rate must be >= 0")
    if len(spec.planted) > 200:
        problems.append("too many planted groups (max 200)")
    for i, group in enumerate(spec.planted):
        where = f"planted.{i}"
        if not 1 <= group.size <= 250:
            problems.append(f"{where}: size must be in [1, 250]")
        if group.nbpp <= 0 or group.nbps <= 0:
            problems.append(f"{where}: nbpp and nbps must be > 0")
        if not 0 <= group.jitter_pct < 100:
            problems.append(f"{where}: jitter_pct must be in [0, 100)")
        if group.peers < 1:
            problems.append(f"{where}: peers must be >= 1")
        if group.flows_per_peer < 1:
            problems.append(f"{where}: flows_per_peer must be >= 1")
        if group.scan_targets < 0 or group.smtp_fanout < 0:
            problems.append(f"{where}: scan_targets and smtp_fanout must be >= 0")
        if group.kind is PlantedKind.SCANNER and group.scan_targets < 1:
            problems.append(f"{where}: scanner needs scan_targets >= 1")
        if group.kind is PlantedKind.SPAMMER and group.smtp_fanout < 1:
            problems.append(f"{where}: spammer needs smtp_fanout >= 1")
    return problems


def _q6(value: float) -> float:
    """Quantize seconds to microseconds so files render compactly."""
    return round(value * 1e6) / 1e6


def _q6_column(values: np.ndarray) -> np.ndarray:
    """:func:`_q6` of each value: ``np.rint`` rounds half to even, as ``round`` does."""
    return np.rint(values * 1e6) / 1e6


def _records(*columns) -> list[FlowRecord]:
    """Records from field columns in ``FlowRecord`` order (a field shared by
    every record is ``repeat(value)``), each made from its tuple of fields."""
    return list(map(tuple.__new__, repeat(FlowRecord), zip(*columns)))


def _benign_address(i: int) -> str:
    block, host = divmod(i, _HOSTS_PER_24)
    return f"10.0.{201 + block if block else 1}.{host + 1}"


class _Allocator:
    def __init__(self):
        self.count = 0

    def externals(self, n: int) -> list[str]:
        """The next ``n`` external addresses, in order from 198.51.0.1; each
        /24's first three octets are formatted once."""
        value = _EXT_BASE + self.count + 1
        end = value + n
        self.count += n
        addresses: list[str] = []
        while value < end:
            stop = min(end, (value | 255) + 1)
            prefix = f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}."
            addresses += map(prefix.__add__, _OCTETS[value & 255 : (value & 255) + stop - value])
            value = stop
        return addresses


def _group_anchors(group: PlantedGroup) -> tuple[list[int], list[int], list[float]]:
    """The shared flow-shape ladder of one planted group: each anchor's
    packet count, byte count and nominal duration, as three lists.

    Packet/byte counts are integers, identical for every member, so the
    bytes-per-packet positions of the resulting curves match exactly; the
    nominal durations place the bytes-per-second levels on a geometric
    ladder that jitter then perturbs.
    """
    k = group.flows_per_peer
    npkts, nbytes, durations = [], [], []
    level = _ANCHOR_LEVEL_START
    for i in range(k):
        npkts.append(_ANCHOR_NPKTS_BASE + _ANCHOR_NPKTS_STEP * i)
        if k == 1:
            x = group.nbpp
        else:
            x = group.nbpp * (_ANCHOR_X_LO + (_ANCHOR_X_HI - _ANCHOR_X_LO) * i / (k - 1))
        nbytes.append(max(1, round(x * npkts[-1])))
        durations.append(nbytes[-1] / (group.nbps * level))
        level *= _ANCHOR_LEVEL_RATIO
    return npkts, nbytes, durations


def _smtp_flows(rng, spec, sip, fanout, alloc) -> list[FlowRecord]:
    flows = []
    for server in alloc.externals(fanout):
        for _ in range(1 + rng.randint(3)):
            npkts = 10 + rng.randint(40)
            nbytes = npkts * (100 + rng.randint(1400))
            rate = 1000.0 * (1.0 + rng.uniform(-0.5, 1.0))
            flows.append(
                FlowRecord(
                    start_ts=_q6(rng.uniform(0.0, spec.duration * 0.99)),
                    duration=_q6(nbytes / rate),
                    proto=Proto.TCP,
                    sip=sip,
                    sport=1024 + rng.randint(64511),
                    dip=server,
                    dport=587 if rng.randint(4) == 0 else 25,
                    npkts=npkts,
                    nbytes=nbytes,
                    tcp_state=TcpState.ESTABLISHED,
                )
            )
    return flows


def _planted_flows(rng, spec, group, members, alloc) -> list[FlowRecord]:
    """The group's command flows, then its scan probes, then its mail.

    A P2P group talks to its peers on one random port at any time of the
    scenario; an IRC group talks to one server on 6667 inside one
    arrival-time bin; scanners and spammers send no command flows.  Each
    member sends every anchor of the shared ladder to every destination.

    Each member's command-flow and probe draws are one row of a
    (members, draws per member) matrix, taken a part at a time: a group
    that mails has one part per member, as its mail between the rows draws
    scalars; any other group has one part of all its members.  The command
    flows are one block in (member, destination, anchor) order and the
    probes one in (member, probe) order.  Which block comes first does not
    change the sorted file: each external address is allocated once, so
    the only flows equal on the whole sort key are one member's command
    flows to one destination, or its mail to one server, and each of those
    keeps its order here.
    """
    irc = group.kind is PlantedKind.IRC_BOT_GROUP
    dport, dests, first, span, last = 0, [], 0.0, 0.0, 0.0
    if irc:
        dport, dests = 6667, alloc.externals(1)
        bins = max(1, int(spec.duration // _PAT_BIN) - 1)
        base = rng.randint(bins) * _PAT_BIN + 20.0
        first, span, last = base, 10.0, spec.duration * 0.999
    elif group.kind is PlantedKind.P2P_BOT_GROUP:
        dport = 20000 + rng.randint(20000)
        dests = alloc.externals(group.peers)
        first, span, last = 0.0, spec.duration * 0.99, math.inf
    npkts, nbytes, durations = _group_anchors(group)
    size, n, targets = len(members), len(npkts), group.scan_targets
    # a member's row: per destination its sport, then each anchor's
    # duration jitter and start; then per probe its start, sport and port
    width = len(dests) * (1 + 2 * n)
    rows, probe_dips, mail = [], [], []
    for part in [[sip] for sip in members] if group.smtp_fanout else [members]:
        rows.append(rng.draws(len(part) * (width + 3 * targets)))
        probe_dips += alloc.externals(len(part) * targets)
        for sip in part:
            mail += _smtp_flows(rng, spec, sip, group.smtp_fanout, alloc)
    draws = np.concatenate(rows).reshape(size, width + 3 * targets)
    command = draws[:, :width].reshape(size, len(dests), 1 + 2 * n)
    probe = draws[:, width:].reshape(size, targets, 3)
    jitter = group.jitter_pct / 100.0
    nominal = np.array(durations)
    nick = [f"NICK b{j:03d}\r\n".encode() if irc else b"" for j in range(size)]
    flows = _records(
        _q6_column(np.minimum(first + _uniform(command[:, :, 2::2], 0.0, span), last)).ravel().tolist(),
        _q6_column(nominal * (1.0 + _uniform(command[:, :, 1::2], -jitter, jitter))).ravel().tolist(),
        repeat(Proto.TCP),
        np.repeat(members, len(dests) * n).tolist(),
        np.repeat(1024 + _randint(command[:, :, 0], 64511), n).tolist(),
        np.repeat(dests, n).tolist() * size,
        repeat(dport),
        npkts * len(dests) * size,
        nbytes * len(dests) * size,
        repeat(TcpState.ESTABLISHED),
        np.repeat(np.array(nick, dtype=object), len(dests) * n).tolist(),
    )
    flows += _records(
        _q6_column(_uniform(probe[:, :, 0], 0.0, spec.duration * 0.99)).ravel().tolist(),
        repeat(0.0),
        repeat(Proto.TCP),
        np.repeat(members, targets).tolist(),
        (1024 + _randint(probe[:, :, 1], 64511)).ravel().tolist(),
        probe_dips,
        np.array(_SCAN_PORTS)[_randint(probe[:, :, 2], len(_SCAN_PORTS))].ravel().tolist(),
        repeat(1),
        repeat(60),
        repeat(TcpState.SYN_ONLY),
        repeat(b""),
    )
    return flows + mail


def _benign_host_flows(rng, spec, sip, alloc) -> list[FlowRecord]:
    peer_count = 2 + rng.randint(4)
    # each peer's (proto, dip, dport, tcp_state, payload) and flow shape
    fields, nbpp, nbps = [], [], []
    for dip in alloc.externals(peer_count):
        r = rng.fraction()
        if r < 0.25:
            proto, state, payload = Proto.TCP, TcpState.ESTABLISHED, _BENIGN_HTTP_PAYLOAD
            dport = rng.choice((80, 8080))
        elif r < 0.5:
            proto, state, payload = Proto.UDP, TcpState.NOT_TCP, b""
            dport = rng.choice(_UDP_SERVICE_PORTS)
        else:
            proto, state, payload = Proto.TCP, TcpState.ESTABLISHED, b""
            dport = 1024 + rng.randint(64511)
        fields.append((proto, dip, dport, state, payload))
        nbpp.append(rng.log2_uniform(5, 9))
        nbps.append(rng.log2_uniform(5, 15))
    total = round(spec.benign_flow_rate * spec.duration / 3600.0)
    # per flow, in draw order: peer, npkts, nbpp jitter, rate jitter, start, sport
    peer, npkts, nbpp_jitter, rate_jitter, start, sport = rng.draws(6 * total).reshape(total, 6).T
    peer = _randint(peer, peer_count)
    npkts = 1 + _randint(npkts, 200)
    nbpp = np.array(nbpp)[peer] * (1.0 + _uniform(nbpp_jitter, -0.3, 0.3))
    nbytes = np.maximum(1.0, np.rint(nbpp * npkts))
    rate = np.array(nbps)[peer] * (1.0 + _uniform(rate_jitter, -0.3, 0.3))
    proto, dip, dport, state, payload = np.array(fields, dtype=object)[peer].T.tolist()
    flows = _records(
        _q6_column(_uniform(start, 0.0, spec.duration * 0.99)).tolist(),
        _q6_column(np.minimum(nbytes / rate, 3600.0)).tolist(),
        proto,
        repeat(sip),
        (1024 + _randint(sport, 64511)).tolist(),
        dip,
        dport,
        npkts.tolist(),
        nbytes.astype(np.int64).tolist(),
        state,
        payload,
    )
    if rng.fraction() < _BENIGN_ICMP_PROB:
        npkts = 2 + rng.randint(8)
        flows.append(
            FlowRecord(
                start_ts=_q6(rng.uniform(0.0, spec.duration * 0.99)),
                duration=_q6(rng.uniform(0.5, 5.0)),
                proto=Proto.ICMP,
                sip=sip,
                sport=0,
                dip=alloc.externals(1)[0],
                dport=0,
                npkts=npkts,
                nbytes=npkts * 64,
                tcp_state=TcpState.NOT_TCP,
            )
        )
    if rng.fraction() < _BENIGN_IRC_PROB:
        for server in alloc.externals(1 + rng.randint(2)):
            sport = 1024 + rng.randint(64511)
            bins = max(1, int(spec.duration // _PAT_BIN))
            chat_bin = rng.randint(bins)
            nbpp_c = rng.log2_uniform(5, 9)
            nbps_c = rng.log2_uniform(5, 12)
            for msg in range(3 + rng.randint(3)):
                npkts = 1 + rng.randint(4)
                nbytes = max(1, round(nbpp_c * (1.0 + rng.uniform(-0.05, 0.05)) * npkts))
                rate = nbps_c * (1.0 + rng.uniform(-0.05, 0.05))
                start = min(chat_bin * _PAT_BIN + rng.uniform(0.0, 59.0), spec.duration * 0.999)
                flows.append(
                    FlowRecord(
                        start_ts=_q6(start),
                        duration=_q6(nbytes / rate),
                        proto=Proto.TCP,
                        sip=sip,
                        sport=sport,
                        dip=server,
                        dport=6667,
                        npkts=npkts,
                        nbytes=nbytes,
                        tcp_state=TcpState.ESTABLISHED,
                        payload_prefix=b"JOIN #news\r\n" if msg == 0 else b"PRIVMSG #news :hi\r\n",
                    )
                )
    return flows


_FLOW_ORDER = itemgetter(0, 3, 5, 4, 6)  # start_ts, sip, dip, sport, dport


def _sort_flows(flows: list[FlowRecord]) -> None:
    """Sort ``flows`` in place by :data:`_FLOW_ORDER`, stably.

    One stable sort on ``start_ts`` alone, then a re-sort of each run of
    equal starts by the whole key: the order of one sort by the whole key,
    without a key tuple per record.
    """
    flows.sort(key=itemgetter(0))
    starts = np.fromiter(map(itemgetter(0), flows), np.float64, len(flows))
    # +1 at the first record of each run of equal starts, -1 at its last
    edges = np.diff(np.concatenate(([0], starts[1:] == starts[:-1], [0])))
    for first, last in zip(np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()):
        flows[first : last + 1] = sorted(flows[first : last + 1], key=_FLOW_ORDER)


def generate(spec: ScenarioSpec) -> tuple[list[FlowRecord], GroundTruth]:
    """Generate a scenario's flows and ground truth; deterministic in the spec."""
    problems = validate_spec(spec)
    if problems:
        raise InvalidSpec("; ".join(problems))
    rng = Xorshift64Star(spec.seed)
    alloc = _Allocator()
    flows: list[FlowRecord] = []
    for i in range(spec.benign_hosts):
        flows.extend(_benign_host_flows(rng, spec, _benign_address(i), alloc))
    truths = []
    malicious: set[IPv4Address] = set()
    for g, group in enumerate(spec.planted):
        members = [f"10.0.{2 + g}.{j + 1}" for j in range(group.size)]
        flows.extend(_planted_flows(rng, spec, group, members, alloc))
        hosts = tuple(sorted(IPv4Address(m) for m in members))
        truths.append(PlantedTruth(kind=group.kind, hosts=hosts))
        if group.malicious:
            malicious.update(hosts)
    _sort_flows(flows)
    return flows, GroundTruth(groups=tuple(truths), malicious=tuple(sorted(malicious)))


# --- canned scenarios used by the test-suite and the demo scripts ---


def benign_scenario(seed: int, hosts: int = 50, rate: float = 6.0) -> ScenarioSpec:
    return ScenarioSpec(seed=seed, benign_hosts=hosts, benign_flow_rate=rate)


def p2p_botnet_scenario(seed: int = 42, size: int = 3, benign_hosts: int = 20) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        benign_hosts=benign_hosts,
        benign_flow_rate=6.0,
        planted=(
            PlantedGroup(
                kind=PlantedKind.P2P_BOT_GROUP,
                size=size,
                nbpp=420.0,
                nbps=2600.0,
                jitter_pct=5.0,
                peers=2,
                flows_per_peer=8,
                scan_targets=60,
            ),
        ),
    )


def irc_botnet_scenario(seed: int = 7, size: int = 4, benign_hosts: int = 20) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        benign_hosts=benign_hosts,
        benign_flow_rate=6.0,
        planted=(
            PlantedGroup(
                kind=PlantedKind.IRC_BOT_GROUP,
                size=size,
                nbpp=360.0,
                nbps=1800.0,
                jitter_pct=5.0,
                peers=1,
                flows_per_peer=8,
            ),
        ),
    )


# --- scenario spec files and ground-truth sidecars ---

def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a scenario spec file (``key = value``, ``planted.N.*`` indexed).

    Same syntax as the config file; each value is parsed by its
    :class:`ScenarioSpec` or :class:`PlantedGroup` field's type.
    """
    spec_parsers = field_parsers(ScenarioSpec)
    planted_parsers = field_parsers(PlantedGroup)
    top: dict[str, object] = {}
    planted: dict[int, dict[str, object]] = {}
    for lineno, key, value in read_settings(text, InvalidSpec):
        if not key.startswith("planted."):
            top[key] = parse_setting(spec_parsers, lineno, key, value, InvalidSpec, "scenario")
            continue
        try:
            _, index_text, attr = key.split(".", 2)
            index = int(index_text)
        except ValueError:
            raise InvalidSpec(f"line {lineno}: bad planted key {key!r}") from None
        entry = planted.setdefault(index, {})
        entry[attr] = parse_setting(planted_parsers, lineno, attr, value, InvalidSpec, "planted")
    if planted and sorted(planted) != list(range(len(planted))):
        raise InvalidSpec("planted indices must be contiguous from 0")
    groups = []
    for index in sorted(planted):
        entry = planted[index]
        for required in ("kind", "size"):
            if required not in entry:
                raise InvalidSpec(f"planted.{index}: missing {required}")
        groups.append(PlantedGroup(**entry))  # type: ignore[arg-type]
    spec = ScenarioSpec(**top, planted=tuple(groups))
    problems = validate_spec(spec)
    if problems:
        raise InvalidSpec("; ".join(problems))
    return spec


def write_truth(truth: GroundTruth) -> str:
    """Render the ground-truth sidecar: one ``group`` line per planted entry
    plus one ``malicious`` line with every host flagged by construction."""
    lines = ["# synthetic scenario ground truth"]
    for i, entry in enumerate(truth.groups):
        hosts = " ".join(str(h) for h in entry.hosts)
        lines.append(f"group {i} {entry.kind.value} {hosts}")
    lines.append("malicious " + " ".join(str(h) for h in truth.malicious))
    return "\n".join(lines).rstrip() + "\n"


def parse_truth(text: str) -> GroundTruth:
    """Parse a ground-truth sidecar; any bad line raises :class:`InvalidSpec`
    naming it.  Group lines are numbered from 0 in order and name at least
    one host; one ``malicious`` line comes last and names only grouped
    hosts; no line names a host twice."""
    groups = []
    grouped: set[IPv4Address] = set()
    malicious: tuple[IPv4Address, ...] | None = None
    for lineno, line in content_lines(text):
        head, *rest = line.split()
        if head not in ("group", "malicious"):
            raise InvalidSpec(f"line {lineno}: unknown truth line: {line!r}")
        try:
            hosts = tuple(sorted(IPv4Address(p) for p in (rest[2:] if head == "group" else rest)))
            ok = malicious is None and len(set(hosts)) == len(hosts)
            if head == "group":
                ok = ok and rest[0] == str(len(groups)) and len(hosts) > 0
                groups.append(PlantedTruth(kind=PlantedKind(rest[1]), hosts=hosts))
                grouped.update(hosts)
            else:
                ok = ok and grouped.issuperset(hosts)
                malicious = hosts
        except (IndexError, ValueError):
            ok = False
        if not ok:
            raise InvalidSpec(f"line {lineno}: bad truth line: {line!r}")
    if malicious is None:
        raise InvalidSpec("missing malicious line")
    return GroundTruth(groups=tuple(groups), malicious=malicious)
