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

Every planted kind is emitted by one function: a bot group's command flows
(none for scanners and spammers), then each member's ``scan_targets``
probes and ``smtp_fanout`` mail servers, whatever its kind.
* Benign host — a few stable external peers with wide log-uniform flow
  shapes, occasional ICMP, an HTTP mix, and rare legitimate IRC chatter.

Addresses: internal hosts live in 10.0.0.0/16 (benign in 10.0.1.0/24,
planted group g in 10.0.(2+g).0/24); external endpoints are allocated
sequentially from 198.51.0.0/16.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from ipaddress import IPv4Address

from .model import FlowRecord, Proto, TcpState, content_lines, field_parsers, parse_setting, read_settings

MASK64 = (1 << 64) - 1

INTERNAL_NETWORK = "10.0.0.0/16"
_EXT_BASE = (198 << 24) | (51 << 16)  # 198.51.0.0

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


class InvalidSpec(ValueError):
    pass


def validate_spec(spec: ScenarioSpec) -> list[str]:
    problems = []
    if spec.duration <= 0:
        problems.append("duration must be > 0")
    if not 0 <= spec.benign_hosts <= 250:
        problems.append("benign_hosts must be in [0, 250]")
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


class _Allocator:
    def __init__(self):
        self.count = 0

    def external(self) -> str:
        self.count += 1
        value = _EXT_BASE + self.count
        return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


@dataclass(frozen=True)
class _Anchor:
    npkts: int
    nbytes: int
    duration: float


def _group_anchors(group: PlantedGroup) -> list[_Anchor]:
    """The shared flow-shape ladder of one planted group.

    Packet/byte counts are integers, identical for every member, so the
    bytes-per-packet positions of the resulting curves match exactly; the
    nominal durations place the bytes-per-second levels on a geometric
    ladder that jitter then perturbs.
    """
    k = group.flows_per_peer
    anchors = []
    level = _ANCHOR_LEVEL_START
    for i in range(k):
        npkts = _ANCHOR_NPKTS_BASE + _ANCHOR_NPKTS_STEP * i
        if k == 1:
            x = group.nbpp
        else:
            x = group.nbpp * (_ANCHOR_X_LO + (_ANCHOR_X_HI - _ANCHOR_X_LO) * i / (k - 1))
        nbytes = max(1, round(x * npkts))
        anchors.append(_Anchor(npkts=npkts, nbytes=nbytes, duration=nbytes / (group.nbps * level)))
        level *= _ANCHOR_LEVEL_RATIO
    return anchors


def _scan_flows(rng, spec, sip, targets, alloc) -> list[FlowRecord]:
    flows = []
    for _ in range(targets):
        flows.append(
            FlowRecord(
                start_ts=_q6(rng.uniform(0.0, spec.duration * 0.99)),
                duration=0.0,
                proto=Proto.TCP,
                sip=sip,
                sport=1024 + rng.randint(64511),
                dip=alloc.external(),
                dport=rng.choice(_SCAN_PORTS),
                npkts=1,
                nbytes=60,
                tcp_state=TcpState.SYN_ONLY,
            )
        )
    return flows


def _smtp_flows(rng, spec, sip, fanout, alloc) -> list[FlowRecord]:
    flows = []
    for _ in range(fanout):
        server = alloc.external()
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
    """Every member's command flows, then its scan probes and mail.

    A P2P group talks to its peers on one random port at any time of the
    scenario; an IRC group talks to one server on 6667 inside one
    arrival-time bin; scanners and spammers send no command flows.  Each
    member sends every anchor of the shared ladder to every destination.
    """
    irc = group.kind is PlantedKind.IRC_BOT_GROUP
    if irc:
        dport, dests = 6667, [alloc.external()]
        bins = max(1, int(spec.duration // _PAT_BIN) - 1)
        base = rng.randint(bins) * _PAT_BIN + 20.0
        first, span, last = base, 10.0, spec.duration * 0.999
    elif group.kind is PlantedKind.P2P_BOT_GROUP:
        dport = 20000 + rng.randint(20000)
        dests = [alloc.external() for _ in range(group.peers)]
        first, span, last = 0.0, spec.duration * 0.99, math.inf
    else:
        dests = []
    anchors = _group_anchors(group)
    jitter = group.jitter_pct / 100.0
    flows = []
    for j, sip in enumerate(members):
        payload = f"NICK b{j:03d}\r\n".encode() if irc else b""
        for dip in dests:
            sport = 1024 + rng.randint(64511)
            for anchor in anchors:
                duration = _q6(anchor.duration * (1.0 + rng.uniform(-jitter, jitter)))
                flows.append(
                    FlowRecord(
                        start_ts=_q6(min(first + rng.uniform(0.0, span), last)),
                        duration=duration,
                        proto=Proto.TCP,
                        sip=sip,
                        sport=sport,
                        dip=dip,
                        dport=dport,
                        npkts=anchor.npkts,
                        nbytes=anchor.nbytes,
                        tcp_state=TcpState.ESTABLISHED,
                        payload_prefix=payload,
                    )
                )
        flows.extend(_scan_flows(rng, spec, sip, group.scan_targets, alloc))
        flows.extend(_smtp_flows(rng, spec, sip, group.smtp_fanout, alloc))
    return flows


def _benign_host_flows(rng, spec, sip, alloc) -> list[FlowRecord]:
    flows: list[FlowRecord] = []
    peer_count = 2 + rng.randint(4)
    peers = []
    for _ in range(peer_count):
        r = rng.fraction()
        if r < 0.25:
            kind, dport = "http", rng.choice((80, 8080))
        elif r < 0.5:
            kind, dport = "udp", rng.choice(_UDP_SERVICE_PORTS)
        else:
            kind, dport = "tcp", 1024 + rng.randint(64511)
        peers.append(
            {
                "dip": alloc.external(),
                "kind": kind,
                "dport": dport,
                "nbpp": rng.log2_uniform(5, 9),
                "nbps": rng.log2_uniform(5, 15),
            }
        )
    total = round(spec.benign_flow_rate * spec.duration / 3600.0)
    for _ in range(total):
        peer = peers[rng.randint(peer_count)]
        npkts = 1 + rng.randint(200)
        nbpp = peer["nbpp"] * (1.0 + rng.uniform(-0.3, 0.3))
        nbytes = max(1, round(nbpp * npkts))
        rate = peer["nbps"] * (1.0 + rng.uniform(-0.3, 0.3))
        duration = _q6(min(nbytes / rate, 3600.0))
        payload = b""
        if peer["kind"] == "http":
            payload = b"GET /index.html HTTP/1.1\r\nHost: upd.example\r\n"
        flows.append(
            FlowRecord(
                start_ts=_q6(rng.uniform(0.0, spec.duration * 0.99)),
                duration=duration,
                proto=Proto.UDP if peer["kind"] == "udp" else Proto.TCP,
                sip=sip,
                sport=1024 + rng.randint(64511),
                dip=peer["dip"],
                dport=peer["dport"],
                npkts=npkts,
                nbytes=nbytes,
                tcp_state=TcpState.NOT_TCP if peer["kind"] == "udp" else TcpState.ESTABLISHED,
                payload_prefix=payload,
            )
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
                dip=alloc.external(),
                dport=0,
                npkts=npkts,
                nbytes=npkts * 64,
                tcp_state=TcpState.NOT_TCP,
            )
        )
    if rng.fraction() < _BENIGN_IRC_PROB:
        for _ in range(1 + rng.randint(2)):
            server = alloc.external()
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


def generate(spec: ScenarioSpec) -> tuple[list[FlowRecord], GroundTruth]:
    """Generate a scenario's flows and ground truth; deterministic in the spec."""
    problems = validate_spec(spec)
    if problems:
        raise InvalidSpec("; ".join(problems))
    rng = Xorshift64Star(spec.seed)
    alloc = _Allocator()
    flows: list[FlowRecord] = []
    for i in range(spec.benign_hosts):
        flows.extend(_benign_host_flows(rng, spec, f"10.0.1.{i + 1}", alloc))
    truths = []
    malicious: set[IPv4Address] = set()
    for g, group in enumerate(spec.planted):
        members = [f"10.0.{2 + g}.{j + 1}" for j in range(group.size)]
        flows.extend(_planted_flows(rng, spec, group, members, alloc))
        hosts = tuple(sorted(IPv4Address(m) for m in members))
        truths.append(PlantedTruth(kind=group.kind, hosts=hosts))
        if group.malicious:
            malicious.update(hosts)
    flows.sort(key=lambda f: (f.start_ts, f.sip, f.dip, f.sport, f.dport))
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
    naming it."""
    groups = []
    malicious: tuple[IPv4Address, ...] = ()
    for lineno, line in content_lines(text):
        head, *rest = line.split()
        if head not in ("group", "malicious"):
            raise InvalidSpec(f"line {lineno}: unknown truth line: {line!r}")
        try:
            if head == "group":
                kind = PlantedKind(rest[1])
                hosts = tuple(sorted(IPv4Address(p) for p in rest[2:]))
                groups.append(PlantedTruth(kind=kind, hosts=hosts))
            else:
                malicious = tuple(sorted(IPv4Address(p) for p in rest))
        except (IndexError, ValueError):
            raise InvalidSpec(f"line {lineno}: bad truth line: {line!r}") from None
    return GroundTruth(groups=tuple(groups), malicious=malicious)
