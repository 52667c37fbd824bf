"""Core domain types shared by every pipeline stage.

A :class:`FlowRecord` is one aggregated network flow (endpoints, counters,
TCP state, optional payload prefix).  All types here are immutable value
objects, safe to copy between concurrent workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from ipaddress import AddressValueError, IPv4Address
from typing import Callable, Iterator, get_type_hints

PAYLOAD_PREFIX_MAX = 64


class Proto(enum.Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"
    OTHER = "other"


class TcpState(enum.Enum):
    ESTABLISHED = "established"
    SYN_ONLY = "syn_only"
    RESET = "reset"
    NOT_TCP = "not_tcp"


class OsdMode(enum.Enum):
    """Voting scheme for the three outbound-scan detectors."""

    AND = "and"
    OR = "or"
    MAJORITY = "majority"


@dataclass(frozen=True)
class FlowRecord:
    """One aggregated flow.

    ``npkts``/``nbytes`` are totals over both directions.  ``payload_prefix``
    holds up to 64 opaque bytes of the first client payload and may be empty.
    """

    start_ts: float
    duration: float
    proto: Proto
    sip: str
    sport: int
    dip: str
    dport: int
    npkts: int
    nbytes: int
    tcp_state: TcpState
    payload_prefix: bytes = b""


def _valid_ipv4(text: str) -> bool:
    try:
        IPv4Address(text)
    except (AddressValueError, ValueError):
        return False
    return True


def validate_flow(rec: FlowRecord) -> list[str]:
    """Return every violated invariant of ``rec`` (empty list means ok).

    Total function: never raises, reports all problems at once.
    """
    problems: list[str] = []
    if not (math.isfinite(rec.start_ts) and rec.start_ts >= 0):
        problems.append(f"start_ts must be finite and >= 0, got {rec.start_ts}")
    if not (math.isfinite(rec.duration) and rec.duration >= 0):
        problems.append(f"duration must be finite and >= 0, got {rec.duration}")
    if not _valid_ipv4(rec.sip):
        problems.append(f"sip is not a valid IPv4 address: {rec.sip!r}")
    if not _valid_ipv4(rec.dip):
        problems.append(f"dip is not a valid IPv4 address: {rec.dip!r}")
    if not 0 <= rec.sport <= 65535:
        problems.append(f"sport out of range: {rec.sport}")
    if not 0 <= rec.dport <= 65535:
        problems.append(f"dport out of range: {rec.dport}")
    if rec.npkts < 0:
        problems.append(f"npkts must be >= 0, got {rec.npkts}")
    if rec.nbytes < 0:
        problems.append(f"nbytes must be >= 0, got {rec.nbytes}")
    if rec.proto is not Proto.TCP and rec.tcp_state is not TcpState.NOT_TCP:
        problems.append("proto != TCP requires tcp_state=not_tcp")
    if rec.npkts == 0 and rec.nbytes != 0:
        problems.append("npkts=0 requires nbytes=0")
    if len(rec.payload_prefix) > PAYLOAD_PREFIX_MAX:
        problems.append(
            f"payload_prefix longer than {PAYLOAD_PREFIX_MAX} bytes: {len(rec.payload_prefix)}"
        )
    return problems


DEFAULT_HS_PORTS: frozenset[tuple[Proto, int]] = frozenset(
    {(Proto.TCP, p) for p in (135, 139, 445, 1433, 2967, 3306, 5900)}
    | {(Proto.UDP, p) for p in (137, 1434)}
)


@dataclass(frozen=True)
class DetectorConfig:
    """Tunables for every stage of the pipeline; defaults work as-is.

    ``hs_ports`` is the set of (proto, port) pairs treated as high-severity
    when weighting failed connection attempts.
    """

    window_seconds: float = 21600.0
    similarity_threshold: float = 0.85
    resample_points: int = 32
    min_group_size: int = 3
    pat_bin_seconds: float = 60.0
    w1: float = 3.0
    w2: float = 1.0
    isd_threshold: float = 10.0
    osd_mode: OsdMode = OsdMode.MAJORITY
    osd_s1_threshold: float = 5.0
    osd_s2_threshold: float = 0.5
    osd_s3_threshold: float = 0.9
    osd_min_scans: int = 10
    spam_distinct_servers: int = 5
    spam_total_flows: int = 50
    hs_ports: frozenset[tuple[Proto, int]] = DEFAULT_HS_PORTS
    duration_floor: float = 0.001
    irc_require_malicious: bool = False


def default_config() -> DetectorConfig:
    return DetectorConfig()


def config_violations(cfg: DetectorConfig) -> list[str]:
    problems = []
    if cfg.window_seconds <= 0:
        problems.append("window_seconds must be > 0")
    if not 0.0 <= cfg.similarity_threshold <= 1.0:
        problems.append("similarity_threshold must be in [0, 1]")
    if cfg.resample_points < 2:
        problems.append("resample_points must be >= 2")
    if cfg.min_group_size < 1:
        problems.append("min_group_size must be >= 1")
    if cfg.pat_bin_seconds <= 0:
        problems.append("pat_bin_seconds must be > 0")
    for name in (
        "w1",
        "w2",
        "isd_threshold",
        "osd_s1_threshold",
        "osd_s2_threshold",
        "osd_s3_threshold",
        "duration_floor",
        "osd_min_scans",
        "spam_distinct_servers",
        "spam_total_flows",
    ):
        if getattr(cfg, name) < 0:
            problems.append(f"{name} must be >= 0")
    return problems


class ConfigError(ValueError):
    """Raised for malformed or invalid configuration input."""


def parse_hs_ports(value: str) -> frozenset[tuple[Proto, int]]:
    """Parse the ``tcp:445,udp:1434`` port-set syntax."""
    items: set[tuple[Proto, int]] = set()
    if not value.strip():
        return frozenset()
    for chunk in value.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise ConfigError(f"hs_ports entry {chunk!r} is not proto:port")
        proto_text, port_text = chunk.split(":", 1)
        proto_text = proto_text.strip().lower()
        if proto_text not in ("tcp", "udp"):
            raise ConfigError(f"hs_ports proto must be tcp or udp, got {proto_text!r}")
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(f"hs_ports port {port_text!r} is not an integer") from None
        if not 0 <= port <= 65535:
            raise ConfigError(f"hs_ports port out of range: {port}")
        items.add((Proto(proto_text), port))
    return frozenset(items)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of ``text`` left non-blank once
    its ``#`` comment is cut off; ``line`` is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_settings(text: str, error: type[ValueError]) -> Iterator[tuple[int, str, str]]:
    """Yield ``(lineno, key, value)`` for each ``key = value`` line of ``text``.

    ``#`` starts a comment and blank lines are skipped; any other line
    without ``=`` raises ``error`` naming its line.
    """
    for lineno, line in content_lines(text):
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"line {lineno}: expected key = value, got {line!r}")
        yield lineno, key.strip(), value.strip()


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered not in ("true", "false"):
        raise ValueError(text)
    return lowered == "true"


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def field_parsers(cls: type) -> dict[str, Callable[[str], object]]:
    """One text-to-value parser per field of the dataclass ``cls``, by field type.

    ``int`` and ``float`` parse as those types (so ``21600`` gives
    ``21600.0`` for a float field; ``nan`` and ``inf`` are refused),
    ``bool`` takes ``true``/``false`` in any case, and an enum takes its
    lowercased value; ``hs_ports`` takes the :func:`parse_hs_ports` syntax.
    Fields of any other type get no parser, so a settings file cannot set
    them.
    """
    parsers: dict[str, Callable[[str], object]] = {}
    for name, kind in get_type_hints(cls).items():
        if name == "hs_ports":
            parsers[name] = parse_hs_ports
        elif kind is bool:
            parsers[name] = _parse_bool
        elif kind is int:
            parsers[name] = int
        elif kind is float:
            parsers[name] = _parse_finite
        elif isinstance(kind, type) and issubclass(kind, enum.Enum):
            parsers[name] = lambda text, kind=kind: kind(text.lower())
    return parsers


def parse_setting(
    parsers: dict[str, Callable[[str], object]],
    lineno: int,
    key: str,
    value: str,
    error: type[ValueError],
    scope: str,
) -> object:
    """Parse one setting's value, raising ``error`` that names its line for an
    unknown ``scope`` key (``config``, ``scenario``, ...) or a bad value."""
    parser = parsers.get(key)
    if parser is None:
        raise error(f"line {lineno}: unknown {scope} key {key!r}")
    try:
        return parser(value)
    except ConfigError as exc:
        raise error(f"line {lineno}: {exc}") from None
    except ValueError:
        raise error(f"line {lineno}: bad value for {key}: {value!r}") from None


def parse_config(text: str, base: DetectorConfig | None = None) -> DetectorConfig:
    """Parse ``key = value`` config lines on top of ``base`` (defaults if None).

    ``#`` starts a comment; blank lines are skipped; unknown keys are an
    error; each value is parsed by its field's type (see :func:`field_parsers`).
    """
    parsers = field_parsers(DetectorConfig)
    values = {
        key: parse_setting(parsers, lineno, key, value, ConfigError, "config")
        for lineno, key, value in read_settings(text, ConfigError)
    }
    cfg = replace(base or DetectorConfig(), **values)
    problems = config_violations(cfg)
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg
