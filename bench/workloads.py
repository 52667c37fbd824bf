"""The benchmark's workloads: scenario specs for ``botdetect.synth.generate``.

Each workload stresses a different part of the pipeline (see ``why``).
Inputs are a pure function of (workload, seed, scale); ``scale`` below 1
shrinks host and target counts and exists only for the self-test.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from botdetect.model import FlowRecord
from botdetect.synth import PlantedGroup, PlantedKind, ScenarioSpec

HOUR = 3600.0
BENIGN_PREFIX = "10.0.1."


def _n(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _p2p(g: int, size: int, scan_targets: int) -> PlantedGroup:
    # distinct shapes per group, so each group is its own curve family
    return PlantedGroup(
        kind=PlantedKind.P2P_BOT_GROUP,
        size=size,
        nbpp=300.0 + 60.0 * g,
        nbps=1500.0 * 1.6**g,
        scan_targets=scan_targets,
    )


def _irc(g: int, size: int) -> PlantedGroup:
    return PlantedGroup(
        kind=PlantedKind.IRC_BOT_GROUP,
        size=size,
        nbpp=300.0 + 60.0 * g,
        nbps=1200.0 * 1.6**g,
        peers=1,
    )


def wide_window(seed: int, scale: float = 1.0) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        duration=6 * HOUR,
        benign_hosts=_n(250, scale),
        benign_flow_rate=6.0,
        planted=tuple(_p2p(g, 3, _n(60, scale)) for g in range(4)),
    )


def deep_day(seed: int, scale: float = 1.0) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        duration=24 * HOUR,
        benign_hosts=_n(20, scale),
        benign_flow_rate=20.0,
    )


def scan_mix(seed: int, scale: float = 1.0) -> ScenarioSpec:
    planted = [_p2p(g, 5, _n(60, scale)) for g in range(6)]
    planted += [_irc(g, 5) for g in range(6)]
    planted += [
        PlantedGroup(kind=PlantedKind.SCANNER, size=_n(10, scale), scan_targets=_n(60, scale))
        for _ in range(10)
    ]
    planted += [
        PlantedGroup(kind=PlantedKind.SPAMMER, size=5, smtp_fanout=_n(8, scale)) for _ in range(2)
    ]
    return ScenarioSpec(
        seed=seed,
        duration=6 * HOUR,
        benign_hosts=_n(30, scale),
        benign_flow_rate=6.0,
        planted=tuple(planted),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_spec: Callable[[int, float], ScenarioSpec]
    whitelist_entries: int
    # shape counts (see run.shape) that set the cost the workload was chosen for
    cost_drivers: tuple[str, ...]

    def whitelist(self, flows: list[FlowRecord], scale: float = 1.0) -> list[str]:
        """The busiest benign destinations; ties break on the address text."""
        counts = Counter(rec.dip for rec in flows if rec.sip.startswith(BENIGN_PREFIX))
        busiest = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [dip for dip, _ in busiest[: round(self.whitelist_entries * scale)]]


# BENCHMARK.json runs deep_day and scan_mix.  wide_window stays runnable by
# name: on a shared 2-core machine whose speed drifts by up to 2x over
# seconds, three workloads cannot each get a run long enough to keep their
# spread within the bounds inside the benchmark's total time budget.
# deep_day and scan_mix are sized so one call takes about a second or less,
# short enough for the yardstick timed around each call (yardstick.py) to
# follow the machine's speed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide_window",
            why="one 6 h window, 250 benign hosts, four P2P groups: "
            "all-pairs clustering of ~690 groups is almost all of the work",
            make_spec=wide_window,
            whitelist_entries=0,
            cost_drivers=("pairs_per_window",),
        ),
        Workload(
            name="deep_day",
            why="24 h in four windows, 20 hosts, 8-entry whitelist: "
            "per-flow parse, filter, grouping and activity dominate; clustering barely runs",
            make_spec=deep_day,
            whitelist_entries=8,
            cost_drivers=("flows",),
        ),
        Workload(
            name="scan_mix",
            why="one window of scanners, spammers, P2P and IRC bots: "
            "activity on failed flows, degenerate curves defeat pruning, IRC path, non-empty report",
            make_spec=scan_mix,
            whitelist_entries=0,
            cost_drivers=("failed", "pairs_per_window"),
        ),
    )
}
