"""No stage enters a Python frame or runs a Python line once per flow.

Each stage's Python-level calls and lines (``sys.settrace`` "call" events,
which count a generator's every resume too, and "line" events in every
frame it enters) are counted on an input and on the same rows repeated
three times: the distinct values, hosts and groups are the same, so a
stage whose per-flow work runs in C makes as many calls and runs as many
lines on both.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
from ipaddress import IPv4Network

import pytest

from botdetect import synth
from botdetect.activity import window_activity
from botdetect.classify import partition_by_label
from botdetect.filtering import Whitelist, run_filter
from botdetect.flowfile import _BLOCK_CHARS, parse_flow_file, write_flow_file
from botdetect.model import default_config
from botdetect.monitors import group_flows_irc, group_flows_p2p, window_partition
from botdetect.pipeline import run_detection
from botdetect.similarity import build_curve
from botdetect.synth import PlantedGroup, PlantedKind, ScenarioSpec, Xorshift64Star, generate
from botdetect.table import FlowTable

INTERNAL = IPv4Network("10.0.0.0/16")
# every host reaches the vote, with its input tripled or not
CFG = dataclasses.replace(default_config(), osd_min_scans=0)


def _flows():
    """Some 250 rows of one window: benign traffic, P2P and IRC bots, a
    scanner and a spammer, so every stage has work on every path."""
    spec = ScenarioSpec(
        seed=1,
        duration=3600.0,
        benign_hosts=10,
        benign_flow_rate=12.0,
        planted=(
            PlantedGroup(kind=PlantedKind.P2P_BOT_GROUP, size=3, flows_per_peer=4, scan_targets=12),
            PlantedGroup(kind=PlantedKind.IRC_BOT_GROUP, size=3, peers=1, flows_per_peer=4),
            PlantedGroup(kind=PlantedKind.SCANNER, size=2, scan_targets=20),
            PlantedGroup(kind=PlantedKind.SPAMMER, size=2, smtp_fanout=6),
        ),
    )
    flows, _ = generate(spec)
    return flows


FLOWS = _flows()
FILTERED = run_filter(FlowTable.from_records(FLOWS), Whitelist(frozenset()))
IRC, _, OTHER = partition_by_label(FILTERED.clean)


def python_events(fn, *args) -> tuple[int, int]:
    """Python-level calls and lines that ``fn(*args)`` runs, after one
    warm-up call.

    The counted call starts just after a collection, so whether it triggers
    one does not depend on what ran before it: a collection runs the
    ``gc.callbacks`` (hypothesis installs one), whose calls would count.
    """
    fn(*args)
    calls = lines = 0
    gc.collect()

    def trace(frame, event, arg):
        nonlocal calls, lines
        calls += event == "call"
        lines += event == "line"
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return calls, lines


def group_curves(flows) -> list:
    """The P2P groups of ``flows`` and the curve of each."""
    groups, _ = group_flows_p2p(flows, CFG.duration_floor)
    return [build_curve(group.points, CFG.resample_points) for group in groups]


def test_the_input_exercises_every_stage():
    assert 200 <= len(FLOWS) <= 400
    assert FILTERED.failed and IRC and OTHER
    activity = window_activity(FILTERED.clean, FILTERED.failed, INTERNAL, CFG)
    assert any(act.scores.flagged for act in activity.values())
    assert any(act.spam.flagged for act in activity.values())
    assert group_flows_irc(IRC, CFG).groups and group_flows_p2p(OTHER, CFG.duration_floor).groups
    assert len(window_partition(FlowTable.from_records(FLOWS), 600.0)) == 6


@pytest.mark.parametrize(
    "stage, args",
    [
        pytest.param(
            run_filter, lambda k: (FlowTable.from_records(FLOWS * k), Whitelist(frozenset())), id="run_filter"
        ),
        pytest.param(  # six windows of 600 s
            window_partition, lambda k: (FlowTable.from_records(FLOWS * k), 600.0), id="window_partition"
        ),
        pytest.param(
            partition_by_label,
            lambda k: (FlowTable.from_records(list(FILTERED.clean) * k),),
            id="partition_by_label",
        ),
        pytest.param(
            group_flows_p2p,
            lambda k: (FlowTable.from_records(list(OTHER) * k), CFG.duration_floor),
            id="group_flows_p2p",
        ),
        pytest.param(
            group_flows_irc, lambda k: (FlowTable.from_records(list(IRC) * k), CFG), id="group_flows_irc"
        ),
        # two copies of each flow, then six: each equal-nbpp run of the
        # curves triples.  (One copy against three would differ in lines:
        # a group with no repeated nbpp skips the per-run loop, copies of it do not.)
        pytest.param(
            group_curves,
            lambda k: (FlowTable.from_records(list(OTHER) * 2 * k),),
            id="group_flows_p2p+build_curve",
        ),
        pytest.param(
            window_activity,
            lambda k: (
                FlowTable.from_records(list(FILTERED.clean) * k),
                FlowTable.from_records(list(FILTERED.failed) * k),
                INTERNAL,
                CFG,
            ),
            id="window_activity",
        ),
        # two copies against six, as for the curves
        pytest.param(
            run_detection,
            lambda k: (FlowTable.from_records(FLOWS * 2 * k), Whitelist(frozenset()), INTERNAL, CFG),
            id="run_detection",
        ),
    ],
)
def test_stage_makes_no_call_per_flow(stage, args):
    assert python_events(stage, *args(1)) == python_events(stage, *args(3))


def test_whitelist_makes_no_call_per_destination():
    whitelist = Whitelist(frozenset({IPv4Network("192.0.0.0/26"), IPv4Network("192.0.1.7/32")}))
    flows = [FLOWS[0]._replace(dip=f"192.0.{i // 256}.{i % 256}") for i in range(300)]
    some, all_ = FlowTable.from_records(flows[:100]), FlowTable.from_records(flows)
    assert run_filter(some, whitelist).whitelisted_count == 64
    assert run_filter(all_, whitelist).whitelisted_count == 65
    assert python_events(run_filter, some, whitelist) == python_events(run_filter, all_, whitelist)


def test_parse_makes_no_call_per_row():
    flows = FLOWS[:200]
    once = write_flow_file(flows)
    header, rows = once.split(b"\n", 1)
    thrice = header + b"\n" + rows * 3
    assert len(thrice) < _BLOCK_CHARS  # both files fit in one block
    assert parse_flow_file(thrice) == flows * 3
    assert python_events(parse_flow_file, once) == python_events(parse_flow_file, thrice)
    # a comment and a blank line cost only themselves, whatever the rows around them
    once, thrice = (header + b"\n# a comment\n\n" + rows * k for k in (1, 3))
    assert len(thrice) < _BLOCK_CHARS
    assert parse_flow_file(thrice) == flows * 3
    assert python_events(parse_flow_file, once) == python_events(parse_flow_file, thrice)


def _planted_only(**group) -> ScenarioSpec:
    return ScenarioSpec(seed=3, duration=3600.0, benign_hosts=0, planted=(PlantedGroup(**group),))


def draws_calls(spec: ScenarioSpec) -> int:
    """``Xorshift64Star.draws`` calls that ``generate(spec)`` makes."""
    calls = 0

    def trace(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is Xorshift64Star.draws.__code__

    sys.settrace(trace)
    try:
        generate(spec)
    finally:
        sys.settrace(None)
    return calls


@pytest.mark.parametrize("kind", [PlantedKind.P2P_BOT_GROUP, PlantedKind.SCANNER], ids=lambda k: k.value)
def test_planted_group_makes_no_call_per_probe(kind):
    """A group without mail takes its members' command-flow and probe draws
    in one bulk draw, and its probes' addresses in one allocation.  Calls
    only: the allocator runs a few lines per /24 of addresses."""
    # a member's row: a P2P member's 5 command-flow draws (one peer, two
    # anchors), then 3 per probe; at most 992 draws, inside one jump-table block
    few, many = (
        _planted_only(kind=kind, size=4, peers=1, flows_per_peer=2, scan_targets=targets) for targets in (21, 81)
    )
    assert 4 * (5 + 3 * 81) < synth._JUMP_BLOCK
    assert draws_calls(few) == draws_calls(many) == 1
    assert python_events(generate, few)[0] == python_events(generate, many)[0]


def test_mailing_group_draws_one_row_per_member():
    spec = _planted_only(kind=PlantedKind.P2P_BOT_GROUP, size=4, scan_targets=5, smtp_fanout=2)
    assert draws_calls(spec) == 4
