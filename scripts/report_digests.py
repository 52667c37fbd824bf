#!/usr/bin/env python3
"""Digest of every report the CLI writes, for byte-identity checks.

Runs ``detect``, ``curves --path p2p|irc``, ``scan-score`` and
``spam-score`` on the flows of each shipped scenario spec, of the
``benign``/``p2p_botnet``/``irc_botnet`` scenario factories at seeds
1..n_seeds, and of the benchmark's ``deep_day`` and ``scan_mix`` workloads
(``bench/workloads.py``) at seeds 1..min(n_seeds, 3) with their whitelists
(and ``scan_mix`` again under ``deep_day``'s whitelist rule), and prints
one ``sha256  command  input`` line per output.  Each input also gets a
``parse`` line, the sha256 of the ``repr`` of its parsed records, which
pins the fields that no report shows (every ``start_ts`` bit, the payload
bytes).  Two more lines hold the same digest and must equal it: an
``annotated-parse`` line, of the input rewritten with CRLF line ends, a
blank line after the header and a comment before every 200th row; and a
``from-records`` line, of ``FlowTable.from_records`` of the generated
records, which passes them through the writer and the parser.  It also
gets a ``curves`` and a ``scores`` line, computed directly with
``build_curve`` and ``curve_similarity`` from the groups that ``detect``
clusters, per window and path in canonical key order: the
sha256 of every curve's xs, ys, floor and peak float64 bytes (the
``curves`` command prints only 12 significant digits), and of every pair
of groups' score, with the ``repr`` of its two group keys.  Those lines
pin every bit of the curves and of the scorer, whichever pairs clustering
visits and in whatever order.  An ``activity`` line is the sha256 of every
window's ``window_activity``: each host's address, its four scores as
float64 bytes, and its counts and verdicts (``scan-score`` prints 12
significant digits and ``detect`` only flags, so neither shows a last-bit
change in a score).  The workloads are the inputs that exercise the
whitelist filter, scanners and spammers; ``scan_mix``'s own whitelist is
empty, so only under ``deep_day``'s rule does the filter meet scanner
traffic.
A change that must keep every report byte-identical is checked by running
this on both commits and diffing the two outputs.

Usage: python scripts/report_digests.py [n_seeds]   (default 20)
"""

from __future__ import annotations

import hashlib
import importlib.util
import struct
import sys
import tempfile
from ipaddress import IPv4Network
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's program, whatever else is installed or on PYTHONPATH
sys.path.insert(0, str(ROOT / "src"))

from botdetect.activity import window_activity
from botdetect.cli import main as cli
from botdetect.filtering import EMPTY_WHITELIST, parse_whitelist
from botdetect.flowfile import parse_flow_file, write_flow_file
from botdetect.model import default_config
from botdetect.pipeline import group_path, window_streams
from botdetect.report import BotPath
from botdetect.similarity import build_curve, curve_similarity
from botdetect.synth import (
    benign_scenario,
    generate,
    irc_botnet_scenario,
    p2p_botnet_scenario,
    parse_scenario,
)
from botdetect.table import FlowTable

INTERNAL = ["--internal", "10.0.0.0/16"]
COMMANDS = (
    ["detect", *INTERNAL],
    ["curves", "--path", "p2p"],
    ["curves", "--path", "irc"],
    ["scan-score", *INTERNAL],
    ["spam-score", *INTERNAL],
)
FACTORIES = (benign_scenario, p2p_botnet_scenario, irc_botnet_scenario)
# (workload, the workload whose whitelist rule filters its flows)
WORKLOADS = (("deep_day", "deep_day"), ("scan_mix", "scan_mix"), ("scan_mix", "deep_day"))
WORKLOAD_SEEDS = 3


def bench_workloads() -> dict:
    """``bench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def inputs(work: Path, n_seeds: int):
    """Yield (name, generated records, flow file path, whitelist path or
    None) for every input, writing its files first."""
    for spec in sorted((ROOT / "scenarios").glob("*.spec")):
        prefix = work / spec.stem
        assert cli(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
        flows, _ = generate(parse_scenario(spec.read_text(encoding="utf-8")))
        yield f"scenarios/{spec.name}", flows, Path(f"{prefix}.flows.csv"), None
    for factory in FACTORIES:
        for seed in range(1, n_seeds + 1):
            name = f"{factory.__name__}({seed})"
            path = work / f"{name}.flows.csv"
            flows, _ = generate(factory(seed))
            path.write_bytes(write_flow_file(flows))
            yield name, flows, path, None
    workloads = bench_workloads()
    for flows_from, rule_from in WORKLOADS:
        for seed in range(1, min(n_seeds, WORKLOAD_SEEDS) + 1):
            name = f"{flows_from}({seed})"
            if rule_from != flows_from:
                name += f" under {rule_from} whitelist"
            flows, _ = generate(workloads[flows_from].make_spec(seed, 1.0))
            path = work / f"{name}.flows.csv"
            path.write_bytes(write_flow_file(flows))
            whitelist = work / f"{name}.whitelist"
            whitelist.write_text("".join(f"{dip}\n" for dip in workloads[rule_from].whitelist(flows)))
            yield name, flows, path, whitelist


def annotated(data: bytes) -> bytes:
    """The flow file ``data`` with CRLF line ends, a blank line after the
    header and a comment before every 200th row: the same records."""
    header, *rows = data.decode("utf-8").splitlines()
    lines = [header, ""]
    for i, row in enumerate(rows):
        if i % 200 == 0:
            lines.append(f"# row {i}")
        lines.append(row)
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def records_digest(table: FlowTable) -> str:
    """The sha256 of the ``repr`` of the records of ``table``."""
    return hashlib.sha256(repr(list(table)).encode()).hexdigest()


def window_digests(flows: Path, whitelist: Path | None) -> tuple[str, str, str]:
    """The sha256 of every window's activity, of every curve and of every
    pair's score, per window and path of ``detect``'s default config, in
    host and canonical key order: each host's address, scores, counts and
    verdicts, each curve's xs, ys, floor and peak bytes, and each pair's
    two keys and score."""
    cfg = default_config()
    internal = IPv4Network(INTERNAL[1])
    records = parse_flow_file(flows.read_bytes())
    if whitelist is None:
        rules = EMPTY_WHITELIST
    else:
        rules = parse_whitelist(whitelist.read_text(encoding="utf-8"))
    activity_digest, curve_digest, score_digest = (hashlib.sha256() for _ in range(3))
    for streams in window_streams(records, rules, cfg):
        activity = window_activity(streams.filtered.clean, streams.filtered.failed, internal, cfg)
        activity_digest.update(struct.pack("<qq", streams.window.index, len(activity)))
        for host, act in activity.items():
            scores, spam = act.scores, act.spam
            activity_digest.update(
                struct.pack(
                    "<I4d7q", int(host), scores.s1, scores.s2, scores.s3, act.isd_s,
                    scores.scans, scores.targets, scores.flagged,
                    spam.smtp_flows, spam.distinct_servers, spam.flagged, act.isd_flagged,
                )  # fmt: skip
            )
        for path in BotPath:
            groups, _ = group_path(path, streams, cfg)
            ordered = sorted(groups, key=lambda g: g.key)
            curves = [build_curve(g.points, cfg.resample_points) for g in ordered]
            for curve in curves:
                curve_digest.update(curve.xs.tobytes() + curve.ys.tobytes())
                curve_digest.update(struct.pack("<dd", curve.floor, curve.peak))
            for (a, curve_a), (b, curve_b) in combinations(zip(ordered, curves), 2):
                score_digest.update(repr((a.key, b.key)).encode())
                score_digest.update(struct.pack("<d", curve_similarity(curve_a, curve_b)))
    return activity_digest.hexdigest(), curve_digest.hexdigest(), score_digest.hexdigest()


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "output"
        for name, records, flows, whitelist in inputs(work, n_seeds):
            data = flows.read_bytes()
            print(f"{records_digest(parse_flow_file(data))}  parse  {name}")
            print(f"{records_digest(parse_flow_file(annotated(data)))}  annotated-parse  {name}")
            print(f"{records_digest(FlowTable.from_records(records))}  from-records  {name}")
            extra = [] if whitelist is None else ["--whitelist", str(whitelist)]
            for command in COMMANDS:
                assert cli([*command, "--flows", str(flows), *extra, "--out", str(out)]) == 0
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{digest}  {' '.join(command)}  {name}")
            activity, curves, scores = window_digests(flows, whitelist)
            print(f"{activity}  activity  {name}")
            print(f"{curves}  curves  {name}")
            print(f"{scores}  scores  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
