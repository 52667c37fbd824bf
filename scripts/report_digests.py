#!/usr/bin/env python3
"""Digest of every report the CLI writes, for byte-identity checks.

Runs ``detect``, ``curves --path p2p|irc``, ``scan-score`` and
``spam-score`` on the flows of each shipped scenario spec, of the
``benign``/``p2p_botnet``/``irc_botnet`` scenario factories at seeds
1..n_seeds, and of the benchmark's ``deep_day`` and ``scan_mix`` workloads
(``bench/workloads.py``) at seeds 1..min(n_seeds, 3) with their whitelists,
and prints one ``sha256  command  input`` line per output.  Each input also
gets a ``parse`` line, the sha256 of the ``repr`` of its parsed records,
which pins the fields that no report shows (every ``start_ts`` bit, the
payload bytes), and a ``scores`` line, the sha256 of every pair that
``detect`` scores, in call order: the ``repr`` of its two group keys and
the score's float64 bytes.  The workloads are the inputs that exercise
the whitelist filter, scanners and spammers.
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
from contextlib import contextmanager
from pathlib import Path

from botdetect import pipeline, similarity
from botdetect.cli import main as cli
from botdetect.flowfile import parse_flow_file, write_flow_file
from botdetect.synth import benign_scenario, generate, irc_botnet_scenario, p2p_botnet_scenario

ROOT = Path(__file__).resolve().parent.parent
INTERNAL = ["--internal", "10.0.0.0/16"]
COMMANDS = (
    ["detect", *INTERNAL],
    ["curves", "--path", "p2p"],
    ["curves", "--path", "irc"],
    ["scan-score", *INTERNAL],
    ["spam-score", *INTERNAL],
)
FACTORIES = (benign_scenario, p2p_botnet_scenario, irc_botnet_scenario)
WORKLOADS = ("deep_day", "scan_mix")
WORKLOAD_SEEDS = 3


def bench_workloads() -> dict:
    """``bench/workloads.py``'s ``WORKLOADS``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def inputs(work: Path, n_seeds: int):
    """Yield (name, flow file path, extra arguments) for every input,
    writing its files first."""
    for spec in sorted((ROOT / "scenarios").glob("*.spec")):
        prefix = work / spec.stem
        assert cli(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
        yield f"scenarios/{spec.name}", Path(f"{prefix}.flows.csv"), []
    for factory in FACTORIES:
        for seed in range(1, n_seeds + 1):
            name = f"{factory.__name__}({seed})"
            path = work / f"{name}.flows.csv"
            path.write_bytes(write_flow_file(generate(factory(seed))[0]))
            yield name, path, []
    workloads = bench_workloads()
    for workload in (workloads[name] for name in WORKLOADS):
        for seed in range(1, min(n_seeds, WORKLOAD_SEEDS) + 1):
            name = f"{workload.name}({seed})"
            flows, _ = generate(workload.make_spec(seed, 1.0))
            path = work / f"{name}.flows.csv"
            path.write_bytes(write_flow_file(flows))
            whitelist = work / f"{name}.whitelist"
            whitelist.write_text("".join(f"{dip}\n" for dip in workload.whitelist(flows)))
            yield name, path, ["--whitelist", str(whitelist)]


@contextmanager
def scored_pairs():
    """Hash each pair that clustering scores while inside the block.

    ``pipeline.cluster_groups`` names the groups in play,
    ``similarity.build_curve`` ties each curve to the group whose points it
    got, and ``similarity.curve_similarity`` is each scored pair.
    """
    digest = hashlib.sha256()
    key_of_points: dict[int, tuple] = {}
    key_of_curve: dict[int, tuple] = {}
    cluster, build, score = pipeline.cluster_groups, similarity.build_curve, similarity.curve_similarity

    def clustering(groups, *args):
        key_of_points.clear()
        key_of_points.update((id(g.points), g.key) for g in groups)
        key_of_curve.clear()
        return cluster(groups, *args)

    def building(points, *args):
        curve = build(points, *args)
        key_of_curve[id(curve)] = key_of_points[id(points)]
        return curve

    def scoring(a, b):
        result = score(a, b)
        digest.update(repr((key_of_curve[id(a)], key_of_curve[id(b)])).encode())
        digest.update(struct.pack("<d", result))
        return result

    pipeline.cluster_groups, similarity.build_curve, similarity.curve_similarity = (
        clustering, building, scoring
    )
    try:
        yield digest
    finally:
        pipeline.cluster_groups, similarity.build_curve, similarity.curve_similarity = (
            cluster, build, score
        )


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "output"
        for name, flows, extra in inputs(work, n_seeds):
            digest = hashlib.sha256(repr(parse_flow_file(flows.read_bytes())).encode()).hexdigest()
            print(f"{digest}  parse  {name}")
            for command in COMMANDS:
                assert cli([*command, "--flows", str(flows), *extra, "--out", str(out)]) == 0
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{digest}  {' '.join(command)}  {name}")
            with scored_pairs() as scores:
                assert cli([*COMMANDS[0], "--flows", str(flows), *extra, "--out", str(out)]) == 0
            print(f"{scores.hexdigest()}  scores  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
