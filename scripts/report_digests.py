#!/usr/bin/env python3
"""Digest of every report the CLI writes, for byte-identity checks.

Runs ``detect``, ``curves --path p2p|irc``, ``scan-score`` and
``spam-score`` on the flows of each shipped scenario spec and of the
``benign``/``p2p_botnet``/``irc_botnet`` scenario factories at seeds
1..n_seeds, and prints one ``sha256  command  input`` line per output.
A change that must keep every report byte-identical is checked by running
this on both commits and diffing the two outputs.

Usage: python scripts/report_digests.py [n_seeds]   (default 20)
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from botdetect.cli import main as cli
from botdetect.flowfile import write_flow_file
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


def inputs(work: Path, n_seeds: int):
    """Yield (name, flow file path) for every input, writing each file first."""
    for spec in sorted((ROOT / "scenarios").glob("*.spec")):
        prefix = work / spec.stem
        assert cli(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
        yield f"scenarios/{spec.name}", Path(f"{prefix}.flows.csv")
    for factory in FACTORIES:
        for seed in range(1, n_seeds + 1):
            name = f"{factory.__name__}({seed})"
            path = work / f"{name}.flows.csv"
            path.write_bytes(write_flow_file(generate(factory(seed))[0]))
            yield name, path


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "output"
        for name, flows in inputs(work, n_seeds):
            for command in COMMANDS:
                assert cli([*command, "--flows", str(flows), "--out", str(out)]) == 0
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{digest}  {' '.join(command)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
