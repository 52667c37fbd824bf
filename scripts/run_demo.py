#!/usr/bin/env python3
"""End-to-end demo: generate the shipped scenarios, detect, summarize.

Writes flow files, ground truth, reports, and curve dumps under out/demo/
(generated, not tracked) and prints a one-line verdict per scenario
comparing the report against the planted ground truth.  Exits 1 when any
scenario's report does not match its ground truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# this checkout's program, whatever else is installed or on PYTHONPATH
sys.path.insert(0, str(ROOT / "src"))

from botdetect.cli import main as cli
from botdetect.synth import parse_truth

OUT = ROOT / "out" / "demo"


def run(scenario: str) -> bool:
    spec = ROOT / "scenarios" / f"{scenario}.spec"
    prefix = OUT / scenario
    report_path = OUT / f"{scenario}.report.json"

    assert cli(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
    assert cli([
        "detect",
        "--flows", f"{prefix}.flows.csv",
        "--internal", "10.0.0.0/16",
        "--out", str(report_path),
    ]) == 0
    assert cli([
        "curves",
        "--flows", f"{prefix}.flows.csv",
        "--path", "irc" if "irc" in scenario else "p2p",
        "--out", str(OUT / f"{scenario}.curves.csv"),
    ]) == 0

    truth = parse_truth(Path(f"{prefix}.truth").read_text())
    truth_groups = [{str(h) for h in g.hosts} for g in truth.groups]
    doc = json.loads(report_path.read_text())
    reported = [set(g["hosts"]) for g in doc["groups"]]
    verdict = "MATCH" if reported == truth_groups else "MISMATCH"
    print(f"{scenario:12s} flows={doc['counters']['flows_ingested']:5d} "
          f"reported={[sorted(h) for h in reported]} {verdict}")
    return reported == truth_groups


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    matched = [run(scenario) for scenario in ("benign", "p2p_botnet", "irc_botnet")]
    print(f"artifacts in {OUT}")
    return 0 if all(matched) else 1


if __name__ == "__main__":
    sys.exit(main())
