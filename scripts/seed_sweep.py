#!/usr/bin/env python3
"""Seed sweep: detection quality of the pipeline across generator seeds.

For each seed, runs detection on a planted P2P scenario, a planted IRC
scenario, and a benign-only scenario, then prints per-seed precision/recall
over reported hosts and a summary table.  Useful when tuning thresholds or
generator constants.

Usage: python scripts/seed_sweep.py [n_seeds]
"""

from __future__ import annotations

import sys
from ipaddress import IPv4Network
from pathlib import Path

# this checkout's program, whatever else is installed or on PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from botdetect.filtering import EMPTY_WHITELIST
from botdetect.model import default_config
from botdetect.pipeline import run_detection
from botdetect.synth import benign_scenario, generate, irc_botnet_scenario, p2p_botnet_scenario
from botdetect.table import FlowTable

INTERNAL = IPv4Network("10.0.0.0/16")


def score(spec):
    flows, truth = generate(spec)
    report = run_detection(FlowTable.from_records(flows), EMPTY_WHITELIST, INTERNAL, default_config())
    reported = {str(h) for g in report.groups for h in g.hosts}
    planted = {str(h) for g in truth.groups for h in g.hosts}
    tp = len(reported & planted)
    precision = tp / len(reported) if reported else 1.0
    recall = tp / len(planted) if planted else 1.0
    return precision, recall, len(report.groups)


def main() -> int:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    rows = []
    for seed in range(1, n_seeds + 1):
        p_prec, p_rec, _ = score(p2p_botnet_scenario(seed))
        i_prec, i_rec, _ = score(irc_botnet_scenario(seed))
        _, _, fp_groups = score(benign_scenario(seed))
        rows.append((seed, p_prec, p_rec, i_prec, i_rec, fp_groups))
        print(f"seed {seed:3d}  p2p precision={p_prec:.2f} recall={p_rec:.2f}  "
              f"irc precision={i_prec:.2f} recall={i_rec:.2f}  benign groups={fp_groups}")
    n = len(rows)
    print("-" * 72)
    print(f"mean over {n} seeds: "
          f"p2p P={sum(r[1] for r in rows) / n:.3f} R={sum(r[2] for r in rows) / n:.3f}  "
          f"irc P={sum(r[3] for r in rows) / n:.3f} R={sum(r[4] for r in rows) / n:.3f}  "
          f"benign false groups={sum(r[5] for r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
