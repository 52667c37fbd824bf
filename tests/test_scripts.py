"""Smoke tests for the scripts under scripts/: each runs to completion and
prints its summary."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from .test_cli import REPORT_SHA256

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_demo_matches_every_scenario(tmp_path, monkeypatch, capsys):
    demo = load("run_demo")
    monkeypatch.setattr(demo, "OUT", tmp_path)
    assert demo.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.endswith(" MATCH") for line in lines) == 3
    assert (tmp_path / "p2p_botnet.report.json").is_file()


def test_seed_sweep_summarizes_its_seeds(monkeypatch, capsys):
    sweep = load("seed_sweep")
    monkeypatch.setattr(sys, "argv", ["seed_sweep.py", "2"])
    assert sweep.main() == 0
    out = capsys.readouterr().out
    assert "mean over 2 seeds:" in out


def test_report_digests_cover_every_command_and_input(monkeypatch, capsys):
    digests = load("report_digests")
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "1"])
    assert digests.main() == 0
    lines = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    inputs = {name for _, _, name in lines}
    assert len(inputs) == 8 and "p2p_botnet_scenario(1)" in inputs
    assert {"deep_day(1)", "scan_mix(1)"} <= inputs
    # + one parse and one scores line each
    assert len(lines) == len(inputs) * (len(digests.COMMANDS) + 2)
    detect = {name: digest for digest, command, name in lines if command.startswith("detect")}
    for scenario, pins in REPORT_SHA256.items():
        assert detect[f"scenarios/{scenario}.spec"] == pins["detect"]
