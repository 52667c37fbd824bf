"""Smoke tests for the scripts under scripts/: each runs to completion and
prints its summary."""

from __future__ import annotations

import importlib.util
import os
import subprocess
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


def test_scripts_import_their_own_checkout(tmp_path):
    # no botdetect on PYTHONPATH and none in the working directory
    empty = tmp_path / "empty"
    empty.mkdir()
    env = {**os.environ, "PYTHONPATH": str(empty)}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "seed_sweep.py"), "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "mean over 1 seeds:" in done.stdout


def test_report_digests_cover_every_command_and_input(monkeypatch, capsys):
    digests = load("report_digests")
    monkeypatch.setattr(sys, "argv", ["report_digests.py", "1"])
    assert digests.main() == 0
    lines = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    inputs = {name for _, _, name in lines}
    assert len(inputs) == 9 and "p2p_botnet_scenario(1)" in inputs
    assert {"deep_day(1)", "scan_mix(1)", "scan_mix(1) under deep_day whitelist"} <= inputs
    # + one parse, one annotated-parse, one from-records, one activity, one
    # curves and one scores line each
    kinds = [" ".join(command) for command in digests.COMMANDS]
    kinds += ["parse", "annotated-parse", "from-records", "activity", "curves", "scores"]
    assert {command for _, command, _ in lines} == set(kinds)
    assert len(lines) == len(inputs) * len(kinds)
    # comments, a blank line and CRLF line ends change no record, nor does
    # building the table from the generated records
    parses = {(command, name): digest for digest, command, name in lines}
    for name in inputs:
        assert parses["annotated-parse", name] == parses["from-records", name] == parses["parse", name]
    detect = {name: digest for digest, command, name in lines if command.startswith("detect")}
    for scenario, pins in REPORT_SHA256.items():
        assert detect[f"scenarios/{scenario}.spec"] == pins["detect"]
