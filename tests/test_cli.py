from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from botdetect import pipeline
from botdetect.cli import main
from botdetect.flowfile import HEADER, write_flow_file
from botdetect.model import default_config
from botdetect.synth import generate, p2p_botnet_scenario

from .conftest import make_flow

S1_SPEC = """
seed = 42
benign_hosts = 20
planted.0.kind = p2p_bot_group
planted.0.size = 3
planted.0.scan_targets = 60
"""


SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

# sha256 of the ``detect`` report for each shipped scenario spec
REPORT_SHA256 = {
    "benign": "173444884e931311b2418354e17b41dcd58ec5dbfa4f585fadd76d74bfd6b3c2",
    "p2p_botnet": "374ea3709ed45bcfae3f12e7589ab5fcff1d53559894b925317d93f673fc2fe6",
    "irc_botnet": "ae1f593c35882b18dd965ccf726ac41ef074f699202edcac38937c42fb566e24",
}


@pytest.fixture
def s1_flows(tmp_path) -> Path:
    flows, _ = generate(p2p_botnet_scenario(42))
    path = tmp_path / "s1.flows.csv"
    path.write_bytes(write_flow_file(flows))
    return path


class TestDetect:
    def test_planted_scenario_reported(self, tmp_path, s1_flows):
        out = tmp_path / "report.json"
        code = main(["detect", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["groups"]) == 1
        assert doc["groups"][0]["hosts"] == ["10.0.2.1", "10.0.2.2", "10.0.2.3"]
        assert doc["counters"]["flows_ingested"] > 0

    def test_empty_flow_file_exits_zero(self, tmp_path):
        flows = tmp_path / "empty.csv"
        flows.write_text(HEADER + "\n")
        out = tmp_path / "report.json"
        code = main(["detect", "--flows", str(flows), "--internal", "10.0.0.0/16",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["groups"] == []

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["detect", "--flows", str(tmp_path / "nope.csv"),
                     "--internal", "10.0.0.0/16"]) == 2

    def test_malformed_row_exits_two(self, tmp_path, capsys):
        flows = tmp_path / "bad.csv"
        flows.write_text(HEADER + "\nnot,enough,columns\n")
        assert main(["detect", "--flows", str(flows), "--internal", "10.0.0.0/16"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_config_exits_three(self, tmp_path, s1_flows):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("similarity_threshold = 2.0\n")
        assert main(["detect", "--flows", str(s1_flows), "--config", str(cfg),
                     "--internal", "10.0.0.0/16"]) == 3

    def test_bad_internal_cidr_exits_three(self, s1_flows):
        assert main(["detect", "--flows", str(s1_flows), "--internal", "lan"]) == 3

    def test_whitelist_drops_destinations(self, tmp_path):
        flows = tmp_path / "flows.csv"
        flows.write_bytes(write_flow_file([make_flow(dip="8.8.8.8")]))
        wl = tmp_path / "wl.txt"
        wl.write_text("8.8.8.0/24\n")
        out = tmp_path / "report.json"
        code = main(["detect", "--flows", str(flows), "--whitelist", str(wl),
                     "--internal", "10.0.0.0/16", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["counters"]["whitelisted"] == 1

    def test_deterministic_bytes(self, tmp_path, s1_flows):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            main(["detect", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
                  "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("scenario", sorted(REPORT_SHA256))
    def test_shipped_scenario_report_bytes(self, tmp_path, scenario):
        prefix = tmp_path / scenario
        spec = SCENARIO_DIR / f"{scenario}.spec"
        assert main(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
        out = tmp_path / "report.json"
        assert main(["detect", "--flows", f"{prefix}.flows.csv", "--internal", "10.0.0.0/16",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[scenario]

    def test_irc_malicious_gate_config_switch(self, tmp_path):
        from botdetect.synth import irc_botnet_scenario

        flows, _ = generate(irc_botnet_scenario(7))
        flow_path = tmp_path / "s2.flows.csv"
        flow_path.write_bytes(write_flow_file(flows))
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("irc_require_malicious = true\n")
        out = tmp_path / "report.json"
        # the planted IRC bots are similar but perform no malicious activity,
        # so the strict gate suppresses the group
        assert main(["detect", "--flows", str(flow_path), "--config", str(cfg),
                     "--internal", "10.0.0.0/16", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["groups"] == []


class TestSynth:
    def test_writes_flows_and_truth(self, tmp_path):
        spec = tmp_path / "s1.spec"
        spec.write_text(S1_SPEC)
        prefix = tmp_path / "out"
        assert main(["synth", "--spec", str(spec), "--out", str(prefix)]) == 0
        assert (tmp_path / "out.flows.csv").exists()
        truth_text = (tmp_path / "out.truth").read_text()
        assert "group 0 p2p_bot_group" in truth_text

    def test_same_spec_twice_identical(self, tmp_path):
        spec = tmp_path / "s1.spec"
        spec.write_text(S1_SPEC)
        main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")])
        main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.flows.csv").read_bytes() == (tmp_path / "b.flows.csv").read_bytes()
        assert (tmp_path / "a.truth").read_bytes() == (tmp_path / "b.truth").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        spec = tmp_path / "s1.spec"
        spec.write_text(S1_SPEC)
        main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")])
        main(["synth", "--spec", str(spec), "--seed", "43", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a.flows.csv").read_bytes() != (tmp_path / "b.flows.csv").read_bytes()

    def test_negative_size_exits_three(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("planted.0.kind = scanner\nplanted.0.size = -1\nplanted.0.scan_targets = 5\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 3


class TestCurves:
    def test_blocks_per_group(self, tmp_path, s1_flows):
        out = tmp_path / "curves.csv"
        assert main(["curves", "--flows", str(s1_flows), "--path", "p2p",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,x,y"
        body = lines[1:]
        keys = {line.split(",")[0] for line in body}
        # every group contributes exactly one 32-row block
        assert len(body) == 32 * len(keys)
        assert all(key.startswith("w0|") for key in keys)
        # group-count oracle: regroup the monitored stream independently
        from botdetect.classify import partition_by_label
        from botdetect.filtering import EMPTY_WHITELIST, run_filter
        from botdetect.flowfile import parse_flow_file
        from botdetect.model import default_config
        from botdetect.monitors import group_flows_p2p

        filtered = run_filter(parse_flow_file(s1_flows.read_bytes()), EMPTY_WHITELIST)
        _, _, other = partition_by_label(filtered.clean)
        groups, _ = group_flows_p2p(other, default_config().duration_floor)
        assert len(keys) == len(groups)

    def test_empty_input_header_only(self, tmp_path):
        flows = tmp_path / "empty.csv"
        flows.write_text(HEADER + "\n")
        out = tmp_path / "curves.csv"
        assert main(["curves", "--flows", str(flows), "--path", "irc", "--out", str(out)]) == 0
        assert out.read_text() == "key,x,y\n"


class TestStageCommands:
    def test_classify_counts_match_detect_counters(self, tmp_path, s1_flows):
        labels_out = tmp_path / "labels.csv"
        report_out = tmp_path / "report.json"
        main(["classify", "--flows", str(s1_flows), "--out", str(labels_out)])
        main(["detect", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
              "--out", str(report_out)])
        lines = labels_out.read_text().splitlines()[1:]
        labels = [line.rsplit(",", 1)[1] for line in lines]
        doc = json.loads(report_out.read_text())
        # the detect counters label only post-filter flows; failed handshakes
        # are OTHER-class payloads here, so the counts reconcile exactly
        failed = doc["counters"]["failed_handshake"]
        assert labels.count("irc") == doc["counters"]["labels"]["irc"]
        assert labels.count("http") == doc["counters"]["labels"]["http"]
        assert labels.count("other") == doc["counters"]["labels"]["other"] + failed

    def test_scan_and_spam_scores_cover_detect_malicious(self, tmp_path, s1_flows):
        scan_out = tmp_path / "scan.csv"
        spam_out = tmp_path / "spam.csv"
        report_out = tmp_path / "report.json"
        main(["scan-score", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
              "--out", str(scan_out)])
        main(["spam-score", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
              "--out", str(spam_out)])
        main(["detect", "--flows", str(s1_flows), "--internal", "10.0.0.0/16",
              "--out", str(report_out)])
        flagged = set()
        for line in scan_out.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[8] == "True" or cells[9] == "True":
                flagged.add(cells[1])
        for line in spam_out.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[4] == "True":
                flagged.add(cells[1])
        doc = json.loads(report_out.read_text())
        reported = {h for g in doc["groups"] for h in g["hosts"]}
        assert reported <= flagged
        assert flagged == {"10.0.2.1", "10.0.2.2", "10.0.2.3"}

    def test_stage_output_to_stdout(self, s1_flows, capsys):
        assert main(["classify", "--flows", str(s1_flows)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sip,sport,dip,dport,proto,label")

    @pytest.mark.parametrize("argv", [
        ["detect", "--internal", "10.0.0.0/16"],
        ["scan-score", "--internal", "10.0.0.0/16"],
        ["spam-score", "--internal", "10.0.0.0/16"],
        ["curves", "--path", "p2p"],
        ["curves", "--path", "irc"],
    ])
    def test_input_windowed_once(self, tmp_path, s1_flows, monkeypatch, argv):
        calls = []
        original = pipeline.window_partition

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pipeline, "window_partition", counting)
        assert main([*argv, "--flows", str(s1_flows), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1


def _stage_outputs(tmp_path: Path, name: str, flows) -> dict[str, str]:
    flow_path = tmp_path / f"{name}.flows.csv"
    flow_path.write_bytes(write_flow_file(flows))
    commands = {
        "detect": ["detect", "--internal", "10.0.0.0/16"],
        "scan-score": ["scan-score", "--internal", "10.0.0.0/16"],
        "curves": ["curves", "--path", "p2p"],
    }
    outputs = {}
    for command, argv in commands.items():
        out = tmp_path / f"{name}.{command}.out"
        assert main([*argv, "--flows", str(flow_path), "--out", str(out)]) == 0
        outputs[command] = out.read_text()
    return outputs


class TestWindowSplit:
    """Copies of a one-window input shifted by whole windows repeat its outputs.

    The P2P scenario is used because its cluster keys carry no time; IRC keys
    carry an arrival-time bin that moves with the copies.
    """

    @pytest.mark.parametrize("seed", [1, 5, 42])
    def test_shifted_copies_repeat_window_zero(self, tmp_path, seed):
        width = default_config().window_seconds
        flows, _ = generate(p2p_botnet_scenario(seed))
        shifted = [
            dataclasses.replace(rec, start_ts=rec.start_ts + k * width)
            for k in range(3)
            for rec in flows
        ]
        one = _stage_outputs(tmp_path, "one", flows)
        three = _stage_outputs(tmp_path, "three", shifted)

        single, split = json.loads(one["detect"]), json.loads(three["detect"])
        assert single["groups"] and {g["window"]["index"] for g in single["groups"]} == {0}
        expected_groups = [
            {**g, "window": {"index": k, "start": k * width, "end": (k + 1) * width}}
            for k in range(3)
            for g in single["groups"]
        ]
        assert split["groups"] == expected_groups

        def tripled(counters):
            return {
                key: tripled(value) if isinstance(value, dict) else 3 * value
                for key, value in counters.items()
            }

        assert split["counters"] == tripled(single["counters"])

        scan_header, *scan_rows = one["scan-score"].splitlines()
        assert scan_rows and all(row.startswith("0,") for row in scan_rows)
        assert three["scan-score"].splitlines() == [scan_header] + [
            f"{k},{row.split(',', 1)[1]}" for k in range(3) for row in scan_rows
        ]

        curve_header, *curve_rows = one["curves"].splitlines()
        assert curve_rows and all(row.startswith("w0|") for row in curve_rows)
        assert three["curves"].splitlines() == [curve_header] + [
            f"w{k}|{row[len('w0|'):]}" for k in range(3) for row in curve_rows
        ]
