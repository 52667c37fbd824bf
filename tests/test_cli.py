from __future__ import annotations

import hashlib
import json
from collections import Counter
from ipaddress import IPv4Address
from pathlib import Path

import pytest

from botdetect import activity, cli, filtering, model, monitors, pipeline
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

# sha256 of every output for each shipped scenario spec: ``synth``'s two
# files, then each flows-reading subcommand run on those flows
REPORT_SHA256 = {
    "benign": {
        "synth.flows": "41973cacd8365b5837bcc9bb1da5b43bbf924e88df92c0d5164267543928f825",
        "synth.truth": "dcfa25d27ec92888fb7f3e1e3196208a86af9f2adf620fa858f2ccaa52da0925",
        "detect": "173444884e931311b2418354e17b41dcd58ec5dbfa4f585fadd76d74bfd6b3c2",
        "classify": "20aa29eff68c9a057af8257f9289bc1724d9879b489afe6f6b7b61fa9dbbe056",
        "scan-score": "fce58fabeff85634ee1f1ca6a754c99dfabd5438f91d9d7b7b39891848348aa1",
        "spam-score": "2c09cd41602ea31fb0ee12275f3db4ae0c927770ad50e719f23b9aa3a0864237",
        "curves.p2p": "8f2a55aeae9c01448e1b50a0bf97d6b6ad998b0b2996d095a34ed633a825df84",
        "curves.irc": "38ef37e56149e0b9e88c361e2b6e88f15a76863da589ca4611f6ef359041f4f6",
    },
    "irc_botnet": {
        "synth.flows": "57be1324be37b63c894fb0eaeb536ffdff733573df7f1954c2ebe71e70f35493",
        "synth.truth": "f3bf780377d9e8e9148b450430e5e7916e9f53b347770732f53dfa0f59258fdf",
        "detect": "ae1f593c35882b18dd965ccf726ac41ef074f699202edcac38937c42fb566e24",
        "classify": "6f109b96314b9f4e42356203cacb931919ce009d033f6efcbe3f748a744d6b1b",
        "scan-score": "74ecc7cfbc9777a70f9eaae53496ac979e202e21643bcaf89f0ed1d3b6bd268f",
        "spam-score": "8bb8e88546517acb9d3c85adf6480c7c7c7d01d98c4008fad9b112202c39d878",
        "curves.p2p": "807b1457676c5ecaa108fd5e78c4856816b651bb6b374d76406a12968a44c0e9",
        "curves.irc": "8a57ed75643b576ff72e30fc1b2bbcf467f65a4710ed89462086d854e8ac108c",
    },
    "p2p_botnet": {
        "synth.flows": "c3f18c457048afdc89356e51420690b3c72581622bf0bb7ef55bae1182a0a635",
        "synth.truth": "1eb6b69865456b5489d2e059d26f20aff5c1c610b6944197315ac68a04445373",
        "detect": "374ea3709ed45bcfae3f12e7589ab5fcff1d53559894b925317d93f673fc2fe6",
        "classify": "6652597823736b59ba0c173d31126109a079236c583ab29144e482b22f3d3b54",
        "scan-score": "cf0c68e71d4d85dfb0ff554687cc2f773bbad22d467dc4cc7fd9c3b1478baf58",
        "spam-score": "c1fe0626c9599ae26628e2b44d9e7efeaaeef5eea24f5ff614e7ba1e758a7d2a",
        "curves.p2p": "b2e1735bd7fb69ba2bfa390fa2547df8a29c1733d50fa3e009876b0cb9753f72",
        "curves.irc": "5312f8c356ff58d1e90b98d70c71a78ea4a8ed2e447156f2dc327ae0a94a8c08",
    },
}

# the arguments before ``--flows``/``--out`` of each flows-reading subcommand
FLOW_COMMANDS = {
    "detect": ["detect", "--internal", "10.0.0.0/16"],
    "classify": ["classify"],
    "scan-score": ["scan-score", "--internal", "10.0.0.0/16"],
    "spam-score": ["spam-score", "--internal", "10.0.0.0/16"],
    "curves.p2p": ["curves", "--path", "p2p"],
    "curves.irc": ["curves", "--path", "irc"],
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
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[scenario]["detect"]

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


@pytest.fixture(scope="module")
def shipped(tmp_path_factory) -> dict[str, Path]:
    """Each shipped scenario spec run through ``synth``: name -> output prefix."""
    root = tmp_path_factory.mktemp("shipped")
    for scenario in REPORT_SHA256:
        spec = SCENARIO_DIR / f"{scenario}.spec"
        assert main(["synth", "--spec", str(spec), "--out", str(root / scenario)]) == 0
    return {scenario: root / scenario for scenario in REPORT_SHA256}


class TestShippedOutputs:
    """Every subcommand's output on the shipped scenarios, byte for byte
    (``TestDetect`` pins the ``detect`` report)."""

    @pytest.mark.parametrize("output", ["synth.flows", "synth.truth"])
    @pytest.mark.parametrize("scenario", sorted(REPORT_SHA256))
    def test_synth_bytes(self, shipped, scenario, output):
        suffix = {"synth.flows": "flows.csv", "synth.truth": "truth"}[output]
        data = Path(f"{shipped[scenario]}.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == REPORT_SHA256[scenario][output]

    @pytest.mark.parametrize("output", sorted(set(FLOW_COMMANDS) - {"detect"}))
    @pytest.mark.parametrize("scenario", sorted(REPORT_SHA256))
    def test_command_bytes(self, capsys, shipped, scenario, output):
        flows = f"{shipped[scenario]}.flows.csv"
        assert main([*FLOW_COMMANDS[output], "--flows", flows]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == REPORT_SHA256[scenario][output]


class TestExitCodes:
    """Each kind of bad input exits with its code and one ``error:`` line,
    whichever subcommand reads it (``TestDetect`` covers ``detect`` alone)."""

    @pytest.mark.parametrize("output", ["scan-score", "spam-score", "curves.p2p"])
    def test_bad_config_exits_three(self, tmp_path, capsys, s1_flows, output):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("similarity_threshold = 2.0\n")
        argv = [*FLOW_COMMANDS[output], "--flows", str(s1_flows), "--config", str(cfg)]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: similarity_threshold must be in [0, 1]\n")

    @pytest.mark.parametrize("output", ["detect", "scan-score", "spam-score", "curves.p2p"])
    def test_bad_whitelist_exits_two(self, tmp_path, capsys, s1_flows, output):
        wl = tmp_path / "bad.wl"
        wl.write_text("8.8.8.0/24\nnot-a-cidr\n")
        argv = [*FLOW_COMMANDS[output], "--flows", str(s1_flows), "--whitelist", str(wl)]
        assert main(argv) == 2
        err = "error: line 2: not an IPv4 address or CIDR: 'not-a-cidr'\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize("output", sorted(set(FLOW_COMMANDS) - {"detect"}))
    def test_missing_flows_exits_two(self, tmp_path, capsys, output):
        missing = tmp_path / "nope.csv"
        assert main([*FLOW_COMMANDS[output], "--flows", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.endswith(f"'{missing}'\n")

    @pytest.mark.parametrize("output", [*sorted(FLOW_COMMANDS), "synth"])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, s1_flows, output):
        if output == "synth":
            argv = ["synth", "--spec", str(SCENARIO_DIR / "benign.spec")]
        else:
            argv = [*FLOW_COMMANDS[output], "--flows", str(s1_flows)]
        assert main([*argv, "--out", str(tmp_path / "no-such-dir" / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "no-such-dir" in err

    @pytest.mark.parametrize("output", ["detect", "scan-score", "spam-score", "curves.p2p"])
    def test_unwritable_out_wins_over_bad_input(self, tmp_path, capsys, output):
        # --out is checked before the config, the flows or the whitelist is read
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("min_group_size = many\n")
        argv = [*FLOW_COMMANDS[output], "--flows", str(tmp_path / "nope.csv"),
                "--config", str(cfg), "--out", str(tmp_path / "no-such-dir" / "out")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "no-such-dir" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["no-such-dir/report.json", "."])
    def test_unwritable_out_never_runs_detection(self, tmp_path, monkeypatch, s1_flows, target):
        calls = []
        monkeypatch.setattr(cli, "run_detection", lambda *args: calls.append(args))
        argv = [*FLOW_COMMANDS["detect"], "--flows", str(s1_flows), "--out", str(tmp_path / target)]
        assert main(argv) == 2
        assert calls == []

    @pytest.mark.parametrize("bad", ["config", "flows"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, s1_flows, bad):
        cfg = tmp_path / "cfg"
        cfg.write_text("min_group_size = many\n" if bad == "config" else "")
        flows = tmp_path / "bad.csv"
        flows.write_text(HEADER + "\nnot,enough,columns\n")
        argv = [*FLOW_COMMANDS["detect"], "--config", str(cfg),
                "--flows", str(flows if bad == "flows" else s1_flows)]
        existing = tmp_path / "existing.json"
        existing.write_text("previous report\n")
        code = 3 if bad == "config" else 2
        assert main([*argv, "--out", str(existing)]) == code
        assert existing.read_text() == "previous report\n"
        assert main([*argv, "--out", str(tmp_path / "new.json")]) == code
        assert not (tmp_path / "new.json").exists()

    def test_zero_duration_floor_exits_three(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_bytes(write_flow_file([make_flow(duration=0.0, sip="10.0.0.5")]))
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("duration_floor = 0\n")
        argv = [*FLOW_COMMANDS["detect"], "--flows", str(flows)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 3
        assert capsys.readouterr() == ("", "error: duration_floor must be > 0\n")

    def test_counter_past_64_bits_exits_two(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        rows = write_flow_file([make_flow(), make_flow(nbytes=2**64 - 1), make_flow(nbytes=2**64)])
        flows.write_bytes(rows)
        assert main([*FLOW_COMMANDS["detect"], "--flows", str(flows)]) == 2
        err = "error: line 4: nbytes must be <= 2**64 - 1 (an unsigned 64-bit counter)\n"
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--internal", "lan"],
            ["scan-score", "--internal", "lan"],
            ["spam-score", "--internal", "lan"],
            ["curves", "--path", "p2p"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_is_read_first(self, tmp_path, capsys, argv):
        flows = tmp_path / "bad.csv"
        flows.write_text(HEADER + "\nnot,enough,columns\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("min_group_size = many\n")
        assert main([*argv, "--flows", str(flows), "--config", str(cfg)]) == 3
        err = "error: line 1: bad value for min_group_size: 'many'\n"
        assert capsys.readouterr() == ("", err)


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

    def test_whitelist_drops_groups_like_detect(self, tmp_path, s1_flows):
        def curve_keys(*extra):
            out = tmp_path / "curves.csv"
            argv = ["curves", "--flows", str(s1_flows), "--path", "p2p", "--out", str(out), *extra]
            assert main(argv) == 0
            return {line.split(",")[0] for line in out.read_text().splitlines()[1:]}

        keys = curve_keys()
        dropped = sorted(keys)[0].split("->")[1].split(":")[0]
        wl = tmp_path / "wl.txt"
        wl.write_text(f"{dropped}/32\n")
        kept = curve_keys("--whitelist", str(wl))
        assert kept == {key for key in keys if f"->{dropped}:" not in key}
        assert kept < keys

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


def test_addresses_parsed_per_distinct_text(tmp_path, monkeypatch):
    """``detect`` parses an address once per group, distinct text or host,
    never once per flow: ``IPv4Address`` is counted under the name each
    per-flow stage imports it by, against a bound taken from that stage's
    inputs and outputs."""
    prefix = tmp_path / "p2p"
    assert main(["synth", "--spec", str(SCENARIO_DIR / "p2p_botnet.spec"), "--out", str(prefix)]) == 0
    dips = Counter(line.split(",")[5] for line in Path(f"{prefix}.flows.csv").read_text().splitlines()[1:])
    whitelist = tmp_path / "wl.txt"
    whitelist.write_text("".join(f"{dip}/32\n" for dip, _ in dips.most_common(2)))

    calls: Counter = Counter()
    for module in (activity, filtering, model, monitors):
        def parse(text, stage=module.__name__):
            calls[stage] += 1
            return IPv4Address(text)

        monkeypatch.setattr(module, "IPv4Address", parse, raising=False)

    bounds: Counter = Counter()

    def bounded(name: str, stage: str, bound):
        original = getattr(pipeline, name)

        def wrapper(*args):
            result = original(*args)
            bounds[stage] += bound(args, result)
            return result

        monkeypatch.setattr(pipeline, name, wrapper)

    bounded("run_filter", filtering.__name__, lambda args, out: len({rec.dip for rec in args[0]}))
    for name in ("group_flows_p2p", "group_flows_irc"):
        bounded(name, monitors.__name__, lambda args, out: 2 * len(out.groups))
    bounded("window_activity", activity.__name__, lambda args, out: len(out))

    out = tmp_path / "report.json"
    assert main(["detect", "--flows", f"{prefix}.flows.csv", "--whitelist", str(whitelist),
                 "--internal", "10.0.0.0/16", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["counters"]["whitelisted"] > 0
    assert calls[model.__name__] == 0
    for stage in (filtering.__name__, monitors.__name__, activity.__name__):
        assert 0 < calls[stage] <= bounds[stage], stage


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
            rec._replace(start_ts=rec.start_ts + k * width)
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
