"""Smoke tests for the scripts under scripts/: each runs to completion and
prints its summary; every line ``report_digests.py 1`` prints is pinned."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


# Every line of ``report_digests.py 1``: 9 inputs x 11 kinds.  A change that
# keeps every report byte keeps every line; one that changes a report must
# edit exactly the lines it means to change.  The pins bind CPython 3.11 and
# numpy 2.4, under which they were taken: another version may round a float
# or order a sort differently and so change a digest without any change here.
REPORT_DIGESTS = """\
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  parse  scenarios/benign.spec
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  annotated-parse  scenarios/benign.spec
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  from-records  scenarios/benign.spec
173444884e931311b2418354e17b41dcd58ec5dbfa4f585fadd76d74bfd6b3c2  detect --internal 10.0.0.0/16  scenarios/benign.spec
8f2a55aeae9c01448e1b50a0bf97d6b6ad998b0b2996d095a34ed633a825df84  curves --path p2p  scenarios/benign.spec
38ef37e56149e0b9e88c361e2b6e88f15a76863da589ca4611f6ef359041f4f6  curves --path irc  scenarios/benign.spec
fce58fabeff85634ee1f1ca6a754c99dfabd5438f91d9d7b7b39891848348aa1  scan-score --internal 10.0.0.0/16  scenarios/benign.spec
2c09cd41602ea31fb0ee12275f3db4ae0c927770ad50e719f23b9aa3a0864237  spam-score --internal 10.0.0.0/16  scenarios/benign.spec
a2a659703ec6969ae01492421f6eb319bfb6ebff5c04a65022db37287b12c1fc  activity  scenarios/benign.spec
5ac3b559c63c6be02244db164acaa0d81130ce3060a4e9b6dcf914399ecf04c5  curves  scenarios/benign.spec
555c49fe6ec22210c36420247bac3c41d16ee0f23758b9a5df41550bc381a74b  scores  scenarios/benign.spec
b66dd6647641d65c34bba232151422c3e6fca7bb5aac311a345667128ae51994  parse  scenarios/irc_botnet.spec
b66dd6647641d65c34bba232151422c3e6fca7bb5aac311a345667128ae51994  annotated-parse  scenarios/irc_botnet.spec
b66dd6647641d65c34bba232151422c3e6fca7bb5aac311a345667128ae51994  from-records  scenarios/irc_botnet.spec
ae1f593c35882b18dd965ccf726ac41ef074f699202edcac38937c42fb566e24  detect --internal 10.0.0.0/16  scenarios/irc_botnet.spec
807b1457676c5ecaa108fd5e78c4856816b651bb6b374d76406a12968a44c0e9  curves --path p2p  scenarios/irc_botnet.spec
8a57ed75643b576ff72e30fc1b2bbcf467f65a4710ed89462086d854e8ac108c  curves --path irc  scenarios/irc_botnet.spec
74ecc7cfbc9777a70f9eaae53496ac979e202e21643bcaf89f0ed1d3b6bd268f  scan-score --internal 10.0.0.0/16  scenarios/irc_botnet.spec
8bb8e88546517acb9d3c85adf6480c7c7c7d01d98c4008fad9b112202c39d878  spam-score --internal 10.0.0.0/16  scenarios/irc_botnet.spec
7b1b38220b33ef78a64b66f544bd4b48dd1c3ead27000fdbae46e6c3d6b43702  activity  scenarios/irc_botnet.spec
4b476e75f4de025e3e41beb353c4232aebad20cd435cc94a2b701c26b2328604  curves  scenarios/irc_botnet.spec
04a746f37be70e655b7caa116eb100f2b568df803af78c0ba8ee67c16d1ca92c  scores  scenarios/irc_botnet.spec
78f5494a692e129d4f198052efae46f82dbe076185c32d50bf5078d7415bc5fd  parse  scenarios/p2p_botnet.spec
78f5494a692e129d4f198052efae46f82dbe076185c32d50bf5078d7415bc5fd  annotated-parse  scenarios/p2p_botnet.spec
78f5494a692e129d4f198052efae46f82dbe076185c32d50bf5078d7415bc5fd  from-records  scenarios/p2p_botnet.spec
374ea3709ed45bcfae3f12e7589ab5fcff1d53559894b925317d93f673fc2fe6  detect --internal 10.0.0.0/16  scenarios/p2p_botnet.spec
b2e1735bd7fb69ba2bfa390fa2547df8a29c1733d50fa3e009876b0cb9753f72  curves --path p2p  scenarios/p2p_botnet.spec
5312f8c356ff58d1e90b98d70c71a78ea4a8ed2e447156f2dc327ae0a94a8c08  curves --path irc  scenarios/p2p_botnet.spec
cf0c68e71d4d85dfb0ff554687cc2f773bbad22d467dc4cc7fd9c3b1478baf58  scan-score --internal 10.0.0.0/16  scenarios/p2p_botnet.spec
c1fe0626c9599ae26628e2b44d9e7efeaaeef5eea24f5ff614e7ba1e758a7d2a  spam-score --internal 10.0.0.0/16  scenarios/p2p_botnet.spec
ba0dc00d38b7abdce77dc5f868fdf97550a2571b6934c4c6a6b8828ff21b7477  activity  scenarios/p2p_botnet.spec
b727122db620f0e96b686f0672c0c4ee481ba919ff81f54e3f85aca93ce72f1b  curves  scenarios/p2p_botnet.spec
07c00f7c2f7864cf7031fc7799bcb1ff74a6359ba0ac723517d5d1d34b482427  scores  scenarios/p2p_botnet.spec
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  parse  benign_scenario(1)
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  annotated-parse  benign_scenario(1)
2277bee509a091882dda0e474578a77feb99392a26a4255c0950e29217066aaa  from-records  benign_scenario(1)
173444884e931311b2418354e17b41dcd58ec5dbfa4f585fadd76d74bfd6b3c2  detect --internal 10.0.0.0/16  benign_scenario(1)
8f2a55aeae9c01448e1b50a0bf97d6b6ad998b0b2996d095a34ed633a825df84  curves --path p2p  benign_scenario(1)
38ef37e56149e0b9e88c361e2b6e88f15a76863da589ca4611f6ef359041f4f6  curves --path irc  benign_scenario(1)
fce58fabeff85634ee1f1ca6a754c99dfabd5438f91d9d7b7b39891848348aa1  scan-score --internal 10.0.0.0/16  benign_scenario(1)
2c09cd41602ea31fb0ee12275f3db4ae0c927770ad50e719f23b9aa3a0864237  spam-score --internal 10.0.0.0/16  benign_scenario(1)
a2a659703ec6969ae01492421f6eb319bfb6ebff5c04a65022db37287b12c1fc  activity  benign_scenario(1)
5ac3b559c63c6be02244db164acaa0d81130ce3060a4e9b6dcf914399ecf04c5  curves  benign_scenario(1)
555c49fe6ec22210c36420247bac3c41d16ee0f23758b9a5df41550bc381a74b  scores  benign_scenario(1)
1f43b974489bbb972eb6875fd1bad588f3053216344bad2b09ab18b64ca6fe04  parse  p2p_botnet_scenario(1)
1f43b974489bbb972eb6875fd1bad588f3053216344bad2b09ab18b64ca6fe04  annotated-parse  p2p_botnet_scenario(1)
1f43b974489bbb972eb6875fd1bad588f3053216344bad2b09ab18b64ca6fe04  from-records  p2p_botnet_scenario(1)
3a90a593897744de4c4ea7f7dab9331c89fa0250aa8715feedf7d1c53c19e202  detect --internal 10.0.0.0/16  p2p_botnet_scenario(1)
7d03c52bacd0fdfa993cac4ff664fb31e1938525feefcedae2c57917de79a3ca  curves --path p2p  p2p_botnet_scenario(1)
41bbed96e448d32dfa74b6078e4666cf5c8e40e4576867c68bbf7bcef99fca20  curves --path irc  p2p_botnet_scenario(1)
cf32164a82914ae18892dec49cc2aa0edc6012b82baea6d2382fd87692a36f20  scan-score --internal 10.0.0.0/16  p2p_botnet_scenario(1)
c1fe0626c9599ae26628e2b44d9e7efeaaeef5eea24f5ff614e7ba1e758a7d2a  spam-score --internal 10.0.0.0/16  p2p_botnet_scenario(1)
eed11fba8f3748bbf125d8bb809b9d25108f06a3b2b68927170686a713ede332  activity  p2p_botnet_scenario(1)
eebb9f5eca59c975700937e708ebbef8997d81dcd91568cf20274b6db7fc934e  curves  p2p_botnet_scenario(1)
61a7198f289640e87a28fe0d08293e61f9a89be0f5755c5abb898a85bc188be6  scores  p2p_botnet_scenario(1)
402f47c07b6c6a7eb952c411671a4dd23167412dbf6dfdadd9454861f3fd6c7f  parse  irc_botnet_scenario(1)
402f47c07b6c6a7eb952c411671a4dd23167412dbf6dfdadd9454861f3fd6c7f  annotated-parse  irc_botnet_scenario(1)
402f47c07b6c6a7eb952c411671a4dd23167412dbf6dfdadd9454861f3fd6c7f  from-records  irc_botnet_scenario(1)
54d40edacc92773c27c4f6806f9c1682385c9f17eba9446ee95b94a58e484900  detect --internal 10.0.0.0/16  irc_botnet_scenario(1)
c4ab5d564453f742de67ac3e7b7cd7b3d39e9f7a49005f6d7cf591fd452136e8  curves --path p2p  irc_botnet_scenario(1)
eb9ce6326e440f0b8c0116138d043706911d7ae680b7de12d0fd6e28d3e7143c  curves --path irc  irc_botnet_scenario(1)
67376168c71a198f6fee5b2162bdc9e40d50dc77002d846dcb86e81cfe7c101b  scan-score --internal 10.0.0.0/16  irc_botnet_scenario(1)
8bb8e88546517acb9d3c85adf6480c7c7c7d01d98c4008fad9b112202c39d878  spam-score --internal 10.0.0.0/16  irc_botnet_scenario(1)
8a61aa6a673844f557e6158cd96dbe353835a326ecb3388f2125deef80b96b76  activity  irc_botnet_scenario(1)
88ae33ec42b4241b94fab2f5dd6f2cb9b9fb9a9368ca54f16b5b57bf21316210  curves  irc_botnet_scenario(1)
70214cbaa4a2f2f4388bcfc562b76100076b094c670155070ee5256f7db5eccd  scores  irc_botnet_scenario(1)
9e772d5c00472fd90c61bd88902e10d68c5ecf400c63a961f26320044bff8cc2  parse  deep_day(1)
9e772d5c00472fd90c61bd88902e10d68c5ecf400c63a961f26320044bff8cc2  annotated-parse  deep_day(1)
9e772d5c00472fd90c61bd88902e10d68c5ecf400c63a961f26320044bff8cc2  from-records  deep_day(1)
3324b9a205c20d8e5b62f4cccccc1845fe8ca549adf43184220bd09cdefae67f  detect --internal 10.0.0.0/16  deep_day(1)
0b8b2b0f57f5d66a2108a5e45a1b6c24ca31ad76e11152860e35e2de1474f96d  curves --path p2p  deep_day(1)
9fb42bb80974f99adee09c1751de6ba5a3794e03c4d7db5405cf290c252f50fe  curves --path irc  deep_day(1)
212e28e4cc0550067c5d51754226c888129cd2186851638c754fccd265cd6912  scan-score --internal 10.0.0.0/16  deep_day(1)
b5947c4216e7634cd9d765428586d9d34e51b6476286a2acbbb519f3497aefef  spam-score --internal 10.0.0.0/16  deep_day(1)
c5e296fb906337df9869fdafc4c6c1e93727e4980e4befc9ead6ab8abb434292  activity  deep_day(1)
e6de55dcfe078b153190dd8b91d605da7361124e38343f731342077f5a704196  curves  deep_day(1)
c05427f47566371dc3a611f6d739caf89f843832ab96d61d646833d6509011aa  scores  deep_day(1)
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  parse  scan_mix(1)
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  annotated-parse  scan_mix(1)
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  from-records  scan_mix(1)
63b0c9d8a566017a02321b227649427d53ad99b2707ab65f26671aecaab8eb0a  detect --internal 10.0.0.0/16  scan_mix(1)
8d20aebb4d235d65061750e04108ca7b91f1e56ce34acb1ace0a567217242b59  curves --path p2p  scan_mix(1)
76c1226af529296ac037ea867e8f9c1de31448b7144daa652eaa511bddd0d822  curves --path irc  scan_mix(1)
38cac05ad855114001c72c00349ba7d789d07f062223db35d2aca454be7dbfbb  scan-score --internal 10.0.0.0/16  scan_mix(1)
714ebb6ed0a1539f09e0338138f1b99aa0dea1c5ccd6d6738096ed8727fcc514  spam-score --internal 10.0.0.0/16  scan_mix(1)
4a53f5d524451680f012ae15d12ac678448a853c750d17655b240395aad47ac4  activity  scan_mix(1)
b8ddf2ec1eca4c91e6943ab4539f8344ae6286b0b46d324887ad2ea79ea4d092  curves  scan_mix(1)
37955938df40c093d3d8969c6f1fa1f2af2514c1fb9951fceec2b3c048da2012  scores  scan_mix(1)
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  parse  scan_mix(1) under deep_day whitelist
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  annotated-parse  scan_mix(1) under deep_day whitelist
fb9e8cdf2a1df2659434180997f8fbb80ae2fda2ebf3a3a018931b4e06f5a64a  from-records  scan_mix(1) under deep_day whitelist
744a73a062cc22922733e23ce68765d306babc3e135b80081da622795eef247f  detect --internal 10.0.0.0/16  scan_mix(1) under deep_day whitelist
f0fd24d12234b45ad1e6042cc5ae4f4f3d1989fbd70d440f91484b7b02e2c8da  curves --path p2p  scan_mix(1) under deep_day whitelist
76c1226af529296ac037ea867e8f9c1de31448b7144daa652eaa511bddd0d822  curves --path irc  scan_mix(1) under deep_day whitelist
c4902132d75f3f57cf5eaa78e81c18e572fddd8b2050eb94787d0bc551fc47c1  scan-score --internal 10.0.0.0/16  scan_mix(1) under deep_day whitelist
714ebb6ed0a1539f09e0338138f1b99aa0dea1c5ccd6d6738096ed8727fcc514  spam-score --internal 10.0.0.0/16  scan_mix(1) under deep_day whitelist
483de7172a6d56964a7eec2b29fccc14156798299cc4edb3cfa65af12463ed98  activity  scan_mix(1) under deep_day whitelist
98d2ec134fc1c698e83d716cc1f3e9a4ffb82f94c00e47b8590d36d13a031ebc  curves  scan_mix(1) under deep_day whitelist
35f7fea6d42a52b237b2755094a94aed56631120d79d98f2eaef6e46f3f243e0  scores  scan_mix(1) under deep_day whitelist
"""


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
    got = {(command, name): digest for digest, command, name in lines}
    for name in inputs:
        assert got["annotated-parse", name] == got["from-records", name] == got["parse", name]
    pinned = [line.split("  ") for line in REPORT_DIGESTS.splitlines()]
    assert got == {(command, name): digest for digest, command, name in pinned}
