"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is asserted, not just printed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from ipaddress import IPv4Network

from botdetect.activity import entropy_norm, isd_score, osd_s2, osd_vote, FailedCounts, window_activity
from botdetect.classify import AppLabel, HTTP_METHODS, IRC_TOKENS, classify_flow
from botdetect.cli import main
from botdetect.filtering import EMPTY_WHITELIST, run_filter
from botdetect.flowfile import parse_flow_file, write_flow_file
from botdetect.model import (
    FlowRecord,
    OsdMode,
    Proto,
    TcpState,
    default_config,
)
from botdetect.pipeline import run_detection
from botdetect.similarity import flow_features
from botdetect.synth import (
    Xorshift64Star,
    benign_scenario,
    generate,
    irc_botnet_scenario,
    p2p_botnet_scenario,
)
from botdetect.table import FlowTable

from .conftest import make_flow

CFG = default_config()
INTERNAL = IPv4Network("10.0.0.0/16")
SEEDS = range(1, 11)


def _finish(num: int, name: str, started: float, limit: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s < {limit:g}s){suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s"


def test_c01_formula_fidelity():
    started = time.perf_counter()
    rng = Xorshift64Star(1001)
    ok = True
    for _ in range(10_000):
        fhs, fls = rng.randint(1000), rng.randint(1000)
        w1, w2 = rng.uniform(0, 10), rng.uniform(0, 10)
        scans = fhs + fls + rng.randint(1000)
        ok &= isd_score(FailedCounts(fhs, fls), w1, w2) == w1 * fhs + w2 * fls
        expected_s2 = 0.0 if scans == 0 else (w1 * fhs + w2 * fls) / scans
        ok &= osd_s2(FailedCounts(fhs, fls), w1, w2, scans) == expected_s2

        counts = [1 + rng.randint(100) for _ in range(2 + rng.randint(10))]
        total = sum(counts)
        h = -sum((c / total) * math.log(c / total) for c in counts)
        ok &= abs(entropy_norm(counts) - h / math.log(len(counts))) <= 1e-12

        nbytes, npkts = rng.randint(10**6), 1 + rng.randint(10**4)
        duration = rng.uniform(0.0, 50.0)
        feats = flow_features(
            make_flow(nbytes=nbytes, npkts=npkts, duration=duration), CFG.duration_floor
        )
        ok &= feats.nbps == nbytes / max(duration, CFG.duration_floor)
        ok &= feats.nbpp == nbytes / npkts
        if not ok:
            break
    _finish(1, "formula fidelity", started, 1.0, ok)


def test_c02_entropy_identities():
    started = time.perf_counter()
    ok = all(abs(entropy_norm([7] * m) - 1.0) <= 1e-12 for m in range(2, 65))
    ok &= entropy_norm([123]) == 0.0
    rng = Xorshift64Star(2002)
    for _ in range(10_000):
        counts = [rng.randint(50) for _ in range(1 + rng.randint(20))]
        if sum(counts) == 0:
            counts[0] = 1
        value = entropy_norm(counts)
        ok &= 0.0 <= value <= 1.0
        if not ok:
            break
    _finish(2, "entropy identities", started, 1.0, ok)


def _detect_via_cli(tmp_path, flows, tag: str) -> dict:
    flow_path = tmp_path / f"{tag}.flows.csv"
    out_path = tmp_path / f"{tag}.report.json"
    flow_path.write_bytes(write_flow_file(flows))
    code = main(["detect", "--flows", str(flow_path), "--internal", "10.0.0.0/16",
                 "--out", str(out_path)])
    assert code == 0
    return json.loads(out_path.read_text())


def test_c03_planted_p2p_scenario(tmp_path):
    started = time.perf_counter()
    ok = True
    detail = ""
    for seed in SEEDS:
        flows, truth = generate(p2p_botnet_scenario(seed))
        doc = _detect_via_cli(tmp_path, flows, f"s1-{seed}")
        expected = [str(h) for h in truth.groups[0].hosts]
        p2p_groups = [g for g in doc["groups"] if g["path"] == "p2p"]
        seed_ok = (
            len(doc["groups"]) == 1
            and len(p2p_groups) == 1
            and p2p_groups[0]["hosts"] == expected
        )
        if not seed_ok:
            ok = False
            detail = f"seed {seed} reported {doc['groups']}"
            break
    _finish(3, "planted P2P scenario, 10 seeds", started, 10.0, ok, detail)


def test_c04_planted_irc_scenario(tmp_path):
    started = time.perf_counter()
    ok = True
    detail = ""
    for seed in SEEDS:
        flows, truth = generate(irc_botnet_scenario(seed))
        doc = _detect_via_cli(tmp_path, flows, f"s2-{seed}")
        expected = [str(h) for h in truth.groups[0].hosts]
        irc_groups = [g for g in doc["groups"] if g["path"] == "irc"]
        seed_ok = (
            len(doc["groups"]) == 1
            and len(irc_groups) == 1
            and irc_groups[0]["hosts"] == expected
        )
        if not seed_ok:
            ok = False
            detail = f"seed {seed} reported {doc['groups']}"
            break
    _finish(4, "planted IRC scenario, 10 seeds", started, 10.0, ok, detail)


def test_c05_benign_scenario_quiet():
    started = time.perf_counter()
    clean_seeds = []
    for seed in SEEDS:
        flows = FlowTable.from_records(generate(benign_scenario(seed))[0])
        report = run_detection(flows, EMPTY_WHITELIST, INTERNAL, CFG)
        filtered = run_filter(flows, EMPTY_WHITELIST)
        activity = window_activity(filtered.clean, filtered.failed, INTERNAL, CFG)
        malicious = {host for host, act in activity.items() if act.malicious}
        if not report.groups and not malicious:
            clean_seeds.append(seed)
    ok = len(clean_seeds) >= 9
    _finish(5, "benign scenario quiet >= 9/10 seeds", started, 10.0, ok,
            f"clean seeds: {clean_seeds}")


def test_c06_two_bot_negative_control():
    started = time.perf_counter()
    flows = FlowTable.from_records(generate(p2p_botnet_scenario(42, size=2))[0])
    report = run_detection(flows, EMPTY_WHITELIST, INTERNAL, CFG)
    _finish(6, "two-bot group stays below the size gate", started, 2.0,
            len(report.groups) == 0)


def test_c07_determinism_and_permutation(tmp_path):
    started = time.perf_counter()
    flows, _ = generate(p2p_botnet_scenario(42))
    base = _detect_via_cli(tmp_path, flows, "perm-base")
    base_bytes = (tmp_path / "perm-base.report.json").read_bytes()
    rng = Xorshift64Star(7007)
    shuffled = list(flows)
    ok = True
    for trial in range(5):
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.randint(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        _detect_via_cli(tmp_path, shuffled, f"perm-{trial}")
        ok &= (tmp_path / f"perm-{trial}.report.json").read_bytes() == base_bytes
    _finish(7, "byte-identical reports under row shuffles", started, 5.0, ok)


def _random_flow(rng: Xorshift64Star) -> FlowRecord:
    proto = rng.choice((Proto.TCP, Proto.UDP, Proto.ICMP, Proto.OTHER))
    if proto is Proto.TCP:
        state = rng.choice((TcpState.ESTABLISHED, TcpState.SYN_ONLY, TcpState.RESET))
    else:
        state = TcpState.NOT_TCP
    npkts = rng.randint(10**4)
    seconds = rng.randint(10**9) / 1e6 if rng.randint(2) else rng.uniform(0, 1e7)
    return FlowRecord(
        start_ts=seconds,
        duration=rng.randint(10**8) / 1e6,
        proto=proto,
        sip=f"{rng.randint(256)}.{rng.randint(256)}.{rng.randint(256)}.{rng.randint(256)}",
        sport=rng.randint(65536),
        dip=f"{rng.randint(256)}.{rng.randint(256)}.{rng.randint(256)}.{rng.randint(256)}",
        dport=rng.randint(65536),
        npkts=npkts,
        nbytes=rng.randint(10**9) if npkts else 0,
        tcp_state=state,
        payload_prefix=bytes(rng.randint(256) for _ in range(rng.randint(65))),
    )


def test_c08_round_trip():
    started = time.perf_counter()
    rng = Xorshift64Star(8008)
    ok = True
    for _ in range(1000):
        flows = [_random_flow(rng) for _ in range(rng.randint(6))]
        ok &= parse_flow_file(write_flow_file(flows)) == flows
        if not ok:
            break
    _finish(8, "parse/write round-trip on 1000 flow lists", started, 1.0, ok)


_NEAR_MISSES = [
    b"nick bot\r\n", b"pass x\r\n", b"user u\r\n", b"join #c\r\n", b"oper o\r\n",
    b"privmsg #c :m\r\n", b"get / HTTP/1.1\r\n", b"post /\r\n", b"head /\r\n",
    b"xNICK bot\r\n", b" NICK bot\r\n", b"NICKbot\r\n", b"PRIVMSGx\r\n",
    b"size GET payload", b"\r\nGET / HTTP/1.1", b"GET\t/\r\n", b"POST",
    b"NIC", b"JOI N\r\n", b"\x00NICK b\r\n",
]


def test_c09_classifier_exhaustiveness():
    started = time.perf_counter()
    ok = all(
        classify_flow(make_flow(payload=token + b"x\r\n")) is AppLabel.IRC
        for token in IRC_TOKENS
    )
    ok &= all(
        classify_flow(make_flow(payload=b"second\r\n" + token + b"x\r\n")) is AppLabel.IRC
        for token in IRC_TOKENS
    )
    ok &= all(
        classify_flow(make_flow(payload=method + b"/ HTTP/1.1\r\n")) is AppLabel.HTTP
        for method in HTTP_METHODS
    )
    assert len(_NEAR_MISSES) == 20
    ok &= all(
        classify_flow(make_flow(payload=payload)) is AppLabel.OTHER
        for payload in _NEAR_MISSES
    )
    _finish(9, "classifier tokens, methods, 20 near-misses", started, 1.0, ok)


def test_c10_voting_lattice():
    started = time.perf_counter()
    rng = Xorshift64Star(1010)
    modes = {
        mode: dataclasses.replace(CFG, osd_mode=mode)
        for mode in (OsdMode.AND, OsdMode.MAJORITY, OsdMode.OR)
    }
    ok = True
    for _ in range(1000):
        s1 = rng.uniform(0, 10)
        s2 = rng.uniform(0, 2)
        s3 = rng.uniform(0, 1)
        a = osd_vote(s1, s2, s3, modes[OsdMode.AND])
        m = osd_vote(s1, s2, s3, modes[OsdMode.MAJORITY])
        o = osd_vote(s1, s2, s3, modes[OsdMode.OR])
        ok &= (not a or m) and (not m or o)
        if not ok:
            break
    _finish(10, "voting lattice AND=>MAJORITY=>OR", started, 1.0, ok)
