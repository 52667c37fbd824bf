"""Operator command line: run the pipeline, single stages, or the generator.

Exit codes: 0 success, 2 unreadable/unparsable input (with line
diagnostics), 3 bad configuration or scenario spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from ipaddress import IPv4Network
from pathlib import Path

from .activity import HostActivity, window_activity
from .classify import classify_flow
from .filtering import EMPTY_WHITELIST, Whitelist, WhitelistError, parse_whitelist
from .flowfile import FlowFileError, parse_flow_file, write_flow_file
from .model import ConfigError, DetectorConfig, default_config, parse_config
from .pipeline import group_path, run_detection, window_streams
from .report import BotPath, report_to_json
from .similarity import build_curve
from .synth import InvalidSpec, generate, parse_scenario, write_truth


def _write_text(out_path: str, text: str) -> None:
    if out_path == "-":
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")


def _load_flows(path: str):
    return parse_flow_file(Path(path).read_bytes())


def _load_config(path: str | None) -> DetectorConfig:
    if path is None:
        return default_config()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _load_whitelist(path: str | None) -> Whitelist:
    if path is None:
        return EMPTY_WHITELIST
    return parse_whitelist(Path(path).read_text(encoding="utf-8"))


def _parse_internal(cidr: str) -> IPv4Network:
    try:
        return IPv4Network(cidr, strict=False)
    except ValueError:
        raise ConfigError(f"--internal is not an IPv4 CIDR: {cidr!r}") from None


def run_detect(
    flow_file: str,
    whitelist_file: str | None,
    config_file: str | None,
    internal_cidr: str,
    out_path: str,
) -> int:
    cfg = _load_config(config_file)
    internal = _parse_internal(internal_cidr)
    flows = _load_flows(flow_file)
    wl = _load_whitelist(whitelist_file)
    report = run_detection(flows, wl, internal, cfg)
    _write_text(out_path, report_to_json(report))
    return 0


def run_classify(flow_file: str, out_path: str) -> int:
    flows = _load_flows(flow_file)
    lines = ["sip,sport,dip,dport,proto,label"]
    for rec in flows:
        label = classify_flow(rec)
        lines.append(
            f"{rec.sip},{rec.sport},{rec.dip},{rec.dport},{rec.proto.value},{label.value}"
        )
    _write_text(out_path, "\n".join(lines) + "\n")
    return 0


def _run_activity_table(
    flow_file, whitelist_file, config_file, internal_cidr, out_path, header, row
) -> int:
    """Write one CSV row per internal host per window, ``row`` formatting its activity."""
    cfg = _load_config(config_file)
    internal = _parse_internal(internal_cidr)
    flows = _load_flows(flow_file)
    lines = [header]
    for streams in window_streams(flows, _load_whitelist(whitelist_file), cfg):
        filtered = streams.filtered
        activity = window_activity(filtered.clean, filtered.failed, internal, cfg)
        lines.extend(
            f"{streams.window.index},{host},{row(activity[host])}" for host in sorted(activity)
        )
    _write_text(out_path, "\n".join(lines) + "\n")
    return 0


def run_scan_score(flow_file, whitelist_file, config_file, internal_cidr, out_path) -> int:
    def row(act: HostActivity) -> str:
        s = act.scores
        return (
            f"{s.isd_s:.12g},{s.s1:.12g},{s.s2:.12g},{s.s3:.12g},"
            f"{s.scans},{s.targets},{act.isd_flagged},{s.flagged}"
        )

    header = "window,host,isd_s,s1,s2,s3,scans,targets,isd_flagged,osd_flagged"
    return _run_activity_table(
        flow_file, whitelist_file, config_file, internal_cidr, out_path, header, row
    )


def run_spam_score(flow_file, whitelist_file, config_file, internal_cidr, out_path) -> int:
    def row(act: HostActivity) -> str:
        return f"{act.spam.smtp_flows},{act.spam.distinct_servers},{act.spam.flagged}"

    header = "window,host,smtp_flows,distinct_servers,flagged"
    return _run_activity_table(
        flow_file, whitelist_file, config_file, internal_cidr, out_path, header, row
    )


def run_synth(spec_file: str, out_prefix: str, seed: int | None = None) -> int:
    spec = parse_scenario(Path(spec_file).read_text(encoding="utf-8"))
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    flows, truth = generate(spec)
    Path(f"{out_prefix}.flows.csv").write_bytes(write_flow_file(flows))
    Path(f"{out_prefix}.truth").write_text(write_truth(truth), encoding="utf-8")
    return 0


def run_curves(flow_file: str, path: str, out_path: str, config_file: str | None = None) -> int:
    cfg = _load_config(config_file)
    flows = _load_flows(flow_file)
    lines = ["key,x,y"]
    for streams in window_streams(flows, EMPTY_WHITELIST, cfg):
        groups, _ = group_path(BotPath(path), streams, cfg)
        for group in groups:
            curve = build_curve(group.points, cfg.resample_points)
            key = f"w{streams.window.index}|{group.key.label()}"
            for x, y in zip(curve.xs, curve.ys):
                lines.append(f"{key},{x:.12g},{y:.12g}")
    _write_text(out_path, "\n".join(lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botdetect",
        description="Botnet detection over flow records: similarity clustering "
        "of communication patterns intersected with scan/spam activity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the full pipeline and write the report")
    detect.add_argument("--flows", required=True, help="flow CSV file")
    detect.add_argument("--whitelist", help="destination whitelist (CIDR per line)")
    detect.add_argument("--config", help="detector config file")
    detect.add_argument(
        "--internal", required=True, help="internal network CIDR (defines flow direction)"
    )
    detect.add_argument("--out", default="-", help="report path (default stdout)")

    classify = sub.add_parser("classify", help="label each flow irc/http/other")
    classify.add_argument("--flows", required=True)
    classify.add_argument("--out", default="-")

    for name, help_text in (
        ("scan-score", "per-host scan scores per window"),
        ("spam-score", "per-host mail fan-out per window"),
    ):
        stage = sub.add_parser(name, help=help_text)
        stage.add_argument("--flows", required=True)
        stage.add_argument("--whitelist")
        stage.add_argument("--config")
        stage.add_argument("--internal", required=True)
        stage.add_argument("--out", default="-")

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("--spec", required=True, help="scenario spec file")
    synth.add_argument("--out", required=True, help="output prefix (<prefix>.flows.csv, <prefix>.truth)")
    synth.add_argument("--seed", type=int, help="override the spec's seed")

    curves = sub.add_parser("curves", help="dump per-group curve samples as CSV")
    curves.add_argument("--flows", required=True)
    curves.add_argument("--path", choices=("p2p", "irc"), required=True)
    curves.add_argument("--config")
    curves.add_argument("--out", default="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "detect":
            return run_detect(args.flows, args.whitelist, args.config, args.internal, args.out)
        if args.command == "classify":
            return run_classify(args.flows, args.out)
        if args.command == "scan-score":
            return run_scan_score(args.flows, args.whitelist, args.config, args.internal, args.out)
        if args.command == "spam-score":
            return run_spam_score(args.flows, args.whitelist, args.config, args.internal, args.out)
        if args.command == "synth":
            return run_synth(args.spec, args.out, args.seed)
        if args.command == "curves":
            return run_curves(args.flows, args.path, args.out, args.config)
        raise AssertionError(f"unhandled command {args.command}")
    except (FlowFileError, WhitelistError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
