"""Operator command line: run the pipeline, single stages, or the generator.

The parser is the command table: each subcommand registers its runner,
which takes the parsed arguments and returns the text that ``main`` writes
to ``--out`` (``synth`` writes its two files itself and returns None).

Exit codes: 0 success, 2 unreadable/unparsable input (with line
diagnostics), 3 bad configuration or scenario spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from ipaddress import IPv4Network
from pathlib import Path
from typing import Callable, Iterable

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


def _lines(header: str, rows: Iterable[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_flows(path: str):
    return parse_flow_file(Path(path).read_bytes())


def _load_config(path: str | None) -> DetectorConfig:
    return default_config() if path is None else parse_config(_read_text(path))


def _load_whitelist(path: str | None) -> Whitelist:
    return EMPTY_WHITELIST if path is None else parse_whitelist(_read_text(path))


def _parse_internal(cidr: str) -> IPv4Network:
    try:
        return IPv4Network(cidr, strict=False)
    except ValueError:
        raise ConfigError(f"--internal is not an IPv4 CIDR: {cidr!r}") from None


def run_detect(args: argparse.Namespace) -> str:
    cfg = _load_config(args.config)
    internal = _parse_internal(args.internal)
    flows = _load_flows(args.flows)
    wl = _load_whitelist(args.whitelist)
    return report_to_json(run_detection(flows, wl, internal, cfg))


def run_classify(args: argparse.Namespace) -> str:
    rows = (
        f"{rec.sip},{rec.sport},{rec.dip},{rec.dport},{rec.proto.value},{classify_flow(rec).value}"
        for rec in _load_flows(args.flows)
    )
    return _lines("sip,sport,dip,dport,proto,label", rows)


def run_activity_table(
    header: str, row: Callable[[HostActivity], str], args: argparse.Namespace
) -> str:
    """One CSV row per internal host per window, ``row`` formatting its activity."""
    cfg = _load_config(args.config)
    internal = _parse_internal(args.internal)
    flows = _load_flows(args.flows)
    rows = []
    for streams in window_streams(flows, _load_whitelist(args.whitelist), cfg):
        filtered = streams.filtered
        activity = window_activity(filtered.clean, filtered.failed, internal, cfg)
        rows.extend(
            f"{streams.window.index},{host},{row(activity[host])}" for host in sorted(activity)
        )
    return _lines(header, rows)


SCAN_HEADER = "window,host,isd_s,s1,s2,s3,scans,targets,isd_flagged,osd_flagged"


def _scan_row(act: HostActivity) -> str:
    s = act.scores
    return (
        f"{act.isd_s:.12g},{s.s1:.12g},{s.s2:.12g},{s.s3:.12g},"
        f"{s.scans},{s.targets},{act.isd_flagged},{s.flagged}"
    )


SPAM_HEADER = "window,host,smtp_flows,distinct_servers,flagged"


def _spam_row(act: HostActivity) -> str:
    return f"{act.spam.smtp_flows},{act.spam.distinct_servers},{act.spam.flagged}"


def run_synth(args: argparse.Namespace) -> None:
    spec = parse_scenario(_read_text(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    flows, truth = generate(spec)
    Path(f"{args.out}.flows.csv").write_bytes(write_flow_file(flows))
    Path(f"{args.out}.truth").write_text(write_truth(truth), encoding="utf-8")


def run_curves(args: argparse.Namespace) -> str:
    cfg = _load_config(args.config)
    flows = _load_flows(args.flows)
    rows = []
    for streams in window_streams(flows, _load_whitelist(args.whitelist), cfg):
        groups, _ = group_path(BotPath(args.path), streams, cfg)
        for group in groups:
            curve = build_curve(group.points, cfg.resample_points)
            key = f"w{streams.window.index}|{group.key.label()}"
            rows.extend(f"{key},{x:.12g},{y:.12g}" for x, y in zip(curve.xs, curve.ys))
    return _lines("key,x,y", rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botdetect",
        description="Botnet detection over flow records: similarity clustering "
        "of communication patterns intersected with scan/spam activity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flows in, one text out; all but classify score hosts against the config
    for name, help_text, run, scored in (
        ("detect", "run the full pipeline and write the report", run_detect, True),
        ("classify", "label each flow irc/http/other", run_classify, False),
        ("scan-score", "per-host scan scores per window",
         partial(run_activity_table, SCAN_HEADER, _scan_row), True),
        ("spam-score", "per-host mail fan-out per window",
         partial(run_activity_table, SPAM_HEADER, _spam_row), True),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--flows", required=True, help="flow CSV file")
        if scored:
            command.add_argument("--whitelist", help="destination whitelist (CIDR per line)")
            command.add_argument("--config", help="detector config file")
            command.add_argument(
                "--internal", required=True, help="internal network CIDR (defines flow direction)"
            )
        command.add_argument("--out", default="-", help="output path (default stdout)")
        command.set_defaults(run=run)

    synth = sub.add_parser("synth", help="generate a synthetic scenario")
    synth.add_argument("--spec", required=True, help="scenario spec file")
    synth.add_argument("--out", required=True, help="output prefix (<prefix>.flows.csv, <prefix>.truth)")
    synth.add_argument("--seed", type=int, help="override the spec's seed")
    synth.set_defaults(run=run_synth)

    curves = sub.add_parser("curves", help="dump per-group curve samples as CSV")
    curves.add_argument("--flows", required=True)
    curves.add_argument("--path", choices=("p2p", "irc"), required=True)
    curves.add_argument("--whitelist", help="destination whitelist (CIDR per line)")
    curves.add_argument("--config")
    curves.add_argument("--out", default="-")
    curves.set_defaults(run=run_curves)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = args.run(args)
        if text is not None:
            _write_text(args.out, text)
    except (FlowFileError, WhitelistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
