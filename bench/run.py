#!/usr/bin/env python3
"""Benchmark of ``botdetect detect``, the batch job an operator runs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, one process: the benchmark calls the real CLI
entry point ``botdetect.cli.main(["detect", ...])`` in-process, the next
call starting when the previous one has returned.  A timed call covers the
file read, parsing, the pipeline and the JSON write.  Set-up (imports,
scenario generation, writing the flow CSV and the whitelist) is not timed
with it; it is repeated and reported on its own as ``setup_s``.

``detect_s`` and ``setup_s`` are medians of seconds at a reference speed:
each call and each set-up is scaled by a fixed loop timed just before and
after it (see ``yardstick.py``), because the shared host's speed changes by
up to 2x in phases of seconds to minutes.  The wall seconds are printed and
recorded beside them.

``--trace 0`` reports the end-to-end metrics; ``peak_rss_mb`` comes from a
child process that runs only ``detect`` on the workload's file.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics (see ``spans.py``) plus the tracing overhead.

Every call's report must be byte-identical to the workload's first one and
its counters must match a recount made from the generated flows; a call
that raises or differs counts as failed.  Lines starting with ``#`` record
the environment and the workload's shape; the last line of standard output
is the JSON result.  A full record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

INTERNAL = "10.0.0.0/16"
SETUP_REPEATS = 5
MIN_CALLS = 3
WARMUP_ROWS = 500
CHILD_TIMEOUT_S = 120.0
# argv: peak-file, then detect's arguments
CHILD_CODE = """\
import sys
from botdetect.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status", encoding="ascii") as f:
    peak_kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
with open(sys.argv[1], "w", encoding="ascii") as f:
    f.write(peak_kb)
sys.exit(code)
"""

END_TO_END_UNITS = {
    "detect_s": "s",
    "flows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "precision": "ratio",
    "recall": "ratio",
    "ok_ratio": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


class NoCallSucceeded(RuntimeError):
    pass


def load_program() -> None:
    """Put this checkout's ``src`` first on the import path, or fail.

    The benchmark measures the program it ships with; an installed copy
    elsewhere must not stand in for a missing one.
    """
    if not (SRC / "botdetect" / "cli.py").is_file():
        raise ProgramMissing(f"no botdetect sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import botdetect

    if Path(botdetect.__file__).resolve().parent != SRC / "botdetect":
        raise ProgramMissing(f"botdetect imported from {botdetect.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


# --- inputs ------------------------------------------------------------


def set_up(workload, seed: int, scale: float, workdir: Path):
    """Generate the scenario and write the flow CSV and the whitelist.

    Repeated ``SETUP_REPEATS`` times, each of which must write the same
    bytes; returns (flows, truth, whitelisted addresses, wall seconds and
    reference seconds per set-up).
    """
    from botdetect.flowfile import write_flow_file
    from botdetect.synth import generate
    from yardstick import Yardstick

    times, scaled, outputs = [], [], set()
    yardstick = Yardstick()
    for _ in range(SETUP_REPEATS):
        flows = truth = None
        gc.collect()
        start = time.perf_counter()
        flows, truth = generate(workload.make_spec(seed, scale))
        data = write_flow_file(flows)
        (workdir / "flows.csv").write_bytes(data)
        whitelist = workload.whitelist(flows, scale)
        text = "# busiest benign destinations\n" + "".join(f"{dip}\n" for dip in whitelist)
        (workdir / "whitelist.txt").write_text(text, encoding="utf-8")
        times.append(time.perf_counter() - start)
        scaled.append(yardstick.scale(times[-1]))
        outputs.add((hash(data), text))
    if len(outputs) != 1:
        raise RuntimeError("scenario generation is not deterministic")
    return flows, truth, set(whitelist), times, scaled


def shape(flows, whitelist: set[str], cfg) -> dict:
    """Counts that set the work of one run, recounted from the generated flows.

    Independent of the pipeline's own windowing and grouping code, so it
    also serves as the reference for the report's counters.
    """
    from botdetect.classify import AppLabel, classify_flow
    from botdetect.model import Proto, TcpState

    failed_states = (TcpState.SYN_ONLY, TcpState.RESET)
    groupable = (Proto.TCP, Proto.UDP)
    windows: set[int] = set()
    p2p_keys: dict[int, set] = defaultdict(set)
    irc_keys: dict[int, set] = defaultdict(set)
    labels: Counter[str] = Counter()
    whitelisted = failed = 0
    for rec in flows:
        if rec.dip in whitelist:
            whitelisted += 1
            continue
        w = int(rec.start_ts // cfg.window_seconds)
        windows.add(w)
        if rec.tcp_state in failed_states:
            failed += 1
            continue
        label = classify_flow(rec)
        labels[label.value] += 1
        if label is AppLabel.HTTP or rec.proto not in groupable or rec.npkts < 1:
            continue
        if label is AppLabel.IRC:
            pat = int(rec.start_ts // cfg.pat_bin_seconds)
            irc_keys[w].add((rec.sip, rec.dip, rec.sport, rec.dport, pat, rec.proto))
        else:
            p2p_keys[w].add((rec.sip, rec.dip, rec.dport, rec.proto))
    order = sorted(windows)
    p2p = [len(p2p_keys[w]) for w in order]
    irc = [len(irc_keys[w]) for w in order]
    return {
        "flows": len(flows),
        "windows": len(order),
        "whitelist_entries": len(whitelist),
        "whitelisted": whitelisted,
        "failed": failed,
        "labels": dict(sorted(labels.items())),
        "p2p_groups_per_window": p2p,
        "irc_groups_per_window": irc,
        "pairs_per_window": [a * (a - 1) // 2 + b * (b - 1) // 2 for a, b in zip(p2p, irc)],
    }


def check_report(data: bytes, shp: dict) -> list[str]:
    """Problems with one report: its counters against the recount."""
    counters = json.loads(data)["counters"]
    expected = {
        "flows_ingested": shp["flows"],
        "whitelisted": shp["whitelisted"],
        "failed_handshake": shp["failed"],
    }
    problems = [
        f"counter {k} = {counters.get(k)}, expected {v}"
        for k, v in expected.items()
        if counters.get(k) != v
    ]
    if counters.get("labels") != {"irc": 0, "http": 0, "other": 0, **shp["labels"]}:
        problems.append(f"counter labels = {counters.get('labels')}, expected {shp['labels']}")
    return problems


def quality(data: bytes, truth) -> tuple[float, float]:
    """(precision, recall) of the reported hosts against the planted ones.

    Precision counts a reported host as right when the generator planted
    it in any group; recall is over P2P and IRC bot-group hosts.  With
    nothing reported precision is 1, with no bots planted recall is 1.
    """
    from botdetect.synth import PlantedKind

    reported = {h for g in json.loads(data)["groups"] for h in g["hosts"]}
    planted = {str(h) for g in truth.groups for h in g.hosts}
    bots = {
        str(h)
        for g in truth.groups
        if g.kind in (PlantedKind.P2P_BOT_GROUP, PlantedKind.IRC_BOT_GROUP)
        for h in g.hosts
    }
    precision = len(reported & planted) / len(reported) if reported else 1.0
    recall = len(reported & bots) / len(bots) if bots else 1.0
    return precision, recall


# --- calls -------------------------------------------------------------


class Calls:
    """Every ``detect`` call of a run, checked against the first report."""

    def __init__(self, workdir: Path, shp: dict):
        self.args = [
            "detect",
            "--flows", str(workdir / "flows.csv"),
            "--whitelist", str(workdir / "whitelist.txt"),
            "--internal", INTERNAL,
            "--out", str(workdir / "report.json"),
        ]  # fmt: skip
        self.out = workdir / "report.json"
        self.shape = shp
        self.reference: bytes | None = None
        self.reference_ok = False
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _judge(self, data: bytes | None) -> bool:
        if data is not None and self.reference is None:
            self.reference = data
            found = check_report(data, self.shape)
            self.problems.extend(found)
            self.reference_ok = not found
        ok = data is not None and data == self.reference and self.reference_ok
        if data is not None and data != self.reference:
            self.problems.append(f"call {self.attempted}: report bytes differ from the first call")
        self.attempted += 1
        self.failed += not ok
        return ok

    def in_process(self, around=None) -> float | None:
        """One timed ``detect`` call; seconds, or None when it failed."""
        from botdetect import cli

        self.out.unlink(missing_ok=True)
        gc.collect()
        call = functools.partial(cli.main, self.args)
        start = time.perf_counter()
        try:
            code = around(call) if around else call()
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        data = self.out.read_bytes() if code == 0 and self.out.is_file() else None
        if code != 0:
            self.problems.append(f"call {self.attempted}: detect returned {code}")
        return elapsed if self._judge(data) else None

    def child_peak_rss_mb(self) -> float:
        """Peak resident memory of a process that runs only ``detect``.

        The child reports its own peak (``VmHWM``).  The rusage of waited-for
        children would not do: Linux charges a child with the resident
        memory of the parent that started it, here larger than detect's.
        """
        self.out.unlink(missing_ok=True)
        peak_file = self.out.with_name("peak_rss_kb.txt")
        peak_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_CODE, str(peak_file), *self.args],
            cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S, check=False,
        )  # fmt: skip
        data = self.out.read_bytes() if proc.returncode == 0 and self.out.is_file() else None
        if proc.returncode != 0:
            self.problems.append(f"child detect exited with {proc.returncode}")
        self._judge(data)
        if not peak_file.is_file():
            self.problems.append("child detect reported no peak resident memory")
            return 0.0
        return int(peak_file.read_text(encoding="ascii")) / 1024.0


def warm_up(workdir: Path) -> None:
    """One untimed call on the first rows of the workload's file."""
    from botdetect import cli

    lines = (workdir / "flows.csv").read_bytes().split(b"\n", WARMUP_ROWS + 1)[: WARMUP_ROWS + 1]
    (workdir / "warmup.csv").write_bytes(b"\n".join(lines) + b"\n")
    args = ["detect", "--flows", str(workdir / "warmup.csv"), "--internal", INTERNAL]
    args += ["--out", str(workdir / "warmup.json")]
    if cli.main(args) != 0:
        raise RuntimeError("warm-up detect call failed")


# --- runs --------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _seconds(values: list[float]) -> list[float]:
    return [round(v, 4) for v in values]


def measure_end_to_end(calls: Calls, seconds: float, flows: int, setup, truth) -> dict:
    from yardstick import Yardstick

    setup_times, setup_scaled = setup
    times: list[float] = []
    scaled: list[float] = []
    yardstick = Yardstick()
    deadline = time.perf_counter() + seconds
    while calls.attempted < MIN_CALLS or time.perf_counter() < deadline:
        elapsed = calls.in_process()
        if elapsed is not None:
            times.append(elapsed)
            scaled.append(yardstick.scale(elapsed))
        else:
            yardstick.scale(0.0)
    if not times:
        raise NoCallSucceeded("; ".join(calls.problems) or "every detect call raised")
    rss = calls.child_peak_rss_mb()
    precision, recall = quality(calls.reference, truth)
    detect_s = statistics.median(scaled)
    values = {
        "detect_s": detect_s,
        "flows_per_s": flows / detect_s,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_scaled),
        "precision": precision,
        "recall": recall,
        "ok_ratio": (calls.attempted - calls.failed) / calls.attempted,
    }
    notes = {
        "detect_s": f"median of {len(times)} calls at reference speed, all {_seconds(scaled)}; "
        f"wall median {statistics.median(times):.4f}, all {_seconds(times)}",
        "flows_per_s": f"{flows} flows / detect_s",
        "peak_rss_mb": "one child process running only detect",
        "setup_s": f"median of {len(setup_times)} set-ups at reference speed, "
        f"all {_seconds(setup_scaled)}; wall all {_seconds(setup_times)}",
        "ok_ratio": f"fail_ratio = {calls.failed}/{calls.attempted} detect calls",
    }
    return {
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()},
        "notes": notes,
        "samples": {
            "detect_s": scaled,
            "detect_wall_s": times,
            "setup_s": list(setup_scaled),
            "setup_wall_s": list(setup_times),
        },
    }


def measure_layers(calls: Calls, seconds: float, shp: dict) -> dict:
    from spans import COUNT_METRICS, Tracer

    plain: list[float] = []
    traced: list[float] = []
    per_call: dict[str, list[float]] = defaultdict(list)
    spans: dict = {}
    deadline = time.perf_counter() + seconds
    while calls.attempted < 2 * MIN_CALLS or time.perf_counter() < deadline:
        elapsed = calls.in_process()
        if elapsed is not None:
            plain.append(elapsed)
        with Tracer() as tracer:
            elapsed = calls.in_process(around=tracer.call)
        if elapsed is not None:
            traced.append(elapsed)
            for name, value in tracer.metrics().items():
                per_call[name].append(value)
            spans = tracer.summary()
    if not (plain and traced):
        raise NoCallSucceeded("; ".join(calls.problems) or "every detect call raised")
    values = {name: statistics.median(v) for name, v in per_call.items()}
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    expected = {
        "monitors.p2p_groups": sum(shp["p2p_groups_per_window"]),
        "monitors.irc_groups": sum(shp["irc_groups_per_window"]),
        "similarity.pairs_total": sum(shp["pairs_per_window"]),
    }
    for name, want in expected.items():
        if name in values and values[name] != want:
            calls.problems.append(f"traced {name} = {values[name]:g}, recount gives {want}")
    units = {name: "count" for name in COUNT_METRICS}
    units["similarity.scored_ratio"] = units["trace.overhead_ratio"] = "ratio"
    return {
        "metrics": {k: _metric(v, units.get(k, "s")) for k, v in sorted(values.items())},
        "notes": {"calls": f"{len(traced)} traced, {len(plain)} untraced; medians per metric"},
        "samples": {"traced_s": traced, "untraced_s": plain, "last_traced_call": spans},
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; prints ``#`` record lines and returns the result object."""
    from botdetect.model import default_config
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    flows, truth, whitelist, *setup = set_up(workload, seed, scale, workdir)
    shp = shape(flows, whitelist, default_config())
    n_flows = len(flows)
    del flows
    info = {"name": workload.name, "why": workload.why, "seed": seed, "scale": scale, "shape": shp}
    print("# env " + json.dumps(env, sort_keys=True))
    print("# workload " + json.dumps(info, sort_keys=True))

    warm_up(workdir)
    calls = Calls(workdir, shp)
    if trace:
        measured = measure_layers(calls, seconds, shp)
    else:
        measured = measure_end_to_end(calls, seconds, n_flows, setup, truth)
    for problem in calls.problems:
        print(f"# problem: {problem}")
    for name, m in measured["metrics"].items():
        note = measured["notes"].get(name, "")
        print(f"# {name} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for name, note in measured["notes"].items():
        if name not in measured["metrics"]:
            print(f"# {name}: {note}")

    result = {
        "correct": calls.failed == 0 and not calls.problems,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": measured["metrics"],
    }
    record = {**result, "env": env, "workload": info, "trace": trace, "seconds": seconds}
    record["problems"] = calls.problems
    record["samples"] = measured["samples"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    from spans import LayerUntraced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (LayerUntraced, NoCallSucceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
