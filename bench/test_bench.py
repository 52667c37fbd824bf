"""Self-test of the benchmark on small inputs.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the traced run refuses a layer with no calls, that the
benchmark refuses to run without the program's sources, and that a second
seed gives each workload the same shape within the benchmark's bounds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

from botdetect.model import default_config  # noqa: E402
from botdetect.synth import generate  # noqa: E402
from spans import LayerUntraced, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from yardstick import REFERENCE_S, Yardstick  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = 0.1  # of each workload's host and target counts


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_contract_names_the_workloads():
    for entry in CONTRACT["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
    assert set(_units("end_to_end")) == set(run.END_TO_END_UNITS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.run(name, seed=3, seconds=0.0, trace=trace, scale=SMALL)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result, allow_nan=False)


def test_yardstick_scales_a_span_by_the_loops_around_it(monkeypatch):
    loops = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(Yardstick, "time_loop", lambda self: next(loops))
    yardstick = Yardstick()
    assert yardstick.scale(1.0) == pytest.approx(REFERENCE_S / 0.03)
    assert yardstick.scale(0.5) == pytest.approx(0.5 * REFERENCE_S / 0.05)


def test_peak_rss_is_the_childs_own(tmp_path):
    """A large benchmark process must not raise the child's reported peak."""
    workload = WORKLOADS["scan_mix"]
    flows, _, whitelist, *_ = run.set_up(workload, 3, SMALL, tmp_path)
    calls = run.Calls(tmp_path, run.shape(flows, whitelist, default_config()))
    ballast = bytearray(64 << 20)  # zero-filled, so resident
    rss = calls.child_peak_rss_mb()
    del ballast
    assert calls.problems == [] and calls.failed == 0
    assert 1.0 < rss < 64.0


def test_traced_run_refuses_a_layer_without_calls():
    tracer = Tracer()
    tracer.call(lambda: None)
    with pytest.raises(LayerUntraced, match="flowfile.parse"):
        tracer.metrics()


def test_tracer_restores_every_wrapped_name():
    from botdetect import cli, pipeline, similarity

    before = [vars(m).copy() for m in (cli, pipeline, similarity)]
    with Tracer():
        pass
    assert [vars(m) for m in (cli, pipeline, similarity)] == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, *CONTRACT["command"][1:]]
    argv += ["--workload", "wide_window", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_held_out_seed_has_the_same_shape(name):
    """Counts that set a workload's cost differ between seeds by less than the detect_s bound."""
    workload = WORKLOADS[name]
    bound = next(m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "detect_s")
    totals = []
    for seed in (1, 2):
        flows, _ = generate(workload.make_spec(seed, 1.0))
        shp = run.shape(flows, set(workload.whitelist(flows)), default_config())
        totals.append({k: sum(v) if isinstance(v, list) else v for k, v in shp.items()})
    for key in workload.cost_drivers:
        a, b = totals[0][key], totals[1][key]
        assert abs(a - b) <= bound * max(a, b), (key, a, b)
