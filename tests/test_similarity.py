from __future__ import annotations

import importlib
import math
import random
import struct
import sys
from ipaddress import IPv4Address
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from botdetect import similarity
from botdetect.filtering import EMPTY_WHITELIST, parse_whitelist
from botdetect.flowfile import parse_flow_file, write_flow_file
from botdetect.model import default_config
from botdetect.pipeline import group_path, path_clusters, window_streams
from botdetect.report import BotPath
from botdetect.similarity import (
    EmptyGroup,
    FlowFeatures,
    FlowGroup,
    MismatchedR,
    ZeroPackets,
    batch_features,
    build_curve,
    cluster_groups,
    curve_similarity,
    flow_features,
)
from botdetect.synth import generate, parse_scenario
from botdetect.table import FlowTable

from .conftest import bench_workloads, make_flow

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


class StubKey(NamedTuple):
    sip: IPv4Address
    name: str

    def label(self):
        return self.name


def group(name: str, host: str, *points: tuple[float, float]) -> FlowGroup:
    return FlowGroup(
        key=StubKey(IPv4Address(host), name),
        points=tuple(FlowFeatures(nbps=y, nbpp=x) for x, y in points),
    )


def constant_group(name: str, host: str, level: float) -> FlowGroup:
    return group(name, host, (5.0, level))


def _columns(flows) -> tuple[list, list, list]:
    """The npkts, nbytes and duration columns that batch_features takes."""
    return [r.npkts for r in flows], [r.nbytes for r in flows], [r.duration for r in flows]


class TestFlowFeatures:
    def test_basic_arithmetic(self):
        f = flow_features(make_flow(nbytes=1000, duration=10.0, npkts=4), 0.001)
        assert f.nbps == 100.0 and f.nbpp == 250.0

    def test_zero_bytes(self):
        f = flow_features(make_flow(nbytes=0, duration=5.0, npkts=1), 0.001)
        assert f.nbps == 0.0 and f.nbpp == 0.0

    def test_duration_floor(self):
        f = flow_features(make_flow(nbytes=600, duration=0.0, npkts=3), 0.001)
        assert f.nbps == 600000.0 and f.nbpp == 200.0

    def test_zero_packets_raises(self):
        with pytest.raises(ZeroPackets):
            flow_features(make_flow(npkts=0, nbytes=0), 0.001)
        with pytest.raises(ZeroPackets, match="npkts=-1"):  # the first such flow is named
            batch_features(*_columns([make_flow(), make_flow(npkts=-1), make_flow(npkts=0)]), 0.001)

    def test_matches_one_line_recomputation(self):
        from botdetect.synth import Xorshift64Star

        rng = Xorshift64Star(5)
        flows = []
        for _ in range(10_000):
            nbytes = rng.randint(10**6)
            npkts = 1 + rng.randint(10**4)
            duration = rng.uniform(0.0, 100.0)
            flows.append(make_flow(nbytes=nbytes, duration=duration, npkts=npkts))
        nbpp, nbps = batch_features(*_columns(flows), 0.001)
        assert nbpp.dtype == nbps.dtype == np.float64
        assert len(nbpp) == len(nbps) == len(flows)
        for rec, f in zip(flows, map(FlowFeatures, nbpp.tolist(), nbps.tolist())):
            assert f == flow_features(rec, 0.001)
            assert f.nbps == rec.nbytes / max(rec.duration, 0.001)
            assert f.nbpp == rec.nbytes / rec.npkts


class TestBuildCurve:
    def test_two_point_linear_interpolation(self):
        curve = build_curve([FlowFeatures(nbps=0, nbpp=1), FlowFeatures(nbps=2, nbpp=3)], 3)
        assert tuple(curve.xs) == (1.0, 2.0, 3.0)
        assert tuple(curve.ys) == (0.0, 1.0, 2.0)
        assert curve.x_range == (1.0, 3.0)
        assert not curve.degenerate

    def test_single_point_degenerates_to_constant(self):
        curve = build_curve([FlowFeatures(nbps=7, nbpp=5)], 4)
        assert tuple(curve.ys) == (7.0, 7.0, 7.0, 7.0)
        assert curve.degenerate

    def test_duplicate_x_replaced_by_mean(self):
        curve = build_curve([FlowFeatures(nbps=4, nbpp=2), FlowFeatures(nbps=6, nbpp=2)], 2)
        assert tuple(curve.ys) == (5.0, 5.0)
        assert curve.degenerate

    def test_peak_is_the_max_sample_nan_included(self):
        curve = build_curve([FlowFeatures(nbps=3, nbpp=1), FlowFeatures(nbps=9, nbpp=4)], 4)
        assert curve.peak == 9.0
        curve = build_curve([FlowFeatures(nbps=math.nan, nbpp=1), FlowFeatures(nbps=9, nbpp=4)], 4)
        assert math.isnan(curve.peak)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 1.0, 2.5, 1e300)),
                st.one_of(
                    st.sampled_from((0.0, -0.0, math.nan, -math.nan, 5e-324, -5e-324, -1.0)),
                    st.floats(-1e9, 1e9),
                    st.floats(-1e-300, 1e-300),
                    st.floats(),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((2, 3, 32)),
    )
    # a run of 0.0 and -5e-324 averages to -0.0, tied with a sample 0.0;
    # a -nan sample, whose sign np.min does not keep
    @example(pts=[(0.0, 0.0), (0.0, -5e-324), (1.0, 0.0)], r=2)
    @example(pts=[(0.0, -math.nan)], r=2)
    def test_floor_and_peak_are_min_and_max_bit_for_bit(self, pts, r):
        curve = build_curve(np.array(pts, dtype=np.float64), r)
        assert struct.pack("<d", curve.floor) == struct.pack("<d", np.min(curve.ys))
        assert struct.pack("<d", curve.peak) == struct.pack("<d", np.max(curve.ys))

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroup):
            build_curve([], 4)

    def test_xs_strictly_increasing_when_nondegenerate(self):
        curve = build_curve([FlowFeatures(nbps=1, nbpp=10), FlowFeatures(nbps=9, nbpp=90)], 32)
        assert np.all(np.diff(curve.xs) > 0)

    def test_point_order_does_not_matter(self):
        pts = [FlowFeatures(nbps=float(y), nbpp=float(x)) for x, y in [(3, 1), (1, 5), (2, 2), (1, 7)]]
        a = build_curve(pts, 8)
        b = build_curve(list(reversed(pts)), 8)
        assert tuple(a.xs) == tuple(b.xs) and tuple(a.ys) == tuple(b.ys)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((0.0, 1.0, 2.5, 1e300)),
                st.one_of(st.sampled_from((0.0, -0.0, math.nan)), st.floats(-1e9, 1e9), st.floats(0, 1e-300)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.randoms(use_true_random=False),
        st.sampled_from((2, 3, 32)),
    )
    # np.add.reduce sums ten 0.1s to 1.0 (in eight lanes), not to
    # 0.9999999999999999; two -0.0s average to 0.0 only when summed from 0.0;
    # 1e16, 1.0 and 1.0 sum to 1e16 + 2 only in ascending order
    @example(pts=[(1.0, 0.1)] * 10 + [(2.5, 3.0)], rng=random.Random(0), r=32)
    @example(pts=[(1.0, -0.0), (1.0, -0.0), (2.5, 3.0)], rng=random.Random(0), r=3)
    @example(pts=[(1.0, 1e16), (1.0, 1.0), (1.0, 1.0), (2.5, 3.0)], rng=random.Random(0), r=3)
    def test_array_and_features_give_the_same_bits(self, pts, rng, r):
        """A ``(k, 2)`` array in any row order gives the curve of the same
        points as FlowFeatures, and both give the per-point loop's curve:
        equal-nbpp runs averaged from 0.0, summed in (nbpp, nbps) order."""
        rows = list(pts)
        rng.shuffle(rows)
        got = build_curve(np.array(rows, dtype=np.float64).reshape(-1, 2), r)
        want = build_curve([FlowFeatures(nbpp=x, nbps=y) for x, y in pts], r)
        assert _curve_bits(got) == _curve_bits(want)
        assert _curve_bits(got) == _curve_bits(_per_point_curve(pts, r))

    @given(
        st.one_of(
            # strictly increasing, as grouping hands most groups over; one point too
            st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=12, unique=True).map(sorted),
            # ties and nans.  A -0.0/0.0 tie with equal nbps is left out: the
            # sort keeps such points in input order, so x_range[0] keeps the
            # sign that comes first, as build_curve's docstring says
            st.lists(st.sampled_from((0.0, 1.0, 2.5, math.nan)), min_size=1, max_size=12),
        ).flatmap(
            lambda xs: st.lists(
                st.one_of(st.sampled_from((0.0, -0.0, math.nan)), st.floats(-1e9, 1e9)),
                min_size=len(xs),
                max_size=len(xs),
            ).map(lambda ys: list(zip(xs, ys)))
        ),
        st.sampled_from((2, 3, 32)),
    )
    @example(pts=[(-0.0, -0.0), (1.0, -0.0)], r=3)
    def test_points_and_their_reverse_give_the_same_bits(self, pts, r):
        """Strictly increasing nbpp, taken without a sort, give the bits
        the sort gives their reverse; ties, -0.0 and nans sort either way."""
        points = np.array(pts, dtype=np.float64)
        assert _curve_bits(build_curve(points, r)) == _curve_bits(build_curve(points[::-1], r))


def reference_similarity(a, b):
    """``curve_similarity`` as first written, on ``np.linspace`` and ``np.mean``:
    the reference its leaner body must match float for float."""
    r = len(a.ys)
    if not a.degenerate and not b.degenerate:
        lo = max(a.x_range[0], b.x_range[0])
        hi = min(a.x_range[1], b.x_range[1])
        if hi < lo:
            return 0.0
    elif a.degenerate and not b.degenerate:
        lo, hi = b.x_range
    elif b.degenerate and not a.degenerate:
        lo, hi = a.x_range
    else:
        lo = hi = 0.0
    positions = np.linspace(lo, hi, r)
    ya = np.full(r, a.ys[0]) if a.degenerate else np.interp(positions, a.xs, a.ys)
    yb = np.full(r, b.ys[0]) if b.degenerate else np.interp(positions, b.xs, b.ys)
    peak = float(max(ya.max(), yb.max()))
    if peak == 0.0:
        return 1.0
    return float(1.0 - float(np.mean(np.abs(ya - yb))) / peak)


# nbpp values: ordinary, huge, and subnormal, so steps can underflow to zero
X_VALUES = st.one_of(
    st.floats(0, 1e4), st.floats(0, 1e15), st.sampled_from((0.0, 5e-324, 1e-320, 2.2e-308))
)
def _curve_bits(curve) -> tuple:
    """Every field of a curve, floats as their bytes."""
    return (
        curve.xs.tobytes(),
        curve.ys.tobytes(),
        struct.pack("<5d", *curve.x_range, curve.floor, curve.peak, curve.mean),
        curve.degenerate,
    )


def _per_point_curve(pts: list[tuple[float, float]], r: int) -> similarity.Curve:
    """The reference curve: points sorted as Python tuples, each equal-nbpp
    run's nbps added in turn from 0.0 and divided by its length."""
    ordered = sorted(pts)
    xs, ys = [], []
    i = 0
    while i < len(ordered):
        j, total = i, 0.0
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            total += ordered[j][1]
            j += 1
        xs.append(ordered[i][0])
        ys.append(total / (j - i))
        i = j
    lo, hi = xs[0], xs[-1]
    if len(xs) == 1:
        sample_xs, sample_ys = np.full(r, lo), np.full(r, ys[0])
    else:
        sample_xs = np.linspace(lo, hi, r)
        sample_ys = np.interp(sample_xs, xs, ys)
    return similarity.Curve(
        sample_xs,
        sample_ys,
        (lo, hi),
        lo == hi,
        float(np.min(sample_ys)),
        float(np.max(sample_ys)),
        float(np.mean(sample_ys)),
    )


# tiny nbps values keep the slopes over subnormal spans finite
Y_VALUES = st.one_of(st.just(0.0), st.floats(0, 1e9), st.floats(0, 1e-300))
# and huge ones make sums of samples overflow
WIDE_Y_VALUES = Y_VALUES | st.floats(0, sys.float_info.max) | st.floats(1e306, sys.float_info.max)


@st.composite
def curve_pairs(draw, y_values=Y_VALUES):
    """Two curves whose nbpp values come from one small pool, so pairs
    overlap, touch at one point, are disjoint, or are degenerate; or whose
    second range lies within the first's, or has the same ends.  Their nbps
    values are drawn from ``y_values``."""
    r = draw(st.sampled_from((2, 3, 32)))
    pool = draw(st.lists(X_VALUES, min_size=1, max_size=4, unique=True))

    def curve(xs, *ends):
        pts = draw(st.lists(st.tuples(st.sampled_from(xs), y_values), min_size=1, max_size=6))
        pts += [(x, draw(y_values)) for x in ends]
        return build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pts], r)

    a = curve(pool)
    lo, hi = a.x_range
    relation = draw(st.sampled_from(("any", "within", "same ends")))
    if relation == "within":  # above a's low end, up to its high end
        return a, curve([x for x in pool if lo < x <= hi] or [lo])
    if relation == "same ends":
        return a, curve([x for x in pool if lo <= x <= hi], lo, hi)
    return a, curve(pool)


ANY_FLOAT = st.floats() | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0))


@st.composite
def interp_inputs(draw):
    """``(x, xp, fp)`` float64 arrays for an interpolation: ``xp`` sorted,
    with repeated values, ``-0.0`` and infinities; ``x`` and ``fp`` any
    floats, nan included, so ``x`` may lie outside ``xp``."""
    values = draw(st.lists(ANY_FLOAT.filter(lambda v: not math.isnan(v)), min_size=1, max_size=6))
    xp = sorted(values + draw(st.lists(st.sampled_from(values), max_size=3)))
    fp = draw(st.lists(ANY_FLOAT, min_size=len(xp), max_size=len(xp)))
    x = draw(st.lists(ANY_FLOAT, min_size=1, max_size=8))
    return np.array(x), np.array(xp), np.array(fp)


class TestCurveSimilarity:
    def test_identical_curves_score_exactly_one(self):
        curve = build_curve([FlowFeatures(nbps=3, nbpp=1), FlowFeatures(nbps=9, nbpp=4)], 16)
        assert curve_similarity(curve, curve) == 1.0

    def test_flat_zero_vs_flat_one_scores_zero(self):
        a = build_curve([FlowFeatures(nbps=0, nbpp=1), FlowFeatures(nbps=0, nbpp=2)], 8)
        b = build_curve([FlowFeatures(nbps=1, nbpp=1), FlowFeatures(nbps=1, nbpp=2)], 8)
        assert curve_similarity(a, b) == 0.0

    def test_disjoint_ranges_score_zero(self):
        a = build_curve([FlowFeatures(nbps=5, nbpp=1), FlowFeatures(nbps=5, nbpp=2)], 8)
        b = build_curve([FlowFeatures(nbps=5, nbpp=5), FlowFeatures(nbps=5, nbpp=9)], 8)
        assert curve_similarity(a, b) == 0.0

    def test_both_all_zero_scores_one(self):
        a = build_curve([FlowFeatures(nbps=0, nbpp=1), FlowFeatures(nbps=0, nbpp=2)], 8)
        assert curve_similarity(a, a) == 1.0

    def test_degenerate_pair_compares_constants(self):
        a = build_curve([FlowFeatures(nbps=100, nbpp=5)], 8)
        b = build_curve([FlowFeatures(nbps=90, nbpp=50)], 8)  # disjoint x, both degenerate
        assert curve_similarity(a, b) == pytest.approx(0.9)

    def test_degenerate_vs_curve_uses_curve_range(self):
        flat = build_curve([FlowFeatures(nbps=10, nbpp=100)], 8)
        line = build_curve([FlowFeatures(nbps=10, nbpp=1), FlowFeatures(nbps=10, nbpp=2)], 8)
        assert curve_similarity(flat, line) == 1.0

    def test_mismatched_resolution_raises(self):
        a = build_curve([FlowFeatures(nbps=1, nbpp=1)], 8)
        b = build_curve([FlowFeatures(nbps=1, nbpp=1)], 16)
        with pytest.raises(MismatchedR):
            curve_similarity(a, b)

    @given(st.lists(st.tuples(st.floats(1, 1e4), st.floats(0, 1e6)), min_size=1, max_size=10),
           st.lists(st.tuples(st.floats(1, 1e4), st.floats(0, 1e6)), min_size=1, max_size=10))
    def test_symmetric_and_bounded(self, pa, pb):
        a = build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pa], 16)
        b = build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pb], 16)
        sab, sba = curve_similarity(a, b), curve_similarity(b, a)
        assert abs(sab - sba) <= 1e-12
        assert 0.0 <= sab <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300)
    @given(curve_pairs())
    def test_same_float_as_the_numpy_reference(self, pair):
        for a, b in (pair, pair[::-1]):
            got, want = curve_similarity(a, b), reference_similarity(a, b)
            # subnormal nbpp spans overflow build_curve's slopes; both then give nan
            assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize(
        "relation",
        [
            lambda a, b: a.x_range == b.x_range,
            lambda a, b: a.x_range[0] < b.x_range[0] < b.x_range[1] <= a.x_range[1],
        ],
        ids=["equal", "contained"],
    )
    def test_curve_pairs_draw_ranges_scored_on_their_own_samples(self, relation):
        # the pairs whose sides curve_similarity scores without resampling
        generate_only = settings(max_examples=1000, phases=[Phase.generate], database=None)
        find(curve_pairs(), lambda p: not p[0].degenerate and relation(*p), settings=generate_only)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300)
    @given(curve_pairs())
    def test_samples_are_their_own_resampling(self, pair):
        for c in pair:
            r = len(c.ys)
            resampled = np.interp(similarity._linspace(*c.x_range, r), c.xs, c.ys)
            assert resampled.tobytes() == c.ys.tobytes()
            assert c.peak == c.ys.max() or (math.isnan(c.peak) and math.isnan(c.ys.max()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=500)
    @given(curve_pairs(WIDE_Y_VALUES), st.one_of(st.sampled_from((0.0, 0.85, 1.0)), st.floats(0, 1)))
    def test_the_limit_never_changes_a_decision(self, pair, threshold):
        for a, b in (pair, pair[::-1]):
            exact, limited = curve_similarity(a, b), curve_similarity(a, b, threshold)
            assert (limited >= threshold) == (exact >= threshold)
            if exact >= threshold:
                assert struct.pack("<d", limited) == struct.pack("<d", exact)

    def test_the_envelope_bound_skips_resampling(self, monkeypatch):
        # ranges 1-4 and 2-6 overlap in part; a's samples lie in [10, 40],
        # b's in [60, 100], so neither side keeps its own samples
        a = build_curve([FlowFeatures(nbps=10, nbpp=1), FlowFeatures(nbps=40, nbpp=4)], 8)
        b = build_curve([FlowFeatures(nbps=60, nbpp=2), FlowFeatures(nbps=100, nbpp=6)], 8)
        exact = reference_similarity(a, b)
        assert curve_similarity(a, b) == exact
        bound = 1.0 - (b.floor - a.peak) / max(a.peak, b.peak)
        assert exact < bound < 0.85

        def no_resampling(*args):
            raise AssertionError("resampled a pair the envelope bound rules out")

        monkeypatch.setattr(similarity, "_interp", no_resampling)
        monkeypatch.setattr(similarity, "_linspace", no_resampling)
        assert curve_similarity(a, b, 0.85) == bound
        assert curve_similarity(b, a, 0.85) == bound

    def test_the_mean_bound_skips_resampling(self, monkeypatch):
        # a constant 90 lies inside line's envelope [0, 100] but far from its
        # mean, 17.9: both keep their samples, and the means' distance bounds
        # the score
        flat = build_curve([FlowFeatures(nbps=90, nbpp=5)], 8)
        line = build_curve([FlowFeatures(nbps=100, nbpp=1), FlowFeatures(nbps=0, nbpp=1.5),
                            FlowFeatures(nbps=0, nbpp=3)], 8)
        # spike's samples on its own range 2-8 lie in [0, 100] around the
        # flat 50 of wide, which is resampled there
        spike = build_curve([FlowFeatures(nbps=0, nbpp=2), FlowFeatures(nbps=0, nbpp=7.5),
                             FlowFeatures(nbps=100, nbpp=8)], 8)
        wide = build_curve([FlowFeatures(nbps=50, nbpp=0), FlowFeatures(nbps=50, nbpp=10)], 8)
        bounds = {
            (flat, line): 1.0 - (flat.mean - line.mean) / line.peak,
            (spike, wide): 1.0 - (wide.floor - spike.mean) / spike.peak,
        }
        for (a, b), bound in bounds.items():
            # one envelope holds the other, so the envelope bound rules out nothing
            assert b.floor <= a.floor <= a.peak <= b.peak or a.floor <= b.floor <= b.peak <= a.peak
            exact = reference_similarity(a, b)
            assert curve_similarity(a, b) == exact
            assert exact < bound < 0.85

        def no_resampling(*args):
            raise AssertionError("resampled a pair the mean bound rules out")

        monkeypatch.setattr(similarity, "_interp", no_resampling)
        monkeypatch.setattr(similarity, "_linspace", no_resampling)
        for (a, b), bound in bounds.items():
            assert curve_similarity(a, b, 0.85) == bound
            assert curve_similarity(b, a, 0.85) == bound

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_mean_whose_sum_overflows_leaves_the_envelope(self):
        # huge's two samples sum past float max, so its mean is inf; its
        # envelope, a point, still bounds the score, which is 0.88
        huge = build_curve([FlowFeatures(nbps=1e308, nbpp=5)], 2)
        near = build_curve([FlowFeatures(nbps=0.86e308, nbpp=1), FlowFeatures(nbps=0.9e308, nbpp=2)], 2)
        assert huge.mean == math.inf and near.mean == 0.88e308
        exact = curve_similarity(huge, near)
        assert exact >= 0.85
        assert curve_similarity(huge, near, 0.85) == exact
        assert curve_similarity(near, huge, 0.85) == exact

    def test_a_score_rounded_above_its_bound_is_kept(self):
        # the mean of three equal gaps rounds below the gap, so the score
        # lies just above its own bound: the margin keeps it
        a = build_curve([FlowFeatures(nbps=545.8915783827468, nbpp=1)], 3)
        b = build_curve([FlowFeatures(nbps=45.05012434929634, nbpp=1)], 3)
        exact = curve_similarity(a, b)
        assert exact > 1.0 - (a.floor - b.peak) / a.peak
        assert curve_similarity(a, b, exact) == exact

    def test_negative_samples_take_the_exact_path(self):
        # nbps is never negative, but a curve may be built from any points:
        # a's samples on the overlap (1-2) stay below 0 although its peak
        # is 5, and the score there is far above the envelope bound's 0.6
        a = build_curve([FlowFeatures(nbps=-1, nbpp=1), FlowFeatures(nbps=-0.5, nbpp=2),
                         FlowFeatures(nbps=5, nbpp=9)], 8)
        b = build_curve([FlowFeatures(nbps=-3, nbpp=1), FlowFeatures(nbps=-3, nbpp=2)], 8)
        exact = curve_similarity(a, b)
        assert exact >= 0.85
        assert curve_similarity(a, b, 0.85) == exact

    @given(X_VALUES, X_VALUES, st.sampled_from((1, 2, 3, 32)))
    def test_positions_are_linspace_bit_for_bit(self, x, y, r):
        lo, hi = sorted((x, y))
        assert similarity._linspace(lo, hi, r).tobytes() == np.linspace(lo, hi, r).tobytes()

    def test_interp_is_the_function_np_interp_calls(self, monkeypatch):
        # np.interp's module: a numpy that moves it fails here rather than
        # letting similarity call some other function
        major = int(np.__version__.split(".")[0])
        impl = importlib.import_module(
            "numpy.lib._function_base_impl" if major >= 2 else "numpy.lib.function_base"
        )
        assert similarity._interp is impl.compiled_interp
        calls = []

        def spy(*args):
            calls.append(args)
            return similarity._interp(*args)

        monkeypatch.setattr(impl, "compiled_interp", spy)
        x, xp, fp = np.array([0.5]), np.array([0.0, 1.0]), np.array([2.0, 4.0])
        assert np.interp(x, xp, fp).tolist() == [3.0]
        assert calls == [(x, xp, fp, None, None)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300)
    @given(interp_inputs())
    @example((np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, np.nan]),
              np.array([-0.0, 0.0, 0.0, 1.0, 1.0]),
              np.array([1.0, -0.0, np.nan, np.inf, -np.inf])))
    @example((np.array([0.0, 2.0]), np.array([-np.inf, 1.0, np.inf]), np.array([1.0, 2.0, 3.0])))
    def test_interp_is_np_interp_bit_for_bit(self, args):
        assert similarity._interp(*args).tobytes() == np.interp(*args).tobytes()

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(st.floats(1, 1e3), st.floats(0.1, 1e4)), min_size=2, max_size=8),
        st.lists(st.tuples(st.floats(1, 1e3), st.floats(0.1, 1e4)), min_size=2, max_size=8),
        st.floats(1e-3, 1e3),
    )
    def test_scale_covariance(self, pa, pb, k):
        a = build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pa], 16)
        b = build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pb], 16)
        ka = build_curve([FlowFeatures(nbps=y * k, nbpp=x) for x, y in pa], 16)
        kb = build_curve([FlowFeatures(nbps=y * k, nbpp=x) for x, y in pb], 16)
        assert curve_similarity(a, b) == pytest.approx(curve_similarity(ka, kb), abs=1e-9)


def brute_force_clusters(groups, threshold, resample_points):
    """Independent oracle: explicit similarity matrix plus DFS components."""
    curves = {g.key: build_curve(g.points, resample_points) for g in groups}
    adjacent = {g.key: set() for g in groups}
    for a, b in combinations(groups, 2):
        if curve_similarity(curves[a.key], curves[b.key]) >= threshold:
            adjacent[a.key].add(b.key)
            adjacent[b.key].add(a.key)
    seen, components = set(), []
    for g in groups:
        if g.key in seen:
            continue
        stack, comp = [g.key], set()
        while stack:
            key = stack.pop()
            if key in comp:
                continue
            comp.add(key)
            stack.extend(adjacent[key] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return set(components)


@st.composite
def cluster_inputs(draw):
    """Groups mixing curves, degenerate and all-zero curves, and identical
    copies, at nbps magnitudes from 1e-3 to 1e9; plus a threshold.  Some
    nbpp values come from a shared pool, so ranges touch or coincide."""
    pool = draw(st.lists(st.floats(1, 100), min_size=1, max_size=3))
    shapes = []
    for _ in range(draw(st.integers(1, 10))):
        if shapes and draw(st.integers(0, 3)) == 0:
            shapes.append(draw(st.sampled_from(shapes)))
            continue
        kind = draw(st.sampled_from(("curve", "degenerate", "zero")))
        n = draw(st.integers(1, 3) if kind == "degenerate" else st.integers(2, 5))
        xs = draw(st.lists(st.floats(1, 100) | st.sampled_from(pool), min_size=n, max_size=n))
        if kind == "degenerate":
            xs = xs[:1] * n
        scale = draw(st.sampled_from((1e-3, 1.0, 1e3, 1e6, 1e9)))
        levels = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        ys = [0.0] * n if kind == "zero" else [level * scale for level in levels]
        shapes.append(tuple(zip(xs, ys)))
    groups = [
        group(f"g{i:02d}", f"10.0.0.{draw(st.integers(1, 4))}", *pts)
        for i, pts in enumerate(shapes)
    ]
    threshold = draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1)))
    return groups, threshold, draw(st.sampled_from((2, 8, 32)))


def count_scores(monkeypatch) -> list[float]:
    """Record every score ``cluster_groups`` computes."""
    scores: list[float] = []

    def counting(a, b, at_least=-math.inf):
        scores.append(curve_similarity(a, b))
        return scores[-1]

    monkeypatch.setattr(similarity, "curve_similarity", counting)
    return scores


def is_candidate(a, b, threshold) -> bool:
    """Whether a pair can link: a non-positive threshold, a degenerate side,
    or overlapping ranges (disjoint ranges score exactly 0)."""
    if threshold <= 0.0 or a.degenerate or b.degenerate:
        return True
    return max(a.x_range[0], b.x_range[0]) <= min(a.x_range[1], b.x_range[1])


def scored_pairs(groups, threshold, resample_points) -> list[tuple]:
    """The ``(key_i, key_j, score)`` of every pair ``cluster_groups`` scores, in order."""
    key_of_points = {id(g.points): g.key for g in groups}
    key_of_curve: dict[int, tuple] = {}
    scored: list[tuple] = []

    def building(points, r):
        curve = build_curve(points, r)
        key_of_curve[id(curve)] = key_of_points[id(points)]
        return curve

    def scoring(a, b, at_least=-math.inf):
        scored.append((key_of_curve[id(a)], key_of_curve[id(b)], curve_similarity(a, b)))
        return scored[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(similarity, "build_curve", building)
        mp.setattr(similarity, "curve_similarity", scoring)
        cluster_groups(groups, threshold, resample_points)
    return scored


class TestClusterGroups:
    def test_three_identical_one_apart(self):
        g1 = group("g1", "10.0.0.1", (1, 10), (2, 20))
        g2 = group("g2", "10.0.0.2", (1, 10), (2, 20))
        g3 = group("g3", "10.0.0.3", (1, 10), (2, 20))
        g4 = group("g4", "10.0.0.4", (50, 999), (60, 999))
        clusters = cluster_groups([g4, g2, g1, g3], 0.85, 8)
        key_sets = [set(k.name for k in c.group_keys) for c in clusters]
        assert key_sets == [{"g1", "g2", "g3"}, {"g4"}]

    def test_single_group_is_singleton_cluster(self):
        clusters = cluster_groups([group("g", "10.0.0.1", (1, 1))], 0.85, 8)
        assert len(clusters) == 1 and len(clusters[0].group_keys) == 1

    def test_chain_links_transitively(self):
        # constant levels 100 / 90 / 81: adjacent pairs ~0.9, ends at 0.81 < threshold
        g1 = constant_group("g1", "10.0.0.1", 100.0)
        g2 = constant_group("g2", "10.0.0.2", 90.0)
        g3 = constant_group("g3", "10.0.0.3", 81.0)
        c12 = curve_similarity(build_curve(g1.points, 8), build_curve(g2.points, 8))
        c23 = curve_similarity(build_curve(g2.points, 8), build_curve(g3.points, 8))
        c13 = curve_similarity(build_curve(g1.points, 8), build_curve(g3.points, 8))
        assert c12 == pytest.approx(0.9) and c23 == pytest.approx(0.9)
        assert c13 == pytest.approx(0.81) and c13 < 0.85
        clusters = cluster_groups([g1, g2, g3], 0.85, 8)
        assert len(clusters) == 1 and len(clusters[0].group_keys) == 3

    def test_matches_brute_force_oracle(self):
        from botdetect.synth import Xorshift64Star

        rng = Xorshift64Star(77)
        groups = []
        for i in range(20):
            host = f"10.0.0.{rng.randint(12) + 1}"
            base_x = rng.uniform(1, 50)
            level = rng.uniform(1, 1000)
            pts = [
                (base_x + rng.uniform(0, 10), level * (1 + rng.uniform(-0.2, 0.2)))
                for _ in range(1 + rng.randint(4))
            ]
            groups.append(group(f"g{i:02d}", host, *pts))
        expected = brute_force_clusters(groups, 0.85, 16)
        got = {frozenset(c.group_keys) for c in cluster_groups(groups, 0.85, 16)}
        assert got == expected

    @settings(max_examples=200)
    @given(cluster_inputs())
    def test_matches_brute_force_oracle_on_any_input(self, case):
        groups, threshold, r = case
        got = {frozenset(c.group_keys) for c in cluster_groups(groups, threshold, r)}
        assert got == brute_force_clusters(groups, threshold, r)

    @settings(max_examples=200)
    @given(cluster_inputs())
    def test_scores_each_pair_at_most_once_lower_key_first(self, case):
        pairs = [(a, b) for a, b, _ in scored_pairs(*case)]
        assert len(set(pairs)) == len(pairs)
        assert all(a < b for a, b in pairs)

    @settings(max_examples=200)
    @given(cluster_inputs())
    def test_each_scored_pair_spans_two_components_at_its_turn(self, case):
        groups, threshold, _ = case
        # each key's component, as the set of keys in it, shared by its members
        component = {g.key: {g.key} for g in groups}
        for a, b, score in scored_pairs(*case):
            assert component[a] is not component[b]
            if score >= threshold:
                joined = component[a] | component[b]
                for key in joined:
                    component[key] = joined

    @settings(max_examples=200)
    @given(cluster_inputs())
    def test_scores_every_candidate_pair_that_ends_in_two_clusters(self, case):
        groups, threshold, r = case
        scored = {(a, b) for a, b, _ in scored_pairs(*case)}
        cluster_of = {k: c for c in cluster_groups(*case) for k in c.group_keys}
        curves = {g.key: build_curve(g.points, r) for g in groups}
        for a, b in combinations(sorted(curves), 2):
            if cluster_of[a] != cluster_of[b] and is_candidate(curves[a], curves[b], threshold):
                assert (a, b) in scored

    @settings(max_examples=100)
    @given(cluster_inputs(), st.data())
    def test_scores_the_same_sequence_under_any_input_order(self, case, data):
        groups, threshold, r = case
        permuted = data.draw(st.permutations(groups))
        assert scored_pairs(permuted, threshold, r) == scored_pairs(groups, threshold, r)

    @settings(max_examples=100)
    @given(cluster_inputs())
    def test_scores_the_same_sequence_whatever_the_block(self, case):
        want = scored_pairs(*case)
        for block in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(similarity, "_BLOCK_PAIRS", block)
                assert scored_pairs(*case) == want

    def test_identical_groups_scored_once_each_but_the_first(self, monkeypatch):
        scores = count_scores(monkeypatch)
        k = 7
        groups = [group(f"g{i}", f"10.0.0.{i + 1}", (1, 10), (2, 20)) for i in range(k)]
        assert len(cluster_groups(groups, 0.85, 8)) == 1
        assert len(scores) == k - 1

    @pytest.mark.parametrize("spec", sorted(SCENARIO_DIR.glob("*.spec")), ids=lambda p: p.stem)
    def test_every_linking_score_joins_two_clusters(self, monkeypatch, spec):
        cfg = default_config()
        flows = FlowTable.from_records(generate(parse_scenario(spec.read_text()))[0])
        scores = count_scores(monkeypatch)
        for streams in window_streams(flows, EMPTY_WHITELIST, cfg):
            for path in BotPath:
                groups, _ = group_path(path, streams, cfg)
                scores.clear()
                clusters = cluster_groups(groups, cfg.similarity_threshold, cfg.resample_points)
                linked = sum(score >= cfg.similarity_threshold for score in scores)
                assert linked == len(groups) - len(clusters)

    def test_every_group_in_exactly_one_cluster(self):
        groups = [constant_group(f"g{i}", f"10.0.0.{i + 1}", 10.0 * (i + 1)) for i in range(9)]
        clusters = cluster_groups(groups, 0.9, 8)
        seen = [k for c in clusters for k in c.group_keys]
        assert sorted(k.name for k in seen) == sorted(g.key.name for g in groups)

    def test_permutation_invariance(self):
        from botdetect.synth import Xorshift64Star

        groups = [
            group("a", "10.0.0.2", (1, 10), (3, 30)),
            group("b", "10.0.0.1", (1, 11), (3, 29)),
            group("c", "10.0.0.9", (100, 5)),
            group("d", "10.0.0.4", (2, 500), (4, 450)),
        ]
        base = cluster_groups(groups, 0.85, 16)
        rng = Xorshift64Star(3)
        order = list(groups)
        for _ in range(10):
            for i in range(len(order) - 1, 0, -1):
                j = rng.randint(i + 1)
                order[i], order[j] = order[j], order[i]
            assert cluster_groups(order, 0.85, 16) == base

    def test_hosts_are_union_of_members_in_canonical_order(self):
        g1 = group("g1", "10.0.0.10", (1, 10), (2, 20))
        g2 = group("g2", "10.0.0.2", (1, 10), (2, 20))
        clusters = cluster_groups([g1, g2], 0.85, 8)
        assert [str(h) for h in clusters[0].hosts] == ["10.0.0.2", "10.0.0.10"]

    def test_threshold_zero_joins_disjoint_ranges(self):
        g1 = group("g1", "10.0.0.1", (1, 5), (2, 5))
        g2 = group("g2", "10.0.0.2", (70, 5), (90, 5))
        clusters = cluster_groups([g1, g2], 0.0, 8)
        assert len(clusters) == 1


def mixed_curves() -> list:
    """Sixty curves: degenerate, all-zero, copied and overlapping ones."""
    from botdetect.synth import Xorshift64Star

    rng = Xorshift64Star(12)
    shapes = []
    for k in range(60):
        lo = rng.uniform(1, 40)
        if k % 5 == 0:
            shapes.append([(lo, rng.uniform(1, 1000))])
        elif k % 7 == 0:
            shapes.append([(lo, 0.0), (lo + 5, 0.0)])
        elif k % 11 == 0:
            shapes.append(shapes[-1])
        else:
            hi = lo + rng.uniform(1, 30)
            shapes.append([(lo, rng.uniform(1, 1000)), (hi, rng.uniform(1, 1000))])
    return [build_curve([FlowFeatures(nbps=y, nbpp=x) for x, y in pts], 8) for pts in shapes]


@pytest.mark.parametrize("threshold", [0.0, 0.85])
def test_candidate_pairs_yields_each_candidate_once_rank_neighbours_first(threshold):
    curves = mixed_curves()
    n = len(curves)
    candidates = {
        (i, j) for i, j in combinations(range(n), 2) if is_candidate(curves[i], curves[j], threshold)
    }
    pairs = list(similarity._candidate_pairs(curves, threshold, np.arange(len(curves))))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == candidates
    assert all(type(i) is int and type(j) is int and i < j for i, j in pairs)
    rank = sorted(range(n), key=lambda k: (curves[k].floor, curves[k].peak))
    position = {k: p for p, k in enumerate(rank)}
    # by rank distance, then by rank position
    order = [(abs(position[i] - position[j]), min(position[i], position[j])) for i, j in pairs]
    assert order == sorted(order)


def relabelling_walk(curves, threshold) -> tuple[list, int]:
    """The pairs ``_candidate_pairs`` yields to a caller that relabels
    ``component`` as it links, as ``cluster_groups`` does, kept when their
    labels differ on arrival; and how many were dropped by that check."""
    label = list(range(len(curves)))
    component = np.arange(len(curves))
    members = [[k] for k in label]
    kept, dropped = [], 0
    for i, j in similarity._candidate_pairs(curves, threshold, component):
        if label[i] == label[j]:
            dropped += 1
            continue
        kept.append((i, j))
        if curve_similarity(curves[i], curves[j]) >= threshold:
            into, moved = label[i], label[j]
            for k in members[moved]:
                label[k] = into
            component[members[moved]] = into
            members[into] += members[moved]
            members[moved] = []
    return kept, dropped


@pytest.mark.parametrize("threshold", [0.0, 0.5, 0.85])
def test_candidate_pairs_come_in_the_same_order_whatever_the_block(monkeypatch, threshold):
    curves = mixed_curves()
    # rank distance 1 alone holds more pairs than a block of 7
    assert len(curves) - 1 > 7
    plain = list(similarity._candidate_pairs(curves, threshold, np.arange(len(curves))))
    relabelled, dropped = relabelling_walk(curves, threshold)
    # at the default every pair is in one block, so pairs joined in it still come
    assert len(curves) * (len(curves) - 1) // 2 <= similarity._BLOCK_PAIRS
    assert dropped > 0
    for block in (1, 7):
        monkeypatch.setattr(similarity, "_BLOCK_PAIRS", block)
        assert list(similarity._candidate_pairs(curves, threshold, np.arange(len(curves)))) == plain
        assert relabelling_walk(curves, threshold)[0] == relabelled


@pytest.mark.parametrize("n", [0, 1])
def test_candidate_pairs_of_fewer_than_two_curves_is_empty(n):
    curves = [build_curve([FlowFeatures(nbps=5.0, nbpp=2.0)], 8)] * n
    assert list(similarity._candidate_pairs(curves, 0.85, np.arange(len(curves)))) == []


def test_candidate_pairs_memory_is_linear_in_the_curves():
    import tracemalloc

    def peak(n):
        curves = [build_curve([FlowFeatures(nbps=float(k), nbpp=1.0)], 4) for k in range(n)]
        tracemalloc.start()
        try:
            for _ in similarity._candidate_pairs(curves, 0.85, np.arange(len(curves))):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # degenerate curves reach every range, so every pair is a candidate
    small, large = peak(250), peak(1000)
    assert large < 1_000_000
    # 4x the curves: 4x is linear, 16x quadratic (above 4x here because
    # indices below 256 are Python's shared small ints, later ones are not)
    assert large <= 6 * small


# Pairs ``detect`` scores at seed 1.  In index order (each row's candidates
# by ascending key) it scored 9,407 and 23,666; rank neighbours first, these.
@pytest.mark.parametrize("workload, most", [("scan_mix", 6225), ("wide_window", 1888)])
def test_rank_neighbours_first_bounds_the_pairs_scored(monkeypatch, workload, most):
    cfg = default_config()
    work = bench_workloads(monkeypatch)[workload]
    flows = parse_flow_file(write_flow_file(generate(work.make_spec(1, 1.0))[0]))
    whitelist = parse_whitelist("".join(f"{dip}\n" for dip in work.whitelist(flows)))
    scores = count_scores(monkeypatch)
    for streams in window_streams(flows, whitelist, cfg):
        for path in BotPath:
            path_clusters(path, streams, cfg)
    assert len(scores) <= most
