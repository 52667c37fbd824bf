from __future__ import annotations

from ipaddress import IPv4Address
from itertools import combinations
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from botdetect.similarity import (
    EmptyGroup,
    FlowFeatures,
    FlowGroup,
    MismatchedR,
    ZeroPackets,
    build_curve,
    cluster_groups,
    curve_similarity,
    flow_features,
)

from .conftest import make_flow


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

    def test_matches_one_line_recomputation(self):
        from botdetect.synth import Xorshift64Star

        rng = Xorshift64Star(5)
        for _ in range(10_000):
            nbytes = rng.randint(10**6)
            npkts = 1 + rng.randint(10**4)
            duration = rng.uniform(0.0, 100.0)
            f = flow_features(make_flow(nbytes=nbytes, duration=duration, npkts=npkts), 0.001)
            assert f.nbps == nbytes / max(duration, 0.001)
            assert f.nbpp == nbytes / npkts


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
