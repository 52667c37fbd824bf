"""Flow-shape similarity: features, curves, the similarity score, clustering.

Each flow reduces to two features: average bytes per second (nbps) and
average bytes per packet (nbpp).  A group of flows sharing a key becomes a
piecewise-linear curve of nbps over nbpp, resampled at a fixed number of
positions.  Two curves are compared on the overlap of their nbpp ranges
with a max-normalized mean absolute deviation:

    score = 1 - mean_i |ya_i - yb_i| / M,   M = max of both resampled curves

so the score is symmetric, lies in [0, 1], and is invariant under scaling
both curves by a common positive factor.  Groups whose curves score at or
above a threshold are linked, and clusters are the connected components of
that graph (single linkage).

A group whose points all share one nbpp value yields a degenerate constant
curve.  Degenerate curves are not discarded: they contribute their constant
everywhere, so short-lived hosts still participate in clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import NamedTuple

import numpy as np

from .model import FlowRecord


class ZeroPackets(ValueError):
    pass


class EmptyGroup(ValueError):
    pass


class MismatchedR(ValueError):
    pass


class FlowFeatures(NamedTuple):
    """Derived features of one flow, in curve order: x = nbpp, y = nbps."""

    nbpp: float
    nbps: float


def flow_features(rec: FlowRecord, duration_floor: float) -> FlowFeatures:
    """nbps = nbytes / max(duration, floor); nbpp = nbytes / npkts.

    The duration floor keeps single-packet (zero-duration) flows finite.
    Raises :class:`ZeroPackets` when npkts is 0.
    """
    if rec.npkts < 1:
        raise ZeroPackets(f"flow has npkts={rec.npkts}; features undefined")
    nbps = rec.nbytes / max(rec.duration, duration_floor)
    nbpp = rec.nbytes / rec.npkts
    return FlowFeatures(nbps=nbps, nbpp=nbpp)


@dataclass(frozen=True)
class FlowGroup:
    """Feature points of all flows sharing one grouping key.

    The key is a tuple whose field order is its canonical sort order, and
    whose ``sip`` is the group's one host.
    """

    key: tuple
    points: tuple[FlowFeatures, ...]


@dataclass(frozen=True, eq=False)
class Curve:
    """A group's resampled nbps-over-nbpp polyline.

    ``xs``/``ys`` are read-only float64 arrays of equal length;
    ``x_range`` is the (min, max) nbpp of the source points.  A curve is
    ``degenerate`` when that range is one point; ``peak`` is the max of
    ``ys`` (nan if any sample is nan).
    """

    xs: np.ndarray
    ys: np.ndarray
    x_range: tuple[float, float]
    degenerate: bool
    peak: float

    @property
    def resample_points(self) -> int:
        return len(self.xs)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_curve(points: list[FlowFeatures] | tuple[FlowFeatures, ...], resample_points: int) -> Curve:
    """Build a curve from feature points.

    Points are sorted by nbpp; points sharing an nbpp value are replaced by
    their mean nbps.  With two or more distinct nbpp values the polyline is
    resampled at ``resample_points`` evenly spaced positions across
    [min nbpp, max nbpp]; with exactly one it degenerates to a constant.
    """
    if not points:
        raise EmptyGroup("cannot build a curve from zero points")
    ordered = sorted(points)
    xs: list[float] = []
    ys: list[float] = []
    i = 0
    while i < len(ordered):
        j = i
        total = 0.0
        while j < len(ordered) and ordered[j].nbpp == ordered[i].nbpp:
            total += ordered[j].nbps
            j += 1
        xs.append(ordered[i].nbpp)
        ys.append(total / (j - i))
        i = j
    lo, hi = xs[0], xs[-1]
    if len(xs) == 1:
        sample_xs = np.full(resample_points, lo)
        sample_ys = np.full(resample_points, ys[0])
    else:
        sample_xs = np.linspace(lo, hi, resample_points)
        sample_ys = np.interp(sample_xs, np.asarray(xs), np.asarray(ys))
    return Curve(
        xs=_readonly(sample_xs),
        ys=_readonly(sample_ys),
        x_range=(lo, hi),
        degenerate=lo == hi,
        peak=float(np.maximum.reduce(sample_ys)),
    )


def curve_similarity(a: Curve, b: Curve) -> float:
    """Score two curves in [0, 1]; 1.0 means identical on the overlap.

    Non-degenerate curves with disjoint nbpp ranges score 0.  A degenerate
    curve contributes its constant across the other curve's range.  When
    both curves are everywhere zero the score is defined as 1.0.
    """
    r = len(a.ys)
    if len(b.ys) != r:
        raise MismatchedR(f"curves resampled at different resolutions: {r} vs {len(b.ys)}")
    if a.degenerate:
        lo, hi = (0.0, 0.0) if b.degenerate else b.x_range
    elif b.degenerate:
        lo, hi = a.x_range
    else:
        lo = max(a.x_range[0], b.x_range[0])
        hi = min(a.x_range[1], b.x_range[1])
        if hi < lo:
            return 0.0
    # A side scored on its own range keeps its samples: _linspace rebuilds
    # its xs bit for bit, np.interp returns fp[j] where x == xp[j], and a
    # degenerate curve's ys is already its constant.
    positions = None
    if a.degenerate or a.x_range == (lo, hi):
        ya, peak_a = a.ys, a.peak
    else:
        positions = _linspace(lo, hi, r)
        ya = np.interp(positions, a.xs, a.ys)
        peak_a = np.maximum.reduce(ya)
    if b.degenerate or b.x_range == (lo, hi):
        yb, peak_b = b.ys, b.peak
    else:
        if positions is None:
            positions = _linspace(lo, hi, r)
        yb = np.interp(positions, b.xs, b.ys)
        peak_b = np.maximum.reduce(yb)
    peak = float(max(peak_a, peak_b))
    if peak == 0.0:
        return 1.0
    # the same pairwise sum and division as np.mean, without its dispatch
    return float(1.0 - float(np.add.reduce(np.abs(ya - yb)) / r) / peak)


def _linspace(lo: float, hi: float, r: int) -> np.ndarray:
    """``np.linspace(lo, hi, r)`` bit for bit, without its per-call overhead."""
    if r < 2:
        return np.linspace(lo, hi, r)
    # as in linspace, subtract the ends as float64 (two int ends would subtract exactly)
    delta = float(hi) - float(lo)
    step = delta / (r - 1)
    if step == 0.0:
        # linspace's own branch for a zero or underflowed step
        positions = np.arange(r, dtype=np.float64) / (r - 1) * delta
    else:
        positions = np.arange(r, dtype=np.float64) * step
    positions += lo
    positions[-1] = hi
    return positions


@dataclass(frozen=True)
class SimilarityCluster:
    """A connected component of mutually similar groups."""

    group_keys: tuple
    hosts: tuple[IPv4Address, ...]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def cluster_groups(
    groups: list[FlowGroup], threshold: float, resample_points: int
) -> list[SimilarityCluster]:
    """Single-linkage clustering of groups at the similarity threshold.

    Output is canonical: clusters ordered by (smallest member host, smallest
    key), keys and hosts sorted within each cluster — invariant under any
    permutation of the input.
    """
    ordered = sorted(groups, key=lambda g: g.key)
    curves = [build_curve(g.points, resample_points) for g in ordered]
    # Below a positive threshold, disjoint non-degenerate ranges score
    # exactly 0 and cannot link, so a pair is scored only if its ranges
    # overlap.  A degenerate curve reaches every range, and at a threshold
    # of 0 or less every curve does.
    spans = [(-np.inf, np.inf) if c.degenerate or threshold <= 0.0 else c.x_range for c in curves]
    lows, highs = np.array(spans, dtype=np.float64).reshape(-1, 2).T
    uf = _UnionFind(len(ordered))
    for i in range(len(ordered)):
        rest = slice(i + 1, len(ordered))
        overlap = (lows[rest] <= highs[i]) & (highs[rest] >= lows[i])
        root = uf.find(i)  # changes only when row i links
        for j in (np.flatnonzero(overlap) + (i + 1)).tolist():
            if uf.find(j) == root:
                # already joined: single linkage keeps only the components
                continue
            if curve_similarity(curves[i], curves[j]) >= threshold:
                uf.union(i, j)
                root = uf.find(i)
    components: dict[int, list[FlowGroup]] = {}
    for idx, group in enumerate(ordered):
        components.setdefault(uf.find(idx), []).append(group)
    clusters = []
    for comp in components.values():
        keys = tuple(sorted(g.key for g in comp))
        hosts = tuple(sorted({k.sip for k in keys}))
        clusters.append(SimilarityCluster(group_keys=keys, hosts=hosts))
    clusters.sort(key=lambda c: (c.hosts[0], c.group_keys[0]))
    return clusters
