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

import math
import sys
from dataclasses import dataclass
from functools import partial
from ipaddress import IPv4Address
from itertools import repeat
from operator import attrgetter, gt, truediv
from typing import Iterator, NamedTuple

import numpy as np

from .model import FlowRecord


# the normal range of a float64: below it the relative rounding error is unbounded
_SMALLEST_NORMAL, _LARGEST = sys.float_info.min, sys.float_info.max


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


_new_features = partial(tuple.__new__, FlowFeatures)  # FlowFeatures(*fields) without a Python call
_NBYTES, _NPKTS, _DURATION = attrgetter("nbytes"), attrgetter("npkts"), attrgetter("duration")


def batch_features(flows: list[FlowRecord], duration_floor: float) -> list[FlowFeatures]:
    """Each flow's features, in order, computed a column at a time:
    nbps = nbytes / max(duration, floor); nbpp = nbytes / npkts.

    The duration floor keeps single-packet (zero-duration) flows finite.
    Raises :class:`ZeroPackets` for the first flow whose npkts is below 1.
    """
    npkts = list(map(_NPKTS, flows))
    bad = next(filter(partial(gt, 1), npkts), None)  # the first npkts < 1
    if bad is not None:
        raise ZeroPackets(f"flow has npkts={bad}; features undefined")
    nbytes = list(map(_NBYTES, flows))
    nbps = map(truediv, nbytes, map(max, map(_DURATION, flows), repeat(duration_floor)))
    nbpp = map(truediv, nbytes, npkts)
    return list(map(_new_features, zip(nbpp, nbps)))


def flow_features(rec: FlowRecord, duration_floor: float) -> FlowFeatures:
    """One flow's features: the one-row case of :func:`batch_features`."""
    return batch_features([rec], duration_floor)[0]


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
    ``degenerate`` when that range is one point; ``floor`` and ``peak`` are
    the min and max of ``ys`` (nan if any sample is nan), the envelope that
    every resampling of the curve stays within.
    """

    xs: np.ndarray
    ys: np.ndarray
    x_range: tuple[float, float]
    degenerate: bool
    floor: float
    peak: float


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
        sample_xs = _linspace(lo, hi, resample_points)
        sample_ys = np.interp(sample_xs, np.asarray(xs), np.asarray(ys))
    return Curve(
        xs=_readonly(sample_xs),
        ys=_readonly(sample_ys),
        x_range=(lo, hi),
        degenerate=lo == hi,
        floor=float(np.minimum.reduce(sample_ys)),
        peak=float(np.maximum.reduce(sample_ys)),
    )


def curve_similarity(a: Curve, b: Curve, at_least: float = -math.inf) -> float:
    """Score two curves in [0, 1]; 1.0 means identical on the overlap.

    Non-degenerate curves with disjoint nbpp ranges score 0.  A degenerate
    curve contributes its constant across the other curve's range.  When
    both curves are everywhere zero the score is defined as 1.0.

    ``at_least`` is the least score the caller acts on.  Resampling keeps
    each curve within its ``[floor, peak]`` envelope, so the score is at
    most ``1 - gap / top``, with ``gap`` the distance between the two
    envelopes and ``top`` the larger peak.  When that bound is below
    ``at_least`` (by a 1e-9 margin for rounding) it is returned instead
    of the score: a value at or above ``at_least`` is returned exactly
    when the score is, and is then the score itself.  The bound is taken
    only for a normal positive ``top`` and non-negative floors.
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
    # a curve with a nan sample has a nan floor, so such a pair takes the exact path
    top = max(a.peak, b.peak)
    if _SMALLEST_NORMAL <= top <= _LARGEST and a.floor >= 0.0 and b.floor >= 0.0:
        bound = 1.0 - max(a.floor - b.peak, b.floor - a.peak) / top
        if bound < at_least - 1e-9:
            return bound
    # A side scored on its own range keeps its samples: _linspace rebuilds
    # its xs bit for bit, np.interp returns fp[j] where x == xp[j], and a
    # degenerate curve's ys is already its constant.  When only one side
    # keeps its samples it is not degenerate (a degenerate side is scored on
    # the other's range), so its xs are the positions at which the other is
    # resampled.
    own_a = a.degenerate or a.x_range == (lo, hi)
    own_b = b.degenerate or b.x_range == (lo, hi)
    positions = a.xs if own_a else b.xs if own_b else _linspace(lo, hi, r)
    if own_a:
        ya, peak_a = a.ys, a.peak
    else:
        ya = np.interp(positions, a.xs, a.ys)
        peak_a = np.maximum.reduce(ya)
    if own_b:
        yb, peak_b = b.ys, b.peak
    else:
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


# pairs handled at a time, so no per-pair list or temporary spans every pair
_PAIR_BLOCK = 1024


def _likely_links_first(curves: list[Curve], threshold: float) -> Iterator[tuple[int, int]]:
    """The candidate pairs ``i < j``, as ints, nearest by a per-curve
    distance first.

    Below a positive threshold, disjoint non-degenerate ranges score exactly
    0 and cannot link, so a pair is a candidate only if its ranges overlap.
    A degenerate curve reaches every range, and at a threshold of 0 or less
    every curve does.  The distance is the floor gap plus the peak gap over
    the larger peak: 0 when both peaks are 0, and nan (last) when undefined.
    The sort is stable, so ties keep ``(i, j)`` order.
    """
    n = len(curves)
    spans = [(-np.inf, np.inf) if c.degenerate or threshold <= 0.0 else c.x_range for c in curves]
    lows, highs = np.array(spans, dtype=np.float64).reshape(-1, 2).T
    # each row's candidates, as offsets past the row: ``j - i - 1``
    offsets = []
    for i in range(n):
        rest = slice(i + 1, n)
        offsets.append(np.flatnonzero((lows[rest] <= highs[i]) & (highs[rest] >= lows[i])))
    firsts = np.repeat(np.arange(n, dtype=np.int32), [len(row) for row in offsets])
    seconds = np.concatenate(offsets, dtype=np.int32, casting="same_kind")
    del offsets
    seconds += firsts
    seconds += 1
    floors = np.array([c.floor for c in curves], dtype=np.float64)
    peaks = np.array([c.peak for c in curves], dtype=np.float64)
    distance = np.empty(len(firsts), dtype=np.float64)
    for start in range(0, len(firsts), _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        i, j = firsts[block], seconds[block]
        top = np.maximum(peaks[i], peaks[j])
        with np.errstate(divide="ignore", invalid="ignore"):
            distance[block] = (np.abs(floors[i] - floors[j]) + np.abs(peaks[i] - peaks[j])) / top
        distance[block][top == 0.0] = 0.0
    order = np.argsort(distance, kind="stable")
    del distance
    for start in range(0, len(order), _PAIR_BLOCK):
        block = order[start : start + _PAIR_BLOCK]
        yield from zip(firsts[block].tolist(), seconds[block].tolist())


def cluster_groups(
    groups: list[FlowGroup], threshold: float, resample_points: int
) -> list[SimilarityCluster]:
    """Single-linkage clustering of groups at the similarity threshold.

    Candidate pairs are scored likely links first (Kruskal's order for the
    maximum-similarity spanning forest), and a pair already inside one
    component is skipped.  The components do not depend on the visit order,
    and every pair spanning two components is scored, so only which pairs
    inside a cluster get scored changes with it.  Each pair is scored with
    the threshold as its limit, so a pair whose envelope bound rules out a
    link is not resampled; every decision stays the exact score's.

    Output is canonical: clusters ordered by (smallest member host, smallest
    key), keys and hosts sorted within each cluster — invariant under any
    permutation of the input.
    """
    if not groups:
        return []
    ordered = sorted(groups, key=lambda g: g.key)
    curves = [build_curve(g.points, resample_points) for g in ordered]
    # label[i] is the component of group i, members[c] the groups in component c
    label = list(range(len(ordered)))
    members = [[i] for i in label]
    for i, j in _likely_links_first(curves, threshold):
        if label[i] == label[j]:
            # already joined: single linkage keeps only the components
            continue
        if curve_similarity(curves[i], curves[j], threshold) >= threshold:
            into, moved = label[i], label[j]
            if len(members[into]) < len(members[moved]):
                into, moved = moved, into
            for k in members[moved]:
                label[k] = into
            members[into] += members[moved]
            members[moved] = []
    clusters = []
    for comp in filter(None, members):
        # indices in order are keys in order, since ``ordered`` is sorted
        keys = tuple(ordered[i].key for i in sorted(comp))
        hosts = tuple(sorted({k.sip for k in keys}))
        clusters.append(SimilarityCluster(group_keys=keys, hosts=hosts))
    clusters.sort(key=lambda c: (c.hosts[0], c.group_keys[0]))
    return clusters
