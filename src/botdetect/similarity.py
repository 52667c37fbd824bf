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
from functools import lru_cache
from ipaddress import IPv4Address
from operator import truediv
from typing import Iterator, NamedTuple, Sequence

import numpy as np

try:
    # the compiled function np.interp calls for real input, without its wrapper
    from numpy._core.multiarray import interp as _interp
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import interp as _interp

from .model import FlowRecord
from .table import runs


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


def batch_features(
    npkts: Sequence[int], nbytes: Sequence[int], duration: Sequence[float], duration_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each flow's features as two float64 columns, nbpp and nbps, in
    order, computed a column at a time: nbps = nbytes / max(duration,
    floor); nbpp = nbytes / npkts.

    Each quotient is Python's ``int / int`` or ``int / float``: a counter
    below 2**53 converts to float64 exactly, so one float64 division gives
    that correctly rounded quotient, and a row with a larger counter is
    divided as Python ints.  The duration floor keeps single-packet
    (zero-duration) flows finite.  Raises :class:`ZeroPackets` for the
    first flow whose npkts is below 1.
    """
    npkts, nbytes = np.asarray(npkts), np.asarray(nbytes)
    bad = np.flatnonzero(npkts < 1)
    if len(bad):
        raise ZeroPackets(f"flow has npkts={npkts[bad[0]]}; features undefined")
    seconds = np.maximum(duration, duration_floor)
    nbps = nbytes / seconds
    nbpp = nbytes / npkts
    large = np.flatnonzero((nbytes >= 2**53) | (npkts >= 2**53))
    if len(large):
        exact_bytes = nbytes[large].tolist()
        nbps[large] = list(map(truediv, exact_bytes, seconds[large].tolist()))
        nbpp[large] = list(map(truediv, exact_bytes, npkts[large].tolist()))
    return nbpp, nbps


def flow_features(rec: FlowRecord, duration_floor: float) -> FlowFeatures:
    """One flow's features in Python's own division: the scalar reference
    for :func:`batch_features`, and tested against it, as
    :func:`curve_similarity` is for the clustering's scorer."""
    if rec.npkts < 1:
        raise ZeroPackets(f"flow has npkts={rec.npkts}; features undefined")
    return FlowFeatures(rec.nbytes / rec.npkts, rec.nbytes / max(rec.duration, duration_floor))


@dataclass(frozen=True, eq=False)
class FlowGroup:
    """Feature points of all flows sharing one grouping key.

    The key is a tuple whose field order is its canonical sort order, and
    whose ``sip`` is the group's one host.  ``points`` is a read-only
    ``(k, 2)`` float64 array of (nbpp, nbps) rows sorted by nbpp, then nbps.
    """

    key: tuple
    points: np.ndarray


@dataclass(frozen=True, eq=False)
class Curve:
    """A group's resampled nbps-over-nbpp polyline.

    ``xs``/``ys`` are read-only float64 arrays of equal length;
    ``x_range`` is the (min, max) nbpp of the source points.  A curve is
    ``degenerate`` when that range is one point; ``floor`` and ``peak`` are
    the min and max of ``ys`` (nan if any sample is nan), the envelope that
    every resampling of the curve stays within.  ``mean`` is the mean of
    ``ys`` (inf if their sum overflows), which bounds a score in which the
    curve keeps its own samples (see :func:`curve_similarity`).
    """

    xs: np.ndarray
    ys: np.ndarray
    x_range: tuple[float, float]
    degenerate: bool
    floor: float
    peak: float
    mean: float


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_curve(points: np.ndarray | Sequence[FlowFeatures], resample_points: int) -> Curve:
    """Build a curve from feature points: a ``(k, 2)`` array of (nbpp,
    nbps) rows or a sequence of :class:`FlowFeatures`, in any order.  The
    one bit the order can change: in a ``-0.0``/``0.0`` nbpp tie with equal
    nbps, ``x_range[0]`` keeps the zero's sign that comes first in the
    input (``xs`` is the same either way).  Grouping never makes such a tie,
    as nbpp is a ratio of unsigned counters.

    Points are sorted by nbpp, then nbps; points sharing an nbpp value are
    replaced by their mean nbps, summed left to right in that order.
    Points whose nbpp already strictly increases, as grouping hands over
    most groups, are taken as they are: for them the sort is the identity
    and every run is one point, so the curve is the same to the bit.  With
    two or more distinct nbpp values the polyline is resampled at
    ``resample_points`` evenly spaced positions across [min nbpp, max
    nbpp]; with exactly one it degenerates to a constant.
    """
    if not len(points):
        raise EmptyGroup("cannot build a curve from zero points")
    points = np.asarray(points, dtype=np.float64)
    nbpp, nbps = points[:, 0], points[:, 1]
    k = len(nbpp)
    # a one-point run's mean is 0.0 + y, which is y + 0.0 (-0.0 included)
    if np.count_nonzero(nbpp[1:] > nbpp[:-1]) == k - 1:  # a tie, -0.0 before 0.0 or a nan is sorted
        xs, ys = nbpp, nbps + 0.0
    else:
        order, starts = runs([nbpp], (nbps,))
        # np.bincount adds each run's nbps to 0.0 one at a time, in order: the
        # left-to-right sum (np.add.reduce sums pairwise, so its bits may differ)
        sizes = np.diff(starts)
        sums = np.bincount(np.repeat(np.arange(len(sizes)), sizes), weights=nbps[order])
        xs, ys = nbpp[order[starts[:-1]]], sums / sizes
    lo, hi = float(xs[0]), float(xs[-1])
    if len(xs) == 1:
        sample_xs = np.full(resample_points, lo)
        sample_ys = np.full(resample_points, ys[0])
    else:
        sample_xs = _linspace(lo, hi, resample_points)
        sample_ys = _interp(sample_xs, xs, ys)
    # an extreme taken by index is the reduction's value; only a zero's sign
    # (a run of negative nbps may average to -0.0) and a nan's bits are the
    # reduction's own pick, so those curves take the reduction
    floor, peak = float(sample_ys[sample_ys.argmin()]), float(sample_ys[sample_ys.argmax()])
    if not floor or not peak or floor != floor:
        floor, peak = float(np.minimum.reduce(sample_ys)), float(np.maximum.reduce(sample_ys))
    return Curve(
        xs=_readonly(sample_xs),
        ys=_readonly(sample_ys),
        x_range=(lo, hi),
        degenerate=lo == hi,
        floor=floor,
        peak=peak,
        mean=float(np.add.reduce(sample_ys)) / resample_points,
    )


def curve_similarity(a: Curve, b: Curve, at_least: float = -math.inf) -> float:
    """Score two curves in [0, 1]; 1.0 means identical on the overlap.

    Non-degenerate curves with disjoint nbpp ranges score 0.  A degenerate
    curve contributes its constant across the other curve's range.  When
    both curves are everywhere zero the score is defined as 1.0.

    ``at_least`` is the least score the caller acts on.  The score is at
    most ``1 - gap / top``, with ``top`` the larger peak and ``gap`` the
    distance between what the two sides stand for.  A side that keeps its
    own samples (degenerate, or scored on its own range) and has a finite
    ``mean`` stands for that mean, as mean |ya - yb| >= |mean ya - mean
    yb|; any other side stands for its ``[floor, peak]`` envelope, which
    resampling keeps it within.  A mean lies within its envelope, so this
    one bound is never looser than the envelopes' alone.  When it is below
    ``at_least`` (by a 1e-9 margin for rounding) it is returned instead of
    the score: a value at or above ``at_least`` is returned exactly when
    the score is, and is then the score itself.  The bound is taken only
    for a normal positive ``top`` and non-negative floors.  A call that
    stops at the bound is still one scored pair: a traced bench run's
    ``pairs_scored`` counts every call.
    """
    r = len(a.ys)
    if len(b.ys) != r:
        raise MismatchedR(f"curves resampled at different resolutions: {r} vs {len(b.ys)}")
    # each field is read once; a conditional expression picks what max/min
    # would (the first argument unless the second is larger/smaller), nan included
    range_a, range_b = a.x_range, b.x_range
    if a.degenerate:
        lo, hi = (0.0, 0.0) if b.degenerate else range_b
    elif b.degenerate:
        lo, hi = range_a
    else:
        lo_a, hi_a = range_a
        lo_b, hi_b = range_b
        lo = lo_b if lo_b > lo_a else lo_a
        hi = hi_b if hi_b < hi_a else hi_a
        if hi < lo:
            return 0.0
    # A side scored on its own range keeps its samples: _linspace rebuilds
    # its xs bit for bit, interp returns fp[j] where x == xp[j], and a
    # degenerate curve's ys is already its constant.  When only one side
    # keeps its samples it is not degenerate (a degenerate side is scored on
    # the other's range), so its xs are the positions at which the other is
    # resampled.  _interp is np.interp's own compiled function, so it gives
    # np.interp's bits for these float64 arrays.
    own_a = a.degenerate or range_a == (lo, hi)
    own_b = b.degenerate or range_b == (lo, hi)
    # a curve with a nan sample has a nan floor, so such a pair takes the exact path
    peak_a, peak_b, floor_a, floor_b = a.peak, b.peak, a.floor, b.floor
    top = peak_b if peak_b > peak_a else peak_a
    if _SMALLEST_NORMAL <= top <= _LARGEST and floor_a >= 0.0 and floor_b >= 0.0:
        # mean |ya - yb| >= |mean ya - mean yb|, and a resampled side lies
        # within its envelope
        mean_a, mean_b = a.mean, b.mean
        low_a, high_a = (mean_a, mean_a) if own_a and mean_a <= _LARGEST else (floor_a, peak_a)
        low_b, high_b = (mean_b, mean_b) if own_b and mean_b <= _LARGEST else (floor_b, peak_b)
        gap_a, gap_b = low_a - high_b, low_b - high_a
        bound = 1.0 - (gap_b if gap_b > gap_a else gap_a) / top
        if bound < at_least - 1e-9:
            return bound
    positions = a.xs if own_a else b.xs if own_b else _linspace(lo, hi, r)
    if own_a:
        ya = a.ys
    else:
        ya = _interp(positions, a.xs, a.ys)
        peak_a = ya[ya.argmax()]
    if own_b:
        yb = b.ys
    else:
        yb = _interp(positions, b.xs, b.ys)
        peak_b = yb[yb.argmax()]
    # a nan peak comes with a nan sample, so the score is the sum's nan
    # whichever nan the peak is
    peak = float(peak_b if peak_b > peak_a else peak_a)
    if peak == 0.0:
        return 1.0
    # the same pairwise sum and division as np.mean, without its dispatch
    return float(1.0 - float(np.add.reduce(np.abs(ya - yb)) / r) / peak)


@lru_cache(maxsize=None)
def _steps(r: int) -> np.ndarray:
    """``np.arange(r, dtype=np.float64)``, one read-only array per ``r``."""
    return _readonly(np.arange(r, dtype=np.float64))


def _linspace(lo: float, hi: float, r: int) -> np.ndarray:
    """``np.linspace(lo, hi, r)`` bit for bit, without its per-call overhead."""
    if r < 2:
        return np.linspace(lo, hi, r)
    # as in linspace, subtract the ends as float64 (two int ends would subtract exactly)
    delta = float(hi) - float(lo)
    step = delta / (r - 1)
    if step == 0.0:
        # linspace's own branch for a zero or underflowed step
        positions = _steps(r) / (r - 1) * delta
    else:
        positions = _steps(r) * step
    positions += lo
    positions[-1] = hi
    return positions


@dataclass(frozen=True)
class SimilarityCluster:
    """A connected component of mutually similar groups."""

    group_keys: tuple

    @property
    def hosts(self) -> tuple[IPv4Address, ...]:
        """The keys' source hosts, each once, in order of their first key."""
        return tuple(dict.fromkeys(k.sip for k in self.group_keys))


# the most pairs _rank_neighbours builds in one numpy pass, unless one rank
# distance alone holds more; it bounds the walk's transient memory
_BLOCK_PAIRS = 4096


def _rank_neighbours(rank: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair of the indices that ``rank`` orders, as blocks of index
    arrays ``(i, j)`` with ``i < j``, by rank distance 1, 2, ..., then by
    rank position.  A block holds consecutive distances, at most
    ``_BLOCK_PAIRS`` pairs (or one distance's, if more), so the memory held
    is linear in the indices.  It only orders: which pairs are scored is
    :func:`cluster_groups`' to decide.
    """
    n = len(rank)
    d = 1
    while d < n:
        # distances d .. e-1, of n-d, n-d-1, ... pairs each
        e, size = d + 1, n - d
        while e < n and size + n - e <= _BLOCK_PAIRS:
            size += n - e
            e += 1
        counts = np.arange(n - d, n - e, -1)
        # the rank positions of each pair's indices: for n = 4, d = 1, e = 3,
        # near is 0 1 2 0 1 and far is 1 2 3 2 3
        near = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        far = near + np.repeat(np.arange(d, e), counts)
        near, far = rank[near], rank[far]
        yield np.minimum(near, far), np.maximum(near, far)
        d = e


def cluster_groups(
    groups: list[FlowGroup], threshold: float, resample_points: int
) -> list[SimilarityCluster]:
    """Single-linkage clustering of groups at the similarity threshold.

    The curves are ranked by floor, then by peak (nan last), and their
    pairs come rank neighbours first (see :func:`_rank_neighbours`), so
    curves of similar level meet early.  Each block of pairs passes these
    rules in turn, and a pair that passes them all links if it scores at
    least the threshold:

    - below a positive threshold, disjoint non-degenerate ranges score
      exactly 0, so a pair whose ranges do not overlap is dropped;
    - a pair already inside one component when its block comes is dropped,
      with one comparison for the whole block;
    - a pair joined since then, by a link earlier in the block, is skipped;
    - the pair is scored with the threshold as its limit, so a pair whose
      score bound rules out a link is not resampled; every decision stays
      the exact score's.

    The components do not depend on the visit order, and every pair
    spanning two components is scored, so only which pairs inside a cluster
    get scored changes with it.

    Output is canonical: clusters ordered by (smallest member host, smallest
    key), keys and hosts sorted within each cluster — invariant under any
    permutation of the input.
    """
    if not groups:
        return []
    ordered = sorted(groups, key=lambda g: g.key)
    curves = [build_curve(g.points, resample_points) for g in ordered]
    spans = [(-np.inf, np.inf) if c.degenerate or threshold <= 0.0 else c.x_range for c in curves]
    lows, highs = np.array(spans, dtype=np.float64).T
    rank = np.lexsort(([c.peak for c in curves], [c.floor for c in curves]))
    # label[i] is the component of group i, members[c] the groups in component c;
    # component mirrors label for one comparison per block
    label = list(range(len(ordered)))
    component = np.arange(len(ordered))
    members = [[i] for i in label]
    for i, j in _rank_neighbours(rank):
        # the overlap mask and the component drop, once for the whole block
        keep = (lows[j] <= highs[i]) & (highs[j] >= lows[i]) & (component[i] != component[j])
        for a, b in zip(i[keep].tolist(), j[keep].tolist()):
            if label[a] == label[b]:
                # already joined: single linkage keeps only the components
                continue
            if curve_similarity(curves[a], curves[b], threshold) >= threshold:
                into, moved = label[a], label[b]
                if len(members[into]) < len(members[moved]):
                    into, moved = moved, into
                for k in members[moved]:
                    label[k] = into
                component[members[moved]] = into
                members[into] += members[moved]
                members[moved] = []
    # indices in order are keys in order, since ``ordered`` is sorted, and
    # keys sort by sip first: so hosts come out sorted, and clusters in order
    # of their smallest index are in order of (smallest host, smallest key)
    return [
        SimilarityCluster(group_keys=tuple(ordered[i].key for i in comp))
        for comp in sorted(map(sorted, filter(None, members)))
    ]
