"""Greedy nets, distance-to-net coordinates, doubling estimates, and the
ball-cover pigeonhole check.

The embedding sends a point p to its vector of distances to the net points,
Phi(p) = (d(p, z_1), ..., d(p, z_N)).  Under the sup norm on images Phi is
exactly 1-Lipschitz (coordinatewise triangle inequality); the interesting
quantity is the measured lower factor gamma.

The doubling estimate runs the greedy net of every ball B(c, 2s) at once, a
block of centers (``metric_core._BLOCK_ELEMENTS`` matrix elements) at a time:
one row of gaps per ball, one ``argmax`` and one ``np.minimum`` per step.  Its
covering numbers are those of one ``greedy_net`` per center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import metric_core, sra_analysis
from ._hypergraph import DEFAULT_BUDGET, _check_budget, _in_order_search, edge_third
from .metric_core import FiniteMetricSpace, default_tol, subspace

# The cover no longer calls max_sra_subset; the binding stays because
# bench/tests/test_bench.py checks that its tracer re-points and restores it.
max_sra_subset = sra_analysis.max_sra_subset


def greedy_net(m: FiniteMetricSpace, r: float,
               on: Optional[Sequence[int]] = None) -> list[int]:
    """Farthest-point greedy r-net over ``on`` (default all points; a list
    or an index array), returned as a list of ints.

    The result is simultaneously an r-covering of ``on`` (every point within
    r of some net point) and an r-packing (net points pairwise > r apart).
    Starts at the first listed point; ties go to the first listed.  A point p
    picked twice has d(p, p) > r and would be picked forever after, so the
    net is refused when it picks the same point twice in a row.
    """
    if not r > 0.0:
        raise ValueError(f"need r > 0, got {r}")
    idx = np.arange(m.n) if on is None else np.asarray(on, dtype=np.intp)
    if not idx.size:
        return []
    d = m.dist
    net = [int(idx[0])]
    mind = d[idx, net[0]]
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= r:
            return net
        v = int(idx[far])
        if v == net[-1]:  # its own column left its gap above r, and will again
            raise ValueError(f"r = {r}: a greedy net does not end, as point {v} "
                             f"has d({v}, {v}) = {d[v, v]} > {r}")
        net.append(v)
        np.minimum(mind, d[idx, v], out=mind)


@dataclass(frozen=True)
class NetEmbedding:
    net: tuple[int, ...]
    coords: np.ndarray  # (n, len(net)); coords[p][i] = d(p, net[i])
    gamma: float        # min over pairs of ||Phi(p)-Phi(y)||_inf / d(p,y)
    upper: float        # max of the same ratio; <= 1 by the triangle inequality


def net_embed(m: FiniteMetricSpace, net: Sequence[int]) -> NetEmbedding:
    """Distance-to-net coordinates with measured bi-Lipschitz factors.

    The factors divide by d(p, y), so every pair of distinct points must be
    at positive distance; the first pair that is not is named in a
    ValueError."""
    net = list(net)
    if not net:
        raise ValueError("net must be nonempty")
    for z in net:
        if not (0 <= z < m.n):
            raise ValueError(f"net index {z} out of range")
    coords = m.dist[:, net].copy()
    n = m.n
    gamma = 1.0
    upper = 0.0
    if n >= 2:
        gamma = np.inf
        for p in range(n - 1):
            diff = np.abs(coords[p + 1:, :] - coords[p, :][None, :])
            img = np.max(diff, axis=1)
            dd = m.dist[p, p + 1:]
            positive = dd > 0.0
            if not positive.all():
                q = p + 1 + int(np.argmin(positive))
                raise ValueError(f"net_embed needs positive distances between distinct "
                                 f"points, got d({p},{q}) = {m.dist[p, q]}")
            ratio = img / dd
            gamma = min(gamma, float(np.min(ratio)))
            upper = max(upper, float(np.max(ratio)))
    coords.setflags(write=False)
    return NetEmbedding(net=tuple(net), coords=coords, gamma=float(gamma),
                        upper=float(upper))


@dataclass(frozen=True)
class ScaleEstimate:
    scale: float
    covering_number: int  # max over centers of s-balls needed to cover B_2s


def doubling_estimate(m: FiniteMetricSpace, scales: Sequence[float]) -> list[ScaleEstimate]:
    """Per scale s, the largest number of s-balls a greedy cover needs for
    any ball of radius 2s.  An empirical stand-in for the doubling constant;
    greedy covers overshoot the optimum, so values are upper-biased.

    Each ball's cover is ``greedy_net(m, s, on=ball)``, the same points and
    so the same count, but the covers of a block of centers run at once
    (``_largest_cover``).  A cover that never ends, which only a point p
    with d(p, p) > s can cause, is refused."""
    d = m.dist
    # cols[v] is the column d[:, v] that greedy_net folds in when it picks v.
    cols = d if np.array_equal(d, d.T) else np.ascontiguousarray(d.T)
    block = max(1, metric_core._BLOCK_ELEMENTS // m.n)
    out = []
    for s in scales:
        if not s > 0.0:
            raise ValueError(f"scales must be positive, got {s}")
        worst = max(_largest_cover(d[lo:lo + block], cols, s)
                    for lo in range(0, m.n, block))
        out.append(ScaleEstimate(scale=float(s), covering_number=worst))
    return out


def _largest_cover(rows: np.ndarray, cols: np.ndarray, s: float) -> int:
    """The largest greedy s-net of the balls B(c, 2s) whose centers' rows of
    d are ``rows``, or 1 if none holds two points.

    One row of ``gaps`` per ball: a point's distance to the ball's net so
    far, -inf off the ball.  Each step adds every unfinished ball's farthest
    point (the first, on ties) to its net; a ball is finished once no gap
    exceeds s.  Finished rows are dropped once more than half of the rows
    are finished, so no block works more than twice its balls' net sizes
    times n, however large one ball's net is."""
    inball = rows <= 2.0 * s
    inball = inball[np.count_nonzero(inball, axis=1) > 1]
    if not inball.size:
        return 1
    gaps = np.where(inball, cols[np.argmax(inball, axis=1)], -np.inf)
    size = 1
    while True:
        far = np.argmax(gaps, axis=1)
        growing = gaps[np.arange(far.size), far] > s
        if not growing.any():
            return size
        size += 1
        if size > cols.shape[0]:  # a point was picked twice, so d(p, p) > s
            raise ValueError(f"scale {s}: a greedy cover does not end, "
                             f"as some point p has d(p, p) > {s}")
        if 2 * np.count_nonzero(growing) < far.size:
            gaps, far = gaps[growing], far[growing]
        np.minimum(gaps, cols[far], out=gaps)


@dataclass(frozen=True)
class BallFreenessEntry:
    center: int
    ball: tuple[int, ...]
    max_sra_size: int
    optimal: bool


@dataclass(frozen=True)
class CoverFreenessReport:
    alpha: float
    r: float
    big_r: float
    k: int
    cover_centers: tuple[int, ...]
    per_ball: tuple[BallFreenessEntry, ...]
    global_max: int
    global_optimal: bool
    bound: int            # cover size * max per-ball size
    holds: Optional[bool]  # None when some search was inexact ("unknown")
    all_balls_free_of_k: bool


def freeness_via_cover(
    m: FiniteMetricSpace,
    alpha: float,
    r: float,
    big_r: float,
    k: int,
    budget: Optional[int] = DEFAULT_BUDGET,
) -> CoverFreenessReport:
    """Pigeonhole check: cover the R-ball around point 0 by greedy
    r-balls, measure the exact maximum SRA(alpha) subset per ball and
    globally, and test

        global_max <= (number of balls) * (largest per-ball maximum).

    Any SRA subset splits across the cover into per-ball SRA subsets, so the
    inequality must hold whenever all searches are exact; ``holds=None``
    reports budget exhaustion instead of guessing.

    The R-ball, which must hold point 0 (d(0, 0) <= R), is scanned once, at
    its own tolerance, for its violating triples, kept as one sorted (m, 3)
    index array (``sra_analysis._triple_array``); a ball's hyperedges are then
    exactly the rows of that array inside it, renumbered within the ball and
    handed to ``edge_third`` as an array.  A point of a ball in none of them
    is in every maximum of the ball, so it is counted; the other points are
    searched by the Russian-doll ``_in_order_search``, whose nodes count
    against ``budget`` once per ball and once for the R-ball.
    """
    if not (0.0 < r < big_r):
        raise ValueError("need 0 < r < R")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _check_budget(budget)
    d = m.dist
    if not d[0, 0] <= big_r:
        raise ValueError(f"R = {big_r}: the R-ball around point 0 does not contain it, "
                         f"as d(0, 0) = {d[0, 0]} > {big_r}")
    ball_r = np.nonzero(d[0] <= big_r)[0]
    centers = greedy_net(m, r, on=ball_r)
    sub_r = subspace(m, ball_r)
    edges = sra_analysis._triple_array(sub_r, alpha, tol=default_tol(sub_r))

    def max_size(member: np.ndarray) -> tuple[int, bool]:
        # The maximum SRA subset size of the R-ball points where ``member``
        # is true, and whether it is exact.
        inside = edges[member[edges].all(axis=1)]
        hit = np.unique(inside)
        count = int(np.count_nonzero(member)) - hit.size
        if not hit.size:
            return count, True
        res = _in_order_search(hit.size, edge_third(np.searchsorted(hit, inside)),
                               budget=budget)
        return count + res.size, res.optimal

    entries: list[BallFreenessEntry] = []
    for c in centers:
        member = d[c, ball_r] <= r
        if not member.any():
            continue
        size, optimal = max_size(member)
        entries.append(BallFreenessEntry(center=c, ball=tuple(ball_r[member].tolist()),
                                         max_sra_size=size, optimal=optimal))
    global_max, global_optimal = max_size(np.ones(ball_r.size, dtype=bool))
    exact = global_optimal and all(e.optimal for e in entries)
    per_ball_max = max((e.max_sra_size for e in entries), default=0)
    bound = len(centers) * per_ball_max
    return CoverFreenessReport(
        alpha=float(alpha), r=float(r), big_r=float(big_r), k=k,
        cover_centers=tuple(centers), per_ball=tuple(entries),
        global_max=global_max, global_optimal=global_optimal,
        bound=bound, holds=(global_max <= bound) if exact else None,
        all_balls_free_of_k=all(e.max_sra_size < k for e in entries),
    )
