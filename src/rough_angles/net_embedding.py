"""Greedy nets, distance-to-net coordinates, doubling estimates, and the
ball-cover pigeonhole check.

The embedding sends a point p to its vector of distances to the net points,
Phi(p) = (d(p, z_1), ..., d(p, z_N)).  Under the sup norm on images Phi is
exactly 1-Lipschitz (coordinatewise triangle inequality); the interesting
quantity is the measured lower factor gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metric_core import FiniteMetricSpace, subspace
from .sra_analysis import max_sra_subset


def greedy_net(m: FiniteMetricSpace, r: float,
               on: Optional[Sequence[int]] = None) -> list[int]:
    """Farthest-point greedy r-net over ``on`` (default all points).

    The result is simultaneously an r-covering of ``on`` (every point within
    r of some net point) and an r-packing (net points pairwise > r apart).
    Starts at the first listed point; ties go to the smallest index.
    """
    if r <= 0.0:
        raise ValueError("need r > 0")
    pts = list(range(m.n)) if on is None else list(on)
    if not pts:
        return []
    d = m.dist
    net = [pts[0]]
    mind = d[np.ix_(pts, [pts[0]])].ravel().copy()
    while True:
        far = int(np.argmax(mind))
        if mind[far] <= r:
            return net
        v = pts[far]
        net.append(v)
        mind = np.minimum(mind, d[np.ix_(pts, [v])].ravel())


@dataclass(frozen=True)
class NetEmbedding:
    net: tuple[int, ...]
    coords: np.ndarray  # (n, len(net)); coords[p][i] = d(p, net[i])
    gamma: float        # min over pairs of ||Phi(p)-Phi(y)||_inf / d(p,y)
    upper: float        # max of the same ratio; <= 1 by the triangle inequality


def net_embed(m: FiniteMetricSpace, net: Sequence[int]) -> NetEmbedding:
    """Distance-to-net coordinates with measured bi-Lipschitz factors."""
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
    greedy covers overshoot the optimum, so values are upper-biased."""
    out = []
    d = m.dist
    for s in scales:
        if s <= 0.0:
            raise ValueError("scales must be positive")
        worst = 1
        for center in range(m.n):
            ball = [int(i) for i in np.nonzero(d[center] <= 2.0 * s)[0]]
            if len(ball) <= 1:
                continue
            worst = max(worst, len(greedy_net(m, s, on=ball)))
        out.append(ScaleEstimate(scale=float(s), covering_number=worst))
    return out


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
    basepoint: int
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
    basepoint: int = 0,
    budget: Optional[int] = 500_000,
) -> CoverFreenessReport:
    """Pigeonhole check: cover the R-ball around ``basepoint`` by greedy
    r-balls, measure the exact maximum SRA(alpha) subset per ball and
    globally, and test

        global_max <= (number of balls) * (largest per-ball maximum).

    Any SRA subset splits across the cover into per-ball SRA subsets, so the
    inequality must hold whenever all searches are exact; ``holds=None``
    reports budget exhaustion instead of guessing.
    """
    if not (0.0 < r < big_r):
        raise ValueError("need 0 < r < R")
    if not (0 <= basepoint < m.n):
        raise ValueError("basepoint out of range")
    d = m.dist
    ball_r = [int(i) for i in np.nonzero(d[basepoint] <= big_r)[0]]
    centers = greedy_net(m, r, on=ball_r)
    entries: list[BallFreenessEntry] = []
    exact = True
    for c in centers:
        members = [p for p in ball_r if d[c, p] <= r]
        if not members:
            continue
        sub = subspace(m, members)
        cert = max_sra_subset(sub, alpha, budget=budget)
        exact = exact and cert.optimal
        entries.append(BallFreenessEntry(center=c, ball=tuple(members),
                                         max_sra_size=cert.size, optimal=cert.optimal))
    sub_r = subspace(m, ball_r)
    global_cert = max_sra_subset(sub_r, alpha, budget=budget)
    exact = exact and global_cert.optimal
    per_ball_max = max((e.max_sra_size for e in entries), default=0)
    bound = len(centers) * per_ball_max
    holds: Optional[bool] = (global_cert.size <= bound) if exact else None
    return CoverFreenessReport(
        alpha=float(alpha), r=float(r), big_r=float(big_r), k=k,
        basepoint=basepoint, cover_centers=tuple(centers), per_ball=tuple(entries),
        global_max=global_cert.size, global_optimal=global_cert.optimal,
        bound=bound, holds=holds,
        all_balls_free_of_k=all(e.max_sra_size < k for e in entries),
    )
