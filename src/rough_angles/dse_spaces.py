"""Discrete self-expanding (DSE) spaces.

A DSE space is an ordered finite metric space x_1, ..., x_n in which the
distance from any point to later points never decreases:

    d(x_i, x_j) <= d(x_i, x_k)   for all i <= j <= k.

They arise by reversing the sample order of self-contracted curves, so one
lazy scan (``_monotone_breaks``) checks both orders; checkers list at most
``MAX_VIOLATIONS`` witnesses, and yes/no callers stop at the first.  The two
functionals of interest are the chain length L = sum d(x_i, x_i+1) and the gap
D = d(x_1, x_n); the snowflaked path family below realizes arbitrarily large
L/D ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .metric_core import (
    EUCLIDEAN_L2,
    Columns,
    FiniteMetricSpace,
    ModelSpaceSpec,
    _capped,
    default_tol,
    diameter,
    from_point_cloud,
    sample_model,
    snowflake,
)


# Most violations an order check (DSE or self-contraction) lists.
MAX_VIOLATIONS = 1000

# Orders ``gen_random_dse`` tries before it gives up.
MAX_ATTEMPTS = 100_000


class RejectionError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class DseVerdict:
    ok: bool
    violations: Columns  # i, j, k and amount = d(i,j) - d(i,k) > tol
    tol: float
    truncated: bool = False


@dataclass(frozen=True)
class DseSpace:
    """A FiniteMetricSpace whose identity index order satisfies the DSE
    monotonicity.  Use :func:`as_dse` to build one with verification."""

    space: FiniteMetricSpace

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def dist(self) -> np.ndarray:
        return self.space.dist


def _monotone_breaks(row: np.ndarray, tol: float) -> Iterator[tuple[int, int, float]]:
    """Yield (w, b, row[w] - row[b]) for each b, in order, at which a row
    that should not decrease falls more than ``tol`` below its running
    maximum; w is the first position of that maximum."""
    prefix_max = np.maximum.accumulate(row)
    for b in np.nonzero(row < prefix_max - tol)[0].tolist():
        w = int(np.argmax(row[: b + 1]))
        yield w, b, float(row[w] - row[b])


def _dse_violations(d: np.ndarray, tol: float) -> Iterator[tuple[int, int, int, float]]:
    """Yield every DSE witness (i, j, k, d(x_i, x_j) - d(x_i, x_k) > tol), row i
    by row i, with j the first farthest point of row i up to k."""
    for i in range(d.shape[0]):
        for w, b, amount in _monotone_breaks(d[i, i:], tol):
            yield i, i + w, i + b, amount


def is_dse(m: FiniteMetricSpace, tol: Optional[float] = None) -> DseVerdict:
    """Check d(x_i, x_j) <= d(x_i, x_k) + tol for all i <= j <= k, listing up
    to ``MAX_VIOLATIONS`` witnesses as the columns i, j, k and amount."""
    if tol is None:
        tol = default_tol(m)
    out, truncated = _capped(_dse_violations(m.dist, tol), MAX_VIOLATIONS)
    return DseVerdict(ok=not out and not truncated, tol=float(tol), truncated=truncated,
                      violations=Columns.from_rows(("i", "j", "k", "amount"), out))


def as_dse(m: FiniteMetricSpace, tol: Optional[float] = None) -> DseSpace:
    v = next(_dse_violations(m.dist, default_tol(m) if tol is None else tol), None)
    if v is not None:
        i, j, k, _ = v
        raise ValueError(
            f"order is not DSE: d(x{i},x{j})={m.dist[i, j]:.6g} exceeds "
            f"d(x{i},x{k})={m.dist[i, k]:.6g}"
        )
    return DseSpace(m)


def length_L(d: DseSpace) -> float:
    """Sum of consecutive distances along the order."""
    dist = d.dist
    return float(sum(dist[i, i + 1] for i in range(d.n - 1)))


def gap_D(d: DseSpace) -> float:
    """Distance between the first and the last point."""
    return float(d.dist[0, d.n - 1])


@dataclass(frozen=True)
class TwoLemmaVerdict:
    ok: bool
    worst: Optional[tuple[int, int, int, int]]
    worst_ratio: float  # max of d(x_j,x_k) / (2 d(x_i,x_l)) over i<=j<=k<=l
    diam_le_two_gap: bool


def check_two_lemma(d: DseSpace, tol: Optional[float] = None) -> TwoLemmaVerdict:
    """Verify d(x_j, x_k) <= 2 d(x_i, x_l) for all i <= j <= k <= l, plus the
    consequence diam <= 2 D.  A failure here means the order was not DSE.
    """
    if tol is None:
        tol = default_tol(d.space)
    dist = d.dist
    n = d.n
    if n == 1:
        return TwoLemmaVerdict(True, None, 0.0, True)
    # inner_max[i, l] = max distance within the index window [i..l]: a prefix
    # max along each row of the strict upper triangle gives the max over
    # b <= l for a fixed a, and a suffix max down the columns folds in a >= i.
    inner_max = np.maximum.accumulate(np.triu(dist, 1), axis=1)
    inner_max = np.maximum.accumulate(inner_max[::-1], axis=0)[::-1]
    iu, lu = np.triu_indices(n, 1)  # every window i < l, row-major
    inner = inner_max[iu, lu]
    bound = 2.0 * dist[iu, lu]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(bound > 0, inner / bound, np.inf)
    ok = not np.any(inner > bound + tol)
    # The worst window is the first row-major one with the largest ratio; it
    # is reported, with its widest pair, only when the lemma fails.
    p = int(np.argmax(ratios))
    worst = None
    if not ok:
        i, l = int(iu[p]), int(lu[p])
        sub = dist[i:l + 1, i:l + 1]
        j, k = np.unravel_index(int(np.argmax(sub)), sub.shape)
        worst = (i, i + int(min(j, k)), i + int(max(j, k)), l)
    diam_ok = diameter(d.space) <= 2.0 * gap_D(d) + tol
    return TwoLemmaVerdict(ok=ok and diam_ok, worst=worst,
                           worst_ratio=float(ratios[p]), diam_le_two_gap=diam_ok)


def gen_snowflaked_path(n: int, beta: float) -> DseSpace:
    """Snowflake of n equally spaced collinear points: d(i,j) = |i-j|^beta.

    The canonical family with unbounded chain-to-gap ratio:
    L/D = (n-1)^(1-beta).  DSE in index order because t -> t^beta is monotone.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    positions = np.arange(n, dtype=np.float64)
    base = FiniteMetricSpace(np.abs(positions[:, None] - positions[None, :]))
    return as_dse(snowflake(base, beta))


def gen_random_dse(
    n: int,
    seed: int,
    model: Optional[ModelSpaceSpec] = None,
) -> DseSpace:
    """Rejection-sample a DSE ordering of model-space clouds.

    Deterministic per seed.  A DSE order is fixed by its first point, up to
    ties within the tolerance: its first row does not decrease, so the other
    points follow in order of distance from the first.  Each attempt draws a
    fresh cloud and checks the n orders sorted by distance from each of its
    points, in first-point order; DSE orders are rare in generic clouds, so
    after ``MAX_ATTEMPTS`` orders it raises RejectionError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if model is None:
        model = ModelSpaceSpec(EUCLIDEAN_L2, 2)
    rng = np.random.default_rng(seed)
    attempts = 0
    while attempts < MAX_ATTEMPTS:
        cloud_seed = int(rng.integers(0, 2**31 - 1))
        space = from_point_cloud(sample_model(model, n, radius=1.0, seed=cloud_seed))
        d, tol = space.dist, default_tol(space)  # every reordering has the same tol
        orders = np.argsort(d, axis=1, kind="stable")[:MAX_ATTEMPTS - attempts]
        for p in orders:
            reordered = d[np.ix_(p, p)]
            if next(_dse_violations(reordered, tol), None) is None:
                return DseSpace(FiniteMetricSpace(reordered))
        attempts += len(orders)
    raise RejectionError(f"no DSE ordering found within {MAX_ATTEMPTS} attempts")
