"""Deciding the SRA(alpha) condition and hunting maximal SRA(alpha) subspaces.

A finite metric space satisfies SRA(alpha), "small rough angles", when every
ordered triple (x, z, y) of distinct points obeys

    d(x,y) <= max{ d(x,z) + alpha * d(z,y),  alpha * d(x,z) + d(z,y) }.

The inequality is symmetric in x and y, so triples are enumerated with x < y
and every distinct middle z (asymmetric matrices are refused), by the
per-middle scan of ``metric_core`` that also yields critical alpha (in the
same pass for ``sra_report``) and checks triangles.  Violating unordered
triples form a 3-uniform hypergraph; a subset is SRA(alpha) exactly when it
spans no violating triple, which turns maximum-subspace search into a maximum
independent set problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Optional

import numpy as np

from . import _hypergraph
from .metric_core import (EUCLIDEAN_L2, Columns, FiniteMetricSpace, PointCloud, _capped,
                          _PASS_ELEMENTS, _middle_scan, _pairwise, _sra_slack, default_tol)

# Most violations a verdict or report lists.
MAX_VIOLATIONS = 10_000

_VIOLATION_NAMES = ("x", "z", "y", "slack")  # columns: a triple and its _sra_slack > tol


@dataclass(frozen=True)
class SraVerdict:
    alpha: float
    is_sra: bool
    violations: Columns  # x, z, y, slack
    tol: float
    truncated: bool = False


@dataclass(frozen=True)
class SubsetCertificate:
    alpha: float
    subset: tuple[int, ...]
    size: int
    optimal: bool
    bound: int  # best proven upper bound on the maximum size


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")


def _sra_args(m: FiniteMetricSpace, alpha: float,
              tol: Optional[float]) -> tuple[np.ndarray, float]:
    """The distance matrix of ``m`` and the tolerance (``default_tol(m)`` if
    None) of an SRA(alpha) decision, once alpha is in (0, 1) and the matrix is
    symmetric: the scans take x < y, which covers both orientations of a
    triple only when d(x,y) = d(y,x)."""
    _check_alpha(alpha)
    d = m.dist
    if not np.array_equal(d, d.T):
        raise ValueError("SRA analysis needs a symmetric distance matrix")
    return d, default_tol(m) if tol is None else tol


def _violations(d: np.ndarray, alpha: float, tol: float,
                needs: Optional[list] = None) -> Iterator[tuple[int, int, int, float]]:
    """Yield (x, z, y, slack) for every triple of the symmetric ``d`` whose
    ``_sra_slack`` exceeds ``tol``: middle z first, then x < y row-major, with
    x and y distinct from z.  Given a list ``needs``, the same pass appends
    each middle's largest need to it."""
    for z, need, hits in _middle_scan(d, alpha, tol, needs is not None):
        if needs is not None:
            needs.append(need)
        if hits is None:
            continue
        xs, ys, slack = hits
        keep = xs < ys
        yield from zip(xs[keep].tolist(), repeat(z), ys[keep].tolist(), slack[keep].tolist())


def _sra_third(m: FiniteMetricSpace, alpha: float,
               tol: Optional[float] = None) -> Callable[[int, int], int]:
    """``third`` for ``_hypergraph._in_order_search`` of the hyperedges of
    ``violating_triples``, built one row per first vertex a.  With
    r = d(a, b) over b > a and S = d(b, c) over b, c > a, the block of a is
    true where {a, b, c} violates with middle a, b or c, each slack from
    ``_sra_slack`` as in the per-middle scan, so the masks hold bit for bit
    the triples of ``violating_triples(m, alpha, tol)``, with no scan of the
    rows the search never reaches."""
    d, tol = _sra_args(m, alpha, tol)

    def bad_row(a: int) -> np.ndarray:
        r, s = d[a, a + 1:], d[a + 1:, a + 1:]
        ra, rc = r[:, None], r[None, :]
        bad = _sra_slack(s, ra, rc, alpha) > tol  # middle a
        bad |= _sra_slack(rc, ra, s, alpha) > tol  # middle b
        bad |= _sra_slack(ra, rc, s, alpha) > tol  # middle c
        return bad

    return _hypergraph.row_third(bad_row)


def is_sra(m: FiniteMetricSpace, alpha: float, tol: Optional[float] = None) -> SraVerdict:
    """Decide SRA(alpha) over all distinct triples; a triple is recorded as a
    violation when its slack exceeds ``tol``.  At most ``MAX_VIOLATIONS`` are
    kept as the columns x, z, y and slack; ``truncated`` says if more exist."""
    d, tol = _sra_args(m, alpha, tol)
    out, truncated = _capped(_violations(d, alpha, tol), MAX_VIOLATIONS)
    return SraVerdict(alpha=float(alpha), is_sra=not out, tol=float(tol), truncated=truncated,
                      violations=Columns.from_rows(_VIOLATION_NAMES, out))


def critical_alpha(m: FiniteMetricSpace) -> float:
    """Smallest alpha at which every triple passes, clamped below at 0.

    Per triple (x, z, y) the inequality holds iff alpha is at least

        min{ (d(x,y)-d(x,z))/d(z,y),  (d(x,y)-d(z,y))/d(x,z) },

    so the space-wide critical value is the maximum of that expression over
    distinct triples.  Can exceed 1 (e.g. collinear configurations); for all
    alpha' >= critical the space is SRA(alpha') at tol 0.  A ratio of 0/0
    (a repeated point: d(x,z) = 0 and d(x,y) = d(z,y)) is a branch that holds
    for every alpha, so it counts as -inf: the triple's NaN minimum is
    skipped by ``np.fmax``.
    """
    return max([0.0] + [need for _, need, _ in _middle_scan(m.dist, None, None, True)])


def violating_triples(
    m: FiniteMetricSpace, alpha: float, tol: Optional[float] = None
) -> list[tuple[int, int, int]]:
    """Unordered triples {a,b,c} that violate SRA(alpha) for at least one
    choice of middle point.  These are the hyperedges of the freeness search."""
    d, tol = _sra_args(m, alpha, tol)
    return sorted({tuple(sorted(v[:3])) for v in _violations(d, alpha, tol)})


def _certificate(m: FiniteMetricSpace, edges: list[tuple[int, int, int]], alpha: float,
                 tol: Optional[float], budget: Optional[int]) -> SubsetCertificate:
    """Maximum SRA(alpha) subset of ``m``, whose sorted violating triples at
    ``tol`` are ``edges``.  One budgeted branch and bound over ``edges`` gives
    the size, ``optimal`` and the bound.  When it completed below ``m.n``,
    one in-order pass for the first independent tuple of that size, over the
    rows of ``_sra_third(m, alpha, tol)``, replaces its subset by the
    lexicographically smallest optimum."""
    res = _hypergraph.max_independent_subset(m.n, edges, budget=budget)
    subset = res.subset
    if res.optimal and res.size < m.n:
        subset = _hypergraph._in_order_search(m.n, _sra_third(m, alpha, tol),
                                              target=res.size).subset
    return SubsetCertificate(alpha=float(alpha), subset=subset, size=res.size,
                             optimal=res.optimal, bound=res.upper_bound)


def max_sra_subset(
    m: FiniteMetricSpace,
    alpha: float,
    budget: Optional[int] = _hypergraph.DEFAULT_BUDGET,
    tol: Optional[float] = None,
) -> SubsetCertificate:
    """Exact maximum SRA(alpha) subspace via branch and bound on the violating
    triple hypergraph.  On budget exhaustion the best subset found so far is
    returned with ``optimal=False`` and a proven upper bound.

    Among equal-size optima the lexicographically smallest subset is returned,
    so certificates are reproducible: a completed search is rebuilt by one
    in-order pass over the hyperedge rows of ``_sra_third`` at the same
    ``tol``.
    """
    return _certificate(m, violating_triples(m, alpha, tol=tol), alpha, tol, budget)


# ----------------------------------------------------------------------------
# Euclidean angle audit
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleAudit:
    alpha: float
    threshold: float  # arccos(-alpha)
    entries: Columns  # x, z, y and the angle at z, in middle order
    skipped_degenerate: tuple[tuple[int, int], ...]
    boundary_dropped: int


def euclidean_angle_audit(pc: PointCloud, alpha: float) -> AngleAudit:
    """Triples of a Euclidean cloud whose vertex angle at the middle point
    exceeds arccos(-alpha).

    Every returned triple is cross-checked to violate SRA(alpha) on the
    induced metric, which is what a wide angle forces: cos(angle) < -alpha
    gives d(x,y)^2 > d(x,z)^2 + d(z,y)^2 + 2*alpha*d(x,z)*d(z,y), which
    strictly dominates both branches of the SRA bound.  Numerically boundary
    triples that fail the cross-check are dropped and counted.  The entries
    are columns x, z, y and angle (lists), by middle z, then x < y row-major.
    """
    _check_alpha(alpha)
    if pc.model.kind != EUCLIDEAN_L2:
        raise ValueError("angle audit requires the euclidean-l2 model")
    threshold = math.acos(-alpha)
    coords = pc.coords
    n = pc.n
    kept: list[tuple[np.ndarray, ...]] = []
    skipped: list[tuple[int, int]] = []
    dropped = 0

    dmat = _pairwise(pc.model, coords)
    above = np.triu(np.ones((n, n), dtype=bool), 1)

    # Middles are audited in contiguous blocks of Z, each in one pass over
    # (Z, n, d) offsets, so that a small cloud pays numpy's call overhead once
    # per block rather than once per middle; _PASS_ELEMENTS, the per-middle
    # scan's budget too, bounds the Z*n*n cosines of a block, which leaves a
    # cloud of 91 or more points at one middle per block.  The batched cosine
    # matrix differs from the per-pair cosines below by a few ulps, so the
    # candidate cut sits 1e-9 above -alpha: every triple whose exact angle
    # exceeds the threshold is a candidate.  A block's candidates are then
    # decided as one batch: their dot products come from one batched matmul,
    # whose 1-by-d times d-by-1 products run the kernel of np.dot, and their
    # cosines and SRA slacks are array arithmetic, all bit for bit what a
    # per-pair loop gives.  math.acos stays per candidate, mapped over the
    # block, as np.arccos rounds differently from it; the masks below keep
    # the comparisons of a per-candidate loop, so a NaN angle or slack is
    # kept as an entry just as that loop would keep it.  Each block's kept
    # triples stay arrays; the columns are joined and listed once at the end.
    cut = -alpha + 1e-9
    block = max(1, _PASS_ELEMENTS // max(1, n * n))
    for z0 in range(0, n, block):
        zs = np.arange(z0, min(z0 + block, n))
        v = coords[None, :, :] - coords[zs][:, None, :]
        norms = np.linalg.norm(v, axis=2)
        degenerate = norms <= 1e-12  # holds at z itself: v[z] is exactly 0
        zi, xi = np.nonzero(degenerate)
        skipped += [(x, z) for x, z in zip(xi.tolist(), (zi + z0).tolist()) if x != z]
        legs = ~degenerate
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.matmul(v, v.transpose(0, 2, 1)) / (norms[:, :, None] * norms[:, None, :])
        candidates = ~(cos >= cut) & above & legs[:, :, None] & legs[:, None, :]
        zi, xs, ys = np.nonzero(candidates)
        z = zs[zi]
        dots = np.matmul(v[zi, xs][:, None, :], v[zi, ys][:, :, None])[:, 0, 0]
        cosang = np.clip(dots / (norms[zi, xs] * norms[zi, ys]), -1.0, 1.0)
        slack = _sra_slack(dmat[xs, ys], dmat[xs, z], dmat[z, ys], alpha)
        ang = np.array(list(map(math.acos, cosang.tolist())))
        wide = ~(ang <= threshold)
        short = slack <= 0.0
        dropped += int(np.count_nonzero(wide & short))
        keep = wide & ~short
        kept.append((xs[keep], z[keep], ys[keep], ang[keep]))
    x, z, y, angle = (np.concatenate(col).tolist() for col in zip(*kept))
    return AngleAudit(alpha=float(alpha), threshold=threshold,
                      entries=Columns(x=x, z=z, y=y, angle=angle),
                      skipped_degenerate=tuple(sorted(skipped)), boundary_dropped=dropped)


def sra_report(
    m: FiniteMetricSpace,
    alpha: float,
    budget: Optional[int] = _hypergraph.DEFAULT_BUDGET,
    tol: Optional[float] = None,
) -> dict:
    """Combined JSON-ready report: verdict, critical alpha, max subset.

    One scan gives the critical alpha, the first ``MAX_VIOLATIONS``
    violations (the columns of ``is_sra``) and the full hyperedge set of the
    subset search."""
    d, tol = _sra_args(m, alpha, tol)
    shown: list[tuple[int, int, int, float]] = []
    edges: set[tuple[int, int, int]] = set()
    needs: list[float] = []
    for v in _violations(d, alpha, tol, needs):
        if len(shown) < MAX_VIOLATIONS:
            shown.append(v)
        edges.add(tuple(sorted(v[:3])))
    cert = _certificate(m, sorted(edges), alpha, tol, budget)
    return {
        "alpha": float(alpha),
        "is_sra": not shown,
        "critical_alpha": max([0.0] + needs),
        "max_subset": {
            "indices": list(cert.subset),
            "size": cert.size,
            "optimal": cert.optimal,
            "bound": cert.bound,
        },
        "violations": Columns.from_rows(_VIOLATION_NAMES, shown),
        "tol": float(tol),
    }
