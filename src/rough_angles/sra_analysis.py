"""Deciding the SRA(alpha) condition and hunting maximal SRA(alpha) subspaces.

A finite metric space satisfies SRA(alpha), "small rough angles", when every
ordered triple (x, z, y) of distinct points obeys

    d(x,y) <= max{ d(x,z) + alpha * d(z,y),  alpha * d(x,z) + d(z,y) }.

The inequality is symmetric in x and y, so triples are enumerated with x < y
and every distinct middle z, by the per-middle scan of ``metric_core`` that
also yields critical alpha (in the same pass for ``sra_report``) and checks
triangles.  Violating unordered triples form a 3-uniform
hypergraph; a subset is SRA(alpha) exactly when it spans no violating triple,
which turns maximum-subspace search into a maximum independent set problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from . import _hypergraph
from .metric_core import EUCLIDEAN_L2, FiniteMetricSpace, PointCloud, _middle_scan, default_tol

# Most violations a verdict or report lists.
MAX_VIOLATIONS = 10_000


@dataclass(frozen=True)
class TripleViolation:
    x: int
    z: int
    y: int
    slack: float  # d(x,y) - max{d(x,z)+a*d(z,y), a*d(x,z)+d(z,y)} > tol


@dataclass(frozen=True)
class SraVerdict:
    alpha: float
    is_sra: bool
    violations: tuple[TripleViolation, ...]
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


def _violations(d: np.ndarray, alpha: float, tol: float,
                needs: Optional[list] = None) -> Iterator[tuple[int, int, int, float]]:
    """Yield (x, z, y, slack) for every triple whose slack
    d(x,y) - max{d(x,z)+a*d(z,y), a*d(x,z)+d(z,y)} exceeds ``tol``: middle z
    first, then x < y row-major, with x and y distinct from z.  Given a list
    ``needs``, the same pass appends each middle's largest need to it."""
    for z, need, slack in _middle_scan(d, alpha, tol, needs is not None):
        if needs is not None:
            needs.append(need)
        if slack is None:
            continue
        over = slack > tol
        if not over.any():
            continue
        xs, ys = np.nonzero(np.triu(over, 1))
        for x, y, s in zip(xs.tolist(), ys.tolist(), slack[xs, ys].tolist()):
            if x != z and y != z:
                yield x, z, y, s


def is_sra(m: FiniteMetricSpace, alpha: float, tol: Optional[float] = None) -> SraVerdict:
    """Decide SRA(alpha) over all distinct triples; a triple is recorded as a
    violation when its slack exceeds ``tol``.  At most ``MAX_VIOLATIONS`` are
    kept, and ``truncated`` says whether more exist."""
    _check_alpha(alpha)
    if tol is None:
        tol = default_tol(m)
    found = list(islice(_violations(m.dist, alpha, tol), MAX_VIOLATIONS + 1))
    out = tuple(TripleViolation(*v) for v in found[:MAX_VIOLATIONS])
    return SraVerdict(alpha=float(alpha), is_sra=not out, violations=out,
                      tol=float(tol), truncated=len(found) > MAX_VIOLATIONS)


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
    _check_alpha(alpha)
    if tol is None:
        tol = default_tol(m)
    return sorted({tuple(sorted(v[:3])) for v in _violations(m.dist, alpha, tol)})


def _certificate(
    n: int, edges: list[tuple[int, int, int]], alpha: float, budget: Optional[int]
) -> SubsetCertificate:
    """Maximum independent subset of the violating-triple hypergraph, replaced
    by the lexicographically smallest optimum when the search completed."""
    res = _hypergraph.max_independent_subset(n, edges, budget=budget)
    subset = res.subset
    if res.optimal and res.size < n:
        subset = _hypergraph.lexicographically_smallest_mis(n, edges, res.size, budget=budget)
    return SubsetCertificate(alpha=float(alpha), subset=subset, size=res.size,
                             optimal=res.optimal, bound=res.upper_bound)


def max_sra_subset(
    m: FiniteMetricSpace,
    alpha: float,
    budget: Optional[int] = 500_000,
    tol: Optional[float] = None,
) -> SubsetCertificate:
    """Exact maximum SRA(alpha) subspace via branch and bound on the violating
    triple hypergraph.  On budget exhaustion the best subset found so far is
    returned with ``optimal=False`` and a proven upper bound.

    Among equal-size optima the lexicographically smallest subset is returned,
    so certificates are reproducible.
    """
    return _certificate(m.n, violating_triples(m, alpha, tol=tol), alpha, budget)


def sra_free_order(
    m: FiniteMetricSpace, alpha: float, budget: Optional[int] = 500_000
) -> Optional[int]:
    """Least k such that no k-point subspace is SRA(alpha): maximum size + 1.

    Returns None when the exact search exhausts its budget; never guesses.
    """
    cert = max_sra_subset(m, alpha, budget=budget)
    if not cert.optimal:
        return None
    return cert.size + 1


# ----------------------------------------------------------------------------
# Euclidean angle audit
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleAuditEntry:
    x: int
    z: int
    y: int
    angle: float


@dataclass(frozen=True)
class AngleAudit:
    alpha: float
    threshold: float  # arccos(-alpha)
    entries: tuple[AngleAuditEntry, ...]
    skipped_degenerate: tuple[tuple[int, int], ...]
    boundary_dropped: int


def euclidean_angle_audit(pc: PointCloud, alpha: float) -> AngleAudit:
    """Triples of a Euclidean cloud whose vertex angle at the middle point
    exceeds arccos(-alpha).

    Every returned triple is cross-checked to violate SRA(alpha) on the
    induced metric, which is what a wide angle forces: cos(angle) < -alpha
    gives d(x,y)^2 > d(x,z)^2 + d(z,y)^2 + 2*alpha*d(x,z)*d(z,y), which
    strictly dominates both branches of the SRA bound.  Numerically boundary
    triples that fail the cross-check are dropped and counted.
    """
    _check_alpha(alpha)
    if pc.model.kind != EUCLIDEAN_L2:
        raise ValueError("angle audit requires the euclidean-l2 model")
    threshold = math.acos(-alpha)
    coords = pc.coords
    n = pc.n
    entries: list[AngleAuditEntry] = []
    skipped: list[tuple[int, int]] = []
    dropped = 0

    diff_all = coords[:, None, :] - coords[None, :, :]
    dmat = np.sqrt(np.sum(diff_all * diff_all, axis=2))

    for z in range(n):
        v = coords - coords[z]
        norms = np.linalg.norm(v, axis=1)
        for x in range(n):
            if x == z:
                continue
            if norms[x] <= 1e-12:
                skipped.append((x, z))
                continue
            for y in range(x + 1, n):
                if y == z or norms[y] <= 1e-12:
                    continue
                cosang = float(np.dot(v[x], v[y]) / (norms[x] * norms[y]))
                ang = math.acos(min(1.0, max(-1.0, cosang)))
                if ang <= threshold:
                    continue
                a, b = dmat[x, z], dmat[z, y]
                slack = dmat[x, y] - max(a + alpha * b, alpha * a + b)
                if slack <= 0.0:
                    dropped += 1
                    continue
                entries.append(AngleAuditEntry(x, z, y, ang))
    # Deduplicate degenerate notices and keep output order stable.
    seen = sorted(set(skipped))
    return AngleAudit(alpha=float(alpha), threshold=threshold, entries=tuple(entries),
                      skipped_degenerate=tuple(seen), boundary_dropped=dropped)


def sra_report(
    m: FiniteMetricSpace,
    alpha: float,
    budget: Optional[int] = 500_000,
    tol: Optional[float] = None,
) -> dict:
    """Combined JSON-ready report: verdict, critical alpha, max subset.

    One scan gives the critical alpha, the first ``MAX_VIOLATIONS``
    violations and the full hyperedge set of the subset search."""
    _check_alpha(alpha)
    if tol is None:
        tol = default_tol(m)
    shown: list[dict] = []
    edges: set[tuple[int, int, int]] = set()
    needs: list[float] = []
    for x, z, y, slack in _violations(m.dist, alpha, tol, needs):
        if len(shown) < MAX_VIOLATIONS:
            shown.append({"x": x, "z": z, "y": y, "slack": slack})
        edges.add(tuple(sorted((x, z, y))))
    cert = _certificate(m.n, sorted(edges), alpha, budget)
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
        "violations": shown,
        "tol": float(tol),
    }
