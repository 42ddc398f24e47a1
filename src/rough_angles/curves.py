"""Self-contracted curves at desk scale.

A sampled curve gamma is self-contracted when

    d(gamma(t2), gamma(t3)) <= d(gamma(t1), gamma(t3))   for t1 <= t2 <= t3:

the curve keeps approaching every later point.  Gradient descent on a
positive-definite quadratic with step <= 1/lambda_max produces exactly such
polylines, and reversing the sample order of any self-contracted curve yields
a DSE space (the same inequalities read backwards), so the check below is the
DSE scan run on negated distance columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import dse_spaces
from .dse_spaces import DseSpace, _monotone_breaks, as_dse
from .metric_core import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    PointCloud,
    _capped,
    _pairwise,
    _tol_at,
)


class DivergenceError(RuntimeError):
    """Raised when a generated trajectory stops decreasing its objective."""


@dataclass(frozen=True)
class SampledCurve:
    model: ModelSpaceSpec
    times: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.points, dtype=np.float64)
        if t.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if p.ndim != 2 or p.shape[0] != t.shape[0]:
            raise ValueError("points must be a (len(times), arity) array")
        if t.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(t)):
            raise ValueError("times must be finite")
        if t.shape[0] >= 2 and np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        # Route coordinate validation through PointCloud.
        PointCloud(self.model, p)
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points", p)

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @cached_property
    def dist(self) -> np.ndarray:
        """The read-only matrix of sample distances, computed on first use."""
        d = _pairwise(self.model, self.points)
        d.setflags(write=False)
        return d


@dataclass(frozen=True)
class ContractionViolation:
    t1: float
    t2: float
    t3: float
    indices: tuple[int, int, int]
    amount: float  # d(g(t2),g(t3)) - d(g(t1),g(t3)) > tol


@dataclass(frozen=True)
class ContractionVerdict:
    ok: bool
    violations: tuple[ContractionViolation, ...]
    tol: float
    truncated: bool = False


def is_self_contracted(c: SampledCurve, tol: Optional[float] = None) -> ContractionVerdict:
    """Check all sample-time triples t1 <= t2 <= t3: for each endpoint k, from
    the last down, d(gamma(t_i), gamma(t_k)) for i <= k never rises above an
    earlier value.  That is the DSE scan on the (exactly) negated column; the
    first ``dse_spaces.MAX_VIOLATIONS`` witnesses are kept, sorted by indices.
    ``tol`` defaults to the verdict tolerance at the curve's diameter.
    """
    if tol is None:
        tol = _tol_at(float(np.max(c.dist)))
    found = ((i, j, k, amount) for k in range(c.n - 1, 0, -1)
             for i, j, amount in _monotone_breaks(-c.dist[: k + 1, k], tol))
    out, truncated = _capped(found, dse_spaces.MAX_VIOLATIONS)
    t = c.times
    violations = tuple(ContractionViolation(float(t[i]), float(t[j]), float(t[k]), (i, j, k), a)
                       for i, j, k, a in sorted(out))
    return ContractionVerdict(ok=not out and not truncated, violations=violations, tol=float(tol),
                              truncated=truncated)


def curve_length(c: SampledCurve) -> float:
    """Sum of consecutive sample distances (the inscribed polyline length)."""
    return float(sum(np.diagonal(c.dist, 1).tolist()))


def curve_diameter(c: SampledCurve) -> float:
    return float(np.max(c.dist))


def curve_to_dse(c: SampledCurve, tol: Optional[float] = None) -> DseSpace:
    """Reverse the sample order of a self-contracted curve into a DSE space.

    Self-contraction at s1 <= s2 <= s3 says d(g(s2),g(s3)) <= d(g(s1),g(s3));
    after reversal that is literally the DSE monotonicity, so the output
    passes is_dse at the same tolerance.  Repeated sample points (a curve
    that has stalled) are collapsed: reversed, a sample at distance 0 from one
    already kept is dropped (coincidence is not transitive under underflow).
    """
    verdict = is_self_contracted(c, tol=tol)
    if not verdict.ok:
        v = verdict.violations[0]
        raise ValueError(
            f"curve is not self-contracted: triple t={v.t1:.6g},{v.t2:.6g},{v.t3:.6g} "
            f"exceeds by {v.amount:.3g}"
        )
    rd = c.dist[::-1, ::-1]
    zero = np.triu(rd <= 0.0, 1)
    keep = np.ones(c.n, dtype=bool)
    for j in np.flatnonzero(zero.any(axis=0)):
        keep[j] = not np.any(zero[:j, j] & keep[:j])
    return as_dse(FiniteMetricSpace(rd[np.ix_(keep, keep)]), tol=tol)


# ----------------------------------------------------------------------------
# Trajectory generators (Euclidean)
# ----------------------------------------------------------------------------

def _as_spd(q: Sequence[Sequence[float]]) -> np.ndarray:
    qm = np.asarray(q, dtype=np.float64)
    if qm.ndim != 2 or qm.shape[0] != qm.shape[1]:
        raise ValueError("quadratic matrix must be square")
    if not np.allclose(qm, qm.T, atol=1e-12):
        raise ValueError("quadratic matrix must be symmetric")
    eigs = np.linalg.eigvalsh(qm)
    if np.min(eigs) <= 0.0:
        raise ValueError(f"quadratic matrix must be positive definite, eigs {eigs}")
    return qm


def gen_gradient_trajectory(q: Sequence[Sequence[float]], start: Sequence[float], step: float,
                            steps: int) -> SampledCurve:
    """Explicit-Euler polyline of the gradient flow of f(x) = x^T Q x / 2:
    x_{k+1} = x_k - step * Q x_k.

    The objective must not increase at any step; the first offending step
    index is reported otherwise (step too large for the top eigenvalue).
    The curve lives in the Euclidean space of the matrix's dimension.
    """
    qm = _as_spd(q)
    x = np.asarray(start, dtype=np.float64)
    if x.shape != (qm.shape[0],):
        raise ValueError("start point dimension does not match the matrix")
    if step <= 0.0 or steps < 0:
        raise ValueError("need step > 0 and steps >= 0")
    pts = [x.copy()]
    f_prev = 0.5 * float(x @ qm @ x)
    for k in range(steps):
        x = x - step * (qm @ x)
        f_next = 0.5 * float(x @ qm @ x)
        if f_next > f_prev:
            raise DivergenceError(
                f"objective increased at step {k + 1}: {f_prev:.6g} -> {f_next:.6g} "
                f"(step {step} too large; stability needs step <= 2/lambda_max)"
            )
        f_prev = f_next
        pts.append(x.copy())
    times = np.arange(steps + 1, dtype=np.float64) * step
    return SampledCurve(ModelSpaceSpec(EUCLIDEAN_L2, qm.shape[0]), times, np.asarray(pts))


def gen_quasiconvex_trajectory(
    start: Sequence[float], step: float, steps: int
) -> SampledCurve:
    """Gradient polyline of the quasiconvex (not convex) radial function
    f(x) = |x|^2 / (1 + |x|^2) in Euclidean space.

    The gradient is radial, so the iterates move along a ray toward the
    origin; the per-step shrink factor is verified to stay in [0, 1), which
    makes the polyline monotone on a segment and hence self-contracted.
    """
    x = np.asarray(start, dtype=np.float64)
    if step <= 0.0 or steps < 0:
        raise ValueError("need step > 0 and steps >= 0")
    pts = [x.copy()]
    for k in range(steps):
        s2 = float(x @ x)
        if s2 == 0.0:
            pts.append(x.copy())
            continue
        factor = 1.0 - 2.0 * step / (1.0 + s2) ** 2
        if not (0.0 <= factor < 1.0):
            raise DivergenceError(
                f"step {k + 1} overshoots the origin (shrink factor {factor:.4g}); "
                f"reduce the step below (1+|x|^2)^2 / 2"
            )
        x = factor * x
        pts.append(x.copy())
    times = np.arange(steps + 1, dtype=np.float64) * step
    return SampledCurve(ModelSpaceSpec(EUCLIDEAN_L2, x.shape[0]), times, np.asarray(pts))


def gen_subgradient_trajectory(
    slopes: Sequence[Sequence[float]],
    offsets: Sequence[float],
    start: Sequence[float],
    step: float,
    steps: int,
) -> SampledCurve:
    """Subgradient polyline for the max-affine convex function
    f(x) = max_i (a_i . x + b_i), with diminishing steps step/sqrt(k+1).

    Discrete subgradient steps are only an approximation of the continuous
    dynamics, so no self-contraction is asserted here; measure the output.
    """
    a = np.asarray(slopes, dtype=np.float64)
    b = np.asarray(offsets, dtype=np.float64)
    x = np.asarray(start, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != b.shape[0] or a.shape[1] != x.shape[0]:
        raise ValueError("slopes/offsets/start shapes are inconsistent")
    if step <= 0.0 or steps < 0:
        raise ValueError("need step > 0 and steps >= 0")
    pts = [x.copy()]
    for k in range(steps):
        active = int(np.argmax(a @ x + b))
        g = a[active]
        norm = float(np.linalg.norm(g))
        if norm > 0.0:
            x = x - (step / np.sqrt(k + 1.0)) * g / norm
        pts.append(x.copy())
    times = np.arange(steps + 1, dtype=np.float64) * step
    return SampledCurve(ModelSpaceSpec(EUCLIDEAN_L2, x.shape[0]), times, np.asarray(pts))
