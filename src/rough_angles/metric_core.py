"""Finite metric spaces: representation, validation, subspaces, snowflaking,
and samplers for a handful of model geometries.

Everything downstream (SRA verdicts, DSE checks, net embeddings) consumes the
``FiniteMetricSpace`` defined here: n points with a dense symmetric matrix of
pairwise distances.  All functions are pure; spaces are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

# Dense matrices plus O(n^3) consumers: refuse anything bigger than this.
MAX_POINTS = 4096

EUCLIDEAN_L2 = "euclidean-l2"
NORMED_L1 = "normed-l1"
NORMED_LINF = "normed-linf"
SPHERE_UNIT = "sphere-unit"
HYPERBOLIC_PLANE = "hyperbolic-plane"

MODEL_KINDS = (EUCLIDEAN_L2, NORMED_L1, NORMED_LINF, SPHERE_UNIT, HYPERBOLIC_PLANE)

# Unicode spellings accepted on input, normalized to the ASCII names above.
_KIND_ALIASES = {
    "euclidean-ℓ2": EUCLIDEAN_L2,
    "normed-ℓ1": NORMED_L1,
    "normed-ℓ∞": NORMED_LINF,
    "normed-linfty": NORMED_LINF,
}


class MetricStructureError(ValueError):
    """Raised for structurally broken inputs (non-square matrix, bad indices)."""


def canonical_kind(kind: str) -> str:
    k = _KIND_ALIASES.get(kind, kind)
    if k not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return k


@dataclass(frozen=True)
class ModelSpaceSpec:
    """A model geometry with a closed-form distance.

    ``dim`` is the intrinsic dimension for the normed kinds.  The sphere and
    the hyperbolic plane are fixed two-dimensional surfaces; their points are
    stored with ambient arity 3 and 2 respectively.
    """

    kind: str
    dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind in (SPHERE_UNIT, HYPERBOLIC_PLANE) and self.dim != 2:
            raise ValueError(f"{self.kind} has fixed dim 2, got {self.dim}")

    @property
    def arity(self) -> int:
        """Number of coordinates per stored point."""
        if self.kind == SPHERE_UNIT:
            return 3
        return self.dim


@dataclass(frozen=True)
class PointCloud:
    """Coordinates in a model space; rows of ``coords`` are points."""

    model: ModelSpaceSpec
    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=np.float64)
        if c.ndim == 1:
            c = c.reshape(1, -1)
        if c.ndim != 2:
            raise MetricStructureError("coords must be a 2-d array of points")
        if c.shape[1] != self.model.arity:
            raise MetricStructureError(
                f"points have arity {c.shape[1]}, model {self.model.kind} needs {self.model.arity}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coords contain non-finite values")
        if self.model.kind == SPHERE_UNIT:
            norms = np.linalg.norm(c, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("sphere points must have unit norm within 1e-9")
        if self.model.kind == HYPERBOLIC_PLANE:
            norms = np.linalg.norm(c, axis=1)
            if np.any(norms >= 1.0):
                raise ValueError("hyperbolic points must lie strictly inside the unit disk")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class FiniteMetricSpace:
    """n points with a dense symmetric distance matrix (64-bit floats).

    The constructor enforces only structure (square, finite, size cap); the
    metric axioms themselves are checked by :func:`validate_metric` so that
    broken matrices can be loaded and diagnosed.
    """

    dist: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        d = np.array(self.dist, dtype=np.float64, copy=True)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricStructureError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 1:
            raise MetricStructureError("need at least one point")
        if d.shape[0] > MAX_POINTS:
            raise MetricStructureError(f"n={d.shape[0]} exceeds the configured cap {MAX_POINTS}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distance matrix contains non-finite values")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if self.labels is not None:
            lab = tuple(str(x) for x in self.labels)
            if len(lab) != d.shape[0]:
                raise MetricStructureError("labels length must match point count")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.dist.shape[0]


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "diagonal" | "symmetry" | "positivity" | "triangle"
    indices: tuple[int, ...]
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[MetricViolation, ...]
    tri_tol: float
    truncated: bool = False


def diameter(m: FiniteMetricSpace) -> float:
    """Largest pairwise distance; 0 for a single point."""
    if m.n == 1:
        return 0.0
    return float(np.max(m.dist))


def default_tol(m: FiniteMetricSpace) -> float:
    """Additive tolerance 1e-9 * (1 + diameter), shared by all verdicts.

    Model-space distance formulas accumulate rounding proportional to scale,
    so a purely relative or purely absolute tolerance misbehaves at one end.
    """
    return 1e-9 * (1.0 + diameter(m))


def _middle_scan(d: np.ndarray, alpha: Optional[float], tol: Optional[float],
                 critical: bool) -> Iterator[tuple[int, Optional[float], Optional[np.ndarray]]]:
    """Yield (z, need, slack) per middle z: the one scan behind critical alpha,
    the SRA(alpha) violations and the triangle check.

    ``need`` (if ``critical``) is the largest min{(d(x,y)-d(x,z))/d(y,z),
    (d(y,x)-d(y,z))/d(x,z)} over distinct x, y other than z, NaN skipped.
    ``slack`` (if ``alpha`` is given) is d(x,y) - max{d(x,z) + alpha*d(z,y),
    alpha*d(x,z) + d(z,y)} in a buffer the next yield overwrites; at alpha = 1
    it is the triangle slack d(x,y) - (d(x,z) + d(z,y)).
    """
    n = d.shape[0]
    a, b = np.empty((n, n)), np.empty((n, n))
    diam = float(np.max(d))
    # With both asked for, skip the slack (None) where need <= alpha + tol/(2*diam):
    # one branch's slack is then <= tol/2, plus rounding of about 1e-15*diam.  A NaN
    # need (0/0, a repeated point) has slack exactly 0.  The bound needs d symmetric,
    # non-negative and tol well above rounding; else every middle is exact.
    gate = (critical and alpha is not None and diam > 0.0 and tol >= 1e-12 * (1.0 + diam)
            and not np.any(d < 0.0) and np.array_equal(d, d.T))
    for z in range(n):
        col, row = d[:, z], d[z, :]
        need = None
        if critical:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(np.subtract(d, col[:, None], out=a), col[None, :], out=a)
            np.minimum(a, a.T, out=b)
            b[z, :] = b[:, z] = -np.inf
            np.fill_diagonal(b, -np.inf)
            need = float(np.fmax.reduce(b, axis=None))
        slack = None
        if alpha is not None and not (gate and need <= alpha + tol / (2.0 * diam)):
            np.add(col[:, None], alpha * row[None, :], out=a)
            np.maximum(a, np.add(alpha * col[:, None], row[None, :], out=b), out=a)
            slack = np.subtract(d, a, out=a)
        yield z, need, slack


def validate_metric(
    m: FiniteMetricSpace,
    tri_tol: Optional[float] = None,
    max_violations: int = 100,
) -> ValidationReport:
    """Check all four metric axioms, reporting up to ``max_violations`` failures.

    The triangle inequality is checked additively: a triple (i, j, k) fails if
    d(i,k) > d(i,j) + d(j,k) + tri_tol.
    """
    d = m.dist
    n = m.n
    if tri_tol is None:
        tri_tol = default_tol(m)
    out: list[MetricViolation] = []
    truncated = False

    def push(v: MetricViolation) -> bool:
        nonlocal truncated
        if len(out) >= max_violations:
            truncated = True
            return False
        out.append(v)
        return True

    diag = np.abs(np.diag(d))
    for i in np.nonzero(diag > 0.0)[0]:
        if not push(MetricViolation("diagonal", (int(i),), float(diag[i]))):
            break
    asym = d - d.T
    bad = np.argwhere(np.triu(np.abs(asym), 1) > 0.0)
    for i, j in bad:
        if not push(MetricViolation("symmetry", (int(i), int(j)), float(abs(asym[i, j])))):
            break
    off = d + np.diag(np.full(n, np.inf))
    bad = np.argwhere(np.triu(off <= 0.0, 1))
    for i, j in bad:
        if not push(MetricViolation("positivity", (int(i), int(j)), float(d[i, j]))):
            break
    # Triangle (SRA at alpha = 1): for each middle j, d[i,k] <= d[i,j] + d[j,k] + tol.
    if not truncated:
        for j, _, slack in _middle_scan(d, 1.0, None, False):
            over = slack > tri_tol
            if not over.any():
                continue
            ii, kk = np.nonzero(over)
            for i, k in zip(ii.tolist(), kk.tolist()):
                if i == j or k == j or i == k:
                    continue
                if not push(MetricViolation("triangle", (i, j, k), float(slack[i, k]))):
                    break
            if truncated:
                break

    return ValidationReport(passed=not out and not truncated, violations=tuple(out),
                            tri_tol=float(tri_tol), truncated=truncated)


def subspace(m: FiniteMetricSpace, idx: Sequence[int]) -> FiniteMetricSpace:
    """Restriction of the metric to ``idx``, preserving the given order."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        raise MetricStructureError(f"duplicate indices in {idx}")
    for i in idx:
        if not (0 <= i < m.n):
            raise MetricStructureError(f"index {i} out of range for n={m.n}")
    sub = m.dist[np.ix_(idx, idx)]
    labels = tuple(m.labels[i] for i in idx) if m.labels is not None else None
    return FiniteMetricSpace(sub, labels)


def snowflake(m: FiniteMetricSpace, beta: float) -> FiniteMetricSpace:
    """Raise every off-diagonal distance to the power ``beta`` in (0, 1).

    Snowflaking preserves the metric axioms for beta <= 1 because
    t -> t^beta is concave, increasing and subadditive on [0, inf).
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    return FiniteMetricSpace(np.power(m.dist, beta), m.labels)


# ----------------------------------------------------------------------------
# Model-space distances
# ----------------------------------------------------------------------------

def _pairwise(model: ModelSpaceSpec, c: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    if model.kind == EUCLIDEAN_L2:
        diff = c[:, None, :] - c[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
    elif model.kind == NORMED_L1:
        d = np.sum(np.abs(c[:, None, :] - c[None, :, :]), axis=2)
    elif model.kind == NORMED_LINF:
        d = np.max(np.abs(c[:, None, :] - c[None, :, :]), axis=2)
    elif model.kind == SPHERE_UNIT:
        d = np.arccos(np.clip(c @ c.T, -1.0, 1.0))
    elif model.kind == HYPERBOLIC_PLANE:
        sq = np.sum((c[:, None, :] - c[None, :, :]) ** 2, axis=2)
        w = 1.0 - np.sum(c * c, axis=1)
        d = np.arccosh(1.0 + 2.0 * sq / (w[:, None] * w[None, :]))
    else:
        raise ValueError(f"unsupported model {model.kind}")
    np.fill_diagonal(d, 0.0)
    return (d + d.T) / 2.0  # symmetrize away rounding noise


def from_point_cloud(pc: PointCloud) -> FiniteMetricSpace:
    """Pairwise distances under the cloud's model geometry.

    Raises if the cloud contains coincident points, which would break metric
    positivity.
    """
    d = _pairwise(pc.model, pc.coords)
    n = d.shape[0]
    if n > 1:
        off = d + np.diag(np.full(n, np.inf))
        if np.min(off) <= 0.0:
            i, j = np.unravel_index(int(np.argmin(off)), d.shape)
            raise ValueError(f"coincident points {i} and {j} in cloud")
    return FiniteMetricSpace(d)


# ----------------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------------

def sample_model(model: ModelSpaceSpec, count: int, radius: float, seed: int) -> PointCloud:
    """Deterministic sample of ``count`` points in the radius-``radius`` ball
    around the model's base point.  The base point is always point 0.

    Uniformity is with respect to the model's own volume element (cap area on
    the sphere, hyperbolic area on the disk), realized by inverse-CDF sampling
    of the radial coordinate.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    k = count - 1

    if model.kind == EUCLIDEAN_L2:
        base = np.zeros(model.dim)
        dirs = rng.standard_normal((k, model.dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radii = radius * rng.random(k) ** (1.0 / model.dim)
        pts = dirs / norms * radii[:, None]
    elif model.kind == NORMED_LINF:
        base = np.zeros(model.dim)
        pts = rng.uniform(-radius, radius, size=(k, model.dim))
    elif model.kind == NORMED_L1:
        base = np.zeros(model.dim)
        # Dirichlet(1,...,1) via normalized exponentials gives uniform
        # direction on the l1 sphere; scale by r * U^(1/d) for the ball.
        e = rng.exponential(size=(k, model.dim))
        simplex = e / np.sum(e, axis=1, keepdims=True)
        signs = rng.choice((-1.0, 1.0), size=(k, model.dim))
        radii = radius * rng.random(k) ** (1.0 / model.dim)
        pts = signs * simplex * radii[:, None]
    elif model.kind == SPHERE_UNIT:
        if radius > math.pi:
            raise ValueError("sphere cap radius cannot exceed pi")
        base = np.array([0.0, 0.0, 1.0])
        # Cap area element: cos(polar angle) uniform on [cos(radius), 1].
        cos_t = rng.uniform(math.cos(radius), 1.0, size=k)
        sin_t = np.sqrt(np.clip(1.0 - cos_t**2, 0.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=k)
        pts = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t], axis=1)
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        pts = pts / norms
    elif model.kind == HYPERBOLIC_PLANE:
        base = np.zeros(2)
        # Area of a hyperbolic disk of radius rho is 2*pi*(cosh(rho)-1).
        u = rng.random(k)
        rho = np.arccosh(1.0 + u * (math.cosh(radius) - 1.0))
        r_disk = np.tanh(rho / 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi, size=k)
        pts = np.stack([r_disk * np.cos(phi), r_disk * np.sin(phi)], axis=1)
    else:
        raise ValueError(f"unsupported model {model.kind}")

    coords = np.vstack([base[None, :], pts]) if k > 0 else base[None, :]
    return PointCloud(model, coords)
