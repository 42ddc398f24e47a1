"""Finite metric spaces: representation, validation, subspaces, snowflaking,
and samplers for a handful of model geometries.

Everything downstream (SRA verdicts, DSE checks, net embeddings) consumes the
``FiniteMetricSpace`` defined here: n points with a dense symmetric matrix of
pairwise distances.  All functions are pure; spaces are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Dense matrices plus O(n^3) consumers: refuse anything bigger than this.
MAX_POINTS = 4096

# Most violations a validation report lists.
MAX_VIOLATIONS = 100

# The per-middle scan's kernel takes k = max(1, _PASS_ELEMENTS // n^2) middles
# per numpy pass in (k, n, n) buffers, so that a small space pays numpy's call
# overhead once per pass rather than once per middle; from 91 points up k = 1.
# The angle audit's blocks of middles take the same budget.  The scan runs on
# a thread pool from _THREADED_MIN_N points up (below it, starting and feeding
# threads costs more than it saves), in blocks of up to _BLOCK_ELEMENTS
# matrix elements' worth of middles (much smaller blocks lose the gain), with
# as many workers as keep their buffers within twice the serial scan's at
# MAX_POINTS.  The doubling estimate's greedy covers run on blocks of centers
# of _BLOCK_ELEMENTS elements.
_PASS_ELEMENTS = 1 << 14
_THREADED_MIN_N = 150
_BLOCK_ELEMENTS = 1 << 20
_SCAN_BUFFER_BYTES = 2 * 16 * MAX_POINTS * MAX_POINTS

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

    @property
    def n(self) -> int:
        return self.dist.shape[0]


class Columns:
    """Report rows held column by column: ``columns`` maps each name to a list
    or 1-D array, all of one length; iterating gives the rows as tuples.  ``io``
    writes the list of their dicts a column at a time, with no object per row."""

    __slots__ = ("columns",)

    def __init__(self, /, **columns) -> None:
        if len({len(c) for c in columns.values()}) != 1:
            raise ValueError("need one or more columns, all of one length")
        self.columns = columns

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[tuple]) -> "Columns":
        """The columns of ``rows``, each a tuple in the order of ``names``."""
        cols = [list(c) for c in zip(*rows)] or [[] for _ in names]
        return cls(**dict(zip(names, cols, strict=True)))

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __iter__(self) -> Iterator[tuple]:
        return zip(*self.columns.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Columns) and list(self.columns) == list(other.columns)
                and list(self) == list(other))

    def __repr__(self) -> str:
        return f"Columns({', '.join(f'{k}={c!r}' for k, c in self.columns.items())})"


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


def _tol_at(diam: float) -> float:
    """Additive tolerance 1e-9 * (1 + diam), shared by all verdicts.

    The relative part, 1e-9 per unit of diameter, follows rounding, which
    grows with scale.  The absolute floor of 1e-9 dominates once the diameter
    is below 1.  Near a diameter of 1e-9 the floor is as large as the
    distances themselves, so verdicts there pass triples that break their
    inequality by a large fraction of a distance.
    """
    return 1e-9 * (1.0 + diam)


def default_tol(m: FiniteMetricSpace) -> float:
    """The verdict tolerance at the diameter of ``m``."""
    return _tol_at(diameter(m))


def _scan_workers(n: int) -> int:
    """Threads for an n-point scan: the usable cores, as many as keep their
    buffers (two n x n float64 each) within ``_SCAN_BUFFER_BYTES``."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, _SCAN_BUFFER_BYTES // (16 * n * n)))


def _sra_slack(dxy, dxz, dzy, alpha: float, out: Optional[np.ndarray] = None,
               tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """The SRA slack d(x,y) - max{d(x,z) + alpha*d(z,y), alpha*d(x,z) + d(z,y)},
    elementwise over the broadcast arrays, in ``out`` (``tmp`` as scratch) if
    given.  Every SRA decision of the package computes its slacks here, so
    they agree bit for bit.  At alpha = 1 both branches are d(x,z) + d(z,y)."""
    out = np.add(dxz, alpha * dzy, out=out)
    if alpha != 1.0:
        np.maximum(out, np.add(alpha * dxz, dzy, out=tmp), out=out)
    return np.subtract(dxy, out, out=out)


def _scan_block(d: np.ndarray, lo: int, hi: int, alpha: Optional[float], tol: Optional[float],
                critical: bool, gate: bool, diam: float, a: np.ndarray,
                b: np.ndarray) -> list[tuple[int, Optional[float], Optional[tuple]]]:
    """The scan kernel: (z, need, hits) for the middles lo <= z < hi, computed
    in the (k, n, n) buffers ``a`` and ``b``, k middles per numpy pass.  At
    k = 1, and for a single middle, the middles run one at a time in n x n
    arrays.  See ``_middle_scan``."""
    args = (alpha, tol, critical, gate, diam)
    k = a.shape[0]
    if k == 1 or hi - lo == 1:
        return _scan_middles(d, lo, hi, *args, a[0], b[0])
    out = []
    for z in range(lo, hi, k):
        out += _scan_pass(d, z, min(z + k, hi), *args, a, b)
    return out


def _scan_middles(d: np.ndarray, lo: int, hi: int, alpha: Optional[float], tol: Optional[float],
                  critical: bool, gate: bool, diam: float, a: np.ndarray,
                  b: np.ndarray) -> list[tuple[int, Optional[float], Optional[tuple]]]:
    """(z, need, hits) of the middles lo <= z < hi, one at a time in the n x n
    buffers ``a`` and ``b``."""
    out = []
    for z in range(lo, hi):
        col, row = d[:, z], d[z, :]
        need = None
        if critical:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(np.subtract(d, col[:, None], out=a), col[None, :], out=a)
            np.minimum(a, a.T, out=b)
            b[z, :] = b[:, z] = -np.inf
            np.fill_diagonal(b, -np.inf)
            need = float(np.fmax.reduce(b, axis=None))
        hits = None
        if alpha is not None and not (gate and need <= alpha + tol / (2.0 * diam)):
            slack = _sra_slack(d, col[:, None], row[None, :], alpha, out=a, tmp=b)
            over = slack > tol
            if over.any():
                xs, ys = np.nonzero(over)
                keep = (xs != ys) & (xs != z) & (ys != z)
                xs, ys = xs[keep], ys[keep]
                hits = (xs, ys, slack[xs, ys])
        out.append((z, need, hits))
    return out


def _scan_pass(d: np.ndarray, lo: int, hi: int, alpha: Optional[float], tol: Optional[float],
               critical: bool, gate: bool, diam: float, a: np.ndarray,
               b: np.ndarray) -> list[tuple[int, Optional[float], Optional[tuple]]]:
    """(z, need, hits) of the middles lo <= z < hi, all in one numpy pass over
    the first hi - lo planes of ``a`` and ``b``: the elementwise operations of
    ``_scan_middles``, so every need, slack and hit is the same bit for bit."""
    k, n = hi - lo, d.shape[0]
    zs = np.arange(lo, hi)
    # cols[i, x, 0] = d(x, z_i), copied so that its transpose divides contiguously
    cols = np.ascontiguousarray(d[:, lo:hi].T)[:, :, None]
    rows = d[lo:hi, None, :]  # rows[i, 0, y] = d(z_i, y)
    needs = [None] * k
    if critical:
        c, e = a[:k], b[:k]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.subtract(d, cols, out=c), cols.transpose(0, 2, 1), out=c)
        np.minimum(c, c.transpose(0, 2, 1), out=e)
        planes = np.arange(k)
        e[planes, zs, :] = e[planes, :, zs] = -np.inf
        flat = e.reshape(k, n * n)
        flat[:, ::n + 1] = -np.inf
        needs = np.fmax.reduce(flat, axis=1).tolist()
    hits = [None] * k
    if alpha is not None:
        scan = [i for i, need in enumerate(needs)
                if not (gate and need <= alpha + tol / (2.0 * diam))]
        if scan:
            pick = slice(None) if len(scan) == k else scan
            for i, h in zip(scan, _pass_hits(d, zs[pick], cols[pick], rows[pick], alpha, tol,
                                             a, b)):
                hits[i] = h
    return list(zip(range(lo, hi), needs, hits))


def _pass_hits(d: np.ndarray, zs: np.ndarray, cols: np.ndarray, rows: np.ndarray, alpha: float,
               tol: float, a: np.ndarray, b: np.ndarray) -> list[Optional[tuple]]:
    """The hits of the middles ``zs`` of ``_scan_pass``, their columns and rows
    of d given as there, as ``_scan_middles`` gives them: None where no slack
    of the middle's plane exceeds ``tol``, else (xs, ys, slack) without x = y,
    x = z or y = z."""
    j, n = zs.size, d.shape[0]
    slack = _sra_slack(d, cols, rows, alpha, out=a[:j], tmp=b[:j])
    # Flat indices, in the same row-major order: np.nonzero of a 3-d array
    # costs 10 to 20 times what it costs on the same array flattened.
    flat = np.flatnonzero(slack > tol)
    if not flat.size:
        return [None] * j
    ii, rest = np.divmod(flat, n * n)
    xs, ys = np.divmod(rest, n)
    over = np.bincount(ii, minlength=j).tolist()
    z = zs[ii]
    keep = (xs != ys) & (xs != z) & (ys != z)
    ii, xs, ys, vals = ii[keep], xs[keep], ys[keep], slack.reshape(-1)[flat[keep]]
    ends = np.cumsum(np.bincount(ii, minlength=j)).tolist()
    return [(xs[lo:hi], ys[lo:hi], vals[lo:hi]) if count else None
            for count, lo, hi in zip(over, [0] + ends, ends)]


def _block_spans(n: int, step: int) -> Iterator[tuple[int, int]]:
    """Contiguous (lo, hi) blocks of middles covering range(n): 1, 2, 4, ...
    middles, then ``step`` each.  A consumer that stops within the first
    middles (a broken input gives a capped checker its witnesses at once)
    then leaves a few small blocks unused, not (workers + 1) full ones."""
    lo, size = 0, 1
    while lo < n:
        hi = min(lo + size, n)
        yield lo, hi
        lo, size = hi, min(2 * size, step)


def _middle_scan(d: np.ndarray, alpha: Optional[float], tol: Optional[float],
                 critical: bool) -> Iterator[tuple[int, Optional[float], Optional[tuple]]]:
    """Yield (z, need, hits) per middle z, in middle order: the one scan behind
    critical alpha, the SRA(alpha) violations and the triangle check.

    ``need`` (if ``critical``) is the largest min{(d(x,y)-d(x,z))/d(y,z),
    (d(y,x)-d(y,z))/d(x,z)} over distinct x, y other than z, NaN skipped.
    ``hits`` (if ``alpha`` is given) is None or the arrays (xs, ys, slack),
    possibly empty, in row-major order, of every ordered pair of distinct
    points x, y other than z whose ``_sra_slack`` exceeds ``tol``; at
    alpha = 1 the slack is the triangle slack d(x,y) - (d(x,z) + d(z,y)).

    The kernel (``_scan_block``) takes k = max(1, ``_PASS_ELEMENTS`` // n^2)
    middles per numpy pass in (k, n, n) buffers, so that a small space pays
    numpy's call overhead once per pass rather than once per middle; from 91
    points up k = 1 and each middle runs in n x n arrays.  Inline, the scan
    walks ``_block_spans(n, k)``: 1, 2, 4, ... middles, so a capped consumer
    that stops at the first middles leaves little work done.  At n >=
    ``_THREADED_MIN_N`` with more than one usable core, contiguous blocks of
    middles (``_block_spans``) run on a thread pool over the usable cores
    (numpy releases the GIL in its ufuncs), each worker with its own (k, n, n)
    buffers, at most one block per worker plus one ahead of the consumer, so
    that a consumer that stops early wastes little work.  There is no flag or
    environment variable for either.  Every middle runs the same elementwise
    float operations whatever its pass or thread, so the output is bit for bit
    that of a scan of one middle at a time.
    """
    n = d.shape[0]
    diam = float(np.max(d))
    # With both asked for, report no hits where need <= alpha + tol/(2*diam): one
    # branch's slack is then <= tol/2, plus rounding of about 1e-15*diam.  A NaN
    # need (0/0, a repeated point) has slack exactly 0.  The bound needs d symmetric
    # (the only caller asking for both, sra_analysis.sra_report, refuses anything
    # else), non-negative and tol well above rounding; else every middle is exact.
    gate = (critical and alpha is not None and diam > 0.0 and tol >= 1e-12 * (1.0 + diam)
            and not np.any(d < 0.0))
    args = (alpha, tol, critical, gate, diam)
    k = max(1, _PASS_ELEMENTS // (n * n))
    workers = _scan_workers(n) if n >= _THREADED_MIN_N else 1
    if workers < 2:
        a, b = np.empty((k, n, n)), np.empty((k, n, n))
        for lo, hi in _block_spans(n, k):
            yield from _scan_block(d, lo, hi, *args, a, b)
        return
    # Imported here: concurrent.futures imports logging, about 10 ms of the
    # command-line tool's start-up, which only a scan this large repays.
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()

    def block(lo: int, hi: int) -> list:
        if not hasattr(local, "buffers"):  # each worker's own, for the whole scan
            local.buffers = np.empty((k, n, n)), np.empty((k, n, n))
        return _scan_block(d, lo, hi, *args, *local.buffers)

    pool = ThreadPoolExecutor(workers)

    def submit(span: tuple[int, int]):
        # A new thread starts at numpy's default error state, so each block
        # runs in a copy of the caller's context.
        return pool.submit(contextvars.copy_context().run, block, *span)

    spans = _block_spans(n, max(1, _BLOCK_ELEMENTS // (n * n)))
    try:
        pending = deque(submit(span) for span in islice(spans, workers + 1))
        while pending:
            rows = pending.popleft().result()
            span = next(spans, None)
            if span is not None:
                pending.append(submit(span))
            yield from rows
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _capped(found: Iterable, cap: int) -> tuple[tuple, bool]:
    """The first ``cap`` items of ``found`` and whether it has more, drawing at
    most cap + 1: the one place where a checker's witness list is cut."""
    head = tuple(islice(found, cap + 1))
    return head[:cap], len(head) > cap


def _metric_violations(d: np.ndarray, tri_tol: float) -> Iterator[MetricViolation]:
    """Yield every axiom failure: diagonal, symmetry, positivity, then the
    triangles by middle j and row-major (i, k)."""
    diag = np.abs(np.diag(d))
    for i in np.nonzero(diag > 0.0)[0]:
        yield MetricViolation("diagonal", (int(i),), float(diag[i]))
    asym = d - d.T
    for i, j in np.argwhere(np.triu(np.abs(asym), 1) > 0.0):
        yield MetricViolation("symmetry", (int(i), int(j)), float(abs(asym[i, j])))
    off = d + np.diag(np.full(d.shape[0], np.inf))
    for i, j in np.argwhere(np.triu(off <= 0.0, 1)):
        yield MetricViolation("positivity", (int(i), int(j)), float(d[i, j]))
    # Triangle (SRA at alpha = 1): for each middle j, d[i,k] <= d[i,j] + d[j,k] + tol.
    for j, _, hits in _middle_scan(d, 1.0, tri_tol, False):
        if hits is not None:
            ii, kk, slack = hits
            for i, k, s in zip(ii.tolist(), kk.tolist(), slack.tolist()):
                yield MetricViolation("triangle", (i, j, k), s)


def validate_metric(m: FiniteMetricSpace, tri_tol: Optional[float] = None) -> ValidationReport:
    """Check all four metric axioms, reporting up to ``MAX_VIOLATIONS`` failures.

    The triangle inequality is checked additively: a triple (i, j, k) fails if
    d(i,k) > d(i,j) + d(j,k) + tri_tol.
    """
    if tri_tol is None:
        tri_tol = default_tol(m)
    out, truncated = _capped(_metric_violations(m.dist, tri_tol), MAX_VIOLATIONS)
    return ValidationReport(passed=not out and not truncated, violations=out,
                            tri_tol=float(tri_tol), truncated=truncated)


def subspace(m: FiniteMetricSpace, idx: Sequence[int]) -> FiniteMetricSpace:
    """Restriction of the metric to ``idx``, preserving the given order."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        raise MetricStructureError(f"duplicate indices in {idx}")
    for i in idx:
        if not (0 <= i < m.n):
            raise MetricStructureError(f"index {i} out of range for n={m.n}")
    return FiniteMetricSpace(m.dist[np.ix_(idx, idx)])


def snowflake(m: FiniteMetricSpace, beta: float) -> FiniteMetricSpace:
    """Raise every off-diagonal distance to the power ``beta`` in (0, 1).

    Snowflaking preserves the metric axioms for beta <= 1 because
    t -> t^beta is concave, increasing and subadditive on [0, inf).
    """
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    return FiniteMetricSpace(np.power(m.dist, beta))


# ----------------------------------------------------------------------------
# Model-space distances
# ----------------------------------------------------------------------------

def _pairwise(model: ModelSpaceSpec, c: np.ndarray) -> np.ndarray:
    """Distances between the rows of ``c`` (finite coordinates) under
    ``model``; raises ``ValueError`` when one overflows float64.  Every
    representable L1 or L-infinity distance is measured, but euclidean-l2
    squares the coordinate differences first, so it refuses a difference
    above about 1.3e154 (the square root of the float64 maximum)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        d = _distances(model, c)
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0].tolist()
        raise ValueError(f"the {model.kind} distance between points {i} and {j} "
                         f"overflows float64; scale the coordinates down")
    return d


def _distances(model: ModelSpaceSpec, c: np.ndarray) -> np.ndarray:
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
    np.fill_diagonal(d, 0.0)
    bits = d.view(np.int64)
    if np.array_equal(bits, bits.T):
        return d  # already symmetric, and d + d.T could overflow
    return (d + d.T) / 2.0  # symmetrize away rounding noise


def from_point_cloud(pc: PointCloud) -> FiniteMetricSpace:
    """Pairwise distances under the cloud's model geometry.

    Raises if the cloud contains coincident points, which would break metric
    positivity.
    """
    d = _pairwise(pc.model, pc.coords)
    off = d + np.diag(np.full(d.shape[0], np.inf))
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

    coords = np.vstack([base[None, :], pts]) if k > 0 else base[None, :]
    return PointCloud(model, coords)
