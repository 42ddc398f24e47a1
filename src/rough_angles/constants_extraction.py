"""Explicit constants and finite combinatorial procedures behind the
rough-angle extraction machinery.

Contents:

* ``c_of_m_theta``: the chain-to-gap threshold C(m, theta) beyond which a DSE
  space must contain an m-point theta-straight subset (exact rationals; the
  value overflows doubles for m >= 8).
* ``n_of_theta_alpha``: the size at which no DSE space can combine
  theta-straightness with alpha-expanding consecutive gaps, from the closed
  geometric-sum threshold.  A ``corrected`` variant drops the constant term
  of the sum, which is what the underlying telescoping argument actually
  delivers; the two differ by exactly one (see the module tests).
* Ramsey upper bounds (Pascal and Erdos-Rado style recurrences) plus an
  exhaustive two-coloring check for the triangle number 6.
* ``globq_bound``: the ball-cover pigeonhole bound k * lambda^ceil(log2(R/r)).
* ``find_theta_straight_subset`` / ``max_theta_straight_subset``: exact
  ordered-subset search.
* ``refute_weird_angles``: randomized plus grid search for DSE spaces
  satisfying both the straightness and the expansion conditions; any hit is
  dumped verbatim as a fatal inconsistency flag.
* ``extract_sra_subspace``: the two-coloring extraction pipeline, with a
  direct-search fallback and explicit branch reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Optional, Sequence, Union

import numpy as np

from . import _hypergraph
from .dse_spaces import DseSpace
from .metric_core import subspace
from .sra_analysis import SubsetCertificate, is_sra, max_sra_subset

Rational = Union[int, float, str, Fraction]


def _as_fraction(x: Rational) -> Fraction:
    """Exact rational coercion.  Floats go through their shortest decimal
    representation so that 0.1 means 1/10, not the binary neighbour."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


# ----------------------------------------------------------------------------
# Closed-form constants
# ----------------------------------------------------------------------------

def c_of_m_theta(m: int, theta: Rational) -> Fraction:
    """C(m, theta) = (m(m-1))^(m-1) / theta^(m-2) + 2m, exactly.

    theta = 1 is outside the useful range but accepted so the boundary value
    can be exercised in tests.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    th = _as_fraction(theta)
    if not (0 < th <= 1):
        raise ValueError(f"theta must lie in (0,1], got {theta}")
    return Fraction((m * (m - 1)) ** (m - 1)) / th ** (m - 2) + 2 * m


def format_constant(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering of an exact rational, exact when it terminates."""
    if value.denominator == 1:
        return str(value.numerator)
    f = float(value)
    if math.isfinite(f) and Fraction(str(f)) == value:
        return str(f)
    scaled = value * 10**digits
    approx = Fraction(round(scaled), 10**digits)
    suffix = "" if approx == value else "..."
    return f"{float(approx):.{digits}g}{suffix} ({value.numerator}/{value.denominator})"


def weird_angle_limit(theta: Rational) -> Fraction:
    """(1/2) (1+theta) / (1-theta): the infimum of the expansion thresholds."""
    th = _as_fraction(theta)
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    return Fraction(1, 2) * (1 + th) / (1 - th)


def weird_angle_threshold(theta: Rational, n: int, corrected: bool = False) -> Fraction:
    """The alpha threshold for size n, q = (1-theta)/2:

        default:    1 / (2 q (1 + q + ... + q^(n-2)))
        corrected:  1 / (2   (q + q^2 + ... + q^(n-2)))

    The corrected form is the bound the telescoping-sum argument actually
    produces (the default's sum carries one extra term); both converge to
    ``weird_angle_limit`` from above.
    """
    th = _as_fraction(theta)
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if n < 2 + (1 if corrected else 0):
        raise ValueError("size below the threshold's base case")
    q = (1 - th) / 2
    if corrected:
        s = sum(q**u for u in range(1, n - 1))
        return 1 / (2 * s)
    s = sum(q**u for u in range(0, n - 1))
    return 1 / (2 * q * s)


def n_of_theta_alpha(theta: Rational, alpha: Rational, corrected: bool = False) -> int:
    """Least n with alpha strictly above the size-n threshold.

    Requires alpha > (1/2)(1+theta)/(1-theta); below that limit no finite n
    works.  Exact rational comparisons throughout.
    """
    th = _as_fraction(theta)
    al = _as_fraction(alpha)
    if not (0 < al < 1):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    limit = weird_angle_limit(th)
    if al <= limit:
        raise ValueError(
            f"alpha={alpha} is not above the limit {format_constant(limit)}; "
            "no finite size qualifies"
        )
    n = 3 if corrected else 2
    while True:
        if al > weird_angle_threshold(th, n, corrected=corrected):
            return n
        n += 1


# ----------------------------------------------------------------------------
# Ramsey upper bounds
# ----------------------------------------------------------------------------

def _pascal_pair(a: int, b: int, memo: dict) -> int:
    # Two-color graph Ramsey upper bound R2(a,b) <= R2(a-1,b) + R2(a,b-1).
    if a == 2:
        return b
    if b == 2:
        return a
    key = (a, b)
    if key not in memo:
        memo[key] = _pascal_pair(a - 1, b, memo) + _pascal_pair(a, b - 1, memo)
    return memo[key]


def ramsey_pair_bound(colors: int, clique: int) -> int:
    """Upper bound on the graph Ramsey number for a monochromatic
    ``clique`` under ``colors`` colors.

    colors=1 is the trivial base; colors=2 uses the Pascal recurrence;
    clique=3 with more colors uses R(3;c) <= c (R(3;c-1) - 1) + 2; the
    general multicolor case merges colors via R(k;c) <= R2(k, R(k;c-1)).
    All are valid upper bounds, not exact values.
    """
    if colors < 1 or clique < 2:
        raise ValueError("need colors >= 1 and clique >= 2")
    if colors == 1:
        return clique
    if clique == 2:
        return 2
    memo: dict = {}
    if clique == 3:
        value = 3  # one color
        for c in range(2, colors + 1):
            value = c * (value - 1) + 2
        return value
    if colors == 2:
        return _pascal_pair(clique, clique, memo)
    value = ramsey_pair_bound(colors - 1, clique)
    return _pascal_pair(clique, value, memo)


def ramsey_triple_bound(red_size: int, blue_size: int) -> int:
    """Upper bound on the two-color Ramsey number for 3-uniform hypergraphs:
    R3(s,t) <= R2(R3(s-1,t), R3(s,t-1)) + 1, with R3(s,3) = s, R3(3,t) = t.

    Grows towers-fast; documented as an upper bound ("not tight"), never an
    exact value.
    """
    if red_size < 3 or blue_size < 3:
        raise ValueError("need both sizes >= 3")
    memo_pair: dict = {}
    memo: dict = {}

    def r3(s: int, t: int) -> int:
        if t == 3:
            return s
        if s == 3:
            return t
        key = (s, t)
        if key not in memo:
            memo[key] = _pascal_pair(r3(s - 1, t), r3(s, t - 1), memo_pair) + 1
        return memo[key]

    return r3(red_size, blue_size)


def all_pair_colorings_force_triangle(n: int) -> bool:
    """Exhaustively check whether every 2-coloring of the complete graph on
    ``n`` vertices contains a monochromatic triangle."""
    if n < 3:
        return False
    pairs = list(combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    triangles = [
        (pair_index[(a, b)], pair_index[(a, c)], pair_index[(b, c)])
        for a, b, c in combinations(range(n), 3)
    ]
    e = len(pairs)
    for coloring in range(1 << e):
        mono = False
        for i, j, k in triangles:
            ci = (coloring >> i) & 1
            if ci == (coloring >> j) & 1 and ci == (coloring >> k) & 1:
                mono = True
                break
        if not mono:
            return False
    return True


def globq_bound(k: int, lam: int, big_r: float, small_r: float) -> int:
    """Pigeonhole freeness bound k * lam^ceil(log2(R/r)).

    The exponent is the number of halvings needed to get from radius R down
    to r; it is computed by exact doubling rather than floating log2.
    """
    if k < 1 or lam < 1:
        raise ValueError("need k >= 1 and lam >= 1")
    if small_r <= 0 or big_r <= 0:
        raise ValueError("radii must be positive")
    if small_r > big_r:
        raise ValueError(f"need r <= R, got r={small_r} > R={big_r}")
    e = 0
    scale = float(small_r)
    while scale < big_r:
        scale *= 2.0
        e += 1
    return k * lam**e


# ----------------------------------------------------------------------------
# Theta-straight subsets
# ----------------------------------------------------------------------------

def _straight_ok(d: np.ndarray, seq: Sequence[int], v: int, theta: float, tol: float) -> bool:
    # All new in-order triples (a, b, v) introduced by appending v.
    for ai in range(len(seq)):
        for bi in range(ai + 1, len(seq)):
            a, b = seq[ai], seq[bi]
            if d[a, v] > d[a, b] + theta * d[b, v] + tol:
                return False
    return True


def find_theta_straight_subset(
    d: DseSpace, m: int, theta: float, tol: float = 0.0
) -> Optional[tuple[int, ...]]:
    """First (lexicographically smallest) increasing m-tuple whose in-order
    triples all satisfy d(x_a, x_c) <= d(x_a, x_b) + theta d(x_b, x_c),
    or None if no such tuple exists."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = d.n
    if m > n:
        return None
    if m == 2:
        return (0, 1)
    dist = d.dist

    def extend(seq: list[int], start: int) -> Optional[tuple[int, ...]]:
        if len(seq) == m:
            return tuple(seq)
        if n - start < m - len(seq):
            return None
        for v in range(start, n):
            if len(seq) >= 2 and not _straight_ok(dist, seq, v, theta, tol):
                continue
            seq.append(v)
            got = extend(seq, v + 1)
            if got is not None:
                return got
            seq.pop()
        return None

    return extend([], 0)


def max_theta_straight_subset(
    d: DseSpace, theta: float, tol: float = 0.0
) -> tuple[int, ...]:
    """Largest theta-straight increasing subset (first found among maxima)."""
    n = d.n
    dist = d.dist
    best: list[int] = []

    def extend(seq: list[int], start: int) -> None:
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        if len(seq) + (n - start) <= len(best):
            return
        for v in range(start, n):
            if len(seq) >= 2 and not _straight_ok(dist, seq, v, theta, tol):
                continue
            seq.append(v)
            extend(seq, v + 1)
            seq.pop()

    extend([], 0)
    return tuple(best)


# ----------------------------------------------------------------------------
# Refutation search for the combined conditions
# ----------------------------------------------------------------------------

def weird_conditions_satisfied(
    dmat: np.ndarray, theta: float, alpha: float, tol: float = 0.0
) -> bool:
    """Exact check of all requirements on a candidate distance matrix:

    metric axioms, DSE monotonicity, the straightness condition
    d(z_i,z_k) <= d(z_i,z_j) + theta d(z_j,z_k) for i < j < k, and the
    expansion condition d(z_n,z_{i+1}) >= d(z_n,z_i) + alpha d(z_i,z_{i+1})
    for 1 <= i <= n-2.

    The expansion index stops at n-2: the i = n-1 instance would read
    0 >= (1+alpha) d(z_{n-1}, z_n) and no space with distinct points could
    ever satisfy it, which would make the whole search vacuous.
    """
    d = np.asarray(dmat, dtype=np.float64)
    n = d.shape[0]
    if np.any(np.abs(np.diag(d)) > tol):
        return False
    if np.any(np.abs(d - d.T) > tol):
        return False
    off = d + np.diag(np.full(n, np.inf))
    if np.min(off) <= tol:
        return False
    for j in range(n):
        if np.any(d > d[:, j][:, None] + d[j, None, :] + tol + 1e-15):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                if d[i, j] > d[i, k] + tol:
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if d[i, k] > d[i, j] + theta * d[j, k] + tol:
                    return False
    for i in range(n - 2):
        if d[n - 1, i + 1] < d[n - 1, i] + alpha * d[i, i + 1] - tol:
            return False
    return True


@dataclass(frozen=True)
class RefutationReport:
    theta: float
    alpha: float
    n: int
    trials: int
    feasible_count: int
    first_feasible: Optional[list[list[float]]]
    min_total_violation: float
    in_lemma_range: bool
    n_required: int
    n_required_corrected: int


def _candidate_batch(n: int, count: int, rng: np.random.Generator,
                     alpha: float) -> np.ndarray:
    """Batch of candidate matrices (count, n, n): gap parameterization with
    random shrink factors for the non-consecutive distances."""
    t = count
    kind = rng.integers(0, 3, size=t)
    gaps = np.empty((t, n - 1))
    # (0) log-uniform gaps, (1) geometric decay with jitter, (2) flat cluster
    # gaps with an expanding last gap (the near-tight family).
    lo, hi = math.log(5e-2), math.log(1.0)
    gaps[:] = np.exp(rng.uniform(lo, hi, size=(t, n - 1)))
    rho = rng.uniform(0.1, 0.95, size=t)
    decay = rho[:, None] ** np.arange(n - 2, -1, -1)[None, :]
    jitter = np.exp(rng.uniform(-0.2, 0.2, size=(t, n - 1)))
    mask1 = kind == 1
    gaps[mask1] = (decay * jitter)[mask1]
    mask2 = kind == 2
    flat = np.ones((t, n - 1))
    flat[:, -1] = rng.uniform(1.0 + alpha, 2.0, size=t)
    gaps[mask2] = flat[mask2]

    cum = np.concatenate([np.zeros((t, 1)), np.cumsum(gaps, axis=1)], axis=1)
    path = np.abs(cum[:, :, None] - cum[:, None, :])
    shrink = rng.uniform(0.3, 1.0, size=(t, n, n))
    shrink = (shrink + np.transpose(shrink, (0, 2, 1))) / 2.0
    d = path * shrink
    # Keep consecutive gaps exact; only longer distances are shrunk.
    idx = np.arange(n - 1)
    d[:, idx, idx + 1] = gaps
    d[:, idx + 1, idx] = gaps
    d[:, np.arange(n), np.arange(n)] = 0.0
    return d


def _grid_probes(n: int, theta: float, alpha: float) -> np.ndarray:
    """Deterministic structured candidates evaluated before the random
    trials, covering the tight region of the constraint polytope."""
    mats: list[np.ndarray] = []
    if n == 3:
        for d13 in np.linspace(1.0, 1.6, 13):
            for d23 in np.linspace(1.0 + alpha - 0.05, 2.4, 29):
                m = np.array([[0.0, 1.0, d13], [1.0, 0.0, d23], [d13, d23, 0.0]])
                mats.append(m)
    # Geometric gap profiles with the maximal straightness-allowed spread.
    q = (1.0 - theta) / 2.0
    for rho in np.linspace(max(q * 0.8, 0.05), 0.98, 12):
        gaps = rho ** np.arange(n - 2, -1, -1)
        cum = np.concatenate([[0.0], np.cumsum(gaps)])
        for s in (0.6, 0.75, 0.9, 1.0):
            path = np.abs(cum[:, None] - cum[None, :])
            m = path * s
            idx = np.arange(n - 1)
            m[idx, idx + 1] = gaps
            m[idx + 1, idx] = gaps
            np.fill_diagonal(m, 0.0)
            mats.append(m)
    return np.asarray(mats)


def refute_weird_angles(
    theta: float,
    alpha: float,
    n: int,
    trials: int,
    seed: int,
) -> RefutationReport:
    """Search for an n-point DSE space satisfying both combined conditions.

    Zero hits supports the nonexistence claim at this size; a hit is a fatal
    inconsistency flag and the instance is returned verbatim.  For sizes
    below ``n_of_theta_alpha`` the claim does not apply and the report is
    marked exploratory (``in_lemma_range=False``).
    """
    limit = float(weird_angle_limit(theta))
    if alpha <= limit:
        raise ValueError(f"alpha={alpha} not above the limit {limit:.6g}")
    n_req = n_of_theta_alpha(theta, alpha)
    n_req_corr = n_of_theta_alpha(theta, alpha, corrected=True)
    if n < 2:
        raise ValueError("need n >= 2")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")

    feasible = 0
    first: Optional[np.ndarray] = None
    min_viol = math.inf

    if n == 2:
        # Both conditions are vacuous on two points; any 2-point space works.
        first = np.array([[0.0, 1.0], [1.0, 0.0]])
        return RefutationReport(theta, alpha, n, 0, 1, first.tolist(), 0.0,
                                in_lemma_range=False, n_required=n_req,
                                n_required_corrected=n_req_corr)

    batch_size = 4096
    n_batches = (trials + batch_size - 1) // batch_size
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    # The grid probes come first, then the random batches in trial order, so
    # the first verified hit is the first by probe and trial index.
    batches = chain([_grid_probes(n, theta, alpha)], (
        _candidate_batch(n, min(batch_size, trials - i * batch_size),
                         np.random.default_rng(s), alpha)
        for i, s in enumerate(seeds)))
    for batch in batches:
        total = _violation_totals(batch, theta, alpha)
        mask = np.all(batch + np.eye(n)[None, :, :] > 0.0, axis=(1, 2)) & (total == 0.0)
        # Count only hits that survive the exact scalar check, so a reported
        # feasible instance is never a vectorization artifact.
        verified = [i for i in np.nonzero(mask)[0]
                    if weird_conditions_satisfied(batch[i], theta, alpha)]
        feasible += len(verified)
        if verified and first is None:
            first = batch[verified[0]]
        min_viol = min(min_viol, float(np.min(total)))

    return RefutationReport(
        theta=float(theta), alpha=float(alpha), n=n, trials=trials,
        feasible_count=feasible,
        first_feasible=None if first is None else [[float(x) for x in row] for row in first],
        min_total_violation=float(min_viol),
        in_lemma_range=n >= n_req,
        n_required=n_req,
        n_required_corrected=n_req_corr,
    )


def _violation_totals(d: np.ndarray, theta: float, alpha: float) -> np.ndarray:
    """Total constraint violation of each candidate in the batch (0 for a
    hit): the clipped triangle, DSE, straightness and expansion excesses.
    Its minimum is reported so near-feasible parameter regimes are visible."""
    t, n, _ = d.shape
    total = np.zeros(t)
    for j in range(n):
        tri = d - d[:, :, j][:, :, None] - d[:, j, None, :]
        total += np.sum(np.clip(tri, 0.0, None), axis=(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                total += np.clip(d[:, i, j] - d[:, i, k], 0.0, None)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total += np.clip(d[:, i, k] - d[:, i, j] - theta * d[:, j, k], 0.0, None)
    for i in range(n - 2):
        total += np.clip(d[:, n - 1, i] + alpha * d[:, i, i + 1] - d[:, n - 1, i + 1], 0.0, None)
    return total


# ----------------------------------------------------------------------------
# Extraction pipeline
# ----------------------------------------------------------------------------

def default_theta(alpha: float) -> float:
    """Midpoint of (0, theta_max) where theta_max = (2a-1)/(2a+1) is the
    largest straightness parameter compatible with alpha."""
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")
    theta_max = (2.0 * alpha - 1.0) / (2.0 * alpha + 1.0)
    return theta_max / 2.0


@dataclass(frozen=True)
class ConstantsBundle:
    """Every constant of the extraction argument evaluated for one (alpha, k)."""

    alpha: float
    theta: float
    k: int
    m: int  # Ramsey-sufficient straight-subset size (upper bound, not tight)
    c_m_theta: Fraction
    n_theta_alpha: int
    ramsey_bound: int
    globq: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "theta": self.theta,
            "k": self.k,
            "m": self.m,
            "c_m_theta": format_constant(self.c_m_theta),
            "c_m_theta_exact": f"{self.c_m_theta.numerator}/{self.c_m_theta.denominator}",
            "n_theta_alpha": self.n_theta_alpha,
            "ramsey_bound": self.ramsey_bound,
            "ramsey_bound_tight": False,
            "globq": self.globq,
        }


def make_bundle(
    alpha: float,
    k: int,
    theta: Optional[float] = None,
    globq_args: Optional[tuple[int, int, float, float]] = None,
) -> ConstantsBundle:
    if theta is None:
        theta = default_theta(alpha)
    n_blue = n_of_theta_alpha(theta, alpha)
    m = ramsey_triple_bound(max(k, 3), max(n_blue, 3))
    c = c_of_m_theta(max(m, 3), theta)
    gq = globq_bound(*globq_args) if globq_args is not None else None
    return ConstantsBundle(alpha=float(alpha), theta=float(theta), k=k, m=m,
                           c_m_theta=c, n_theta_alpha=n_blue,
                           ramsey_bound=m, globq=gq)


def color_triples_red(d: np.ndarray, indices: Sequence[int], alpha: float
                      ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Two-color the in-order triples of ``indices``: a triple (i, j, k) is
    red when d(y_j, y_k) <= d(y_i, y_k) + alpha d(y_i, y_j), blue otherwise.
    Returns (red, blue) as triples of positions within ``indices``."""
    red: list[tuple[int, int, int]] = []
    blue: list[tuple[int, int, int]] = []
    for a, b, c in combinations(range(len(indices)), 3):
        i, j, k = indices[a], indices[b], indices[c]
        if d[j, k] <= d[i, k] + alpha * d[i, j]:
            red.append((a, b, c))
        else:
            blue.append((a, b, c))
    return red, blue


@dataclass(frozen=True)
class ExtractionResult:
    alpha: float
    theta: float
    k: int
    n_blue: int
    branch: str  # "trivial-pair" | "straight-red" | "direct-search"
    #             | "blue-breach" | "below-threshold" | "unknown"
    certificate: Optional[SubsetCertificate]
    straight_subset: tuple[int, ...]
    blue_subset: Optional[tuple[int, ...]] = None
    notes: str = ""


def extract_sra_subspace(
    d: DseSpace,
    alpha: float,
    k: int,
    budget: Optional[int] = 500_000,
    verify_tol: float = 1e-12,
) -> ExtractionResult:
    """Extract a k-point SRA(alpha) subspace from a DSE space.

    Stages, reported through ``branch``:

    1. "straight-red": the two-coloring route.  Find the largest
       theta-straight subset Y (theta from ``default_theta``); search Y's
       blue-triple hypergraph for an all-red k-subset.  Straightness plus
       redness imply SRA(alpha) for in-order subsets of a DSE space, and the
       certificate is re-verified with ``is_sra`` before being returned.
    2. "blue-breach": an all-blue subset of size n_of_theta_alpha inside Y is
       a direct counterexample to the nonexistence claim at that size and is
       returned verbatim as a diagnostic.
    3. "direct-search": the coloring route needs straight subsets far larger
       than desk-scale inputs provide, so fall back to the exact freeness
       search on the whole space and trim to k points.
    4. "below-threshold": no route produced k points; the sizes reached are
       reported and no certificate is fabricated.
    """
    if not (0.5 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (1/2, 1), got {alpha}")
    if k < 2:
        raise ValueError("need k >= 2")
    theta = default_theta(alpha)
    n_blue = n_of_theta_alpha(theta, alpha)
    dist = d.dist

    if k == 2 and d.n >= 2:
        cert = SubsetCertificate(alpha=float(alpha), subset=(0, 1), size=2,
                                 optimal=False, bound=d.n)
        return ExtractionResult(alpha, theta, k, n_blue, "trivial-pair", cert, ())

    straight = max_theta_straight_subset(d, theta)
    blue_found: Optional[tuple[int, ...]] = None

    if len(straight) >= 3:
        red, blue = color_triples_red(dist, straight, alpha)
        if len(straight) >= k:
            res = _hypergraph.max_independent_subset(len(straight), blue, budget=budget)
            if res.size >= k:
                chosen = tuple(straight[p] for p in res.subset[:k])
                verdict = is_sra(subspace(d.space, chosen), alpha, tol=verify_tol)
                if verdict.is_sra:
                    cert = SubsetCertificate(alpha=float(alpha), subset=chosen,
                                             size=k, optimal=False, bound=d.n)
                    return ExtractionResult(alpha, theta, k, n_blue, "straight-red",
                                            cert, straight)
        if len(straight) >= n_blue >= 3:
            res_blue = _hypergraph.max_independent_subset(len(straight), red, budget=budget)
            if res_blue.size >= n_blue:
                blue_found = tuple(straight[p] for p in res_blue.subset[:n_blue])

    direct = max_sra_subset(d.space, alpha, budget=budget)
    if direct.size >= k:
        chosen = direct.subset[:k]
        verdict = is_sra(subspace(d.space, chosen), alpha, tol=verify_tol)
        if verdict.is_sra:
            cert = SubsetCertificate(alpha=float(alpha), subset=chosen, size=k,
                                     optimal=False, bound=direct.bound)
            return ExtractionResult(
                alpha, theta, k, n_blue, "direct-search", cert, straight,
                blue_subset=blue_found,
                notes="coloring route below threshold; certificate from direct search")

    if blue_found is not None:
        return ExtractionResult(
            alpha, theta, k, n_blue, "blue-breach", None, straight,
            blue_subset=blue_found,
            notes=("all-blue subset at the formula size: a counterexample to the "
                   "nonexistence claim at that size (the corrected size is "
                   f"{n_of_theta_alpha(theta, alpha, corrected=True)})"))

    branch = "below-threshold" if direct.optimal else "unknown"
    return ExtractionResult(
        alpha, theta, k, n_blue, branch, None, straight,
        notes=(f"straight subset reached {len(straight)} points, direct search "
               f"reached {direct.size} (optimal={direct.optimal}); k={k} not attained"))
