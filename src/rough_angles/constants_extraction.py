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
  delivers; its size is the default size plus one.
* Ramsey upper bounds (Pascal and Erdos-Rado style recurrences) plus an
  exhaustive two-coloring check for the triangle number 6.  The binomials of
  the Ramsey bounds and C(m, theta) are refused with ``ValueError``, before
  any work starts, when they could pass ``MAX_BITS``.
* ``globq_bound``: the ball-cover pigeonhole bound k * lambda^ceil(log2(R/r)).
* ``find_theta_straight_subset`` / ``max_theta_straight_subset``: exact
  ordered-subset search.  Straightness is hereditary, so a theta-straight
  subset is an independent set of the 3-uniform hypergraph of non-straight
  in-order triples; both run the in-order bitset search of ``_hypergraph``.
  They return the lexicographically smallest maximum and the lexicographically
  first m-tuple.
* ``refute_weird_angles``: randomized plus grid search for DSE spaces
  satisfying both the straightness and the expansion conditions; any hit is
  dumped verbatim as a fatal inconsistency flag.
* ``extract_sra_subspace``: the two-coloring extraction pipeline, with a
  direct-search fallback and explicit branch reporting; all three of its
  searches are unbudgeted in-order searches.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations
from typing import Callable, Optional, Union

import numpy as np

from . import _hypergraph
from .dse_spaces import DseSpace, _dse_violations
from .metric_core import _metric_violations, default_tol, subspace
from .sra_analysis import SubsetCertificate, _sra_third, is_sra

Rational = Union[int, float, str, Fraction]


def _as_fraction(x: Rational) -> Fraction:
    """Exact rational coercion.  Floats go through their shortest decimal
    representation so that 0.1 means 1/10, not the binary neighbour."""
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


# ----------------------------------------------------------------------------
# Closed-form constants
# ----------------------------------------------------------------------------

# The size limit, in bits, of C(m, theta) and the Ramsey binomials: 2**14284 < 10**4300,
# and Python prints ints of up to 4300 digits by default, so each fits in a report.
MAX_BITS = 14_284


def _within_limit(what: str, bits: int) -> None:
    """Refuse a constant whose size is bounded only by ``bits`` > MAX_BITS."""
    if bits > MAX_BITS:
        raise ValueError(f"{what} needs up to {bits} bits, over the size limit of {MAX_BITS}")


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
    # The numerator is below (m(m-1))^(m-1) den(theta)^(m-2) times 2.
    _within_limit(f"c_of_m_theta({m}, {theta})", (m - 1) * (m * (m - 1)).bit_length()
                  + (m - 2) * th.denominator.bit_length() + 1)
    return Fraction((m * (m - 1)) ** (m - 1)) / th ** (m - 2) + 2 * m


def format_constant(value: Fraction) -> str:
    """Decimal rendering of an exact rational, exact when it terminates; else
    rounded at 12 digits, with "..." if inexact, and the fraction.  A value
    beyond the float range is rounded in decimal arithmetic."""
    if value.denominator == 1:
        return str(value.numerator)
    approx = Fraction(round(value * 10**12), 10**12)
    try:
        f = float(value)
        if Fraction(str(f)) == value:
            return str(f)
        head = f"{float(approx):.12g}"
    except OverflowError:
        rounded = decimal.Context(prec=12).divide(value.numerator, value.denominator)
        head = f"{rounded.normalize():.12g}"
    suffix = "" if approx == value else "..."
    return f"{head}{suffix} ({value.numerator}/{value.denominator})"


def weird_angle_limit(theta: Rational) -> Fraction:
    """(1/2) (1+theta) / (1-theta): the infimum of the expansion thresholds."""
    th = _as_fraction(theta)
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    return Fraction(1, 2) * (1 + th) / (1 - th)


def weird_angle_threshold(theta: Rational, n: int, corrected: bool = False) -> Fraction:
    """The alpha threshold for size n, q = (1-theta)/2:

        default:    1 / (2 q (1 + q + ... + q^(n-2))) = (1-q) / (2 q (1 - q^(n-1)))
        corrected:  1 / (2   (q + q^2 + ... + q^(n-2))), the default at n - 1

    The corrected form is the bound the telescoping-sum argument actually
    produces (the default's sum carries one extra term); both converge to
    ``weird_angle_limit`` from above.
    """
    th = _as_fraction(theta)
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    n -= corrected
    if n < 2:
        raise ValueError("size below the threshold's base case")
    q = (1 - th) / 2
    return (1 - q) / (2 * q * (1 - q ** (n - 1)))


def n_of_theta_alpha(theta: Rational, alpha: Rational, corrected: bool = False) -> int:
    """Least n with alpha strictly above the size-n threshold.

    Requires alpha > (1/2)(1+theta)/(1-theta); below that limit no finite n
    works.  Exact rational comparisons throughout.
    """
    th, al = _as_fraction(theta), _as_fraction(alpha)
    if not (0 < al < 1):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    limit = weird_angle_limit(th)
    if al <= limit:
        raise ValueError(f"alpha={alpha} is not above the limit {format_constant(limit)}; "
                         "no finite size qualifies")
    n = 2
    while al <= weird_angle_threshold(th, n):
        n += 1
    return n + corrected


# ----------------------------------------------------------------------------
# Ramsey upper bounds
# ----------------------------------------------------------------------------

def _pascal_pair(a: int, b: int, what: str) -> int:
    # R2(a,b) <= R2(a-1,b) + R2(a,b-1) with R2(2,b) = b and R2(a,2) = a, in
    # closed form; ``what`` names the requested bound in a refusal.
    k = min(a, b) - 1
    _within_limit(what, k * (a + b - 2).bit_length())  # C(n, k) < n^k
    return math.comb(a + b - 2, k)


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
    if clique == 2:
        return 2
    what = f"ramsey_pair_bound({colors}, {clique})"
    value = clique  # one color
    for c in range(2, colors + 1):
        value = c * (value - 1) + 2 if clique == 3 else _pascal_pair(clique, value, what)
    return value


def ramsey_triple_bound(red_size: int, blue_size: int) -> int:
    """Upper bound on the two-color Ramsey number for 3-uniform hypergraphs:
    R3(s,t) <= R2(R3(s-1,t), R3(s,t-1)) + 1, with R3(s,3) = s, R3(3,t) = t.

    Grows towers-fast; documented as an upper bound ("not tight"), never an
    exact value.
    """
    if red_size < 3 or blue_size < 3:
        raise ValueError("need both sizes >= 3")
    # The recurrence is symmetric, so the rows run over the smaller size: row
    # s holds R3(s, t) for t = 3..t_max, and row 3 is R3(3, t) = t.
    what = f"ramsey_triple_bound({red_size}, {blue_size})"
    s_max, t_max = sorted((red_size, blue_size))
    row = range(3, t_max + 1)
    for s in range(4, s_max + 1):
        row = list(accumulate(row[1:], lambda left, up: _pascal_pair(up, left, what) + 1,
                              initial=s))
    return row[-1]


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
    if not (small_r > 0 and big_r > 0):
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

def _not_straight(dist: np.ndarray, a: int, theta: float) -> np.ndarray:
    """Boolean block over (b, c) in a+1..n-1, true where
    d(a,c) > d(a,b) + theta d(b,c): for b < c, (a, b, c) is not straight."""
    return dist[a, None, a + 1:] > dist[a, a + 1:, None] + theta * dist[a + 1:, a + 1:]


def _straight_third(d: DseSpace, theta: float) -> Callable[[int, int], int]:
    """``third`` of the non-straight triples."""
    dist = d.dist
    return _hypergraph.row_third(lambda a: _not_straight(dist, a, theta))


def _colour_third(sub: np.ndarray, alpha: float, red: bool) -> Callable[[int, int], int]:
    """``third`` of the triples of the other colour than ``red``: (a, b, c) is
    red when d(b,c) <= d(a,c) + alpha d(a,b), so a tie is red."""
    return _hypergraph.row_third(
        lambda a: (sub[a + 1:, a + 1:] <= sub[a, None, a + 1:]
                   + (alpha * sub[a, a + 1:])[:, None]) != red)


def find_theta_straight_subset(d: DseSpace, m: int, theta: float) -> Optional[tuple[int, ...]]:
    """First (lexicographically smallest) increasing m-tuple whose in-order
    triples all satisfy d(x_a, x_c) <= d(x_a, x_b) + theta d(x_b, x_c),
    or None if no such tuple exists."""
    if m < 2:
        raise ValueError("need m >= 2")
    if m > d.n:
        return None
    got = _hypergraph._in_order_search(d.n, _straight_third(d, theta), target=m).subset
    return got if len(got) == m else None


def max_theta_straight_subset(d: DseSpace, theta: float) -> tuple[int, ...]:
    """Largest theta-straight increasing subset (the lexicographically
    smallest among maxima)."""
    return _hypergraph._in_order_search(d.n, _straight_third(d, theta)).subset


# ----------------------------------------------------------------------------
# Refutation search for the combined conditions
# ----------------------------------------------------------------------------

def weird_conditions_satisfied(dmat: np.ndarray, theta: float, alpha: float) -> bool:
    """Exact check of all requirements on a candidate distance matrix:

    metric axioms, DSE monotonicity, the straightness condition
    d(z_i,z_k) <= d(z_i,z_j) + theta d(z_j,z_k) for i < j < k, and the
    expansion condition d(z_n,z_{i+1}) >= d(z_n,z_i) + alpha d(z_i,z_{i+1})
    for 1 <= i <= n-2.

    The expansion index stops at n-2: the i = n-1 instance would read
    0 >= (1+alpha) d(z_{n-1}, z_n) and no space with distinct points could
    ever satisfy it, which would make the whole search vacuous.

    A matrix with a NaN or infinite entry is refused with ``ValueError``, as
    ``FiniteMetricSpace`` refuses it: every comparison with NaN is false, so
    no check below would fail on it.
    """
    d = np.asarray(dmat, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix contains non-finite values")
    n = d.shape[0]
    # Exact zero diagonal, symmetry, positivity and DSE order; a triangle
    # fails when its slack d(i,k) - (d(i,j) + d(j,k)) exceeds 1e-15.
    if next(chain(_metric_violations(d, 1e-15), _dse_violations(d, 0.0)), None) is not None:
        return False
    # Straightness, per first vertex a over a < b < c.
    if any(np.triu(_not_straight(d, a, theta), 1).any() for a in range(n - 2)):
        return False
    i = np.arange(n - 2)
    return not np.any(d[n - 1, i + 1] < d[n - 1, i] + alpha * d[i, i + 1])


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
    random shrink factors for the non-consecutive distances.

    The entries are built in an (n, n, count) array, one contiguous row per
    distance, and the result is its transposed view.  Every draw keeps its
    (count, ...) shape and order, ``exp`` and the decay powers run on those
    shapes, and each entry takes the same arithmetic as the broadcast
    ``path * (shrink + shrink^T) / 2`` form, so a seed gives the same
    candidates bit for bit in either layout."""
    t = count
    kind = rng.integers(0, 3, size=t)
    # (0) log-uniform gaps, (1) geometric decay with jitter, (2) flat cluster
    # gaps with an expanding last gap (the near-tight family).
    lo, hi = math.log(5e-2), math.log(1.0)
    log_uniform = np.exp(rng.uniform(lo, hi, size=(t, n - 1)))
    rho = rng.uniform(0.1, 0.95, size=t)
    decay = rho[:, None] ** np.arange(n - 2, -1, -1)[None, :]
    jitter = np.exp(rng.uniform(-0.2, 0.2, size=(t, n - 1)))
    last = rng.uniform(1.0 + alpha, 2.0, size=t)
    shrink = rng.uniform(0.3, 1.0, size=(t, n, n)).transpose(1, 2, 0)

    # Row k of each holds the gap from point k to point k + 1.
    geometric = np.ascontiguousarray((decay * jitter).T)
    log_uniform = np.ascontiguousarray(log_uniform.T)
    d = np.empty((n, n, t))
    cum = np.zeros((n, t))
    for i in range(n - 1):
        gap = np.where(kind == 2, last if i == n - 2 else 1.0,
                       np.where(kind == 1, geometric[i], log_uniform[i]))
        # Keep consecutive gaps exact; only longer distances are shrunk.
        d[i, i + 1] = d[i + 1, i] = gap
        np.add(cum[i], gap, out=cum[i + 1])
    for i in range(n):
        d[i, i] = 0.0
        for k in range(i + 2, n):
            d[i, k] = d[k, i] = np.abs(cum[i] - cum[k]) * ((shrink[i, k] + shrink[k, i]) / 2.0)
    return d.transpose(2, 0, 1)


def _tail_totals(d: np.ndarray, theta: float, alpha: float,
                 total: Optional[np.ndarray] = None) -> np.ndarray:
    """Add the DSE-monotonicity, straightness and expansion terms of
    candidates laid out (n, n, count) to ``total`` (zeros by default) and
    return it."""
    n, _, t = d.shape
    total = np.zeros(t) if total is None else total
    term = np.empty(t)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                np.subtract(d[i, j], d[i, k], out=term)
                total += np.maximum(term, 0.0, out=term)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                np.subtract(d[i, k], d[i, j], out=term)
                term -= theta * d[j, k]
                total += np.maximum(term, 0.0, out=term)
    for i in range(n - 2):
        np.add(d[n - 1, i], alpha * d[i, i + 1], out=term)
        term -= d[n - 1, i + 1]
        total += np.maximum(term, 0.0, out=term)
    return total


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

    Each batch is pruned exactly.  A candidate's full total
    (``_violation_totals``) is its triangle terms followed by the terms of
    ``_tail_totals``; its tail is those same terms summed from 0.0, and only
    candidates whose tail is at most the running minimum total get their
    full total.  Every term is >= 0 and rounded addition is monotone
    (x >= y implies fl(x + a) >= fl(y + a)), so a tail never exceeds its
    total; a skipped candidate can neither be feasible (total 0, so tail 0)
    nor set the minimum.  The survivors keep their order, so the report is
    the one the unpruned search gives, bit for bit.
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
        keep = np.flatnonzero(_tail_totals(batch.transpose(1, 2, 0), theta, alpha) <= min_viol)
        if keep.size == 0:
            continue
        batch = batch[keep]
        total = _violation_totals(batch, theta, alpha)
        # Count only hits that survive the exact check, which also
        # refuses non-positive distances, so a reported feasible instance is
        # never a vectorization artifact.
        verified = [i for i in np.flatnonzero(total == 0.0)
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
    hit): the clipped triangle excesses, then the terms of ``_tail_totals``.
    Its minimum is reported so near-feasible parameter regimes are visible.
    The batch is read in C order, whatever its layout, since numpy's sum
    over the triangle terms follows the memory order."""
    d = np.ascontiguousarray(d)
    t, n, _ = d.shape
    total = np.zeros(t)
    for j in range(n):
        tri = d - d[:, :, j][:, :, None] - d[:, j, None, :]
        total += np.sum(np.clip(tri, 0.0, None), axis=(1, 2))
    return _tail_totals(d.transpose(1, 2, 0), theta, alpha, total)


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
            "ramsey_bound": self.m,
            "ramsey_bound_tight": False,
            "globq": self.globq,
        }


def make_bundle(
    alpha: float,
    k: int,
    theta: Optional[float] = None,
    globq_args: Optional[tuple[int, int, float, float]] = None,
) -> ConstantsBundle:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if theta is None:
        theta = default_theta(alpha)
    n_blue = n_of_theta_alpha(theta, alpha)  # >= 3: threshold(2) = 1/(1-theta) > 1
    m = ramsey_triple_bound(max(k, 3), n_blue)
    c = c_of_m_theta(m, theta)
    gq = globq_bound(*globq_args) if globq_args is not None else None
    return ConstantsBundle(alpha=float(alpha), theta=float(theta), k=k, m=m,
                           c_m_theta=c, n_theta_alpha=n_blue, globq=gq)


@dataclass(frozen=True)
class ExtractionResult:
    alpha: float
    theta: float
    k: int
    n_blue: int
    branch: str  # "trivial-pair" | "straight-red" | "direct-search"
    #             | "blue-breach" | "below-threshold"
    certificate: Optional[SubsetCertificate]
    straight_subset: tuple[int, ...]
    blue_subset: Optional[tuple[int, ...]] = None
    notes: str = ""


def extract_sra_subspace(
    d: DseSpace,
    alpha: float,
    k: int,
) -> ExtractionResult:
    """Extract a k-point SRA(alpha) subspace from a DSE space.

    Stages, reported through ``branch``:

    1. "straight-red": the two-coloring route.  Find the largest
       theta-straight subset Y (theta from ``default_theta``); the
       certificate is the lexicographically first k-tuple of Y whose in-order
       triples are all red.  Straightness plus redness imply SRA(alpha) for
       in-order subsets of a DSE space, and the certificate is re-verified
       with ``is_sra`` before being returned.
    2. "blue-breach": the lexicographically first all-blue n_of_theta_alpha
       subset of Y is a direct counterexample to the nonexistence claim at
       that size and is returned verbatim as a diagnostic.
    3. "direct-search": the coloring route needs straight subsets far larger
       than desk-scale inputs provide, so fall back to the lexicographically
       first k-tuple of the whole space that spans no violating triple.
    4. "below-threshold": no route produced k points; the sizes reached are
       reported and no certificate is fabricated.

    No search is budgeted.  The largest theta-straight subset is a Russian-doll
    search.  The direct search visits only independent tuples of at most k
    points, at most 1 + sum_{j<k} C(n, j): O(n^3) for k <= 4; when it finds
    no k-tuple, the size it reports is the exact maximum.  It reads the
    violating triples through ``_sra_third``, one row per first vertex it
    reaches, so it lists no violation beforehand.

    The direct search and every ``is_sra`` re-check run at one tolerance,
    ``default_tol(d.space)``, so a tuple the direct search finds is always
    certified.
    """
    theta = default_theta(alpha)
    if k < 2:
        raise ValueError("need k >= 2")
    n_blue = n_of_theta_alpha(theta, alpha)
    tol = default_tol(d.space)

    def certified(subset: tuple[int, ...]) -> Optional[SubsetCertificate]:
        # The k-subset as a certificate, if ``is_sra`` re-verifies it.
        if len(subset) == k and is_sra(subspace(d.space, subset), alpha, tol=tol).is_sra:
            return SubsetCertificate(alpha=float(alpha), subset=subset, size=k,
                                     optimal=False, bound=d.n)
        return None

    if k == 2 and d.n >= 2:
        return ExtractionResult(alpha, theta, k, n_blue, "trivial-pair", certified((0, 1)), ())

    straight = max_theta_straight_subset(d, theta)
    sub = d.dist[np.ix_(straight, straight)]

    def monochrome(red: bool, size: int) -> Optional[tuple[int, ...]]:
        # The first increasing size-tuple of Y whose in-order triples are all red
        # (or all blue).
        got = _hypergraph._in_order_search(len(straight), _colour_third(sub, alpha, red),
                                           target=size).subset
        return tuple(straight[p] for p in got) if len(got) == size else None

    cert = certified(monochrome(True, k) or ())
    if cert is not None:
        return ExtractionResult(alpha, theta, k, n_blue, "straight-red", cert, straight)
    blue_found = monochrome(False, n_blue)

    direct = _hypergraph._in_order_search(d.n, _sra_third(d.space, alpha, tol),
                                           target=k).subset
    cert = certified(direct)
    if cert is not None:
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

    return ExtractionResult(
        alpha, theta, k, n_blue, "below-threshold", None, straight,
        notes=(f"straight subset reached {len(straight)} points, direct search "
               f"reached {len(direct)} (optimal=True); k={k} not attained"))
