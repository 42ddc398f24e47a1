"""Seeded generators for random valid metric spaces, used across the suite.

Three constructions, all metrics by construction:

* band: symmetric entries uniform in [1, 2]; any such matrix satisfies the
  triangle inequality since every sum of two entries is >= 2.
* euclidean: pairwise distances of a random point cloud.
* graph: shortest-path closure (Floyd-Warshall) of random positive weights.
"""

from __future__ import annotations

import numpy as np

from rough_angles import FiniteMetricSpace


def band_metric(n: int, rng: np.random.Generator) -> FiniteMetricSpace:
    a = rng.uniform(1.0, 2.0, size=(n, n))
    d = np.triu(a, 1)
    d = d + d.T
    return FiniteMetricSpace(d)


def euclidean_metric(n: int, rng: np.random.Generator, dim: int = 3) -> FiniteMetricSpace:
    while True:
        pts = rng.standard_normal((n, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=2))
        off = d + np.eye(n)
        if np.min(off) > 1e-6:
            return FiniteMetricSpace(d)


def graph_metric(n: int, rng: np.random.Generator) -> FiniteMetricSpace:
    w = rng.uniform(0.1, 2.0, size=(n, n))
    w = np.triu(w, 1)
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, None, :])
    return FiniteMetricSpace(d)


GENERATORS = (band_metric, euclidean_metric, graph_metric)


def random_metric(n: int, rng: np.random.Generator) -> FiniteMetricSpace:
    gen = GENERATORS[int(rng.integers(0, len(GENERATORS)))]
    return gen(n, rng)


def collinear(n: int, spacing: float = 1.0) -> FiniteMetricSpace:
    pos = np.arange(n, dtype=np.float64) * spacing
    return FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))


def boundary_triple(alpha: float, frac: float, scale: float = 1.0) -> FiniteMetricSpace:
    """Three points x, z, y whose SRA(alpha) slack at middle z is ``frac``
    times the default tolerance (for alpha = 1: the triangle slack)."""
    base = scale * (1.0 + alpha)
    tol = 1e-9 * (1.0 + base) / (1.0 - 1e-9 * frac)  # default_tol of the result
    d = np.array([[0.0, scale, base + frac * tol],
                  [scale, 0.0, scale],
                  [base + frac * tol, scale, 0.0]])
    return FiniteMetricSpace(d)


BOUNDARY_FRACS = (0.1, 0.25, 0.3, 0.5, 0.99, 1.01, 1.5, 1.99)


def scan_corpus(rng: np.random.Generator, alphas=(0.2, 0.5, 0.8, 0.95, 1.0)):
    """(name, space) pairs for the per-middle scan tests: Euclidean and
    snowflaked clouds with n = 3..20, collinear(41), a repeated point, a zero
    and a negative off-diagonal entry, a nonzero diagonal entry, a cycle-graph
    metric with exactly tight triangles, and boundary triples with slack in
    (0, tol] and (tol, 2*tol]."""
    out = []
    for n in range(3, 21):
        m = euclidean_metric(n, rng, dim=int(rng.integers(1, 4)))
        out += [(f"euclidean-{n}", m), (f"snowflaked-{n}", FiniteMetricSpace(m.dist ** 0.5))]
    out.append(("collinear-41", collinear(41)))
    pos = np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.5, 6.0])
    out.append(("repeated-point", FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))))
    zero = band_metric(9, rng).dist.copy()
    zero[2, 5] = zero[5, 2] = 0.0
    neg = band_metric(9, rng).dist.copy()
    neg[1, 4] = neg[4, 1] = -0.3
    diag = band_metric(6, rng).dist.copy()
    diag[3, 3] = 5.0
    out += [("zero-entry", FiniteMetricSpace(zero)), ("negative-entry", FiniteMetricSpace(neg)),
            ("nonzero-diagonal", FiniteMetricSpace(diag))]
    i = np.arange(10)
    gap = np.abs(i[:, None] - i[None, :])
    out.append(("cycle-graph", FiniteMetricSpace(np.minimum(gap, 10 - gap).astype(np.float64))))
    for alpha in alphas:
        for scale in (1.0, 1000.0):
            out += [(f"boundary-{alpha}-{scale}-{f}", boundary_triple(alpha, f, scale))
                    for f in BOUNDARY_FRACS]
    return out
