"""Seeded generators for random valid metric spaces, used across the suite.

Three constructions, all metrics by construction:

* band: symmetric entries uniform in [1, 2]; any such matrix satisfies the
  triangle inequality since every sum of two entries is >= 2.
* euclidean: pairwise distances of a random point cloud.
* graph: shortest-path closure (Floyd-Warshall) of random positive weights.

``edge_third`` turns a list of hyperedges into the ``third`` masks of the
in-order search, as a test's independent route to them.  ``rows`` reads the
report columns of verdicts and audits back as tuples.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from rough_angles import FiniteMetricSpace, curve_to_dse, gen_gradient_trajectory


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


def gradient_dse(seed: int, steps: int = 40):
    """Reversed gradient-descent polyline of a random 2-D quadratic with step
    0.9/lambda_max (the gen-curve recipe): a DSE space of steps + 1 points."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2))
    q = a.T @ a + 0.5 * np.eye(2)
    step = 0.9 / float(np.max(np.linalg.eigvalsh(q)))
    return curve_to_dse(gen_gradient_trajectory(q, rng.standard_normal(2), step, steps))


def edge_third(edges: Iterable[tuple[int, int, int]]) -> Callable[[int, int], int]:
    """``third`` for ``_hypergraph._in_order_search`` from increasing triples
    (a, b, c)."""
    masks: dict[tuple[int, int], int] = {}
    for a, b, c in edges:
        masks[a, b] = masks.get((a, b), 0) | (1 << c)
    return lambda a, b: masks.get((a, b), 0)


def rows(columns, names: str) -> list[tuple]:
    """The rows of a report ``Columns`` as tuples, once its column names are
    checked to be the space-separated ``names``, in that order."""
    assert list(columns.columns) == names.split(), list(columns.columns)
    return list(zip(*columns.columns.values()))


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


ANGLE_ALPHAS = (0.1, 0.5, 0.8, 0.95)


def _fan(alpha: float, rays: int, dim: int, rng: np.random.Generator,
         short: float = 1.0) -> np.ndarray:
    """The origin plus a chain of rays, each at vertex angle arccos(-alpha)
    from the one before up to rounding: the threshold of the angle audit.
    Every second ray is scaled by ``short``; at 1e-9 the SRA slack of a
    threshold pair falls below the rounding of its long side."""
    theta = float(np.arccos(-alpha))
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    pts = [np.zeros(dim)]
    for i in range(rays):
        pts.append(rng.uniform(0.5, 2.0) * (short if i % 2 else 1.0) * u)
        w = rng.standard_normal(dim)
        w -= np.dot(w, u) * u
        u = np.cos(theta) * u + np.sin(theta) * w / np.linalg.norm(w)
        u /= np.linalg.norm(u)
    return np.array(pts)


def angle_corpus(rng: np.random.Generator):
    """(name, coords) pairs for the angle-audit tests: Gaussian clouds with
    n = 1..30 in dims 1..4; clouds with one or two repeated points, or with a
    point 1e-14 (a degenerate leg of nonzero length) or 1e-9 from another;
    integer lattices, whose exact 90 and 120 degree vertices (the 120 degree
    vertex sits exactly at the alpha = 0.5 threshold) meet rounded norms; a
    rounded hexagonal lattice; collinear runs; and 12-point fans (``_fan``)
    for every alpha in ``ANGLE_ALPHAS``, more of them at the larger alphas,
    where a few ulps of cosine move the rounded angle across the threshold."""
    out = []
    for n in range(1, 31):
        dim = 1 + n % 4
        out.append((f"gauss-{n}-{dim}", rng.standard_normal((n, dim))))
    for k in range(16):
        n, dim = int(rng.integers(3, 16)), int(rng.integers(1, 5))
        c = rng.standard_normal((n, dim))
        offset = (0.0, 0.0, 1e-14, 1e-9)[k % 4]
        for src in rng.choice(n, size=1 + k % 2, replace=False).tolist():
            c[int(rng.integers(0, n))] = c[src] + offset * rng.standard_normal(dim)
        out.append((f"repeated-{k}", c))
    out.append(("grid-4x4", np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)))
    out.append(("cube-3", np.array([(i, j, k) for i in range(3) for j in range(3)
                                    for k in range(3)], dtype=float)))
    out.append(("triad-120", np.array([[0, 0, 0], [1, 1, 0], [0, -1, -1], [-1, 0, 1],
                                       [2, 2, 0], [0, -2, -2]], dtype=float)))
    out.append(("hex", np.array([(i + j / 2, j * np.sqrt(3) / 2)
                                 for i in range(-2, 3) for j in range(-2, 3)])))
    for dim in range(1, 5):
        step = rng.standard_normal(dim)
        run = np.arange(8)[:, None] * step
        out.append((f"collinear-{dim}", run))
        out.append((f"collinear-bent-{dim}", np.vstack([run, rng.standard_normal((3, dim))])))
    for alpha in ANGLE_ALPHAS:
        for k in range(40 if alpha > 0.7 else 8):
            out.append((f"fan-{alpha}-{k}",
                        _fan(alpha, 11, 2 + k % 3, rng, 1e-9 if k % 4 == 3 else 1.0)))
    return out
