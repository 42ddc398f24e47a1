import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_angles import (
    EUCLIDEAN_L2,
    NORMED_L1,
    DivergenceError,
    FiniteMetricSpace,
    ModelSpaceSpec,
    SampledCurve,
    curve_diameter,
    curve_length,
    curve_to_dse,
    gen_gradient_trajectory,
    gen_quasiconvex_trajectory,
    gen_subgradient_trajectory,
    is_dse,
    is_self_contracted,
    length_L,
)
from rough_angles import curves, dse_spaces


def euclid_curve(times, points):
    return SampledCurve(ModelSpaceSpec(EUCLIDEAN_L2, len(points[0])), times, points)


def segment_curve(n=6):
    t = np.linspace(0.0, 1.0, n)
    pts = np.stack([t, np.zeros(n)], axis=1)
    return euclid_curve(t, pts)


def test_straight_segment_self_contracted():
    assert is_self_contracted(segment_curve(), tol=0.0).ok


def test_circle_loop_not_self_contracted():
    eps = 1e-3
    t = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi - eps])
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    verdict = is_self_contracted(euclid_curve(t, pts), tol=1e-9)
    assert not verdict.ok
    # the loop closes in on its start: far point then near point
    trip = verdict.violations[0]
    assert trip.amount > 0.5


def test_gradient_descent_curve_self_contracted():
    q = np.diag([1.0, 10.0])
    c = gen_gradient_trajectory(q, [1.0, 1.0], step=0.05, steps=40)
    assert is_self_contracted(c, tol=1e-9).ok


def test_gradient_trajectory_hand_iteration():
    c = gen_gradient_trajectory(np.eye(2), [1.0, 0.0], step=0.1, steps=3)
    assert np.allclose(c.points[:, 0], [1.0, 0.9, 0.81, 0.729], atol=0)
    assert np.all(c.points[:, 1] == 0.0)


def test_gradient_trajectory_fixed_point():
    c = gen_gradient_trajectory(np.eye(3), [0.0, 0.0, 0.0], step=0.1, steps=5)
    assert np.all(c.points == 0.0)
    assert curve_length(c) == 0.0
    assert curve_diameter(c) == 0.0


def test_gradient_trajectory_divergence_names_step():
    with pytest.raises(DivergenceError, match="step 1"):
        gen_gradient_trajectory(np.diag([1.0, 10.0]), [1.0, 1.0], step=0.21, steps=5)


def test_gradient_trajectory_validates_matrix():
    with pytest.raises(ValueError):
        gen_gradient_trajectory([[1.0, 2.0], [0.0, 1.0]], [1.0, 0.0], 0.1, 2)
    with pytest.raises(ValueError):
        gen_gradient_trajectory([[0.0, 0.0], [0.0, -1.0]], [1.0, 0.0], 0.1, 2)


def test_curve_length_examples():
    assert curve_length(segment_curve(4)) == pytest.approx(1.0, abs=1e-15)
    # quarter circle via ends plus midpoint: two chords of 2 sin(pi/8)
    t = np.array([0.0, math.pi / 4, math.pi / 2])
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    got = curve_length(euclid_curve(t, pts))
    assert got == pytest.approx(4.0 * math.sin(math.pi / 8), rel=1e-15)


def test_constant_curve_trivial():
    c = euclid_curve([0.0, 1.0, 2.0], [[1, 1], [1, 1], [1, 1]])
    assert curve_length(c) == 0.0
    assert is_self_contracted(c, tol=0.0).ok
    d = curve_to_dse(c)
    assert d.n == 1


def test_curve_to_dse_straight():
    d = curve_to_dse(segment_curve(5))
    assert d.n == 5
    assert is_dse(d.space, tol=0.0).ok
    assert length_L(d) == pytest.approx(1.0, abs=1e-15)


def test_curve_to_dse_gradient():
    c = gen_gradient_trajectory(np.diag([1.0, 10.0]), [1.0, 1.0], step=0.05, steps=30)
    d = curve_to_dse(c)
    assert is_dse(d.space, tol=1e-9).ok


def test_curve_to_dse_rejects_non_contracted():
    t = np.array([0.0, 1.0, 2.0])
    # overshoot far past the endpoint and come back: d(p1,p2) > d(p0,p2)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="not self-contracted"):
        curve_to_dse(euclid_curve(t, pts))


def test_single_point_curve():
    c = euclid_curve([0.0], [[3.0, 4.0]])
    assert c.n == 1
    assert curve_to_dse(c).n == 1


def test_reversal_soundness_random_quadratics():
    """For every generated trajectory the reversed order is DSE at the same
    tolerance; tested over many random positive definite instances."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        dim = int(rng.integers(1, 6))
        a = rng.standard_normal((dim, dim))
        q = a.T @ a + 0.3 * np.eye(dim)
        lam = float(np.max(np.linalg.eigvalsh(q)))
        start = rng.standard_normal(dim) * 2.0
        steps = int(rng.integers(3, 40))
        c = gen_gradient_trajectory(q, start, step=0.9 / lam, steps=steps)
        assert is_self_contracted(c, tol=1e-9).ok
        assert is_dse(curve_to_dse(c).space, tol=1e-9).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 25), st.integers(2, 28))
def test_subcurve_property(seed, lo, span):
    rng = np.random.default_rng(seed)
    q = np.diag(sorted(rng.uniform(0.5, 9.0, size=3)))
    c = gen_gradient_trajectory(q, rng.standard_normal(3), step=0.05, steps=30)
    hi = min(lo + span, c.n)
    if hi - lo < 2:
        return
    sub = SampledCurve(c.model, c.times[lo:hi], c.points[lo:hi])
    assert is_self_contracted(sub, tol=1e-9).ok


def test_refinement_lengths_bounded():
    # Halving the step on a fixed quadratic keeps polyline length bounded;
    # record the monotone refinement sequence.
    q = np.diag([1.0, 10.0])
    start = [1.0, 1.0]
    horizon = 2.0
    lengths = []
    for steps in (20, 40, 80, 160):
        c = gen_gradient_trajectory(q, start, step=horizon / steps, steps=steps)
        lengths.append(curve_length(c))
        assert is_self_contracted(c, tol=1e-9).ok
    diam = curve_diameter(gen_gradient_trajectory(q, start, 0.05, 40))
    assert max(lengths) < 10.0 * max(diam, 1.0)
    assert max(lengths) - min(lengths) < 0.5


def test_quasiconvex_trajectory_self_contracted():
    c = gen_quasiconvex_trajectory([2.0, 1.0], step=0.3, steps=25)
    assert is_self_contracted(c, tol=1e-12).ok
    with pytest.raises(DivergenceError):
        gen_quasiconvex_trajectory([0.5, 0.0], step=2.0, steps=5)


def test_subgradient_trajectory_runs_and_is_measured():
    slopes = [[1.0, 0.0], [-1.0, 0.3], [0.2, -1.0]]
    offsets = [0.0, 0.1, -0.2]
    c = gen_subgradient_trajectory(slopes, offsets, [2.0, 2.0], step=0.2, steps=30)
    assert c.n == 31
    # single affine piece degenerates to a straight monotone path
    c2 = gen_subgradient_trajectory([[1.0, 1.0]], [0.0], [3.0, 0.0], step=0.1, steps=10)
    assert is_self_contracted(c2, tol=1e-9).ok


def test_times_must_increase():
    with pytest.raises(ValueError):
        euclid_curve([0.0, 0.0], [[0, 0], [1, 1]])


@pytest.mark.parametrize("times", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf]],
                         ids=["nan", "inf"])
def test_times_must_be_finite(times):
    with pytest.raises(ValueError, match="finite"):
        euclid_curve(times, [[0.0], [1.0], [2.0]])


def oracle_contraction(points, metric, tol, cap):
    """Independent oracle: for each endpoint k from the last down, then each
    j <= k, a witness (i, j, k) when d(j,k) > min_{i'<=j} d(i',k) + tol, with
    i the first index attaining that minimum; the list is cut at ``cap`` and
    then sorted by indices."""
    n = len(points)
    full = []
    for k in range(n - 1, 0, -1):
        col = [metric(points[i], points[k]) for i in range(k + 1)]
        for j in range(k + 1):
            low = min(col[:j + 1])
            i = next(i for i in range(j + 1) if col[i] == low)
            if col[j] > low + tol:
                full.append(((i, j, k), col[j] - col[i]))
    return sorted(full[:cap]), len(full) > cap


def test_is_self_contracted_matches_witness_oracle(monkeypatch):
    """Integer coordinates keep every distance exact (l1) or correctly
    rounded (l2), so the oracle's distances are the checker's, ties included."""
    metrics = {
        NORMED_L1: lambda p, q: float(sum(abs(a - b) for a, b in zip(p, q))),
        EUCLIDEAN_L2: lambda p, q: math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q))),
    }
    rng = np.random.default_rng(62)
    for n in range(1, 10):
        for rep in range(8):
            kind = (NORMED_L1, EUCLIDEAN_L2)[rep % 2]
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            times = np.arange(n) * 0.5
            c = SampledCurve(ModelSpaceSpec(kind, 2), times, pts)
            dmax = max((metrics[kind](p, q) for p in pts.tolist() for q in pts.tolist()),
                       default=0.0)
            for tol in (None, 0.0, 0.3, -1e-3):
                t = 1e-9 * (1.0 + dmax) if tol is None else tol
                for cap in (0, 1, 3, 1000):
                    monkeypatch.setattr(dse_spaces, "MAX_VIOLATIONS", cap)
                    verdict = is_self_contracted(c, tol=tol)
                    expect, truncated = oracle_contraction(pts.tolist(), metrics[kind], t, cap)
                    got = [(v.indices, v.amount) for v in verdict.violations]
                    assert got == expect
                    assert all((v.t1, v.t2, v.t3) == tuple(times[list(v.indices)])
                               for v in verdict.violations)
                    assert verdict.truncated == truncated and verdict.tol == t
                    assert verdict.ok == (not expect and not truncated)


def test_truncated_before_any_violation_is_not_ok(monkeypatch):
    """A cap of 0 stops both checks at their first violation, before it is
    recorded; the verdict must still be negative."""
    monkeypatch.setattr(dse_spaces, "MAX_VIOLATIONS", 0)
    pos = np.array([0.0, 2.0, 1.0])
    dse = is_dse(FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :])), tol=0.0)
    assert dse.truncated and not dse.violations and not dse.ok
    curve = is_self_contracted(euclid_curve([0.0, 1.0, 2.0], [[0.0], [3.0], [1.0]]))
    assert curve.truncated and not curve.violations and not curve.ok


def reference_collapse(d):
    """The loop curve_to_dse collapsed repeated samples with before its
    one-pass collapse, kept verbatim as a test oracle: the original indices
    kept, in reversed sample order."""
    order = list(range(len(d) - 1, -1, -1))
    kept = []
    for idx in order:
        if any(d[prev, idx] <= 0.0 for prev in kept):
            continue
        kept.append(idx)
    return kept


def cli_gradient_curve(seed, dim, steps):
    """The curve ``gen-curve --seed seed --dim dim --steps steps`` writes."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    q = a.T @ a + 0.5 * np.eye(dim)
    step = 0.9 / float(np.max(np.linalg.eigvalsh(q)))
    return gen_gradient_trajectory(q, rng.standard_normal(dim), step, steps)


def stalled_curves():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 20, 60):
        for dim in (1, 2):
            # A non-increasing path along the first axis, with repeats.
            x = np.sort(rng.integers(0, 6, size=n))[::-1].astype(float)
            pts = np.zeros((n, dim))
            pts[:, 0] = x
            yield euclid_curve(np.arange(n, dtype=float), pts)
    yield gen_quasiconvex_trajectory([0.0, 0.0], 0.1, 12)
    yield euclid_curve([0.0, 1.0, 2.0], [[3e-162], [1.5e-162], [0.0]])


def test_curve_to_dse_matches_reference_collapse():
    collapsed = 0
    gradient = [cli_gradient_curve(seed, dim, steps) for seed in range(3)
                for dim in (1, 2, 3) for steps in (150, 260, 400)]
    for c in gradient + list(stalled_curves()):
        kept = reference_collapse(c.dist)
        got = curve_to_dse(c)
        assert np.array_equal(got.dist, c.dist[np.ix_(kept, kept)])
        collapsed += len(kept) < c.n
    assert collapsed >= 10


def test_collapse_keeps_samples_that_only_meet_dropped_ones():
    """Under underflow, coincidence is not transitive: the middle sample is
    at distance 0 from both ends, the ends are not.  Reversed, the middle
    sample is dropped against the last one, and the first one stays because
    it meets only the dropped sample."""
    c = euclid_curve([0.0, 1.0, 2.0], [[3e-162], [1.5e-162], [0.0]])
    assert c.dist[0, 1] == c.dist[1, 2] == 0.0 < c.dist[0, 2]
    d = curve_to_dse(c)
    assert d.n == 2 and d.dist[0, 1] == c.dist[0, 2]


def test_a_curve_computes_its_distances_once(monkeypatch):
    calls = []

    def counting(model, points):
        calls.append(len(points))
        return pairwise(model, points)

    pairwise = curves._pairwise
    monkeypatch.setattr(curves, "_pairwise", counting)
    c = cli_gradient_curve(3, 2, 60)
    assert not calls
    is_self_contracted(c)
    curve_length(c)
    curve_diameter(c)
    curve_to_dse(c)
    assert calls == [c.n]
    assert not c.dist.flags.writeable
