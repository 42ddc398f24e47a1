import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_angles import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    PointCloud,
    default_tol,
    diameter,
    doubling_estimate,
    freeness_via_cover,
    from_point_cloud,
    gen_snowflaked_path,
    greedy_net,
    max_sra_subset,
    net_embed,
    sample_model,
    subspace,
)
from rough_angles import metric_core, net_embedding, sra_analysis
from rough_angles._hypergraph import DEFAULT_BUDGET
from rough_angles.net_embedding import BallFreenessEntry, CoverFreenessReport

from _generators import boundary_triple, collinear, random_metric


def circle_space(samples=360):
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMetricSpace(np.sqrt(np.sum(diff * diff, axis=2)))


def assert_net_contract(m, net, r, on=None):
    pts = list(range(m.n)) if on is None else list(on)
    d = m.dist
    # covering
    for p in pts:
        assert min(d[p, z] for z in net) <= r + 1e-12
    # packing
    for i, a in enumerate(net):
        for b in net[i + 1:]:
            assert d[a, b] > r


def test_greedy_net_trivial():
    m = FiniteMetricSpace([[0.0]])
    assert greedy_net(m, 0.5) == [0]
    m2 = collinear(5)
    assert greedy_net(m2, 10.0) == [0]  # r >= diameter


def test_greedy_net_circle():
    m = circle_space()
    r = 0.02
    net = greedy_net(m, r)
    assert_net_contract(m, net, r)
    assert 100 <= len(net) <= 240


def test_greedy_net_random_spaces():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = random_metric(20, rng)
        r = 0.3 * diameter(m)
        net = greedy_net(m, r)
        assert_net_contract(m, net, r)


def test_greedy_net_on_subset():
    m = collinear(10)
    on = [0, 1, 2, 3]
    net = greedy_net(m, 1.5, on=on)
    assert set(net) <= set(on)
    assert_net_contract(m, net, 1.5, on=on)


def farthest_point_net(d, r, pts):
    """The farthest-point rule in plain Python: the first listed point, then,
    while some point is farther than r from the net, the first farthest."""
    net = [pts[0]]
    while True:
        gaps = [min(d[p][z] for z in net) for p in pts]
        far = max(range(len(pts)), key=lambda i: (gaps[i], -i))
        if gaps[far] <= r:
            return net
        net.append(pts[far])


def test_greedy_net_matches_farthest_point_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = random_metric(15, rng)
        d = m.dist.tolist()
        on = [int(i) for i in rng.permutation(m.n)[: rng.integers(1, m.n + 1)]]
        r = float(rng.uniform(0.05, 0.6)) * diameter(m)
        want = farthest_point_net(d, r, on)
        for arg in (on, np.asarray(on)):  # a list or an index array
            net = greedy_net(m, r, on=arg)
            assert net == want and all(type(z) is int for z in net)
        assert greedy_net(m, r) == farthest_point_net(d, r, list(range(m.n)))


def test_net_embed_full_net_gamma_one():
    rng = np.random.default_rng(4)
    m = random_metric(12, rng)
    emb = net_embed(m, list(range(m.n)))
    # coordinate at y itself gives |d(p,y) - 0| = d(p,y), so every pair's
    # ratio reaches 1; float-level triangle slack allows a few ulps above
    assert emb.gamma == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - 1e-12 <= emb.upper <= 1.0 + 1e-12


def test_net_embed_two_point_single_net():
    m = FiniteMetricSpace([[0.0, 3.0], [3.0, 0.0]])
    emb = net_embed(m, [0])
    assert emb.gamma == 1.0
    assert emb.upper == 1.0


def test_net_embed_coords_exact():
    m = collinear(4)
    emb = net_embed(m, [0, 3])
    assert np.array_equal(emb.coords, np.array([[0, 3], [1, 2], [2, 1], [3, 0]], dtype=float))


def test_net_embed_upper_lipschitz_always():
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = random_metric(15, rng)
        net = greedy_net(m, 0.4 * diameter(m))
        emb = net_embed(m, net)
        assert emb.upper <= 1.0 + 1e-12
        assert 0.0 <= emb.gamma <= emb.upper + 1e-15


def test_net_embed_gamma_monotone_in_net():
    rng = np.random.default_rng(23)
    m = random_metric(25, rng)
    order = list(range(25))
    gammas = []
    for size in range(2, 12):
        gammas.append(net_embed(m, order[:size]).gamma)
    assert all(b >= a for a, b in zip(gammas, gammas[1:]))


@pytest.mark.parametrize("dist,pair", [
    ([[0, 0, 1], [0, 0, 3], [1, 3, 0]], "d(0,1) = 0.0"),
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "d(1,2) = 0.0"),
])
def test_net_embed_refuses_zero_distance(dist, pair):
    # The pair's ratio would be 0/0, and its NaN would hide the other pairs
    # of its row from gamma and upper.
    with pytest.raises(ValueError, match=re.escape(pair)):
        net_embed(FiniteMetricSpace(dist), [0])


@pytest.mark.parametrize("r", [math.nan, 0.0, -1.0])
def test_greedy_net_refuses_radius_not_positive(r):
    # A NaN radius never covers a point, so the net would grow forever.
    with pytest.raises(ValueError, match="need r > 0"):
        greedy_net(collinear(5), r)


@pytest.mark.parametrize("s", [math.nan, 0.0])
def test_doubling_estimate_refuses_scale_not_positive(s):
    with pytest.raises(ValueError, match="scales must be positive"):
        doubling_estimate(collinear(5), [1.0, s])


def test_doubling_estimate_collinear():
    m = collinear(40, spacing=0.1)
    est = doubling_estimate(m, [1.0, 2.0])
    for e in est:
        assert 1 <= e.covering_number <= 3


def test_doubling_estimate_single_point():
    m = FiniteMetricSpace([[0.0]])
    assert doubling_estimate(m, [0.5])[0].covering_number == 1


def test_doubling_estimate_plane_sample_reports():
    pc = sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 2), 120, radius=1.0, seed=3)
    m = from_point_cloud(pc)
    est = doubling_estimate(m, [0.25])
    assert est[0].covering_number >= 1  # report only, no tight assertion


def reference_doubling_estimate(m, scales):
    """``doubling_estimate`` as one ``greedy_net`` per center, frozen to test
    the covers that run a block of centers at once against."""
    out = []
    d = m.dist
    for s in scales:
        if not s > 0.0:
            raise ValueError(f"scales must be positive, got {s}")
        worst = 1
        for center in range(m.n):
            ball = np.nonzero(d[center] <= 2.0 * s)[0]
            if ball.size <= 1:
                continue
            worst = max(worst, len(greedy_net(m, s, on=ball)))
        out.append(net_embedding.ScaleEstimate(scale=float(s), covering_number=worst))
    return out


def star(leaves, arm=0.5):
    """Point 0 at ``arm`` from each leaf, the leaves pairwise at 2 * arm."""
    d = np.full((leaves + 1, leaves + 1), 2.0 * arm)
    d[0, :] = d[:, 0] = arm
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


def asymmetric(n, rng):
    """Random positive entries, a zero diagonal and d[i, j] != d[j, i]."""
    d = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


def integer_graph(n, rng):
    """Shortest paths over a sparse random graph with edge weights 1-3: many
    distances tie, so the greedy covers' first-index rule decides their sizes."""
    w = np.triu(rng.integers(1, 4, size=(n, n)).astype(float), 1)
    edge = np.triu(rng.random((n, n)) < 0.4, 1)
    d = np.where(edge | edge.T, w + w.T, 3.0 * n)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, None, :])
    return FiniteMetricSpace(d)


def doubling_cases():
    """(space, scales) pairs: random metrics of 1-40 points, lattices, a line
    and integer graphs with distances exactly at s and 2s, stars, asymmetric
    spaces."""
    rng = np.random.default_rng(33)
    for _ in range(60):
        m = random_metric(int(rng.integers(1, 41)), rng)
        yield m, (rng.uniform(0.02, 0.7, size=4) * max(diameter(m), 1e-3)).tolist()
    for _ in range(40):
        yield integer_graph(int(rng.integers(3, 15)), rng), [0.5, 1.0, 1.5, 2.0, 3.0]
    for m in (lattice(4), lattice(6), collinear(12)):
        yield m, [0.5, 1.0, 1.5, 2.0, math.sqrt(2.0), 3.0]
    for leaves in (1, 7, 60):
        yield star(leaves), [0.2, 0.25, 0.26, 0.5, 1.0]
    for n in (2, 5, 17):
        m = asymmetric(n, rng)
        yield m, (rng.uniform(0.05, 1.0, size=4) * diameter(m)).tolist()
    # The cover of point 0's ball picks point 1, whose d(1, 1) = 2 is over the
    # scale 1.5, and ends only once point 2 covers it.
    yield FiniteMetricSpace([[0.0, 3.0, 2.9], [3.0, 2.0, 1.0], [2.9, 2.5, 0.0]]), [1.5]


@pytest.mark.parametrize("block_centers", [None, 1, 3])
def test_doubling_estimate_matches_reference(monkeypatch, block_centers):
    # None keeps the block size; 1 and 3 cut every space into blocks of that
    # many centers, so that block edges and dropping finished rows are crossed.
    for m, scales in doubling_cases():
        if block_centers is not None:
            monkeypatch.setattr(metric_core, "_BLOCK_ELEMENTS", block_centers * m.n)
        assert doubling_estimate(m, scales) == reference_doubling_estimate(m, scales)


def test_doubling_estimate_star():
    # From 2s = arm up, point 0's ball holds every leaf, and below s = arm its
    # cover needs every point; a leaf's ball holds only point 0 besides itself
    # until 2s reaches 2 * arm, where one point covers every ball.
    got = [e.covering_number for e in doubling_estimate(star(60), [0.2, 0.25, 0.4, 0.5])]
    assert got == [1, 61, 61, 1]


def test_doubling_estimate_refuses_a_cover_that_does_not_end():
    # The cover of point 0's ball picks point 1, at d(1, 1) = 3 from itself.
    m = FiniteMetricSpace([[0.0, 2.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=r"scale 1.5: a greedy cover does not end"):
        doubling_estimate(m, [1.5])


def test_greedy_net_refuses_a_net_that_does_not_end():
    # Point 1 is picked first (its gap 2 exceeds r) and stays 3 from itself.
    m = FiniteMetricSpace([[0.0, 2.0], [2.0, 3.0]])
    for on in (None, [1, 0], [1]):
        with pytest.raises(ValueError, match=r"r = 1.0: a greedy net does not end, as point 1 "
                                             r"has d\(1, 1\) = 3.0 > 1.0"):
            greedy_net(m, 1.0, on=on)
    with pytest.raises(ValueError, match=r"r = 1.0: a greedy net does not end"):
        freeness_via_cover(m, 0.8, 1.0, 2.5, k=3)
    # At r >= d(1, 1), or where another point covers point 1, the net ends.
    assert greedy_net(m, 3.0) == [0]
    assert greedy_net(m, 2.5) == [0]
    assert greedy_net(m, 1.0, on=[0]) == [0]
    covered = FiniteMetricSpace([[0.0, 3.0, 2.9], [3.0, 2.0, 1.0], [2.9, 2.5, 0.0]])
    assert greedy_net(covered, 1.5) == [0, 1, 2]
    # Picked again after another point: refused at the pick after.
    again = FiniteMetricSpace([[0.0, 3.0, 2.9], [3.0, 2.0, 2.0], [2.9, 2.5, 0.0]])
    with pytest.raises(ValueError, match=r"as point 1 has d\(1, 1\) = 2.0 > 1.5"):
        greedy_net(again, 1.5)


def test_freeness_cover_trivial():
    m = FiniteMetricSpace([[0.0]])
    rep = freeness_via_cover(m, 0.8, 0.5, 1.0, k=3)
    assert rep.holds


def test_freeness_cover_snowflaked_equality_pressure():
    d = gen_snowflaked_path(12, 0.5)
    m = d.space
    big_r = diameter(m)
    rep = freeness_via_cover(m, 0.5, 0.4 * big_r, big_r, k=12)
    assert rep.global_max == 12
    assert rep.holds


def test_freeness_cover_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(8):
        m = random_metric(int(rng.integers(8, 16)), rng)
        big_r = 0.8 * diameter(m)
        r = 0.35 * big_r
        alpha = float(rng.uniform(0.55, 0.9))
        rep = freeness_via_cover(m, alpha, r, big_r, k=4)
        assert rep.holds
        assert rep.global_max <= rep.bound


def far_clusters(alpha, fracs, gap):
    """One ``boundary_triple(alpha, frac)`` per frac, each point ``gap`` from
    every point of the other triples."""
    n = 3 * len(fracs)
    d = np.full((n, n), float(gap))
    for i, frac in enumerate(fracs):
        d[3 * i:3 * i + 3, 3 * i:3 * i + 3] = boundary_triple(alpha, frac).dist
    return FiniteMetricSpace(d)


def test_freeness_cover_at_the_tolerance_boundary():
    # Each triple breaks SRA(0.8) by about 3.6 times its own tolerance, but
    # by less than the R-ball's, at which every search runs.
    rep = freeness_via_cover(far_clusters(0.8, (3.6, 3.6), 100.0), 0.8, 2.0, 200.0, k=3)
    assert [e.max_sra_size for e in rep.per_ball] == [3, 3]
    assert (rep.global_max, rep.bound, rep.holds, rep.all_balls_free_of_k) == (6, 6, True, False)


@st.composite
def cover_cases(draw):
    """(space, alpha, r, R): far-apart boundary triples whose slack is 1 to
    50 times their own tolerance, with one r-ball per triple, or a random
    metric at radii that are fractions of its diameter."""
    alpha = draw(st.floats(0.2, 0.95))
    if draw(st.booleans()):
        fracs = draw(st.lists(st.floats(1.01, 50.0), min_size=1, max_size=3))
        gap = draw(st.floats(10.0, 1000.0))
        return far_clusters(alpha, fracs, gap), alpha, 2.0, 2.0 * gap
    m = random_metric(draw(st.integers(3, 10)), np.random.default_rng(draw(st.integers(0, 2**32))))
    big_r = draw(st.floats(0.3, 1.0)) * diameter(m)
    return m, alpha, draw(st.floats(0.1, 0.9)) * big_r, big_r


@settings(max_examples=120, deadline=None)
@given(cover_cases(), st.integers(1, 5))
def test_freeness_cover_never_breaks_the_pigeonhole(case, k):
    """The pigeonhole inequality is a theorem, so an exact check never reports
    it broken."""
    m, alpha, r, big_r = case
    rep = freeness_via_cover(m, alpha, r, big_r, k)
    assert rep.holds is not False, (rep.global_max, rep.bound)


def test_freeness_cover_unknown_on_budget():
    m = collinear(12)
    rep = freeness_via_cover(m, 0.9, 3.0, 11.5, k=3, budget=2)
    assert rep.holds is None


def test_freeness_cover_validates_radii():
    with pytest.raises(ValueError):
        freeness_via_cover(collinear(4), 0.8, 2.0, 1.0, k=3)


# The cover as it was before it scanned the R-ball once: one branch and
# bound (``max_sra_subset``) per ball and one for the R-ball, each over its
# own scan.  Kept verbatim as a test oracle.

def reference_freeness_via_cover(m, alpha, r, big_r, k, budget=DEFAULT_BUDGET):
    if not (0.0 < r < big_r):
        raise ValueError("need 0 < r < R")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    d = m.dist
    ball_r = [int(i) for i in np.nonzero(d[0] <= big_r)[0]]
    centers = greedy_net(m, r, on=ball_r)
    sub_r = subspace(m, ball_r)
    tol = default_tol(sub_r)
    entries = []
    exact = True
    for c in centers:
        members = [p for p in ball_r if d[c, p] <= r]
        if not members:
            continue
        cert = max_sra_subset(subspace(m, members), alpha, budget=budget, tol=tol)
        exact = exact and cert.optimal
        entries.append(BallFreenessEntry(center=c, ball=tuple(members),
                                         max_sra_size=cert.size, optimal=cert.optimal))
    global_cert = max_sra_subset(sub_r, alpha, budget=budget, tol=tol)
    exact = exact and global_cert.optimal
    per_ball_max = max((e.max_sra_size for e in entries), default=0)
    bound = len(centers) * per_ball_max
    holds = (global_cert.size <= bound) if exact else None
    return CoverFreenessReport(
        alpha=float(alpha), r=float(r), big_r=float(big_r), k=k,
        cover_centers=tuple(centers), per_ball=tuple(entries),
        global_max=global_cert.size, global_optimal=global_cert.optimal,
        bound=bound, holds=holds,
        all_balls_free_of_k=all(e.max_sra_size < k for e in entries),
    )


def assert_cover_matches_reference(m, alpha, r, big_r, k):
    """Where every search of the reference completes, the one-scan cover
    gives the same report, field for field."""
    want = reference_freeness_via_cover(m, alpha, r, big_r, k)
    if want.holds is None:
        return
    got = freeness_via_cover(m, alpha, r, big_r, k)
    assert got == want
    assert got.global_optimal and all(e.optimal for e in got.per_ball)


@settings(max_examples=60, deadline=None)
@given(cover_cases(), st.integers(1, 5))
def test_freeness_cover_matches_reference_on_cover_cases(case, k):
    assert_cover_matches_reference(*case, k)


def test_freeness_cover_matches_reference_on_random_metrics():
    rng = np.random.default_rng(40)
    for _ in range(20):
        m = random_metric(int(rng.integers(8, 16)), rng)
        big_r = float(rng.uniform(0.5, 1.0)) * diameter(m)
        assert_cover_matches_reference(m, float(rng.uniform(0.3, 0.9)),
                                       float(rng.uniform(0.4, 0.9)) * big_r, big_r, 4)


def lattice(k, jitter=0.0, seed=0):
    """The k x k unit lattice, each point moved by up to ``jitter`` per
    coordinate; point 0 is a corner."""
    pts = np.array([(i, j) for i in range(k) for j in range(k)], dtype=float)
    pts += np.random.default_rng(seed).uniform(-jitter, jitter, pts.shape)
    return from_point_cloud(PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2), pts))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("jitter, r", [(0.0, 2.5), (0.1, 1.5)])
def test_freeness_cover_matches_reference_on_lattices(k, jitter, r):
    # R = 2k reaches every lattice point from the corner.
    assert_cover_matches_reference(lattice(k, jitter, seed=k), 0.8, r, 2.0 * k, 3)


def counted_scans(monkeypatch):
    """A list that gains one entry per call of the per-middle scan."""
    calls = []
    scan = metric_core._middle_scan

    def counted(*args, **kwargs):
        calls.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(metric_core, "_middle_scan", counted)
    monkeypatch.setattr(sra_analysis, "_middle_scan", counted)
    return calls


@pytest.mark.parametrize("alpha, passes", [(0.5, True), (0.9, False)])
def test_freeness_cover_scans_once(monkeypatch, alpha, passes):
    # A snowflaked path is SRA(0.5), and every triple of a line breaks SRA(0.9).
    m = gen_snowflaked_path(12, 0.5).space if passes else collinear(12)
    big_r = diameter(m)
    calls = counted_scans(monkeypatch)
    rep = freeness_via_cover(m, alpha, 0.4 * big_r, big_r, k=3)
    assert calls == [alpha]
    assert rep.holds and (rep.global_max == 12) == passes


def test_freeness_cover_counts_balls_without_hyperedges(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a ball with no hyperedge was searched")

    monkeypatch.setattr(net_embedding, "_in_order_search", no_search)
    m = gen_snowflaked_path(12, 0.5).space
    big_r = diameter(m)
    rep = freeness_via_cover(m, 0.5, 0.3 * big_r, big_r, k=3)
    assert len(rep.per_ball) > 1
    assert all(e.max_sra_size == len(e.ball) and e.optimal for e in rep.per_ball)
    assert (rep.global_max, rep.global_optimal, rep.holds) == (12, True, True)


def test_freeness_cover_refuses_negative_budget_before_scanning(monkeypatch):
    calls = counted_scans(monkeypatch)
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        freeness_via_cover(collinear(6), 0.8, 1.5, 5.0, k=3, budget=-1)
    assert calls == []
