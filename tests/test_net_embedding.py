import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_angles import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    diameter,
    doubling_estimate,
    freeness_via_cover,
    from_point_cloud,
    gen_snowflaked_path,
    greedy_net,
    net_embed,
    sample_model,
)

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
