import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_angles import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    PointCloud,
    critical_alpha,
    default_tol,
    euclidean_angle_audit,
    from_point_cloud,
    is_sra,
    max_sra_subset,
    sample_model,
    snowflake,
    sra_free_order,
    sra_report,
    subspace,
    violating_triples,
)

from rough_angles._hypergraph import max_independent_subset
from rough_angles.sra_analysis import MAX_VIOLATIONS

from _generators import BOUNDARY_FRACS, boundary_triple, collinear, random_metric, scan_corpus


def equilateral(n=3, side=1.0):
    d = np.full((n, n), side)
    np.fill_diagonal(d, 0.0)
    return FiniteMetricSpace(d)


def brute_force_max_sra(m, alpha, tol=0.0):
    """Independent oracle: enumerate all subsets, check each directly."""
    best = ()
    for size in range(m.n, 0, -1):
        for combo in combinations(range(m.n), size):
            if is_sra(subspace(m, combo), alpha, tol=tol).is_sra:
                return combo
    return best


def test_is_sra_equilateral():
    assert is_sra(equilateral(), 0.3, tol=0.0).is_sra


def test_is_sra_collinear_violation():
    v = is_sra(collinear(3), 0.9, tol=0.0)
    assert not v.is_sra
    assert (v.violations[0].x, v.violations[0].z, v.violations[0].y) == (0, 1, 2)
    assert v.violations[0].slack == pytest.approx(0.1)


def test_is_sra_snowflaked_collinear():
    s = snowflake(collinear(3), 0.5)
    assert is_sra(s, 0.5, tol=1e-12).is_sra


def test_is_sra_alpha_range():
    with pytest.raises(ValueError):
        is_sra(collinear(3), 1.2)


def test_critical_alpha_examples():
    assert critical_alpha(collinear(3)) == 1.0
    assert critical_alpha(equilateral()) == 0.0
    s = snowflake(collinear(3), 0.5)
    assert critical_alpha(s) == pytest.approx(math.sqrt(2) - 1.0, abs=1e-15)
    assert critical_alpha(FiniteMetricSpace([[0.0, 1.0], [1.0, 0.0]])) == 0.0
    # Collinear 0, 1, 2 plus a second point at 1: the repeated point gives
    # 0/0 ratios, which must not hide the violating triple (0, 1, 2).
    pos = np.array([0.0, 1.0, 2.0, 1.0])
    dup = FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))
    assert critical_alpha(dup) == 1.0
    assert not is_sra(dup, 0.9, tol=0.0).is_sra


def test_critical_alpha_matches_is_sra_on_grid():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = random_metric(int(rng.integers(3, 9)), rng)
        crit = critical_alpha(m)
        for alpha in np.linspace(0.02, 0.98, 25):
            if abs(alpha - crit) <= 1e-12:
                continue
            assert is_sra(m, float(alpha), tol=0.0).is_sra == (alpha > crit)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10_000),
       st.floats(0.05, 0.9), st.floats(0.0, 0.95))
def test_monotonicity_in_alpha(n, seed, a1, bump):
    a2 = a1 + (0.99 - a1) * bump
    m = random_metric(n, np.random.default_rng(seed))
    v1 = is_sra(m, a1, tol=0.0)
    v2 = is_sra(m, a2, tol=0.0)
    if v1.is_sra:
        assert v2.is_sra
    t1 = {(t.x, t.z, t.y) for t in v1.violations}
    t2 = {(t.x, t.z, t.y) for t in v2.violations}
    assert t2 <= t1


def test_scale_invariance():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_metric(6, rng)
        scaled = FiniteMetricSpace(m.dist * 37.5)
        assert critical_alpha(scaled) == pytest.approx(critical_alpha(m), rel=1e-12)
        a, b = max_sra_subset(m, 0.7, tol=0.0), max_sra_subset(scaled, 0.7, tol=0.0)
        assert a.size == b.size


def test_max_sra_collinear6():
    cert = max_sra_subset(collinear(6), 0.9)
    assert cert.size == 2
    assert cert.optimal
    # brute force scans sizes downward, combinations in lex order, so it also
    # returns the lexicographically smallest maximum subset
    assert cert.subset == brute_force_max_sra(collinear(6), 0.9) == (0, 1)


def test_max_sra_snowflaked_whole_space():
    s = snowflake(collinear(6), 0.5)
    cert = max_sra_subset(s, 0.5)
    assert cert.size == 6
    assert cert.optimal
    assert cert.subset == tuple(range(6))


def test_max_sra_two_points():
    m = FiniteMetricSpace([[0.0, 2.0], [2.0, 0.0]])
    cert = max_sra_subset(m, 0.5)
    assert cert.size == 2 and cert.optimal


def test_max_sra_matches_brute_force_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(4, 9))
        m = random_metric(n, rng)
        alpha = float(rng.uniform(0.2, 0.95))
        cert = max_sra_subset(m, alpha, tol=0.0)
        oracle = brute_force_max_sra(m, alpha)
        assert cert.optimal
        assert cert.size == len(oracle)
        # the certificate itself re-verifies
        assert is_sra(subspace(m, cert.subset), alpha, tol=0.0).is_sra


def test_max_sra_lexicographic_certificate():
    # Exactly one violating triple {0,1,2}: optima are all 3-subsets except
    # {0,1,2}; the lexicographically smallest is (0,1,3).
    d = np.array([
        [0.0, 2.0, 1.05, 1.2],
        [2.0, 0.0, 1.05, 1.2],
        [1.05, 1.05, 0.0, 1.1],
        [1.2, 1.2, 1.1, 0.0],
    ])
    m = FiniteMetricSpace(d)
    assert violating_triples(m, 0.8, tol=0.0) == [(0, 1, 2)]
    cert = max_sra_subset(m, 0.8, tol=0.0)
    assert cert.size == 3 and cert.optimal
    assert cert.subset == (0, 1, 3)


def test_max_sra_budget_exhaustion_is_reported():
    cert = max_sra_subset(collinear(9), 0.9, budget=3)
    assert not cert.optimal
    assert cert.size >= 2  # greedy incumbent still reported
    assert cert.bound >= cert.size


def test_heredity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_metric(8, rng)
        alpha = float(rng.uniform(0.3, 0.9))
        if not is_sra(m, alpha, tol=0.0).is_sra:
            continue
        idx = sorted(rng.choice(8, size=5, replace=False).tolist())
        assert is_sra(subspace(m, idx), alpha, tol=0.0).is_sra


def test_sra_free_order():
    assert sra_free_order(collinear(6), 0.9) == 3
    assert sra_free_order(equilateral(), 0.3) == 4
    assert sra_free_order(FiniteMetricSpace([[0.0]]), 0.5) == 2
    assert sra_free_order(collinear(9), 0.9, budget=3) is None


def test_snowflake_law_small():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = random_metric(int(rng.integers(3, 9)), rng)
        for alpha in (0.3, 0.6, 0.9):
            assert is_sra(snowflake(m, alpha), alpha, tol=1e-12).is_sra


def oracle_violations(m, alpha, tol):
    """Independent oracle: every (x, z, y, slack) above tol by a plain triple
    loop over the literal definition, middle first, then x < y."""
    d = m.dist.tolist()
    out = []
    for z in range(m.n):
        for x in range(m.n):
            for y in range(x + 1, m.n):
                if z in (x, y):
                    continue
                a, b = d[x][z], d[z][y]
                slack = d[x][y] - max(a + alpha * b, alpha * a + b)
                if slack > tol:
                    out.append((x, z, y, slack))
    return out


def oracle_critical_alpha(m):
    """Independent oracle: the largest per-triple need, clamped below at 0; a
    0/0 ratio (a branch that holds for every alpha) drops its triple."""
    d = m.dist.tolist()

    def ratio(num, den):
        if den != 0.0:
            return num / den
        return math.nan if num == 0.0 else math.copysign(math.inf, num)

    worst = 0.0
    for z in range(m.n):
        for x in range(m.n):
            for y in range(m.n):
                if len({x, y, z}) < 3:
                    continue
                r1 = ratio(d[x][y] - d[x][z], d[y][z])
                r2 = ratio(d[y][x] - d[y][z], d[x][z])
                if not (math.isnan(r1) or math.isnan(r2)):
                    worst = max(worst, min(r1, r2))
    return worst


def check_against_oracles(m, alpha, tol, budget):
    expect = oracle_violations(m, alpha, default_tol(m) if tol is None else tol)
    verdict = is_sra(m, alpha, tol=tol)
    assert [(v.x, v.z, v.y, v.slack) for v in verdict.violations] == expect[:MAX_VIOLATIONS]
    assert verdict.is_sra == (not expect)
    assert verdict.truncated == (len(expect) > MAX_VIOLATIONS)
    assert violating_triples(m, alpha, tol=tol) == sorted({tuple(sorted(v[:3])) for v in expect})
    rep = sra_report(m, alpha, budget=budget, tol=tol)
    assert rep["is_sra"] == verdict.is_sra
    assert rep["violations"] == [{"x": x, "z": z, "y": y, "slack": s}
                                 for x, z, y, s in expect[:MAX_VIOLATIONS]]
    assert rep["tol"] == verdict.tol
    return rep


def test_violation_scan_matches_triple_loop_oracle():
    rng = np.random.default_rng(44)
    for n in range(3, 10):
        for _ in range(3):
            m = random_metric(n, rng)
            crit = oracle_critical_alpha(m)
            assert critical_alpha(m) == crit
            for alpha in (0.2, 0.5, 0.8, 0.95):
                for tol in (0.0, None):
                    rep = check_against_oracles(m, alpha, tol, 500_000)
                    assert rep["critical_alpha"] == crit
                    cert = max_sra_subset(m, alpha, tol=tol)
                    assert rep["max_subset"] == {"indices": list(cert.subset), "size": cert.size,
                                                 "optimal": cert.optimal, "bound": cert.bound}


def test_scan_corpus_matches_oracles():
    """Every scan consumer against the triple-loop oracles on degenerate and
    boundary inputs, at the default, zero, tiny and negative tolerances."""
    for name, m in scan_corpus(np.random.default_rng(45), alphas=(0.2, 0.8, 0.95)):
        crit = oracle_critical_alpha(m)
        assert critical_alpha(m) == crit, name
        alphas = (0.8,) if m.n > 20 else (0.2, 0.8, 0.95)
        for alpha in alphas:
            for tol in (None, 0.0, 1e-12, -1e-6):
                rep = check_against_oracles(m, alpha, tol, 1)
                assert rep["critical_alpha"] == crit, (name, alpha, tol)


def test_boundary_triples_straddle_the_tolerance():
    for alpha in (0.2, 0.8, 0.95):
        for scale in (1.0, 1000.0):
            for frac in BOUNDARY_FRACS:
                m = boundary_triple(alpha, frac, scale)
                v = is_sra(m, alpha)
                assert v.is_sra == (frac < 1.0)
                assert oracle_violations(m, alpha, 0.0)[0][3] == pytest.approx(
                    frac * default_tol(m), rel=1e-4)
                assert sra_report(m, alpha)["is_sra"] == v.is_sra
                # mirrored below zero: slack -frac*t against tol -t
                m = boundary_triple(alpha, -frac, scale)
                v = is_sra(m, alpha, tol=-default_tol(m))
                assert v.is_sra == (frac > 1.0)
                assert sra_report(m, alpha, tol=-default_tol(m))["is_sra"] == v.is_sra


def test_asymmetric_input_reads_d_z_y_from_row_z():
    rng = np.random.default_rng(46)
    for n in range(3, 9):
        d = rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        m = FiniteMetricSpace(d)
        for alpha in (0.2, 0.8):
            for tol in (None, 0.0):
                check_against_oracles(m, alpha, tol, 500_000)


def test_violations_truncated_at_max():
    m = collinear(41)
    expect = oracle_violations(m, 0.9, default_tol(m))
    assert len(expect) == 10_660 and MAX_VIOLATIONS == 10_000
    verdict = is_sra(m, 0.9)
    assert verdict.truncated and not verdict.is_sra
    assert [(v.x, v.z, v.y, v.slack) for v in verdict.violations] == expect[:MAX_VIOLATIONS]
    rep = sra_report(m, 0.9, budget=1)
    assert rep["violations"] == [{"x": x, "z": z, "y": y, "slack": s}
                                 for x, z, y, s in expect[:MAX_VIOLATIONS]]


def test_search_counts_nodes_without_budget():
    edges = [(0, 1, 2), (1, 2, 3), (0, 2, 4), (2, 3, 4)]
    free = max_independent_subset(5, edges, budget=None)
    capped = max_independent_subset(5, edges, budget=10**6)
    assert free.nodes == capped.nodes > 0


def test_sra_report_schema():
    rep = sra_report(collinear(4), 0.9)
    assert set(rep) == {"alpha", "is_sra", "critical_alpha", "max_subset",
                        "violations", "tol"}
    assert rep["max_subset"]["size"] == 2
    assert not rep["is_sra"]


# ---------------------------------------------------------------------------
# Euclidean angle audit
# ---------------------------------------------------------------------------

def cloud(coords):
    return PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, len(coords[0])), coords)


def test_angle_audit_collinear():
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [2, 0]]), 0.9)
    assert [(e.x, e.z, e.y) for e in audit.entries] == [(0, 1, 2)]
    assert audit.entries[0].angle == pytest.approx(math.pi)


def test_angle_audit_equilateral_empty():
    h = math.sqrt(3) / 2
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [0.5, h]]), 0.5)
    assert audit.entries == ()


def test_angle_audit_square_empty():
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.9)
    assert audit.entries == ()


def test_angle_audit_degenerate_skipped():
    audit = euclidean_angle_audit(cloud([[0, 0], [0, 0], [1, 0]]), 0.5)
    assert audit.skipped_degenerate


def test_angle_audit_requires_euclidean():
    pc = sample_model(ModelSpaceSpec("normed-l1", 2), 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        euclidean_angle_audit(pc, 0.5)


def test_wide_angle_implies_sra_violation():
    """The one-directional angle law: every triple with vertex angle strictly
    above arccos(-alpha) violates the SRA(alpha) inequality at that middle.
    Checked against an independent direct-inequality oracle."""
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(4, 9))
        dim = int(rng.integers(2, 4))
        pts = rng.standard_normal((n, dim))
        pc = cloud(pts.tolist())
        m = from_point_cloud(pc)
        for alpha in (0.5, 0.8):
            thr = math.acos(-alpha)
            audit = euclidean_angle_audit(pc, alpha)
            for e in audit.entries:
                a, b = m.dist[e.x, e.z], m.dist[e.z, e.y]
                assert m.dist[e.x, e.y] > max(a + alpha * b, alpha * a + b)
            # oracle recount: entries are exactly the angle-exceeding triples
            count = 0
            for z in range(n):
                for x in range(n):
                    for y in range(x + 1, n):
                        if z in (x, y):
                            continue
                        u, v = pts[x] - pts[z], pts[y] - pts[z]
                        cosang = float(np.dot(u, v) /
                                       (np.linalg.norm(u) * np.linalg.norm(v)))
                        if math.acos(max(-1.0, min(1.0, cosang))) > thr:
                            count += 1
            assert len(audit.entries) + audit.boundary_dropped == count


def test_sra_violation_does_not_imply_wide_angle():
    """The converse direction is false: two unit legs at 100 degrees violate
    SRA(0.5) (1.532... > 1.5) yet the vertex angle is below arccos(-0.5).
    This pins the one-directional nature of the angle law."""
    ang = math.radians(100.0)
    pts = [[math.cos(ang), math.sin(ang)], [0.0, 0.0], [1.0, 0.0]]
    m = from_point_cloud(cloud(pts))
    verdict = is_sra(m, 0.5, tol=0.0)
    assert not verdict.is_sra
    assert ang < math.acos(-0.5)
    audit = euclidean_angle_audit(cloud(pts), 0.5)
    assert audit.entries == ()  # wide-angle set misses this violation
