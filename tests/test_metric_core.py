import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rough_angles import (
    EUCLIDEAN_L2,
    HYPERBOLIC_PLANE,
    NORMED_L1,
    NORMED_LINF,
    SPHERE_UNIT,
    FiniteMetricSpace,
    MetricStructureError,
    ModelSpaceSpec,
    PointCloud,
    default_tol,
    diameter,
    from_point_cloud,
    sample_model,
    snowflake,
    subspace,
    validate_metric,
)
from rough_angles.io import (
    load_distance_matrix,
    load_point_cloud,
    save_distance_matrix,
    save_point_cloud,
)

from _generators import BOUNDARY_FRACS, boundary_triple, collinear, random_metric, scan_corpus


def test_validate_collinear_passes():
    rep = validate_metric(collinear(3))
    assert rep.passed
    assert rep.violations == ()


def test_validate_symmetry_violation():
    d = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace(d))
    assert not rep.passed
    kinds = {v.kind for v in rep.violations}
    assert "symmetry" in kinds
    sym = [v for v in rep.violations if v.kind == "symmetry"]
    assert sym[0].indices == (0, 1)


def test_validate_triangle_violation():
    d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    rep = validate_metric(FiniteMetricSpace(d))
    assert not rep.passed
    tri = [v for v in rep.violations if v.kind == "triangle"]
    assert tri
    assert tri[0].indices == (0, 1, 2)
    assert tri[0].magnitude == pytest.approx(1.0)


def test_validate_cap_truncates():
    d = np.full((6, 6), 10.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 100.0  # breaks many triangles
    rep = validate_metric(FiniteMetricSpace(d), max_violations=2)
    assert not rep.passed
    assert rep.truncated
    assert len(rep.violations) == 2


def oracle_validate(d, tol, cap):
    """Independent oracle: every axiom failure in validate_metric's order
    (diagonal, symmetry, positivity, then triangles by middle j and row-major
    (i, k)), cut at ``cap``."""
    d = d.tolist()
    n = len(d)
    full = [("diagonal", (i,), abs(d[i][i])) for i in range(n) if d[i][i] != 0.0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    full += [("symmetry", (i, j), abs(d[i][j] - d[j][i])) for i, j in pairs if d[i][j] != d[j][i]]
    full += [("positivity", (i, j), d[i][j]) for i, j in pairs if d[i][j] <= 0.0]
    full += [("triangle", (i, j, k), d[i][k] - (d[i][j] + d[j][k]))
             for j in range(n) for i in range(n) for k in range(n)
             if len({i, j, k}) == 3 and d[i][k] - (d[i][j] + d[j][k]) > tol]
    return full[:cap], len(full) > cap


def seed_triangle_loop(d, tri_tol, room):
    """validate_metric's triangle loop as it stood before the shared middle
    scan, kept verbatim as the reference on asymmetric input."""
    n = d.shape[0]
    out = []
    for j in range(n):
        col = d[:, j]
        slack = d - (col[:, None] + d[j, None, :])
        ii, kk = np.nonzero(slack > tri_tol)
        stop = False
        for i, k in zip(ii, kk):
            if i == j or k == j or i == k:
                continue
            if len(out) >= room:
                stop = True
                break
            out.append(("triangle", (int(i), int(j), int(k)), float(slack[i, k])))
        if stop:
            break
    return out


def as_tuples(rep):
    return [(v.kind, v.indices, v.magnitude) for v in rep.violations]


def test_validate_matches_oracle_on_scan_corpus():
    for name, m in scan_corpus(np.random.default_rng(47)):
        for tol in (None, 0.0, 1e-12, -1e-6):
            t = default_tol(m) if tol is None else tol
            for cap in (1, 7, 100):
                rep = validate_metric(m, tri_tol=tol, max_violations=cap)
                expect, truncated = oracle_validate(m.dist, t, cap)
                assert as_tuples(rep) == expect, (name, tol, cap)
                assert rep.truncated == truncated and rep.tri_tol == t
                assert rep.passed == (not expect and not truncated)


def test_validate_boundary_triangles_straddle_the_tolerance():
    for scale in (1.0, 1000.0):
        for frac in BOUNDARY_FRACS:
            m = boundary_triple(1.0, frac, scale)
            rep = validate_metric(m)
            assert rep.passed == (frac < 1.0)
            if not rep.passed:
                assert rep.violations[0].magnitude == pytest.approx(frac * default_tol(m), rel=1e-4)


def test_validate_asymmetric_matches_seed_triangle_loop():
    rng = np.random.default_rng(48)
    for n in range(3, 12):
        d = rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        m = FiniteMetricSpace(d)
        for tol in (None, 0.0, -1e-6):
            t = default_tol(m) if tol is None else tol
            for cap in (3, 100, 10_000):
                rep = validate_metric(m, tri_tol=tol, max_violations=cap)
                head = [v for v in as_tuples(rep) if v[0] != "triangle"]
                room = cap - len(head)
                reference = seed_triangle_loop(d, t, room) if room > 0 else []
                assert as_tuples(rep) == head + reference
                assert as_tuples(rep) == oracle_validate(d, t, cap)[0]


def test_non_square_rejected():
    with pytest.raises(MetricStructureError):
        FiniteMetricSpace(np.zeros((2, 3)))


def test_subspace_examples():
    m = collinear(4)
    s = subspace(m, [0, 3])
    assert s.n == 2
    assert s.dist[0, 1] == 3.0
    s2 = subspace(m, [1, 3])
    assert s2.dist[0, 1] == 2.0
    ident = subspace(m, list(range(4)))
    assert np.array_equal(ident.dist, m.dist)


def test_subspace_errors():
    m = collinear(4)
    with pytest.raises(MetricStructureError):
        subspace(m, [0, 0])
    with pytest.raises(MetricStructureError):
        subspace(m, [0, 7])


def test_subspace_functorial():
    rng = np.random.default_rng(5)
    m = random_metric(9, rng)
    a = [8, 3, 5, 0, 6]
    b = [4, 2, 0]
    left = subspace(subspace(m, a), b)
    right = subspace(m, [a[i] for i in b])
    assert np.array_equal(left.dist, right.dist)


def test_snowflake_collinear():
    s = snowflake(collinear(3), 0.5)
    assert s.dist[0, 1] == 1.0
    assert s.dist[1, 2] == 1.0
    assert s.dist[0, 2] == pytest.approx(1.4142135623730951, abs=0)


def test_snowflake_unit_entries_unchanged():
    d = np.ones((4, 4)) - np.eye(4)
    m = FiniteMetricSpace(d)
    for beta in (0.2, 0.5, 0.9):
        assert np.array_equal(snowflake(m, beta).dist, d)


def test_snowflake_two_points():
    m = FiniteMetricSpace([[0.0, 4.0], [4.0, 0.0]])
    assert snowflake(m, 0.5).dist[0, 1] == 2.0


def test_snowflake_beta_range():
    m = collinear(3)
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            snowflake(m, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.floats(0.05, 0.95), st.integers(0, 10_000))
def test_snowflake_preserves_metric(n, beta, seed):
    m = random_metric(n, np.random.default_rng(seed))
    rep = validate_metric(snowflake(m, beta), tri_tol=1e-12)
    assert rep.passed


def test_diameter():
    assert diameter(collinear(3)) == 2.0
    assert diameter(FiniteMetricSpace([[0.0]])) == 0.0
    assert diameter(snowflake(collinear(3), 0.5)) == pytest.approx(math.sqrt(2), abs=0)


def test_diameter_monotone_under_subspace():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_metric(8, rng)
        idx = sorted(rng.choice(8, size=4, replace=False).tolist())
        assert diameter(subspace(m, idx)) <= diameter(m)


# ---------------------------------------------------------------------------
# Model spaces
# ---------------------------------------------------------------------------

def test_from_point_cloud_euclidean():
    pc = PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2), [[0, 0], [3, 4]])
    assert from_point_cloud(pc).dist[0, 1] == 5.0


def test_from_point_cloud_linf_l1():
    pc = PointCloud(ModelSpaceSpec(NORMED_LINF, 2), [[0, 0], [3, 4]])
    assert from_point_cloud(pc).dist[0, 1] == 4.0
    pc = PointCloud(ModelSpaceSpec(NORMED_L1, 2), [[0, 0], [3, 4]])
    assert from_point_cloud(pc).dist[0, 1] == 7.0


def test_from_point_cloud_sphere_antipodal():
    pc = PointCloud(ModelSpaceSpec(SPHERE_UNIT), [[0, 0, 1], [0, 0, -1]])
    assert from_point_cloud(pc).dist[0, 1] == pytest.approx(math.pi)


def test_sphere_requires_unit_norm():
    with pytest.raises(ValueError):
        PointCloud(ModelSpaceSpec(SPHERE_UNIT), [[0, 0, 1.001]])


def test_hyperbolic_distance_closed_form():
    # Distance from the disk center to (r, 0) is 2*atanh(r).
    r = 0.42
    pc = PointCloud(ModelSpaceSpec(HYPERBOLIC_PLANE), [[0.0, 0.0], [r, 0.0]])
    got = from_point_cloud(pc).dist[0, 1]
    assert got == pytest.approx(2.0 * math.atanh(r), rel=1e-12)


def test_hyperbolic_domain():
    with pytest.raises(ValueError):
        PointCloud(ModelSpaceSpec(HYPERBOLIC_PLANE), [[1.0, 0.0]])


def test_coincident_points_rejected():
    pc = PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2), [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        from_point_cloud(pc)


@pytest.mark.parametrize("kind,dim", [
    (EUCLIDEAN_L2, 2), (EUCLIDEAN_L2, 4), (NORMED_L1, 3), (NORMED_LINF, 3),
    (SPHERE_UNIT, 2), (HYPERBOLIC_PLANE, 2),
])
def test_model_triangle_inequality(kind, dim):
    model = ModelSpaceSpec(kind, dim)
    pc = sample_model(model, 40, radius=1.2 if kind != SPHERE_UNIT else 2.0, seed=99)
    m = from_point_cloud(pc)
    assert validate_metric(m, tri_tol=1e-9).passed


def test_sample_model_contract():
    model = ModelSpaceSpec(EUCLIDEAN_L2, 2)
    pc = sample_model(model, 100, radius=0.7, seed=7)
    assert pc.n == 100
    assert np.all(np.linalg.norm(pc.coords, axis=1) <= 0.7 + 1e-12)
    again = sample_model(model, 100, radius=0.7, seed=7)
    assert np.array_equal(pc.coords, again.coords)
    single = sample_model(model, 1, radius=0.7, seed=7)
    assert np.array_equal(single.coords, np.zeros((1, 2)))


def test_sample_model_radius_containment_all_models():
    for kind in (NORMED_L1, NORMED_LINF, SPHERE_UNIT, HYPERBOLIC_PLANE):
        model = ModelSpaceSpec(kind, 3 if kind.startswith("normed") else 2)
        pc = sample_model(model, 50, radius=0.9, seed=12)
        m = from_point_cloud(pc)
        assert np.all(m.dist[0] <= 0.9 + 1e-9), kind


def test_sphere_radius_cap():
    with pytest.raises(ValueError):
        sample_model(ModelSpaceSpec(SPHERE_UNIT), 5, radius=3.5, seed=0)


def test_model_kind_aliases():
    assert ModelSpaceSpec("euclidean-ℓ2", 3).kind == EUCLIDEAN_L2
    with pytest.raises(ValueError):
        ModelSpaceSpec("taxicab", 2)
    with pytest.raises(ValueError):
        ModelSpaceSpec(SPHERE_UNIT, 3)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def test_matrix_roundtrip_csv_json(tmp_path):
    m = snowflake(collinear(5), 0.7)
    for name in ("m.csv", "m.json"):
        path = tmp_path / name
        save_distance_matrix(m, path)
        back = load_distance_matrix(path)
        assert np.array_equal(back.dist, m.dist)


def test_matrix_load_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "dist": [[0, 1], [2, 0]]}))
    with pytest.raises(ValueError):
        load_distance_matrix(path)


def test_csv_header_skipped(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("p0,p1\n0.0,1.0\n1.0,0.0\n")
    m = load_distance_matrix(path)
    assert m.dist[0, 1] == 1.0


def test_point_cloud_roundtrip(tmp_path):
    pc = sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 3), 10, radius=1.0, seed=4)
    path = tmp_path / "pc.json"
    save_point_cloud(pc, path)
    back = load_point_cloud(path)
    assert back.model == pc.model
    assert np.array_equal(back.coords, pc.coords)
