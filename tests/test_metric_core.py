import csv
import json
import math
import warnings
from io import StringIO
from pathlib import Path

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
from rough_angles import io as rio, metric_core
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


def test_validate_cap_truncates(monkeypatch):
    monkeypatch.setattr(metric_core, "MAX_VIOLATIONS", 2)
    d = np.full((6, 6), 10.0)
    np.fill_diagonal(d, 0.0)
    d[0, 1] = d[1, 0] = 100.0  # breaks many triangles
    rep = validate_metric(FiniteMetricSpace(d))
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


def test_validate_matches_oracle_on_scan_corpus(monkeypatch):
    for name, m in scan_corpus(np.random.default_rng(47)):
        for tol in (None, 0.0, 1e-12, -1e-6):
            t = default_tol(m) if tol is None else tol
            for cap in (1, 7, 100):
                monkeypatch.setattr(metric_core, "MAX_VIOLATIONS", cap)
                rep = validate_metric(m, tri_tol=tol)
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


def test_validate_asymmetric_matches_seed_triangle_loop(monkeypatch):
    rng = np.random.default_rng(48)
    for n in range(3, 12):
        d = rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        m = FiniteMetricSpace(d)
        for tol in (None, 0.0, -1e-6):
            t = default_tol(m) if tol is None else tol
            for cap in (3, 100, 10_000):
                monkeypatch.setattr(metric_core, "MAX_VIOLATIONS", cap)
                rep = validate_metric(m, tri_tol=tol)
                head = [v for v in as_tuples(rep) if v[0] != "triangle"]
                room = cap - len(head)
                reference = seed_triangle_loop(d, t, room) if room > 0 else []
                assert as_tuples(rep) == head + reference
                assert as_tuples(rep) == oracle_validate(d, t, cap)[0]


def reference_metric_violations(d, tri_tol):
    """``metric_core._metric_violations`` as it was when it built every axiom's
    witness list whether or not the axiom held, frozen to test the whole-matrix
    pre-checks against."""
    diag = np.abs(np.diag(d))
    for i in np.nonzero(diag > 0.0)[0]:
        yield metric_core.MetricViolation("diagonal", (int(i),), float(diag[i]))
    asym = d - d.T
    for i, j in np.argwhere(np.triu(np.abs(asym), 1) > 0.0):
        yield metric_core.MetricViolation("symmetry", (int(i), int(j)), float(abs(asym[i, j])))
    off = d + np.diag(np.full(d.shape[0], np.inf))
    for i, j in np.argwhere(np.triu(off <= 0.0, 1)):
        yield metric_core.MetricViolation("positivity", (int(i), int(j)), float(d[i, j]))
    for j, _, hits in metric_core._middle_scan(d, 1.0, tri_tol, False):
        if hits is not None:
            for i, k, s in zip(*(h.tolist() for h in hits)):
                yield metric_core.MetricViolation("triangle", (i, j, k), s)


def broken_axiom_matrices():
    """(name, d): matrices that break only the diagonal, only symmetry, only
    positivity, or all three, some in the lower triangle alone, with signed
    zeros, and (not loadable, for the generator alone) NaN and infinity."""
    base = collinear(7).dist
    cases = [("metric", base.copy())]
    d = base.copy()
    d[2, 2], d[5, 5] = 0.5, -1e-300
    cases.append(("diagonal", d))
    d = base.copy()
    d[1, 4] += 1e-12
    d[6, 0] -= 2.0
    cases.append(("symmetry", d))
    d = base.copy()
    d[1, 2] = d[2, 1] = 0.0
    d[3, 6] = d[6, 3] = -1.5
    cases.append(("positivity", d))
    d = base.copy()
    d[5, 2] = -0.0  # lower triangle only: no positivity witness, one symmetry witness
    cases.append(("positivity-lower", d))
    # Each axiom broken once, by the least that breaks it.
    d = base.copy()
    d[4, 4] = -1e-300
    cases.append(("negative-diagonal", d))
    d = base.copy()
    d[1, 4] += 1e-15
    cases.append(("tiny-asymmetry", d))
    d = base.copy()
    d[0, 6] = d[6, 0] = 0.0
    cases.append(("one-zero-distance", d))
    d = base.copy()
    np.fill_diagonal(d, -0.0)
    cases.append(("signed-zero-diagonal", d))
    d = base.copy()
    d[0, 0], d[3, 3] = 2.0, -2.0
    d[0, 5] = 0.25
    d[2, 4] = d[4, 2] = 0.0
    d[1, 6] = -3.0
    cases.append(("all-three", d))
    d = base.copy()
    d[2, 2], d[0, 3], d[4, 1], d[5, 6] = np.nan, np.nan, np.inf, -np.inf
    cases.append(("non-finite", d))
    return cases


def test_metric_violations_match_frozen_witness_lists(monkeypatch):
    """The same witnesses in the same order, bit for bit, as the frozen lists,
    from the generator and from ``validate_metric`` at several caps."""
    for name, d in broken_axiom_matrices():
        for tol in (0.0, -1e-6, 1e-9):
            with np.errstate(invalid="ignore"):
                want = list(reference_metric_violations(d, tol))
                got = list(metric_core._metric_violations(d, tol))
            assert repr(got) == repr(want), (name, tol)
            if name == "non-finite":
                continue
            m = FiniteMetricSpace(d)
            for cap in (1, 3, 100):
                monkeypatch.setattr(metric_core, "MAX_VIOLATIONS", cap)
                rep = validate_metric(m, tri_tol=tol)
                assert repr(rep.violations) == repr(tuple(want[:cap])), (name, tol, cap)
                assert rep.truncated == (len(want) > cap)
    kinds = {name: {v.kind for v in reference_metric_violations(d, 0.0)} - {"triangle"}
             for name, d in broken_axiom_matrices()[:-1]}
    assert kinds["diagonal"] == {"diagonal"} and kinds["symmetry"] == {"symmetry"}
    assert kinds["positivity"] == {"positivity"} and kinds["metric"] == set()
    assert kinds["all-three"] == {"diagonal", "symmetry", "positivity"}


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


@pytest.mark.parametrize("kind", [EUCLIDEAN_L2, NORMED_L1, NORMED_LINF])
def test_overflowing_distances_rejected(kind):
    """Finite coordinates whose distance overflows float64 are refused, with
    no overflow warning; the same cloud scaled down is measured.  L1 and
    L-infinity measure the distance 1e308 of points 0 and 1 and refuse the
    2e308 of points 1 and 2; euclidean-l2 overflows squaring 1e308."""
    coords = np.array([[0.0, 1.0], [1e308, 0.0], [-1e308, 0.0]])
    pair = "0 and 1" if kind == EUCLIDEAN_L2 else "1 and 2"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"distance between points {pair} overflows float64"):
            from_point_cloud(PointCloud(ModelSpaceSpec(kind, 2), coords))
        if kind != EUCLIDEAN_L2:
            near = from_point_cloud(PointCloud(ModelSpaceSpec(kind, 2), coords[:2]))
            assert near.dist[0, 1] == near.dist[1, 0] == 1e308
    small = from_point_cloud(PointCloud(ModelSpaceSpec(kind, 2), coords * 1e-160))
    assert small.dist[1, 2] == 2e148


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


def seed_csv_load(path):
    """The CSV loader as it was before the numpy fast path: the oracle."""
    p = Path(path)
    rows = []
    with p.open(newline="") as fh:
        for rec in csv.reader(fh):
            rec = [c.strip() for c in rec if c.strip() != ""]
            if not rec:
                continue
            try:
                rows.append([float(c) for c in rec])
            except ValueError:
                if not rows:  # header line
                    continue
                raise
    return FiniteMetricSpace(rio._checked_matrix(p, np.asarray(rows, dtype=np.float64)))


def outcome(load, path):
    """("ok", the matrix bits as int64 rows) or ("error", None); asserts no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = ("ok", load(path).dist.view(np.int64).tolist())
        except ValueError:
            got = ("error", None)
    assert not caught, [str(w.message) for w in caught]
    return got


FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["5e-324", "2.2250738585072014e-308", "1e300", "-1e300", "-0.0", "0",
                     "1.5", "+2", ".5", "3."]))
ODD_CELLS = st.sampled_from(["", '"1.5"', "1_0", "1_000", "nan", "inf", "-inf", "x", "p0",
                             "1.5e", "1.5 2", "\u0663", "0x1p3", "#1"])
PADDING = st.sampled_from([""] * 12 + [" ", "  ", "\t", "\xa0", "\x0c", "\x85"])


@st.composite
def csv_texts(draw):
    n = draw(st.integers(1, 4))
    cell = {}
    for i in range(n):
        for j in range(i, n):
            cell[i, j] = cell[j, i] = draw(FLOAT_CELLS)
    rows = []
    for i in range(n):
        row = [draw(PADDING) + cell[i, j] + draw(PADDING) for j in range(n)]
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(0, n - 1))] = draw(ODD_CELLS)
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1]  # ragged
        if draw(st.integers(0, 9)) == 0:
            row.append("")  # trailing comma
        rows.append(",".join(row))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(0, draw(st.sampled_from(["p0,p1", "a", "1.5e,x", "x,1", '"a","b"'])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", " ", "\t,", "#c"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(rows) + draw(st.sampled_from(["", end, end + end]))


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_csv_loader_matches_seed_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(text, newline="")
    assert outcome(load_distance_matrix, path) == outcome(seed_csv_load, path)


@pytest.mark.parametrize("text", [
    "0,1e300,5e-324\n1e300,-0.0,1.5\n5e-324,1.5,0\n",
    " 0 ,\t1\r\n\xa01, 0\xa0\r\n",
    "0,1\r1,0\r",
    "\n\n0,1\n\n1,0\n\n",
    "p0,p1\n0,1\n1,0\n",
    "0,1,\n1,0,\n",
    "0,,1\n1,0\n",
    '"0",1\n1,0\n',
    "1_0,0\n0,1_0\n",
    "\u0663,1\n1,0\n",
    "0,1\n1,0\n2\n",
    "0,1\n#note\n1,0\n",
    "0,1\n1,0#x\n",
    "0,nan\nnan,0\n",
    "0,inf\ninf,0\n",
])
def test_csv_loader_edge_cases_match_seed_loop(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text, newline="")
    assert outcome(load_distance_matrix, path) == outcome(seed_csv_load, path)


def seed_csv_bytes(m):
    buf = StringIO(newline="")
    w = csv.writer(buf)
    for row in m.dist:
        w.writerow([repr(float(x)) for x in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("m", [
    FiniteMetricSpace([[0.0]]),
    FiniteMetricSpace([[0.0, 5e-324, 1e300], [5e-324, -0.0, 2.2250738585072014e-308],
                       [1e300, 2.2250738585072014e-308, 0.0]]),
    random_metric(50, np.random.default_rng(50)),
], ids=["one-point", "subnormal-1e300", "random-50"])
def test_csv_saver_bytes_and_roundtrip(tmp_path, m):
    path = tmp_path / "x.csv"
    save_distance_matrix(m, path)
    data = path.read_bytes()
    assert data == seed_csv_bytes(m)
    assert np.array_equal(load_distance_matrix(path).dist.view(np.int64), m.dist.view(np.int64))


def test_point_cloud_roundtrip(tmp_path):
    pc = sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 3), 10, radius=1.0, seed=4)
    path = tmp_path / "pc.json"
    save_point_cloud(pc, path)
    back = load_point_cloud(path)
    assert back.model == pc.model
    assert np.array_equal(back.coords, pc.coords)
