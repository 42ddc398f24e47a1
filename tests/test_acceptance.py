"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two criteria encode claims that are mathematically false and fail by design,
with the disproving instance in the assertion message:

* criterion 6 asserts that no feasible instance exists at the size named by
  the closed-form formula; the geometric sum behind that formula carries one
  term too many, and feasible instances exist one size below the corrected
  value (e.g. d12 = d13 = 1, d23 = 1.95 at theta=0.2, alpha=0.9, size 3).
  The nonexistence claim does hold at the corrected size, which is covered
  by test_constants.py::test_refutation_at_corrected_size_finds_nothing.
* criterion 8 asserts that SRA-violating triples coincide with wide-angle
  triples.  Only one direction is true: a vertex angle above arccos(-alpha)
  forces a violation, but two unit legs at 100 degrees violate SRA(0.5)
  while staying 20 degrees below arccos(-0.5).  The true direction is
  covered by test_sra_analysis.py::test_wide_angle_implies_sra_violation.
"""

import math
import time
from itertools import combinations

import numpy as np

from rough_angles import (
    EUCLIDEAN_L2,
    ModelSpaceSpec,
    PointCloud,
    all_pair_colorings_force_triangle,
    as_dse,
    c_of_m_theta,
    check_two_lemma,
    critical_alpha,
    curve_to_dse,
    diameter,
    extract_sra_subspace,
    freeness_via_cover,
    from_point_cloud,
    gap_D,
    gen_gradient_trajectory,
    gen_snowflaked_path,
    globq_bound,
    greedy_net,
    is_dse,
    is_self_contracted,
    is_sra,
    length_L,
    max_sra_subset,
    n_of_theta_alpha,
    net_embed,
    ramsey_pair_bound,
    refute_weird_angles,
    sample_model,
    snowflake,
    subspace,
)

from _generators import GENERATORS, collinear, random_metric


def report(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    return line


def test_criterion_01_snowflake_law():
    """1000 seeded random spaces (n <= 12, three distributions): the
    alpha-snowflake satisfies SRA(alpha) at tol 1e-12 for four alphas."""
    t0 = time.time()
    rng = np.random.default_rng(2024_01)
    failures = 0
    for i in range(1000):
        gen = GENERATORS[i % len(GENERATORS)]
        n = int(rng.integers(3, 13))
        m = gen(n, rng)
        for alpha in (0.3, 0.5, 0.7, 0.9):
            if not is_sra(snowflake(m, alpha), alpha, tol=1e-12).is_sra:
                failures += 1
    elapsed = time.time() - t0
    line = report(1, "snowflake law", failures == 0 and elapsed < 30.0, elapsed,
                  f"failures={failures}/4000")
    assert failures == 0, line
    assert elapsed < 30.0, line


def test_criterion_02_critical_alpha_oracle():
    """500 seeded random spaces (n <= 10), 50-point alpha grids:
    is_sra(m, alpha, 0) iff alpha >= critical_alpha(m), within 1e-12."""
    t0 = time.time()
    rng = np.random.default_rng(2024_02)
    grid = np.linspace(0.01, 0.99, 50)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(3, 11))
        m = random_metric(n, rng)
        crit = critical_alpha(m)
        for alpha in grid:
            if abs(alpha - crit) <= 1e-12:
                continue
            if is_sra(m, float(alpha), tol=0.0).is_sra != (alpha > crit):
                mismatches += 1
    elapsed = time.time() - t0
    line = report(2, "critical-alpha oracle equivalence",
                  mismatches == 0 and elapsed < 30.0, elapsed,
                  f"mismatches={mismatches}")
    assert mismatches == 0, line
    assert elapsed < 30.0, line


def brute_force_max_size(m, alpha):
    for size in range(m.n, 0, -1):
        for combo in combinations(range(m.n), size):
            if is_sra(subspace(m, combo), alpha, tol=0.0).is_sra:
                return size
    return 0


def test_criterion_03_collinear_freeness():
    """Equally spaced collinear points have maximum SRA subsets of exactly
    two points for every alpha < 1; exact search, brute-force checked."""
    t0 = time.time()
    ok = True
    for n in range(4, 13):
        m = collinear(n)
        for alpha in (0.6, 0.75, 0.9):
            cert = max_sra_subset(m, alpha)
            ok = ok and cert.size == 2 and cert.optimal
            if n <= 10:
                ok = ok and brute_force_max_size(m, alpha) == 2
    elapsed = time.time() - t0
    line = report(3, "collinear freeness", ok and elapsed < 10.0, elapsed)
    assert ok, line
    assert elapsed < 10.0, line


def test_criterion_04_snowflaked_path_family():
    t0 = time.time()
    ok = True
    for n, expect in ((5, 2.0), (17, 4.0)):
        d = gen_snowflaked_path(n, 0.5)
        ok = ok and (length_L(d) / gap_D(d) == expect)
        cert = max_sra_subset(d.space, 0.5)
        ok = ok and cert.size == n and cert.optimal
    elapsed = time.time() - t0
    line = report(4, "snowflaked-path family", ok and elapsed < 10.0, elapsed)
    assert ok, line
    assert elapsed < 10.0, line


def test_criterion_05_curve_to_dse_soundness():
    """200 seeded gradient trajectories of random positive definite
    quadratics: self-contracted at 1e-9, reversal is DSE, window bound and
    diam <= 2D hold."""
    t0 = time.time()
    rng = np.random.default_rng(2024_05)
    failures = []
    for trial in range(200):
        dim = int(rng.integers(1, 6))
        a = rng.standard_normal((dim, dim))
        q = a.T @ a + 0.2 * np.eye(dim)
        lam = float(np.max(np.linalg.eigvalsh(q)))
        start = rng.standard_normal(dim) * float(rng.uniform(0.5, 3.0))
        steps = int(rng.integers(5, 61))
        c = gen_gradient_trajectory(q, start, step=0.9 / lam, steps=steps)
        if not is_self_contracted(c, tol=1e-9).ok:
            failures.append((trial, "self-contraction"))
            continue
        d = curve_to_dse(c, tol=1e-9)
        if not is_dse(d.space, tol=1e-9).ok:
            failures.append((trial, "dse"))
            continue
        two = check_two_lemma(d)
        if not (two.ok and diameter(d.space) <= 2.0 * gap_D(d) + 1e-9):
            failures.append((trial, "two-lemma"))
    elapsed = time.time() - t0
    line = report(5, "curve-to-dse soundness",
                  not failures and elapsed < 60.0, elapsed,
                  f"failures={failures[:3]}")
    assert not failures, line
    assert elapsed < 60.0, line


def test_criterion_06_weird_angle_refutation():
    """As stated: at n = n_of_theta_alpha(theta, alpha), 1e5 seeded trials
    find zero feasible instances; any hit fails the suite.

    This fails by design: the size formula is one too small (its geometric
    sum has an extra term), and at that size feasible instances exist; the
    first one found is dumped below and re-verified exactly.  Nonexistence
    at the corrected size n+1 is established in test_constants.py.
    """
    t0 = time.time()
    results = {}
    for theta, alpha in ((0.2, 0.9), (0.3, 0.95)):
        n = n_of_theta_alpha(theta, alpha)
        rep = refute_weird_angles(theta, alpha, n, trials=100_000, seed=2024_06)
        results[(theta, alpha)] = rep
    elapsed = time.time() - t0
    hits = {k: r for k, r in results.items() if r.feasible_count > 0}
    ok = not hits and elapsed < 120.0
    detail = "; ".join(
        f"(theta={k[0]}, alpha={k[1]}): n={r.n}, feasible={r.feasible_count}, "
        f"corrected size={r.n_required_corrected}, first hit={r.first_feasible}"
        for k, r in results.items())
    line = report(6, "weird-angle refutation at formula size", ok, elapsed, detail)
    assert not hits, (
        line + " | FATAL flag per contract: the dumped matrix satisfies every "
        "constraint (metric, DSE, straightness, expansion) at the formula size; "
        "the nonexistence claim holds only from the corrected size upward")
    assert elapsed < 120.0, line


def test_criterion_07_constants():
    t0 = time.time()
    ok = (c_of_m_theta(3, 0.5) == 78
          and c_of_m_theta(4, 0.5) == 6920
          and n_of_theta_alpha(0.2, 0.9) == 3
          and globq_bound(5, 2, 4.0, 1.0) == 20
          and ramsey_pair_bound(2, 3) == 6
          and not all_pair_colorings_force_triangle(5)
          and all_pair_colorings_force_triangle(6))
    elapsed = time.time() - t0
    line = report(7, "explicit constants", ok and elapsed < 20.0, elapsed)
    assert ok, line
    assert elapsed < 20.0, line


def test_criterion_08_angle_consistency():
    """As stated: on seeded Euclidean clouds the set of SRA-violating triples
    equals the set of triples with vertex angle > arccos(-alpha), symmetric
    difference empty at tolerance 1e-9.

    This fails by design: only the wide-angle-implies-violation direction is
    a theorem.  A violation whose vertex angle is below the threshold exists
    whenever both legs are comparable (first mismatch printed below); the
    true direction is asserted in test_sra_analysis.py.
    """
    t0 = time.time()
    rng = np.random.default_rng(2024_08)
    mismatches = []
    for trial in range(200):
        n = int(rng.integers(4, 11))
        dim = int(rng.integers(2, 4))
        pts = rng.standard_normal((n, dim))
        pc = PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, dim), pts)
        m = from_point_cloud(pc)
        d = m.dist
        for alpha in (0.5, 0.7, 0.9):
            thr = math.acos(-alpha)
            for z in range(n):
                for x in range(n):
                    if x == z:
                        continue
                    for y in range(x + 1, n):
                        if y == z:
                            continue
                        a, b = d[x, z], d[z, y]
                        slack = d[x, y] - max(a + alpha * b, alpha * a + b)
                        u, v = pts[x] - pts[z], pts[y] - pts[z]
                        cosang = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
                        ang = math.acos(max(-1.0, min(1.0, cosang)))
                        violates = slack > 1e-9
                        wide = ang > thr + 1e-9
                        near_boundary = abs(slack) <= 1e-9 or abs(ang - thr) <= 1e-9
                        if violates != wide and not near_boundary:
                            mismatches.append(
                                (trial, alpha, (x, z, y), round(slack, 6), round(ang, 4), round(thr, 4)))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 30.0
    line = report(8, "angle consistency (set equality)", ok, elapsed,
                  f"robust mismatches={len(mismatches)}, first={mismatches[:1]}")
    assert not mismatches, (
        line + " | the listed triples violate the SRA inequality by more than "
        "1e-9 yet their vertex angle is below arccos(-alpha) - 1e-9: the "
        "asserted equivalence holds in one direction only")
    assert elapsed < 30.0, line


def test_criterion_09_net_embedding():
    """200-point Euclidean disk sample, greedy net at r = 0.1 R: sup-norm
    upper factor <= 1 + 1e-12, gamma > 0, and gamma never decreases while
    adding net points over ten increments."""
    t0 = time.time()
    radius = 1.0
    pc = sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 2), 200, radius=radius, seed=2024_09)
    m = from_point_cloud(pc)
    net = greedy_net(m, 0.1 * radius)
    emb = net_embed(m, net)
    ok = emb.upper <= 1.0 + 1e-12 and emb.gamma > 0.0
    gammas = [emb.gamma]
    current = list(net)
    d = m.dist
    for _ in range(10):
        mind = np.min(d[:, current], axis=1)
        nxt = int(np.argmax(mind))
        if mind[nxt] <= 0.0:
            break
        current.append(nxt)
        gammas.append(net_embed(m, current).gamma)
    monotone = all(b >= a for a, b in zip(gammas, gammas[1:]))
    elapsed = time.time() - t0
    ok = ok and monotone and elapsed < 30.0
    line = report(9, "net embedding", ok, elapsed,
                  f"net={len(net)}, gamma={emb.gamma:.4f}, increments={len(gammas) - 1}")
    assert ok, line


def test_criterion_10_pigeonhole_cover():
    """50 seeded instances (n <= 20): global max SRA subset never exceeds
    cover size times the largest per-ball maximum, all searches exact."""
    t0 = time.time()
    rng = np.random.default_rng(2024_10)
    alphas = (0.6, 0.75, 0.9)
    bad = []
    for trial in range(50):
        n = int(rng.integers(8, 21))
        m = random_metric(n, rng)
        alpha = alphas[trial % 3]
        big_r = 0.7 * diameter(m)
        r = 0.35 * big_r
        rep = freeness_via_cover(m, alpha, r, big_r, k=4)
        if rep.holds is not True:
            bad.append((trial, rep.holds, rep.global_max, rep.bound))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 60.0
    line = report(10, "pigeonhole cover bound", ok, elapsed, f"bad={bad[:3]}")
    assert not bad, line
    assert elapsed < 60.0, line


def test_criterion_11_extraction_pipeline():
    t0 = time.time()
    d = gen_snowflaked_path(30, 0.6)
    res = extract_sra_subspace(d, 0.8, 4)
    ok = res.certificate is not None and len(res.certificate.subset) == 4
    if ok:
        sub = subspace(d.space, res.certificate.subset)
        ok = is_sra(sub, 0.8, tol=1e-12).is_sra
    coll = as_dse(collinear(10))
    res2 = extract_sra_subspace(coll, 0.8, 3)
    ok = ok and res2.certificate is None and res2.branch == "below-threshold"
    elapsed = time.time() - t0
    line = report(11, "extraction pipeline", ok and elapsed < 30.0, elapsed,
                  f"branches=({res.branch}, {res2.branch})")
    assert ok, line
    assert elapsed < 30.0, line
