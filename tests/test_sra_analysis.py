import inspect
import math
import threading
import warnings
from itertools import combinations, islice, product, repeat
from typing import Iterable, Optional, Sequence

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
    gen_snowflaked_path,
    is_sra,
    max_sra_subset,
    sample_model,
    snowflake,
    sra_report,
    subspace,
    validate_metric,
    violating_triples,
)
from rough_angles import metric_core, sra_analysis

from rough_angles._hypergraph import (SearchResult, _in_order_search, edge_third,
                                      max_independent_subset)
from rough_angles.metric_core import Columns
from rough_angles.sra_analysis import MAX_VIOLATIONS, AngleAudit

from _generators import (
    ANGLE_ALPHAS,
    BOUNDARY_FRACS,
    angle_corpus,
    boundary_triple,
    collinear,
    gradient_dse,
    graph_metric,
    random_metric,
    rows,
    scan_corpus,
)


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
    x, z, y, slack = rows(v.violations, "x z y slack")[0]
    assert (x, z, y) == (0, 1, 2)
    assert slack == pytest.approx(0.1)


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
    t1 = {t[:3] for t in rows(v1.violations, "x z y slack")}
    t2 = {t[:3] for t in rows(v2.violations, "x z y slack")}
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
        oracle = brute_force_max_sra(m, alpha)
        cert = max_sra_subset(m, alpha, budget=None, tol=0.0)
        assert cert.optimal
        assert cert.size == len(oracle)
        assert cert.subset == oracle
        # the certificate itself re-verifies
        assert is_sra(subspace(m, cert.subset), alpha, tol=0.0).is_sra
        for budget in (1, 2, 5):
            capped = max_sra_subset(m, alpha, budget=budget, tol=0.0)
            if capped.optimal:
                assert capped.subset == oracle


@pytest.mark.parametrize("n, seed, want", [(8, 201, (0, 1, 2, 3, 5, 6)),
                                           (10, 348, (0, 1, 2, 3, 4, 6, 9))])
def test_max_sra_small_budget_certificate_is_lexicographically_smallest(n, seed, want):
    # The budget-1 search completes on both, so the certificate must be the
    # lexicographically smallest maximum however small the budget.
    m = random_metric(n, np.random.default_rng(seed))
    assert brute_force_max_sra(m, 0.5) == want
    cert = max_sra_subset(m, 0.5, budget=1, tol=0.0)
    assert cert.optimal
    assert cert.subset == want


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


def test_negative_budget_is_refused(monkeypatch):
    # Budget 0 keeps the greedy cover, reported as not optimal, after no node.
    # The refusal must not wait for the O(n^3) scan: with the scan broken,
    # every entry point still refuses with the budget's own message.
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before refusing the budget")

    monkeypatch.setattr(sra_analysis, "_middle_scan", no_scan)
    zero = max_independent_subset(3, [(0, 1, 2)], budget=0)
    assert (zero.subset, zero.optimal, zero.nodes) == ((1, 2), False, 0)
    for search in (lambda b: max_independent_subset(3, [(0, 1, 2)], budget=b),
                   lambda b: max_sra_subset(collinear(6), 0.9, budget=b),
                   lambda b: sra_report(collinear(6), 0.9, budget=b)):
        with pytest.raises(ValueError, match="budget must be >= 0, got -3"):
            search(-3)


def test_heredity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_metric(8, rng)
        alpha = float(rng.uniform(0.3, 0.9))
        if not is_sra(m, alpha, tol=0.0).is_sra:
            continue
        idx = sorted(rng.choice(8, size=5, replace=False).tolist())
        assert is_sra(subspace(m, idx), alpha, tol=0.0).is_sra


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
    assert rows(verdict.violations, "x z y slack") == expect[:MAX_VIOLATIONS]
    assert verdict.is_sra == (not expect)
    assert verdict.truncated == (len(expect) > MAX_VIOLATIONS)
    assert violating_triples(m, alpha, tol=tol) == sorted({tuple(sorted(v[:3])) for v in expect})
    rep = sra_report(m, alpha, budget=budget, tol=tol)
    assert rep["is_sra"] == verdict.is_sra
    assert rows(rep["violations"], "x z y slack") == expect[:MAX_VIOLATIONS]
    assert rep["tol"] == verdict.tol
    # The report's searches read the need-gated scan's array, max_sra_subset
    # the ungated one of _triple_array.
    cert = max_sra_subset(m, alpha, budget=budget, tol=tol)
    assert rep["max_subset"] == {"indices": list(cert.subset), "size": cert.size,
                                 "optimal": cert.optimal, "bound": cert.bound}
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


def test_asymmetric_input_is_refused():
    # x < y covers both orientations only on a symmetric matrix: here the
    # ordered triple (x=2, z=1, y=0) violates SRA(0.5) by 3.5, but (0, 1, 2)
    # does not, so a scan of x < y alone would report SRA.
    example = FiniteMetricSpace([[0, 1, 1], [1, 0, 1], [5, 1, 0]])
    d = example.dist
    assert d[2, 0] - max(d[2, 1] + 0.5 * d[1, 0], 0.5 * d[2, 1] + d[1, 0]) == 3.5
    assert oracle_violations(example, 0.5, 0.0) == []
    rng = np.random.default_rng(46)
    spaces = [example]
    for n in range(3, 9):
        d = rng.uniform(0.5, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        spaces.append(FiniteMetricSpace(d))
    tiny = collinear(4).dist.copy()
    tiny[0, 3] = np.nextafter(tiny[0, 3], np.inf)
    spaces.append(FiniteMetricSpace(tiny))
    for m in spaces:
        for alpha in (0.2, 0.5, 0.8):
            for tol in (None, 0.0):
                with pytest.raises(ValueError, match="symmetric"):
                    is_sra(m, alpha, tol=tol)
                with pytest.raises(ValueError, match="symmetric") as want:
                    violating_triples(m, alpha, tol=tol)
                with pytest.raises(ValueError) as got:
                    sra_analysis._sra_third(m, alpha, tol=tol)
                assert str(got.value) == str(want.value)
                with pytest.raises(ValueError, match="symmetric"):
                    sra_report(m, alpha, tol=tol)
                with pytest.raises(ValueError, match="symmetric"):
                    max_sra_subset(m, alpha, tol=tol)


def assert_rows_match_triples(m, alpha, tol):
    want = edge_third(violating_triples(m, alpha, tol=tol))
    got = sra_analysis._sra_third(m, alpha, tol=tol)
    for a, b in combinations(range(m.n), 2):
        assert got(a, b) == want(a, b), (a, b)


def test_sra_rows_match_violating_triples():
    """The hyperedge rows of the direct search against the masks of the
    violation scan, bit for bit, on degenerate and boundary inputs."""
    for name, m in scan_corpus(np.random.default_rng(50)):
        alphas = (0.8,) if m.n > 20 else (0.2, 0.5, 0.8, 0.95)
        for alpha in alphas:
            for tol in (None, 0.0, -1e-6):
                assert_rows_match_triples(m, alpha, tol)


def reference_violating_triples(m, alpha, tol=None):
    """``violating_triples`` before its hits became integer keys, kept
    verbatim as a test oracle: a set of sorted tuples, then sorted."""
    d, tol = sra_analysis._sra_args(m, alpha, tol)
    return sorted({tuple(sorted(v[:3])) for v in sra_analysis._violations(d, alpha, tol)})


def test_violating_triples_match_the_tuple_set():
    """The key array and its list against the tuple set they replaced, on
    degenerate and boundary inputs, then on a space large enough for the
    thread-pool scan."""
    for name, m in scan_corpus(np.random.default_rng(51)):
        alphas = (0.8,) if m.n > 20 else (0.2, 0.5, 0.8, 0.95)
        for alpha in alphas:
            for tol in (None, 0.0, -1e-6):
                want = reference_violating_triples(m, alpha, tol)
                got = violating_triples(m, alpha, tol=tol)
                assert got == want, (name, alpha, tol)
                assert all(type(v) is int for t in got for v in t)
                assert sra_analysis._triple_array(m, alpha, tol).tolist() == list(map(list, want))
    ball = from_point_cloud(sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 3), 170, 1.0, 7))
    assert ball.n >= metric_core._THREADED_MIN_N
    for alpha in (0.7, 0.95):
        assert violating_triples(ball, alpha) == reference_violating_triples(ball, alpha)


def test_sra_rows_at_the_tolerance_and_branch_ties():
    # A triple's largest slack over its three middles, in the scan's float
    # operations: at tol exactly the triple is no hyperedge, one ulp above
    # tol it is.  The equal legs tie the two branches of the SRA bound.
    rng = np.random.default_rng(51)
    spaces = [equilateral(), collinear(3), boundary_triple(0.5, 1.0),
              FiniteMetricSpace([[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]])]
    for _ in range(10):
        d = random_metric(3, rng).dist
        spaces += [FiniteMetricSpace(d[np.ix_(p, p)]) for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    worst = set()
    for m in spaces:
        d = m.dist
        for alpha in (0.2, 0.5, 0.8, 0.95):
            slacks = [d[x, y] - max(d[x, z] + alpha * d[z, y], alpha * d[x, z] + d[z, y])
                      for x, z, y in ((1, 0, 2), (0, 1, 2), (0, 2, 1))]
            top = max(slacks)
            worst.add(slacks.index(top))
            for tol, edge in ((top, 0), (np.nextafter(top, -np.inf), 1 << 2)):
                assert sra_analysis._sra_third(m, alpha, tol=tol)(0, 1) == edge
                assert_rows_match_triples(m, alpha, tol)
    assert worst == {0, 1, 2}


def test_violations_truncated_at_max():
    m = collinear(41)
    expect = oracle_violations(m, 0.9, default_tol(m))
    assert len(expect) == 10_660 and MAX_VIOLATIONS == 10_000
    verdict = is_sra(m, 0.9)
    assert verdict.truncated and not verdict.is_sra
    assert rows(verdict.violations, "x z y slack") == expect[:MAX_VIOLATIONS]
    rep = sra_report(m, 0.9, budget=1)
    assert rows(rep["violations"], "x z y slack") == expect[:MAX_VIOLATIONS]


def test_violation_columns_match_violations_generator(monkeypatch):
    """The columns of ``is_sra`` and ``sra_report`` hold, bit for bit and in
    the same Python types, the first ``MAX_VIOLATIONS`` tuples of
    ``_violations``, which each verdict used to turn into one record or dict
    per row; ``truncated`` says whether the generator has more."""
    rng = np.random.default_rng(31)
    cases = [(collinear(41), 0.9), (equilateral(5), 0.5)]
    cases += [(random_metric(int(rng.integers(3, 12)), rng), float(rng.uniform(0.2, 0.95)))
              for _ in range(20)]
    for m, alpha in cases:
        full = list(sra_analysis._violations(m.dist, alpha, default_tol(m)))
        for cap in (1, 7, MAX_VIOLATIONS):
            monkeypatch.setattr(sra_analysis, "MAX_VIOLATIONS", cap)
            want = full[:cap]
            kinds = [tuple(map(type, v)) for v in want]
            verdict = is_sra(m, alpha)
            got = rows(verdict.violations, "x z y slack")
            assert got == want and [tuple(map(type, v)) for v in got] == kinds
            assert verdict.truncated == (len(full) > cap)
            assert verdict.is_sra == (not full)
            rep = sra_report(m, alpha, budget=1)
            got = rows(rep["violations"], "x z y slack")
            assert got == want and [tuple(map(type, v)) for v in got] == kinds
            assert rep["is_sra"] == (not full)


def test_budgeted_search_matches_reference():
    # Under a budget the incumbent comes from the greedy cover, so subset and
    # bound on exhaustion depend on its tie-breaks.
    rng = np.random.default_rng(23)
    for _ in range(30):
        m = random_metric(int(rng.integers(6, 13)), rng)
        alpha = float(rng.uniform(0.3, 0.9))
        edges = violating_triples(m, alpha)
        array = sra_analysis._triple_array(m, alpha)
        for budget in (1, 3, 10, 100, None):
            want = reference_max_independent_subset(m.n, edges, budget=budget)
            assert max_independent_subset(m.n, edges, budget=budget) == want
            assert max_independent_subset(m.n, array, budget=budget) == want


def test_search_counts_nodes_without_budget():
    edges = [(0, 1, 2), (0, 2, 4), (1, 2, 3), (2, 3, 4)]
    free = max_independent_subset(5, edges, budget=None)
    capped = max_independent_subset(5, edges, budget=10**6)
    assert free.nodes == capped.nodes > 0


def brute_max_independent(n, edges):
    """Size of the largest subset of range(n) spanning no edge."""
    for size in range(n, -1, -1):
        if any(not any(set(e) <= set(c) for e in edges) for c in combinations(range(n), size)):
            return size


def test_in_order_search_budget_bounds_its_work():
    """Under a node budget the in-order search returns an independent tuple,
    a true upper bound and at most ``budget`` nodes, and is optimal exactly
    when it ran to its end; unbudgeted, it is the reference maximum."""
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(0, 13))
        p = rng.uniform(0.05, 0.7)
        edges = [t for t in combinations(range(n), 3) if rng.random() < p]
        top = brute_max_independent(n, edges)
        assert reference_max_independent_subset(n, edges, budget=None).size == top
        for target in (None, 3):
            full = _in_order_search(n, edge_third(edges), target=target)
            assert full.optimal and full.size == len(full.subset)
            if target is None:
                assert full.size == full.upper_bound == top
            for budget in (0, 1, 5, None):
                res = _in_order_search(n, edge_third(edges), target=target, budget=budget)
                assert not any(set(e) <= set(res.subset) for e in edges)
                assert res.size == len(res.subset) <= top <= res.upper_bound <= n
                assert budget is None or res.nodes <= budget
                assert res.optimal == (budget is None or full.nodes <= budget)
                if res.optimal:
                    assert res == full


def test_in_order_search_refuses_negative_budget():
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        _in_order_search(3, edge_third([(0, 1, 2)]), budget=-1)


# Reference copies of the certificate rebuild that the in-order pass
# replaced: prefix forcing, one forced and targeted re-search per vertex.
# Kept verbatim as test oracles, with the search helpers they used, so that
# they share no code with the search they check.

class _Budget:
    """Counts search nodes; with a limit, refuses any node past it."""

    __slots__ = ("limit", "used", "exhausted")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.used = 0
        self.exhausted = False

    def tick(self) -> bool:
        if self.limit is not None and self.used >= self.limit:
            self.exhausted = True
            return False
        self.used += 1
        return True


def _canonical_edges(triples: Iterable[Sequence[int]]) -> list[tuple[int, int, int]]:
    seen = set()
    for t in triples:
        e = tuple(sorted(int(v) for v in t))
        if len(set(e)) != 3:
            raise ValueError(f"hyperedge must have 3 distinct vertices, got {t}")
        seen.add(e)
    return sorted(seen)


def _matching_bound(edges: list[tuple[int, int, int]]) -> int:
    """Number of pairwise vertex-disjoint edges found greedily: a lower bound
    on any hitting set of those edges."""
    used = 0
    count = 0
    for a, b, c in edges:
        m = (1 << a) | (1 << b) | (1 << c)
        if used & m:
            continue
        used |= m
        count += 1
    return count


def _reference_greedy_cover(n: int, edges: list[tuple[int, int, int]], banned: int) -> Optional[int]:
    """Cover all edges by repeatedly taking the non-banned vertex of highest
    remaining degree.  Returns a cover bitmask, or None if some edge consists
    of banned vertices only."""
    cover = 0
    remaining = list(edges)
    while remaining:
        deg = [0] * n
        for a, b, c in remaining:
            for v in (a, b, c):
                if not (banned >> v) & 1:
                    deg[v] += 1
        best_v, best_d = -1, 0
        for v in range(n):
            if deg[v] > best_d:
                best_v, best_d = v, deg[v]
        if best_v < 0:
            return None
        cover |= 1 << best_v
        remaining = [e for e in remaining if not any(v == best_v for v in e)]
    return cover


def reference_max_independent_subset(
    n: int,
    triples: Iterable[Sequence[int]],
    budget: Optional[int] = 500_000,
    forced: Sequence[int] = (),
    target: Optional[int] = None,
) -> SearchResult:
    """Largest subset of range(n) spanning no triple.

    ``forced`` vertices must belong to the subset (used for lexicographic
    reconstruction); if they already span an edge the result has size -1.
    ``target`` short-circuits the search once a subset of that size is known,
    returning it with ``optimal=False`` unless the search also completed.
    """
    edges = _canonical_edges(triples)
    forced_mask = 0
    for v in forced:
        if not (0 <= v < n):
            raise ValueError(f"forced vertex {v} out of range")
        forced_mask |= 1 << v
    for a, b, c in edges:
        if (forced_mask >> a) & 1 and (forced_mask >> b) & 1 and (forced_mask >> c) & 1:
            return SearchResult((), -1, True, -1, 0)

    all_mask = (1 << n) - 1
    root_lb = _matching_bound(edges)
    upper = n - root_lb

    greedy = _reference_greedy_cover(n, edges, banned=forced_mask)
    if greedy is None:
        return SearchResult((), -1, True, -1, 0)
    best_cover = greedy
    best_cover_size = bin(greedy).count("1")

    budget_box = _Budget(budget)
    hit_target = False

    def recurse(cover: int, keep: int, cover_size: int) -> None:
        nonlocal best_cover, best_cover_size, hit_target
        if hit_target or not budget_box.tick():
            return
        # Unit propagation: an edge with no covered vertex and <= 1 vertex
        # still undecided forces that vertex into the cover.
        while True:
            active: list[tuple[int, int, int]] = []
            forced_v = -1
            infeasible = False
            for e in edges:
                a, b, c = e
                em = (1 << a) | (1 << b) | (1 << c)
                if em & cover:
                    continue
                free = [v for v in e if not (keep >> v) & 1]
                if not free:
                    infeasible = True
                    break
                if len(free) == 1:
                    forced_v = free[0]
                    break
                active.append(e)
            if infeasible:
                return
            if forced_v >= 0:
                cover |= 1 << forced_v
                cover_size += 1
                if cover_size >= best_cover_size:
                    return
                continue
            break

        if not active:
            if cover_size < best_cover_size:
                best_cover_size = cover_size
                best_cover = cover
                if target is not None and n - cover_size >= target:
                    hit_target = True
            return
        if cover_size + _matching_bound(active) >= best_cover_size:
            return

        # Branch on the vertex appearing in the most active edges.
        deg = {}
        for e in active:
            for v in e:
                if not (keep >> v) & 1:
                    deg[v] = deg.get(v, 0) + 1
        v = min(deg, key=lambda u: (-deg[u], u))
        recurse(cover | (1 << v), keep, cover_size + 1)
        recurse(cover, keep | (1 << v), cover_size)

    recurse(0, forced_mask, 0)

    subset_mask = all_mask & ~best_cover
    subset = tuple(v for v in range(n) if (subset_mask >> v) & 1)
    size = len(subset)
    optimal = not budget_box.exhausted and not hit_target
    return SearchResult(subset, size, optimal, max(upper, size), budget_box.used)


def reference_lexicographically_smallest_mis(
    n: int,
    triples: Iterable[Sequence[int]],
    size: int,
    budget: Optional[int] = 500_000,
) -> tuple[int, ...]:
    """Lexicographically smallest independent subset of the given (optimal)
    size, built by prefix forcing.  Assumes such a subset exists."""
    edges = _canonical_edges(triples)
    chosen: list[int] = []
    for v in range(n):
        if len(chosen) == size:
            break
        trial = chosen + [v]
        res = reference_max_independent_subset(n, edges, budget=budget, forced=trial, target=size)
        if res.size >= size:
            chosen = trial
    if len(chosen) != size:
        raise RuntimeError("failed to reconstruct certificate; budget too small")
    return tuple(chosen)


def reference_certificate(m, alpha):
    """(subset, size, optimal, bound) as the unbudgeted certificate used to be
    built: one search, then the lexicographic rebuild by prefix forcing."""
    edges = violating_triples(m, alpha)
    res = reference_max_independent_subset(m.n, edges, budget=None)
    subset = res.subset
    if res.optimal and res.size < m.n:
        subset = reference_lexicographically_smallest_mis(m.n, edges, res.size, budget=None)
    return subset, res.size, res.optimal, res.upper_bound


def _euclidean(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMetricSpace(np.sqrt(np.sum(diff * diff, axis=2)))


def certificate_corpus(rng):
    """(name, space, alpha): the scan corpus at alphas 0.5 and 0.8 without
    collinear-41, whose search alone takes about 20 s and whose only maximum,
    (0, 1), test_max_sra_collinear6 pins; then, at alpha 0.8, jittered 5x5
    lattices, 16-point disk samples, 18-point graph metrics and 21-point
    gradient-descent DSE spaces (the 41-point ones search for 7-30 s each)."""
    out = [(name, m, alpha) for name, m in scan_corpus(rng) if name != "collinear-41"
           for alpha in (0.5, 0.8)]
    grid = np.array([(i, j) for i in range(5) for j in range(5)], dtype=float)
    for k in range(4):
        r, t = np.sqrt(rng.uniform(size=16)), rng.uniform(0.0, 2.0 * np.pi, size=16)
        out.append((f"disk-{k}", _euclidean(np.c_[r * np.cos(t), r * np.sin(t)]), 0.8))
        out.append((f"graph-{k}", graph_metric(18, rng), 0.8))
    for k in range(2):
        out.append((f"lattice-{k}", _euclidean(grid + 0.05 * rng.standard_normal(grid.shape)),
                    0.8))
        out.append((f"gradient-dse-{k}", FiniteMetricSpace(gradient_dse(k, steps=20).dist), 0.8))
    return out


def test_certificate_matches_prefix_forcing_oracle():
    for name, m, alpha in certificate_corpus(np.random.default_rng(9)):
        subset, size, optimal, bound = reference_certificate(m, alpha)
        cert = max_sra_subset(m, alpha, budget=None)
        assert (cert.subset, cert.size, cert.optimal, cert.bound) == \
            (subset, size, optimal, bound), name
        assert sra_report(m, alpha, budget=None)["max_subset"] == {
            "indices": list(subset), "size": size, "optimal": optimal, "bound": bound}, name


def reference_sra_report(m, alpha, budget, tol=None):
    """``sra_report`` before its hyperedges became one integer array, kept as
    a test oracle: the need-gated scan's hits as a set of sorted tuples, then
    sorted, one branch and bound over that list (the frozen copy above), and
    the lexicographic pass over the rows of ``_sra_third``."""
    d, tol = sra_analysis._sra_args(m, alpha, tol)
    shown, edges, needs = [], set(), []
    for z, need, hits in metric_core._middle_scan(d, alpha, tol, True):
        needs.append(need)
        if hits is None:
            continue
        xs, ys, slack = hits
        keep = xs < ys
        for v in zip(xs[keep].tolist(), repeat(z), ys[keep].tolist(), slack[keep].tolist()):
            if len(shown) < MAX_VIOLATIONS:
                shown.append(v)
            edges.add(tuple(sorted(v[:3])))
    res = reference_max_independent_subset(m.n, sorted(edges), budget=budget)
    subset = res.subset
    if res.optimal and res.size < m.n:
        subset = _in_order_search(m.n, sra_analysis._sra_third(m, alpha, tol),
                                  target=res.size).subset
    return {
        "alpha": float(alpha),
        "is_sra": not shown,
        "critical_alpha": max([0.0] + needs),
        "max_subset": {"indices": list(subset), "size": res.size,
                       "optimal": res.optimal, "bound": res.upper_bound},
        "violations": Columns.from_rows(("x", "z", "y", "slack"), shown),
        "tol": float(tol),
    }


def test_sra_report_matches_the_tuple_set_report():
    """The whole report, in value and in Python types, against the tuple-set
    report it replaced, on degenerate and boundary inputs, budgeted and not.
    collinear-41 runs budgeted only: its unbudgeted search takes about 20 s
    in each of the two reports."""
    for name, m in scan_corpus(np.random.default_rng(52), alphas=(0.2, 0.8, 0.95)):
        alphas = (0.8,) if m.n > 20 else (0.2, 0.8, 0.95)
        budgets = (0, 1, 50) if name == "collinear-41" else (None, 0, 1, 50)
        for alpha, tol, budget in product(alphas, (None, 0.0, -1e-6), budgets):
            got = sra_report(m, alpha, budget=budget, tol=tol)
            want = reference_sra_report(m, alpha, budget, tol)
            assert got == want and repr(got) == repr(want), (name, alpha, tol, budget)


def test_sra_report_schema():
    rep = sra_report(collinear(4), 0.9)
    assert set(rep) == {"alpha", "is_sra", "critical_alpha", "max_subset",
                        "violations", "tol"}
    assert rep["max_subset"]["size"] == 2
    assert not rep["is_sra"]


# ---------------------------------------------------------------------------
# Threaded per-middle scan
# ---------------------------------------------------------------------------

def force_threads(monkeypatch, m, middles):
    """Run the scans of ``m`` on the thread pool, ``middles`` per block, however
    small ``m`` is (still inline on a single usable core)."""
    monkeypatch.setattr(metric_core, "_THREADED_MIN_N", 0)
    monkeypatch.setattr(metric_core, "_BLOCK_ELEMENTS", middles * m.n * m.n)


def scan_results(m, alphas, tols):
    """repr of every scan consumer's result on ``m`` (repr tells -0.0 and NaN
    apart), or of the error it raised."""
    def run(f, *args, **kwargs):
        try:
            return repr(f(*args, **kwargs))
        except ValueError as e:
            return f"ValueError: {e}"

    out = [run(critical_alpha, m)]
    for tol in tols:
        out.append(run(validate_metric, m, tri_tol=tol))
        for alpha in alphas:
            out += [run(is_sra, m, alpha, tol=tol), run(violating_triples, m, alpha, tol=tol),
                    run(sra_report, m, alpha, budget=1, tol=tol)]
    return out


def asymmetric_corpus(rng):
    out = []
    for n in (3, 7, 11):
        d = rng.uniform(0.2, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        out.append((f"asymmetric-{n}", FiniteMetricSpace(d)))
    return out


def test_threaded_scan_matches_inline_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(49)
    for name, m in scan_corpus(rng, alphas=(0.2, 0.8, 1.0)) + asymmetric_corpus(rng):
        alphas = (0.8,) if m.n > 20 else (0.2, 0.95)
        tols = (None, -1e-6)
        inline = scan_results(m, alphas, tols)
        for middles in (1, 3):
            with monkeypatch.context() as mp:
                force_threads(mp, m, middles)
                assert scan_results(m, alphas, tols) == inline, (name, middles)


def test_threaded_scan_matches_inline_across_the_real_cut(monkeypatch):
    """Above the size cut at the real block size: a snowflaked path and a 3-D
    ball, against the same scans with the cut out of reach."""
    ball = from_point_cloud(sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 3), 170, 1.0, 7))
    for m, alpha in ((gen_snowflaked_path(160, 0.5), 0.6), (gen_snowflaked_path(220, 0.5), 0.41),
                     (ball, 0.95)):
        assert m.n >= metric_core._THREADED_MIN_N
        threaded = scan_results(m, (alpha,), (None,))
        with monkeypatch.context() as mp:
            mp.setattr(metric_core, "_THREADED_MIN_N", m.n + 1)
            assert scan_results(m, (alpha,), (None,)) == threaded


def reference_scan_block(d, lo, hi, alpha, tol, critical, gate, diam):
    """The scan kernel of one middle at a time in n x n buffers, frozen from
    before middles shared a numpy pass."""
    n = d.shape[0]
    a, b = np.empty((n, n)), np.empty((n, n))
    out = []
    for z in range(lo, hi):
        col, row = d[:, z], d[z, :]
        need = None
        if critical:
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(np.subtract(d, col[:, None], out=a), col[None, :], out=a)
            np.minimum(a, a.T, out=b)
            b[z, :] = b[:, z] = -np.inf
            np.fill_diagonal(b, -np.inf)
            need = float(np.fmax.reduce(b, axis=None))
        hits = None
        if alpha is not None and not (gate and need <= alpha + tol / (2.0 * diam)):
            out_ = np.add(col[:, None], alpha * row[None, :], out=a)
            if alpha != 1.0:
                np.maximum(out_, np.add(alpha * col[:, None], row[None, :], out=b), out=out_)
            slack = np.subtract(d, out_, out=out_)
            over = slack > tol
            if over.any():
                xs, ys = np.nonzero(over)
                keep = (xs != ys) & (xs != z) & (ys != z)
                xs, ys = xs[keep], ys[keep]
                hits = (xs, ys, slack[xs, ys])
        out.append((z, need, hits))
    return out


def raw_scans(m, alphas, tols):
    """repr of every (z, need, hits) the scan yields on ``m``: critical alone,
    the triangle check and SRA(alpha) with and without critical."""
    d = m.dist
    runs = [(None, None, True)] + [(1.0, tol, False) for tol in tols]
    runs += [(alpha, tol, critical) for alpha in alphas for tol in tols
             for critical in (False, True)]
    return [[(z, repr(need), hits if hits is None else [repr(h.tolist()) for h in hits])
             for z, need, hits in metric_core._middle_scan(d, *run)] for run in runs]


def signed_zero_space():
    """Zero distances stored as 0.0 and -0.0, so that the needs and slacks
    hold zeros of both signs."""
    d = collinear(6).dist.copy()
    d[1, 2] = d[2, 1] = -0.0
    d[3, 4] = d[4, 3] = 0.0
    d[0, 5] = d[5, 0] = -0.0
    return FiniteMetricSpace(d)


def test_block_kernel_matches_the_middle_by_middle_kernel(monkeypatch):
    """Every scan consumer's result, and every (z, need, hits) of the scan,
    is the same with k = 1, 2, 3 and all middles per numpy pass as with the
    frozen one-middle kernel, inline and on the thread pool."""
    rng = np.random.default_rng(51)
    small = [(f"n={n}", FiniteMetricSpace(d)) for n, d in (
        (1, [[0.0]]), (2, [[0.0, 1.5], [1.5, 0.0]]), (2, [[0.0, 0.0], [0.0, 0.0]]),
        (3, [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
        (3, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        # a far middle with d(z, z) > 0: its own row and column are no candidates
        (3, [[0.0, 1.0, 10.0], [1.0, 0.0, 10.0], [10.0, 10.0, 5.0]]))]
    repeated = FiniteMetricSpace(np.abs(np.subtract.outer(*[[0.0, 1.0, 1.0, 2.0, 2.0, 3.5]] * 2)))
    corpus = (small + scan_corpus(rng, alphas=(0.2, 0.8, 1.0)) + asymmetric_corpus(rng)
              + [("repeated-points", repeated), ("signed-zeros", signed_zero_space())])
    for name, m in corpus:
        alphas = (0.8,) if m.n > 20 else (0.2, 0.95)
        # The consumers at tol 0 and -1e-6; the raw scans also at the default
        # tolerance, the only one of the three at which the scan skips middles.
        tols = (0.0, -1e-6, default_tol(m))
        with monkeypatch.context() as mp:
            mp.setattr(metric_core, "_scan_block",
                       lambda d, lo, hi, *args: reference_scan_block(d, lo, hi, *args[:5]))
            want = (scan_results(m, alphas, tols[:2]), raw_scans(m, alphas, tols[1:]))
        # On the thread pool, blocks of 3 middles split into passes of 2 + 1.
        runs = [(middles, False) for middles in sorted({1, 2, 3, m.n})]
        for middles, threaded in runs + [(2, True)]:
            with monkeypatch.context() as mp:
                mp.setattr(metric_core, "_PASS_ELEMENTS", middles * m.n * m.n)
                if threaded:
                    force_threads(mp, m, 3)
                got = (scan_results(m, alphas, tols[:2]), raw_scans(m, alphas, tols[1:]))
            assert got == want, (name, middles, threaded)


def count_blocks(monkeypatch):
    """Record (lo, hi) of every kernel call."""
    calls = []
    kernel = metric_core._scan_block

    def counted(d, lo, hi, *args):
        calls.append((lo, hi))
        return kernel(d, lo, hi, *args)

    monkeypatch.setattr(metric_core, "_scan_block", counted)
    return calls


@pytest.mark.parametrize("middles", [1, 3, 20])
def test_early_stop_runs_few_blocks_past_the_consumer(monkeypatch, middles):
    """A capped scan starts at most (workers + 1) blocks beyond those it
    consumed, few middles if it stops at the first, and leaves no thread
    behind."""
    sra_space = collinear(41)  # 10,660 violations at alpha 0.9
    cases = [(sra_space, lambda: is_sra(sra_space, 0.9),
              lambda: sra_analysis._violations(sra_space.dist, 0.9, default_tol(sra_space)),
              MAX_VIOLATIONS)]
    # Squared distances break triangles: from middle 1 on along a line, and at
    # every middle, the first included, in a ball around point 0.
    ball = from_point_cloud(sample_model(ModelSpaceSpec(EUCLIDEAN_L2, 3), 41, 1.0, 7))
    for tri_space in (FiniteMetricSpace(collinear(41).dist ** 2),
                      FiniteMetricSpace(ball.dist ** 2)):
        for cap in (1, 5, 300):
            cases.append((tri_space, lambda m=tri_space: validate_metric(m),
                          lambda m=tri_space: metric_core._metric_violations(m.dist,
                                                                             default_tol(m)),
                          cap))
    for m, check, found, cap in cases:
        # the middle of the witness past the cap, which stops the scan
        stop = list(islice(found(), cap + 1))[-1]
        z = stop[1] if isinstance(stop, tuple) else stop.indices[1]
        with monkeypatch.context() as mp:
            force_threads(mp, m, middles)
            mp.setattr(metric_core, "MAX_VIOLATIONS", cap)
            mp.setattr(sra_analysis, "MAX_VIOLATIONS", cap)
            calls = count_blocks(mp)
            threads = threading.active_count()
            assert check().truncated
            assert threading.active_count() == threads
        workers = metric_core._scan_workers(m.n)
        spans = sorted(calls)
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        consumed = sum(lo <= z for lo, _ in spans)
        assert consumed <= len(spans) <= consumed + workers + 1
        if z == 0:  # blocks start at one middle and double
            assert spans[-1][1] <= 2 ** (workers + 2) - 1


@pytest.mark.parametrize("n", [1, 2, 16, 25, 26, 40])
def test_inline_scan_runs_one_pass_when_one_holds_every_middle(monkeypatch, n):
    """Up to 25 points the inline scan is one kernel call over every middle;
    from 26 points up it keeps the 1, 2, 4, ... ramp of ``_block_spans``."""
    m = collinear(n)
    calls = count_blocks(monkeypatch)
    for critical, alpha in ((True, None), (False, 0.9), (True, 0.9)):
        calls.clear()
        list(metric_core._middle_scan(m.dist, alpha, default_tol(m), critical))
        k = metric_core._PASS_ELEMENTS // (n * n)
        assert calls == ([(0, n)] if k >= n else list(metric_core._block_spans(n, k)))
    assert (len(calls) == 1) == (n <= 25)


def test_abandoned_scan_stops_its_threads(monkeypatch):
    m = gen_snowflaked_path(30, 0.5)
    force_threads(monkeypatch, m, 2)
    threads = threading.active_count()
    scan = metric_core._middle_scan(m.dist, 0.6, default_tol(m), True)
    assert next(scan)[0] == 0
    if metric_core._scan_workers(m.n) > 1:
        assert threading.active_count() > threads
    scan.close()
    assert threading.active_count() == threads
    assert critical_alpha(m) <= 0.5 + 1e-12
    assert threading.active_count() == threads


def test_one_usable_core_scans_inline(monkeypatch):
    m = gen_snowflaked_path(30, 0.5)
    force_threads(monkeypatch, m, 1)
    monkeypatch.setattr(metric_core.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert metric_core._scan_workers(m.n) == 1
    threads = threading.active_count()
    for _ in metric_core._middle_scan(m.dist, 0.6, default_tol(m), True):
        assert threading.active_count() == threads


def test_scan_workers_follow_cores_and_buffer_budget(monkeypatch):
    monkeypatch.delattr(metric_core.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(metric_core.os, "cpu_count", lambda: 64)
    assert metric_core._scan_workers(200) == 64
    # Each worker has the serial scan's two n x n buffers, and all of them
    # together stay within twice the serial scan's at MAX_POINTS.
    assert metric_core._scan_workers(metric_core.MAX_POINTS) == 2
    assert metric_core._scan_workers(metric_core.MAX_POINTS // 4) == 32
    monkeypatch.setattr(metric_core.os, "cpu_count", lambda: None)
    assert metric_core._scan_workers(200) == 1


def test_threaded_scan_raises_no_warning(monkeypatch):
    """A new thread starts at numpy's default error state, so the kernel must
    quiet its own 0/0 and x/0 divisions."""
    for name, m in scan_corpus(np.random.default_rng(50)):
        if name in ("repeated-point", "zero-entry"):
            force_threads(monkeypatch, m, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert critical_alpha(m) == oracle_critical_alpha(m)


def test_scan_workers_call_no_public_function(monkeypatch):
    """Tracing wraps the package's public functions and files spans by
    thread, so only the consumer's thread may call them."""
    callers = []
    for module in (metric_core, sra_analysis):
        for fname, f in vars(module).items():
            if (not fname.startswith("_") and inspect.isfunction(f)
                    and f.__module__ == module.__name__):
                def wrapper(*args, _f=f, **kwargs):
                    callers.append(threading.current_thread())
                    return _f(*args, **kwargs)
                monkeypatch.setattr(module, fname, wrapper)
    m = gen_snowflaked_path(40, 0.5)
    force_threads(monkeypatch, m, 2)
    calls = count_blocks(monkeypatch)
    sra_analysis.sra_report(m, 0.6, budget=1)
    metric_core.validate_metric(m)
    assert calls and callers
    assert set(callers) == {threading.current_thread()}


# ---------------------------------------------------------------------------
# Euclidean angle audit
# ---------------------------------------------------------------------------

def cloud(coords):
    return PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, len(coords[0])), coords)


def test_angle_audit_collinear():
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [2, 0]]), 0.9)
    entries = rows(audit.entries, "x z y angle")
    assert [e[:3] for e in entries] == [(0, 1, 2)]
    assert entries[0][3] == pytest.approx(math.pi)


def test_angle_audit_equilateral_empty():
    h = math.sqrt(3) / 2
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [0.5, h]]), 0.5)
    assert rows(audit.entries, "x z y angle") == []


def test_angle_audit_square_empty():
    audit = euclidean_angle_audit(cloud([[0, 0], [1, 0], [1, 1], [0, 1]]), 0.9)
    assert rows(audit.entries, "x z y angle") == []


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
            for x, z, y, _ in rows(audit.entries, "x z y angle"):
                a, b = m.dist[x, z], m.dist[z, y]
                assert m.dist[x, y] > max(a + alpha * b, alpha * a + b)
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
    assert rows(audit.entries, "x z y angle") == []  # wide-angle set misses this violation


def reference_angle_audit(pc, alpha):
    """The triple loop the audit used before its per-middle matmul candidate
    mask, kept verbatim as the oracle."""
    threshold = math.acos(-alpha)
    coords = pc.coords
    n = pc.n
    entries: list[tuple[int, int, int, float]] = []
    skipped: list[tuple[int, int]] = []
    dropped = 0

    diff_all = coords[:, None, :] - coords[None, :, :]
    dmat = np.sqrt(np.sum(diff_all * diff_all, axis=2))

    for z in range(n):
        v = coords - coords[z]
        norms = np.linalg.norm(v, axis=1)
        for x in range(n):
            if x == z:
                continue
            if norms[x] <= 1e-12:
                skipped.append((x, z))
                continue
            for y in range(x + 1, n):
                if y == z or norms[y] <= 1e-12:
                    continue
                cosang = float(np.dot(v[x], v[y]) / (norms[x] * norms[y]))
                ang = math.acos(min(1.0, max(-1.0, cosang)))
                if ang <= threshold:
                    continue
                a, b = dmat[x, z], dmat[z, y]
                slack = dmat[x, y] - max(a + alpha * b, alpha * a + b)
                if slack <= 0.0:
                    dropped += 1
                    continue
                entries.append((x, z, y, ang))
    # Deduplicate degenerate notices and keep output order stable.
    seen = sorted(set(skipped))
    return AngleAudit(alpha=float(alpha), threshold=threshold,
                      entries=Columns.from_rows(("x", "z", "y", "angle"), entries),
                      skipped_degenerate=tuple(seen), boundary_dropped=dropped)


def audit_key(audit):
    """Everything an audit reports, with the Python types it reports them in,
    its entry columns lists included."""
    entries = rows(audit.entries, "x z y angle")
    types = {tuple(type(f).__name__ for f in e) for e in entries}
    types.add(tuple(type(c).__name__ for c in audit.entries.columns.values()))
    types |= {tuple(type(f).__name__ for f in p) for p in audit.skipped_degenerate}
    return (audit.alpha, audit.threshold, entries, list(audit.skipped_degenerate),
            audit.boundary_dropped, sorted(types))


def test_angle_audit_matches_reference_loop():
    """Entries (angles bit for bit), degenerate notices and boundary drops of
    the per-middle candidate mask equal those of the triple loop on every
    cloud of the corpus at every alpha."""
    corpus = angle_corpus(np.random.default_rng(2024))
    hits = drops = skips = 0
    for name, coords in corpus:
        pc = cloud(coords)
        for alpha in ANGLE_ALPHAS:
            got, want = euclidean_angle_audit(pc, alpha), reference_angle_audit(pc, alpha)
            assert audit_key(got) == audit_key(want), (name, alpha)
            hits += len(want.entries)
            drops += want.boundary_dropped
            skips += len(want.skipped_degenerate)
    # the corpus reaches every outcome of the scalar confirmation
    assert hits > 0 and drops > 0 and skips > 0


@pytest.mark.parametrize("alpha", [0.5, 0.8])
@pytest.mark.parametrize("n, dim", [(100, 2), (60, 3)])
def test_angle_audit_matches_reference_loop_on_large_clouds(n, dim, alpha):
    """A middle of these clouds has hundreds to thousands of candidates, all
    dotted in one batched matmul; the entries still equal the triple loop's,
    angles bit for bit."""
    pc = cloud(np.random.default_rng(n).standard_normal((n, dim)))
    got, want = euclidean_angle_audit(pc, alpha), reference_angle_audit(pc, alpha)
    assert audit_key(got) == audit_key(want)
    assert len(want.entries) > 10 * n


def test_angle_audit_repeated_point_raises_no_warning():
    """A repeated point makes some matmul cosines 0/0; the audit must not
    warn, even with every warning turned into an error."""
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.1], [2.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audit = euclidean_angle_audit(cloud(pts), 0.5)
    assert audit.skipped_degenerate == ((1, 2), (2, 1))
    assert audit == reference_angle_audit(cloud(pts), 0.5)


def test_angle_audit_blocks_match_reference_loop(monkeypatch):
    """The audit takes its middles a block at a time; blocks of one middle,
    of two or three, and of the whole cloud all give the triple loop's
    entries (angles bit for bit), degenerate notices and boundary drops."""
    for name, coords in angle_corpus(np.random.default_rng(2024)):
        pc = cloud(coords)
        for alpha in ANGLE_ALPHAS:
            want = audit_key(reference_angle_audit(pc, alpha))
            for middles in (1, 2, 3, pc.n):
                monkeypatch.setattr(sra_analysis, "_PASS_ELEMENTS", middles * pc.n ** 2)
                got = audit_key(euclidean_angle_audit(pc, alpha))
                assert got == want, (name, alpha, middles)


def test_angle_audit_repeated_point_across_blocks_raises_no_warning(monkeypatch):
    """Blocks of two middles put the repeated points 1 and 2 in different
    blocks; each block's 0/0 cosines must stay silent and the degenerate
    pair must be noticed from both sides."""
    pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.1], [2.0, 0.0]]
    monkeypatch.setattr(sra_analysis, "_PASS_ELEMENTS", 2 * len(pts) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        audit = euclidean_angle_audit(cloud(pts), 0.5)
    assert audit.skipped_degenerate == ((1, 2), (2, 1))
    assert audit == reference_angle_audit(cloud(pts), 0.5)


# ---------------------------------------------------------------------------
# Known answers at scale
# ---------------------------------------------------------------------------

def cube(dim):
    """The Euclidean cube {0,1}^dim, 2^dim points."""
    return from_point_cloud(cloud(np.array(list(product((0.0, 1.0), repeat=dim)))))


def test_cube_critical_alpha_is_sqrt2_minus_1_to_the_bit():
    # No angle of the cube exceeds pi/2, which gives SRA(sqrt(2) - 1), and
    # 0, e_1, e_1 + e_2 attains it.
    for dim in range(4, 8):
        assert critical_alpha(cube(dim)) == math.sqrt(2) - 1, dim


def test_cube_subsets_have_no_violating_triple_at_sqrt2_minus_1():
    m = cube(6)
    rng = np.random.default_rng(52)
    for size in [m.n] + rng.integers(3, m.n, size=30).tolist():
        idx = np.sort(rng.choice(m.n, size=size, replace=False))
        assert violating_triples(subspace(m, idx), math.sqrt(2) - 1, tol=0.0) == [], size


def test_snowflaked_path_critical_alpha_within_ulps():
    # Every equally spaced triple attains 2**beta - 1.  The scan's ratios
    # (d(x, y) - d(x, z)) / d(z, y) round at the scale of d(x, y), about
    # 2**beta times d(z, y), so the band counts ulps of 2**beta.
    for n, beta, ulps in ((400, 0.5, 1), (300, 0.3, 2)):
        got = critical_alpha(gen_snowflaked_path(n, beta))
        assert abs(got - (2 ** beta - 1)) <= ulps * math.ulp(2 ** beta), (n, beta, got)


def test_angle_audit_entries_are_violating_triples_at_scale():
    # A vertex angle above arccos(-alpha) forces an SRA(alpha) violation.
    pc = cloud(np.random.default_rng(53).standard_normal((120, 3)))
    entries = rows(euclidean_angle_audit(pc, 0.5).entries, "x z y angle")
    triples = set(violating_triples(from_point_cloud(pc), 0.5, tol=0.0))
    assert entries
    assert all(tuple(sorted((x, z, y))) in triples for x, z, y, _ in entries)


@pytest.mark.parametrize("seed", range(5))
def test_max_sra_finds_a_planted_cube(seed):
    # The 8 points of {0,1}^3 are SRA(sqrt(2) - 1), so the largest SRA subset
    # of a cloud holding them has at least 8 points, and so has its bound.
    rng = np.random.default_rng(seed)
    pts = np.vstack([list(product((0.0, 1.0), repeat=3)), rng.standard_normal((8, 3))])
    m = from_point_cloud(cloud(pts[rng.permutation(16)]))
    rep = sra_report(m, math.sqrt(2) - 1)
    found = rep["max_subset"]
    assert found["optimal"] and found["size"] >= 8 and found["bound"] >= 8
    assert found["size"] == len(found["indices"])
    assert oracle_violations(subspace(m, found["indices"]), math.sqrt(2) - 1, rep["tol"]) == []
