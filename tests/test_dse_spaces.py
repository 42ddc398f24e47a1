import numpy as np
import pytest

from rough_angles import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    DseSpace,
    RejectionError,
    as_dse,
    check_two_lemma,
    default_tol,
    diameter,
    gap_D,
    gen_random_dse,
    gen_snowflaked_path,
    is_dse,
    is_sra,
    length_L,
    max_sra_subset,
    snowflake,
)

from _generators import collinear, random_metric


def test_is_dse_collinear_in_order():
    assert is_dse(collinear(5)).ok


def test_is_dse_out_of_order():
    pos = np.array([0.0, 2.0, 1.0])
    m = FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))
    verdict = is_dse(m, tol=0.0)
    assert not verdict.ok
    v = verdict.violations[0]
    assert (v.i, v.j, v.k) == (0, 1, 2)
    assert v.amount == pytest.approx(1.0)


def test_is_dse_snowflaked():
    assert is_dse(snowflake(collinear(6), 0.5)).ok


def test_as_dse_raises_with_witness():
    pos = np.array([0.0, 2.0, 1.0])
    m = FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))
    with pytest.raises(ValueError, match="not DSE"):
        as_dse(m, tol=0.0)


def test_length_and_gap():
    d = as_dse(collinear(5))
    assert length_L(d) == 4.0
    assert gap_D(d) == 4.0
    s = as_dse(snowflake(collinear(5), 0.5))
    assert length_L(s) == 4.0
    assert gap_D(s) == 2.0
    two = as_dse(FiniteMetricSpace([[0.0, 3.0], [3.0, 0.0]]))
    assert length_L(two) == gap_D(two) == 3.0


def test_length_at_least_gap():
    rng = np.random.default_rng(12)
    for seed in range(10):
        d = gen_random_dse(4, seed=seed)
        assert length_L(d) >= gap_D(d) - 1e-12


def test_two_lemma_on_generated_spaces():
    for n, beta in [(5, 0.5), (9, 0.3), (17, 0.8)]:
        d = gen_snowflaked_path(n, beta)
        verdict = check_two_lemma(d)
        assert verdict.ok
        assert verdict.diam_le_two_gap
        assert diameter(d.space) <= 2.0 * gap_D(d) + 1e-12
        assert gap_D(d) <= diameter(d.space) + 1e-12


def _two_lemma_oracle(d, tol):
    """Brute force over every i <= j <= k <= l with i < l: the verdict, the
    first window (i, l) in row-major order with the largest positive ratio
    and its first widest pair (j, k), reported only when the lemma fails."""
    dist, n = d.dist, d.n
    ok, best, worst_ratio = True, None, 0.0
    for i in range(n):
        for l in range(i + 1, n):
            bound = 2.0 * dist[i, l]
            widest, pair = -np.inf, None
            for j in range(i, l + 1):
                for k in range(j, l + 1):
                    if dist[j, k] > bound + tol:
                        ok = False
                    if dist[j, k] > widest:
                        widest, pair = dist[j, k], (j, k)
            ratio = widest / bound if bound > 0 else np.inf
            if ratio > worst_ratio:
                worst_ratio, best = ratio, (i, pair[0], pair[1], l)
    diam_ok = np.max(dist) <= 2.0 * dist[0, n - 1] + tol
    return ok and diam_ok, None if ok else best, worst_ratio, diam_ok


def test_two_lemma_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    spaces = [gen_snowflaked_path(n, beta) for n in (2, 3, 5, 8) for beta in (0.3, 0.5, 0.9)]
    # Arbitrary orders of random metrics are mostly not DSE, so the lemma
    # fails and the worst window and pair are exercised.
    spaces += [DseSpace(random_metric(int(rng.integers(2, 9)), rng)) for _ in range(60)]
    # A repeated point gives a zero gap: ratio inf at that window.
    spaces.append(DseSpace(FiniteMetricSpace(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])))
    failed = 0
    for d in spaces:
        for tol in (default_tol(d.space), 0.0):
            got = check_two_lemma(d, tol=tol)
            ok, worst, ratio, diam_ok = _two_lemma_oracle(d, tol)
            assert (got.ok, got.worst, got.diam_le_two_gap) == (ok, worst, diam_ok)
            assert got.worst_ratio == ratio  # bit for bit, inf included
            failed += not got.ok
    assert 0 < failed < 2 * len(spaces)


def test_two_lemma_explicit_equality_pressure():
    d = gen_snowflaked_path(5, 0.5)
    assert diameter(d.space) == 2.0
    assert gap_D(d) == 2.0  # diam = D <= 2D


def test_snowflaked_path_ratio_closed_form():
    for n, beta, expect in [(5, 0.5, 2.0), (17, 0.5, 4.0), (2, 0.7, 1.0)]:
        d = gen_snowflaked_path(n, beta)
        assert length_L(d) / gap_D(d) == pytest.approx(expect, abs=0)
        assert is_dse(d.space).ok


def test_snowflaked_path_is_sra_at_beta():
    d = gen_snowflaked_path(6, 0.5)
    assert is_sra(d.space, 0.5, tol=1e-12).is_sra
    cert = max_sra_subset(d.space, 0.5)
    assert cert.size == 6


def test_reversal_not_dse_counterexample():
    # d12=1 <= d13=1.1 makes the order DSE, but the reversed order needs
    # d23 <= d13 which fails: reversal is a documented non-invariant.
    d = np.array([[0.0, 1.0, 1.1], [1.0, 0.0, 2.0], [1.1, 2.0, 0.0]])
    m = FiniteMetricSpace(d)
    assert is_dse(m, tol=0.0).ok
    rev = FiniteMetricSpace(d[::-1, ::-1].copy())
    assert not is_dse(rev, tol=0.0).ok


def test_gen_random_dse_contract():
    d1 = gen_random_dse(4, seed=42)
    d2 = gen_random_dse(4, seed=42)
    assert np.array_equal(d1.dist, d2.dist)
    assert is_dse(d1.space).ok
    pair = gen_random_dse(2, seed=0, max_attempts=2)
    assert pair.n == 2


def test_gen_random_dse_three_points_condition():
    d = gen_random_dse(3, seed=5)
    assert d.dist[0, 1] <= d.dist[0, 2] + 1e-12


def test_gen_random_dse_rejection():
    with pytest.raises(RejectionError):
        gen_random_dse(9, seed=1, max_attempts=3,
                       model=ModelSpaceSpec(EUCLIDEAN_L2, 2))


def test_single_point_two_lemma():
    d = as_dse(FiniteMetricSpace([[0.0]]))
    assert check_two_lemma(d).ok
