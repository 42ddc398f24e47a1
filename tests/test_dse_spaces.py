import hashlib
import itertools

import numpy as np
import pytest

from rough_angles import dse_spaces
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
    from_point_cloud,
    gap_D,
    gen_random_dse,
    gen_snowflaked_path,
    is_dse,
    is_sra,
    length_L,
    max_sra_subset,
    sample_model,
    snowflake,
)
from rough_angles.metric_core import MODEL_KINDS

from _generators import collinear, random_metric, rows


def test_is_dse_collinear_in_order():
    assert is_dse(collinear(5)).ok


def test_is_dse_out_of_order():
    pos = np.array([0.0, 2.0, 1.0])
    m = FiniteMetricSpace(np.abs(pos[:, None] - pos[None, :]))
    verdict = is_dse(m, tol=0.0)
    assert not verdict.ok
    i, j, k, amount = rows(verdict.violations, "i j k amount")[0]
    assert (i, j, k) == (0, 1, 2)
    assert amount == pytest.approx(1.0)


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


def test_gen_random_dse_contract(monkeypatch):
    d1 = gen_random_dse(4, seed=42)
    d2 = gen_random_dse(4, seed=42)
    assert np.array_equal(d1.dist, d2.dist)
    assert is_dse(d1.space).ok
    monkeypatch.setattr(dse_spaces, "MAX_ATTEMPTS", 2)
    pair = gen_random_dse(2, seed=0)
    assert pair.n == 2


def test_gen_random_dse_three_points_condition():
    d = gen_random_dse(3, seed=5)
    assert d.dist[0, 1] <= d.dist[0, 2] + 1e-12


@pytest.fixture()
def dse_checks(monkeypatch):
    """A list that grows by one entry per call of ``_dse_violations``, the
    check ``gen_random_dse`` runs once per order it tries."""
    calls = []
    check = dse_spaces._dse_violations

    def counted(d, tol):
        calls.append(d.shape[0])
        return check(d, tol)

    monkeypatch.setattr(dse_spaces, "_dse_violations", counted)
    return calls


def test_gen_random_dse_rejection(monkeypatch, dse_checks):
    monkeypatch.setattr(dse_spaces, "MAX_ATTEMPTS", 3)
    with pytest.raises(RejectionError, match="within 3 attempts"):
        gen_random_dse(9, seed=1, model=ModelSpaceSpec(EUCLIDEAN_L2, 2))
    assert dse_checks == [9] * 3


@pytest.mark.parametrize("n, seed, first", [(5, 3, 19), (6, 5, 21)])
def test_gen_random_dse_stops_inside_the_last_cloud(monkeypatch, dse_checks, n, seed, first):
    """The first DSE order of (n, seed) is attempt ``first``, not the first
    order of its cloud: with one attempt fewer the budget ends inside that
    cloud and the generator refuses after checking exactly that many orders;
    with exactly enough it returns the order the unlimited budget finds."""
    want = gen_random_dse(n, seed).dist
    assert first % n != 1
    monkeypatch.setattr(dse_spaces, "MAX_ATTEMPTS", first - 1)
    dse_checks.clear()
    with pytest.raises(RejectionError, match=f"within {first - 1} attempts"):
        gen_random_dse(n, seed)
    assert len(dse_checks) == first - 1
    monkeypatch.setattr(dse_spaces, "MAX_ATTEMPTS", first)
    dse_checks.clear()
    assert np.array_equal(gen_random_dse(n, seed).dist, want)
    assert len(dse_checks) == first


MODELS = [ModelSpaceSpec(kind) for kind in MODEL_KINDS] + [
    ModelSpaceSpec(EUCLIDEAN_L2, 1), ModelSpaceSpec(EUCLIDEAN_L2, 3)]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.kind}-{m.dim}")
@pytest.mark.parametrize("seed", range(3))
def test_gen_random_dse_draws_from_every_model(model, seed):
    """A space of every model kind is DSE at its default tolerance, its first
    row does not decrease, and its distances are one sampled cloud's matrix
    in one order of its points, that cloud drawn from the seed's stream."""
    got = gen_random_dse(6, seed, model=model).dist
    assert is_dse(FiniteMetricSpace(got)).ok
    assert np.all(np.diff(got[0]) >= 0)
    assert np.array_equal(got, got.T)
    rng = np.random.default_rng(seed)
    for _ in range(dse_spaces.MAX_ATTEMPTS // 6):
        cloud_seed = int(rng.integers(0, 2**31 - 1))
        d = from_point_cloud(sample_model(model, 6, radius=1.0, seed=cloud_seed)).dist
        # Point a of the space is the cloud's one point with the same distances.
        matches = [[b for b in range(6) if np.array_equal(np.sort(d[b]), np.sort(got[a]))]
                   for a in range(6)]
        if all(len(m) == 1 for m in matches):
            perm = [m[0] for m in matches]
            assert sorted(perm) == list(range(6))
            assert np.array_equal(d[np.ix_(perm, perm)], got)
            return
    pytest.fail("no cloud of the seed's stream holds the space")


def brute_force_gen_random_dse(n, seed):
    """``gen_random_dse`` by brute force over every order of each cloud, frozen
    to test the sorted orders against: the clouds of the same seed stream,
    each cloud's DSE order with the smallest first point, and one attempt
    per first point up to that one.  It asserts that no first point of a
    cloud has two DSE orders, the premise of trying one order per point."""
    model = ModelSpaceSpec(EUCLIDEAN_L2, 2)
    rng = np.random.default_rng(seed)
    perms = np.array(list(itertools.permutations(range(n))))
    i, j, k = np.array(list(itertools.combinations_with_replacement(range(n), 3))).T
    attempts = 0
    while attempts < dse_spaces.MAX_ATTEMPTS:
        cloud_seed = int(rng.integers(0, 2**31 - 1))
        space = from_point_cloud(sample_model(model, n, radius=1.0, seed=cloud_seed))
        d, tol = space.dist, default_tol(space)
        ordered = d[perms[:, :, None], perms[:, None, :]]
        dse = perms[~(ordered[:, i, k] < ordered[:, i, j] - tol).any(axis=1)]
        assert len(set(dse[:, 0].tolist())) == len(dse), (n, seed, cloud_seed)
        if len(dse):
            perm = dse[np.argmin(dse[:, 0])]
            if attempts + perm[0] < dse_spaces.MAX_ATTEMPTS:
                return d[np.ix_(perm, perm)]
        attempts += n
    return None


def test_gen_random_dse_matches_brute_force_over_all_orders(monkeypatch):
    """Bit for bit the order the brute force finds, or a refusal where it
    finds none, also at budgets that end inside a cloud."""
    refused = 0
    for budget in (dse_spaces.MAX_ATTEMPTS, 37, 200, 7):
        monkeypatch.setattr(dse_spaces, "MAX_ATTEMPTS", budget)
        for n in range(2, 7):
            for seed in range(4):
                want = brute_force_gen_random_dse(n, seed)
                try:
                    got = gen_random_dse(n, seed).dist
                except RejectionError:
                    got = None
                assert (got is None) == (want is None), (budget, n, seed)
                assert got is None or got.tobytes() == want.tobytes(), (budget, n, seed)
                refused += got is None
    assert refused


def test_single_point_two_lemma():
    d = as_dse(FiniteMetricSpace([[0.0]]))
    assert check_two_lemma(d).ok


def oracle_dse(d, tol, cap):
    """Independent oracle: for each i, then k >= i, a witness (i, j, k) when
    d(i,k) < max_{i<=j'<=k} d(i,j') - tol, with j the first index attaining
    that maximum; the list is cut at ``cap``."""
    d = d.tolist()
    n = len(d)
    full = []
    for i in range(n):
        for k in range(i, n):
            top = max(d[i][i:k + 1])
            j = next(j for j in range(i, k + 1) if d[i][j] == top)
            if d[i][k] < top - tol:
                full.append((i, j, k, d[i][j] - d[i][k]))
    return full[:cap], len(full) > cap


def dse_corpus(rng):
    """Small integer matrices with many ties: symmetric, asymmetric, collinear."""
    for n in range(1, 10):
        for _ in range(6):
            sym = rng.integers(0, 4, size=(n, n)).astype(float)
            yield np.triu(sym, 1) + np.triu(sym, 1).T
            asym = rng.integers(0, 5, size=(n, n)).astype(float)
            np.fill_diagonal(asym, 0.0)
            yield asym
            pos = rng.integers(0, 6, size=n).astype(float)
            yield np.abs(pos[:, None] - pos[None, :])


def test_is_dse_matches_witness_oracle(monkeypatch):
    for d in dse_corpus(np.random.default_rng(61)):
        m = FiniteMetricSpace(d)
        for tol in (None, 0.0, 0.3, -1e-3):
            t = default_tol(m) if tol is None else tol
            for cap in (0, 1, 3, 1000):
                monkeypatch.setattr(dse_spaces, "MAX_VIOLATIONS", cap)
                verdict = is_dse(m, tol=tol)
                expect, truncated = oracle_dse(d, t, cap)
                assert rows(verdict.violations, "i j k amount") == expect
                assert verdict.truncated == truncated and verdict.tol == t
                assert verdict.ok == (not expect and not truncated)
            first = oracle_dse(d, t, 1)[0]
            if first:
                i, j, k, _ = first[0]
                with pytest.raises(ValueError, match=rf"d\(x{i},x{j}\)=.* d\(x{i},x{k}\)="):
                    as_dse(m, tol=tol)
            else:
                assert as_dse(m, tol=tol).space is m


def loop_dse(d, tol, cap):
    """The witness list ``is_dse`` built one record per row of: every break
    of ``_monotone_breaks`` row i by row i, cut at ``cap``, and whether any
    break lies past the cut."""
    found = [(i, i + w, i + b, amount) for i in range(d.shape[0])
             for w, b, amount in dse_spaces._monotone_breaks(d[i, i:], tol)]
    return found[:cap], len(found) > cap


def test_is_dse_columns_match_monotone_breaks_loop(monkeypatch):
    """The columns of ``is_dse`` hold, bit for bit and in the same Python
    types, what a per-row loop over ``_monotone_breaks`` finds, up to the cut
    at ``MAX_VIOLATIONS``, with ``truncated`` set when more exist."""
    rng = np.random.default_rng(63)
    big = random_metric(60, rng).dist  # band entries: about n^2 / 2 breaks
    cases = [d for d in dse_corpus(rng) if d.shape[0] > 4][:40] + [big, big[::-1, ::-1]]
    default_cap = dse_spaces.MAX_VIOLATIONS
    for d in cases:
        m = FiniteMetricSpace(d)
        tol = default_tol(m)
        for cap in (0, 1, 5, default_cap):
            monkeypatch.setattr(dse_spaces, "MAX_VIOLATIONS", cap)
            want, truncated = loop_dse(m.dist, tol, cap)
            verdict = is_dse(m)
            got = rows(verdict.violations, "i j k amount")
            assert got == want
            assert [tuple(map(type, v)) for v in got] == [tuple(map(type, v)) for v in want]
            assert verdict.truncated == truncated
            assert verdict.ok == (not want and not truncated)
    assert loop_dse(big, default_tol(FiniteMetricSpace(big)), default_cap)[1]


# SHA-256 of gen_random_dse(n, seed).dist.tobytes().  Recorded when each
# rejection stopped at its first DSE violation; re-recorded for n = 4, 5 and 6
# when the generator moved to each cloud's n orders sorted by distance from
# one point, which pick other spaces there (n = 2 and 3 kept theirs).
GEN_RANDOM_DSE_DIGESTS = {
    2: (
        "5cbffe5a27430e87877f2146614378495d681154a23ce300c877caac11a56e85",
        "3d7de7a024b94c28f7ac9bf5a19f874a86e6f5b44f46b8f21f0a25b912488b1e",
        "e2209c8250f89fcbcc351e6de0fe5f0b4ab2bab5e97bd98856ae54db77deb325",
        "c6ff28f5e3a43a0434e503501a0fd0803ea75591d7dad888d30a9493516762f9",
        "71d0ac0a520adf0268bb51265e3f2ed828472514b93b2b3aa2f1e469b3eee9a9",
        "186bb2c17b862ad6e6d3edfec57ad17be3eef2e6b09fd02b9bf7ca2bdf69f0b7",
    ),
    3: (
        "6efb8639ec1ee99ee7cbb9a8778758890ab491afdaac7dd425a34754f38784bd",
        "a1a64ec9d0ac7bbb5060ae20577449c9c8efaf34b5d1ab93eb097120e72dced5",
        "24885ec13cddd4a8191ed1a6de95547e35e3b9497cbe0ec20e8f21635d24e09c",
        "bb01cf957b98a60cbadbd146b354c0541858f9eadf8b71be17a2db3db277672d",
        "0be5177da44edce5628f38e143675ef55a642fda3ab09592397b72a9458f25eb",
        "7d54a7489f41fb0a92d8e0af7703eaa87634397a180cb654d38769495e2a62e9",
    ),
    4: (
        "f88215356bfe53e9d42f8a3c9e733255ff4dbd64dc39fcf783ec2bdc878c2ac4",
        "74cd05fd29e2c5ae7b46a4e1d3ad7ff53e874acf9dafd49a27a73f3acb23724d",
        "7e11a90c5aa0f5b17a2f252db520d7c3a982a39e5fecc4d63a469f99966bb0b8",
        "d1cba9e6cb07d7eeeb6b453727107ea03eb2cc00d639cebf62984086b60f7018",
        "c81834c29bc00e016063dc0b85eccbce3b88fd071d0ec4b2fd618f43c368fa9d",
        "213f6e47521937bf2e5de7f41ab128a2b011edd57751605c48228b3a040a3d2e",
    ),
    5: (
        "30f43b9e8607c2fea39e47b72095ec790cf8081babc26d88f0f7dcc38a09c435",
        "de68f6c076722a34120758c0091ceb526ab410364f709953be6e35d5db2366e3",
        "d1af9c4c1ae213984eadb2c5ed2e2ee9c0b9398680729fd864acb252b5563615",
        "4df4641561ff25d66546d06707425c450d4ed3e589b4980d9d1fd2220b32838b",
        "22375c50311760e5eed941695e2cd5a4d62e3f321564691a094cbdf4ddbcc9a5",
        "a67096aeac95224aa86eac81adda9ddcaabd448c9ae8655bef80c4f5abb0b168",
    ),
    6: (
        "644af8e2e282ca3be92f577304881bf0e6074402fa1fdbd01bc932fd69d20e80",
        "07933505d1f68a9da07f4a46e7d76545f3428a14a0603beb1d5f80e3786a2cd4",
        "1dbe456383ce4773118ff9ab6e7409a996c3799c9211e7b995fe7bc26fb067d4",
        "7c2fbacb9c520df57ddd08412045ae5808897aabd412771a9f22cad48165e2db",
        "5c6c1c502d2ddba55d5ef3db43ceaf3c6f7e317be9170948a85c357b7e258cab",
        "21ec041ff180705401aaf44c936252707be5bd28d9b72caa2631e419ac034c6d",
    ),
}


@pytest.mark.parametrize("n", sorted(GEN_RANDOM_DSE_DIGESTS))
def test_gen_random_dse_digests_pinned(n):
    got = tuple(hashlib.sha256(gen_random_dse(n, seed).dist.tobytes()).hexdigest()
                for seed in range(6))
    assert got == GEN_RANDOM_DSE_DIGESTS[n]
