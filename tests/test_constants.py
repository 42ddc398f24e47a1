import math
import re
import time
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rough_angles import (
    DseSpace,
    FiniteMetricSpace,
    all_pair_colorings_force_triangle,
    as_dse,
    c_of_m_theta,
    default_theta,
    default_tol,
    extract_sra_subspace,
    find_theta_straight_subset,
    format_constant,
    gen_snowflaked_path,
    globq_bound,
    is_sra,
    make_bundle,
    max_sra_subset,
    max_theta_straight_subset,
    n_of_theta_alpha,
    ramsey_pair_bound,
    ramsey_triple_bound,
    refute_weird_angles,
    subspace,
    violating_triples,
    weird_angle_limit,
    weird_angle_threshold,
    weird_conditions_satisfied,
)

from rough_angles._hypergraph import _in_order_search, edge_third, row_third
from rough_angles.constants_extraction import (
    _as_fraction,
    _candidate_batch,
    _colour_third,
    _grid_probes,
    _straight_third,
    _violation_totals,
)
# The tail is read through the module, so the frozen-search tests below also
# run, unedited, against a search that has no tail.
from rough_angles import constants_extraction, metric_core

from _generators import collinear, gradient_dse


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x, want", [
    (Fraction(2, 7), Fraction(2, 7)),
    (5, Fraction(5)),
    (True, Fraction(1)),
    ("1/3", Fraction(1, 3)),
    (0.1, Fraction(1, 10)),  # the shortest decimal, not the binary neighbour
    (np.float64(0.1), Fraction(1, 10)),
], ids=["fraction", "int", "bool", "str", "float", "float64"])
def test_as_fraction(x, want):
    got = _as_fraction(x)
    assert type(got) is Fraction and got == want


def test_c_of_m_theta_exact_values():
    assert c_of_m_theta(3, 0.5) == 78
    assert c_of_m_theta(4, 0.5) == 6920
    assert c_of_m_theta(3, 1) == 42  # boundary value, unit-test only


def test_c_of_m_theta_monotone():
    thetas = [Fraction(i, 10) for i in range(1, 10)]
    for m in (3, 4, 5):
        vals = [c_of_m_theta(m, t) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))  # decreasing in theta
    for t in thetas:
        vals = [c_of_m_theta(m, t) for m in range(3, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))  # increasing in m


def test_c_of_m_theta_beyond_double_precision():
    v = c_of_m_theta(12, Fraction(1, 2))
    assert v == Fraction((12 * 11) ** 11, 1) / Fraction(1, 2) ** 10 + 24
    assert v.numerator > 2**63
    assert format_constant(v)  # renders without overflow


def test_format_constant():
    assert format_constant(Fraction(78)) == "78"
    assert format_constant(Fraction(1, 4)) == "0.25"
    assert "/" in format_constant(Fraction(1, 3))


def test_n_of_theta_alpha_examples():
    assert n_of_theta_alpha(0.2, 0.9) == 3
    assert n_of_theta_alpha(0.3, 0.95) == 5
    with pytest.raises(ValueError, match="limit"):
        n_of_theta_alpha(0.2, 0.74)  # limit is exactly 0.75
    # threshold(2) = 1/(2q) = 1/(1-theta)
    for theta in (0.1, 0.2, 0.4):
        assert weird_angle_threshold(theta, 2) == 1 / (1 - Fraction(str(theta)))


def test_n_of_theta_alpha_corrected_is_one_more():
    for theta, alpha in [(0.2, 0.9), (0.3, 0.95), (0.1, 0.8), (0.25, 0.97)]:
        base = n_of_theta_alpha(theta, alpha)
        corr = n_of_theta_alpha(theta, alpha, corrected=True)
        assert corr == base + 1


def test_n_of_theta_alpha_monotone_in_alpha():
    prev = None
    for alpha in np.linspace(0.76, 0.99, 12):
        n = n_of_theta_alpha(0.2, float(alpha))
        if prev is not None:
            assert n <= prev
        prev = n


def test_threshold_converges_to_limit_from_above():
    theta = Fraction(1, 4)
    limit = weird_angle_limit(theta)
    vals = [weird_angle_threshold(theta, n) for n in range(2, 40)]
    assert all(v > limit for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] - limit < Fraction(1, 10**4)


# ---------------------------------------------------------------------------
# Ramsey bounds
# ---------------------------------------------------------------------------

def test_ramsey_pair_bound_values():
    assert ramsey_pair_bound(1, 7) == 7
    assert ramsey_pair_bound(2, 3) == 6
    assert ramsey_pair_bound(3, 3) == 17
    assert ramsey_pair_bound(2, 4) == 20  # Pascal: C(6,3)
    assert ramsey_pair_bound(2, 2) == 2


def test_ramsey_pair_bound_errors():
    with pytest.raises(ValueError):
        ramsey_pair_bound(0, 3)
    with pytest.raises(ValueError):
        ramsey_pair_bound(2, 1)


def test_ramsey_triple_bound_values():
    assert ramsey_triple_bound(4, 3) == 4
    assert ramsey_triple_bound(3, 9) == 9
    assert ramsey_triple_bound(4, 4) == 21
    assert ramsey_triple_bound(4, 4) >= 13  # true value is 13
    with pytest.raises(ValueError):
        ramsey_triple_bound(2, 4)


def test_triangle_ramsey_exhaustive():
    # R(3,3) = 6: some 2-coloring of K5 avoids mono triangles (the pentagon),
    # no 2-coloring of K6 does.  2^10 and 2^15 colorings checked exhaustively.
    assert not all_pair_colorings_force_triangle(5)
    assert all_pair_colorings_force_triangle(6)
    assert ramsey_pair_bound(2, 3) == 6  # the recurrence bound is tight here


# ---------------------------------------------------------------------------
# The closed forms against the recursions and loop sums they replace
# ---------------------------------------------------------------------------

# The earlier code, verbatim apart from the names.  It recursed with memo
# dicts, summed the geometric series term by term and rendered through float.

def reference_pascal_pair(a: int, b: int, memo: dict) -> int:
    if a == 2:
        return b
    if b == 2:
        return a
    key = (a, b)
    if key not in memo:
        memo[key] = reference_pascal_pair(a - 1, b, memo) + reference_pascal_pair(a, b - 1, memo)
    return memo[key]


def reference_ramsey_pair_bound(colors: int, clique: int) -> int:
    if colors < 1 or clique < 2:
        raise ValueError("need colors >= 1 and clique >= 2")
    if colors == 1:
        return clique
    if clique == 2:
        return 2
    memo: dict = {}
    if clique == 3:
        value = 3  # one color
        for c in range(2, colors + 1):
            value = c * (value - 1) + 2
        return value
    if colors == 2:
        return reference_pascal_pair(clique, clique, memo)
    value = reference_ramsey_pair_bound(colors - 1, clique)
    return reference_pascal_pair(clique, value, memo)


def reference_ramsey_triple_bound(red_size: int, blue_size: int) -> int:
    if red_size < 3 or blue_size < 3:
        raise ValueError("need both sizes >= 3")
    memo_pair: dict = {}
    memo: dict = {}

    def r3(s: int, t: int) -> int:
        if t == 3:
            return s
        if s == 3:
            return t
        key = (s, t)
        if key not in memo:
            memo[key] = reference_pascal_pair(r3(s - 1, t), r3(s, t - 1), memo_pair) + 1
        return memo[key]

    return r3(red_size, blue_size)


def reference_weird_angle_threshold(theta, n: int, corrected: bool = False) -> Fraction:
    th = _as_fraction(theta)
    if not (0 < th < 1):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if n < 2 + (1 if corrected else 0):
        raise ValueError("size below the threshold's base case")
    q = (1 - th) / 2
    if corrected:
        s = sum(q**u for u in range(1, n - 1))
        return 1 / (2 * s)
    s = sum(q**u for u in range(0, n - 1))
    return 1 / (2 * q * s)


def reference_n_of_theta_alpha(theta, alpha, corrected: bool = False) -> int:
    th = _as_fraction(theta)
    al = _as_fraction(alpha)
    if not (0 < al < 1):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    limit = weird_angle_limit(th)
    if al <= limit:
        raise ValueError(
            f"alpha={alpha} is not above the limit {format_constant(limit)}; "
            "no finite size qualifies"
        )
    n = 3 if corrected else 2
    while True:
        if al > reference_weird_angle_threshold(th, n, corrected=corrected):
            return n
        n += 1


def reference_format_constant(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    f = float(value)
    if math.isfinite(f) and Fraction(str(f)) == value:
        return str(f)
    approx = Fraction(round(value * 10**12), 10**12)
    suffix = "" if approx == value else "..."
    return f"{float(approx):.12g}{suffix} ({value.numerator}/{value.denominator})"


def closed_form_or_refusal(call):
    """Where the recursion gave up, the closed form returns or refuses with
    ValueError, within a second."""
    start = time.perf_counter()
    try:
        call()
    except ValueError as exc:
        assert "over the size limit" in str(exc)
    assert time.perf_counter() - start < 1.0


def test_pascal_pair_is_the_binomial():
    memo: dict = {}
    for a in range(2, 60):
        for b in range(2, 60):
            assert constants_extraction._pascal_pair(a, b, "") == reference_pascal_pair(a, b, memo)


def test_ramsey_bounds_match_the_recursions():
    returned = 0
    for colors in range(1, 8):
        for clique in range(2, 10):
            try:
                want = reference_ramsey_pair_bound(colors, clique)
            except RecursionError:
                closed_form_or_refusal(lambda: ramsey_pair_bound(colors, clique))
                continue
            assert ramsey_pair_bound(colors, clique) == want
            returned += 1
    for red in range(3, 8):
        for blue in range(3, 10):
            try:
                want = reference_ramsey_triple_bound(red, blue)
            except RecursionError:
                closed_form_or_refusal(lambda: ramsey_triple_bound(red, blue))
                continue
            assert ramsey_triple_bound(red, blue) == want
            returned += 1
    assert returned >= 40  # the grids reach the recursions' range, not only the refusals


THRESHOLD_THETAS = [0.01, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.9, 0.99, Fraction(1, 7)]


def test_thresholds_and_sizes_match_the_loop_sums():
    for theta in THRESHOLD_THETAS:
        for n in range(1, 40):
            for corrected in (False, True):
                try:
                    want = reference_weird_angle_threshold(theta, n, corrected)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        weird_angle_threshold(theta, n, corrected)
                    continue
                assert weird_angle_threshold(theta, n, corrected) == want
        for alpha in np.linspace(0.05, 0.999, 60):
            for corrected in (False, True):
                try:
                    want = reference_n_of_theta_alpha(theta, float(alpha), corrected)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        n_of_theta_alpha(theta, float(alpha), corrected)
                    continue
                assert n_of_theta_alpha(theta, float(alpha), corrected) == want


def test_format_constant_keeps_every_float_range_string():
    for m in range(3, 60):
        for theta in THRESHOLD_THETAS + [1]:
            value = c_of_m_theta(m, theta)
            try:
                want = reference_format_constant(value)
            except OverflowError:
                continue
            assert format_constant(value) == want
    for value in [weird_angle_limit(t) for t in THRESHOLD_THETAS] + [Fraction(1, 3), Fraction(-7, 8)]:
        assert format_constant(value) == reference_format_constant(value)


def test_format_constant_beyond_the_float_range():
    value = c_of_m_theta(200, 0.3)
    with pytest.raises(OverflowError):
        float(value)
    # 12 significant digits by integer arithmetic: the value is about 8.07e1018.
    exponent = len(str(value.numerator // value.denominator)) - 1
    digits = str(round(value / 10 ** (exponent - 11)))
    assert (exponent, len(digits)) == (1018, 12)
    head = f"{digits[0]}.{digits[1:].rstrip('0')}e+{exponent}"
    assert format_constant(value) == f"{head}... ({value.numerator}/{value.denominator})"
    assert head == "8.06720156357e+1018"


def test_size_limit_refuses_before_any_work():
    for call, name in [
        (lambda: c_of_m_theta(10**18, 0.5), "c_of_m_theta(1000000000000000000, 0.5)"),
        (lambda: c_of_m_theta(2000, 0.5), "c_of_m_theta(2000, 0.5)"),
        (lambda: ramsey_triple_bound(5, 6), "ramsey_triple_bound(5, 6)"),
        (lambda: ramsey_triple_bound(10**9, 4), f"ramsey_triple_bound({10**9}, 4)"),
        (lambda: ramsey_pair_bound(30, 4), "ramsey_pair_bound(30, 4)"),
    ]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(name) + " needs up to .* bits, over the "
                           f"size limit of {constants_extraction.MAX_BITS}"):
            call()
        assert time.perf_counter() - start < 1.0
    # Sizes 3 and the other size stay O(1), as in the recursion.
    assert ramsey_triple_bound(3, 10**9) == ramsey_triple_bound(10**9, 3) == 10**9


def test_every_accepted_constant_renders():
    # The largest accepted C(m, 1/2) and Ramsey binomial still print in full.
    m = 3
    while True:
        try:
            c_of_m_theta(m + 1, 0.5)
        except ValueError:
            break
        m += 1
    value = c_of_m_theta(m, 0.5)
    assert value.numerator.bit_length() <= constants_extraction.MAX_BITS
    assert format_constant(value) == str(value.numerator)
    big = ramsey_triple_bound(4, 8)
    assert big.bit_length() > 2000 and str(big)


def test_globq_bound():
    assert globq_bound(5, 2, 4.0, 1.0) == 20
    assert globq_bound(1, 3, 8.0, 1.0) == 27
    assert globq_bound(7, 2, 1.0, 1.0) == 7  # exponent 0 at R = r
    assert globq_bound(4, 2, 3.0, 1.0) == 16  # ceil(log2 3) = 2
    with pytest.raises(ValueError):
        globq_bound(5, 2, 1.0, 4.0)
    for r, big_r in [(math.nan, 4.0), (1.0, math.nan), (0.0, 4.0)]:
        with pytest.raises(ValueError, match="radii must be positive"):
            globq_bound(5, 2, big_r, r)


# ---------------------------------------------------------------------------
# Theta-straight subsets
# ---------------------------------------------------------------------------

def test_theta_straight_snowflaked_triple():
    d = gen_snowflaked_path(10, 0.5)
    got = find_theta_straight_subset(d, 3, 0.5)
    assert got is not None
    i, j, k = got
    dist = d.dist
    assert dist[i, k] <= dist[i, j] + 0.5 * dist[j, k]
    assert got == (0, 1, 2)  # sqrt(2) <= 1 + 0.5


def test_theta_straight_collinear_absent():
    d = as_dse(collinear(5))
    assert find_theta_straight_subset(d, 3, 0.5) is None
    # independent oracle: all 10 in-order triples fail directly
    dist = d.dist
    for i, j, k in combinations(range(5), 3):
        assert dist[i, k] > dist[i, j] + 0.5 * dist[j, k]


def test_theta_straight_m2_trivial():
    d = as_dse(collinear(4))
    assert find_theta_straight_subset(d, 2, 0.5) == (0, 1)


def test_theta_straight_four_point_witness():
    # positions {0,2,3,4} of the snowflaked path: gaps 2,1,1 keep every
    # in-order split ratio within the theta=0.5 bound u <= 16/9
    d = gen_snowflaked_path(10, 0.5)
    got = find_theta_straight_subset(d, 4, 0.5)
    assert got is not None
    dist = d.dist
    for a, b, c in combinations(got, 3):
        assert dist[a, c] <= dist[a, b] + 0.5 * dist[b, c] + 1e-15


def test_max_theta_straight_subset():
    d = gen_snowflaked_path(12, 0.1)
    theta = default_theta(0.8)
    best = max_theta_straight_subset(d, theta)
    assert len(best) >= 4
    dist = d.dist
    for a, b, c in combinations(best, 3):
        assert dist[a, c] <= dist[a, b] + theta * dist[b, c] + 1e-15
    coll = as_dse(collinear(6))
    assert len(max_theta_straight_subset(coll, 0.4)) == 2


# Reference copies of the depth-first searches that _in_order_search
# replaced, kept verbatim as test oracles.

def _straight_ok(d, seq, v, theta, tol):
    # All new in-order triples (a, b, v) introduced by appending v.
    for ai in range(len(seq)):
        for bi in range(ai + 1, len(seq)):
            a, b = seq[ai], seq[bi]
            if d[a, v] > d[a, b] + theta * d[b, v] + tol:
                return False
    return True


def reference_find_straight(d, m, theta, tol=0.0):
    if m < 2:
        raise ValueError("need m >= 2")
    n = d.n
    if m > n:
        return None
    if m == 2:
        return (0, 1)
    dist = d.dist

    def extend(seq, start):
        if len(seq) == m:
            return tuple(seq)
        if n - start < m - len(seq):
            return None
        for v in range(start, n):
            if len(seq) >= 2 and not _straight_ok(dist, seq, v, theta, tol):
                continue
            seq.append(v)
            got = extend(seq, v + 1)
            if got is not None:
                return got
            seq.pop()
        return None

    return extend([], 0)


def reference_max_straight(d, theta, tol=0.0):
    n = d.n
    dist = d.dist
    best = []

    def extend(seq, start):
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        if len(seq) + (n - start) <= len(best):
            return
        for v in range(start, n):
            if len(seq) >= 2 and not _straight_ok(dist, seq, v, theta, tol):
                continue
            seq.append(v)
            extend(seq, v + 1)
            seq.pop()

    extend([], 0)
    return tuple(best)


def straight_corpus():
    """(space, theta): snowflaked paths n = 3..18 and 20 gradient-descent
    DSE spaces of 41 points."""
    for n in range(3, 19):
        for beta in (0.3, 0.5, 0.7, 0.9):
            d = gen_snowflaked_path(n, beta)
            for theta in (0.05, 0.115, 0.3, 0.5, 0.9):
                yield d, theta
    for seed in range(20):
        d = gradient_dse(seed)
        for theta in (0.05, 0.115, 0.3, 0.5):
            yield d, theta


def test_straight_searches_match_reference_dfs():
    cases = 0
    for d, theta in straight_corpus():
        assert max_theta_straight_subset(d, theta) == reference_max_straight(d, theta)
        for m in range(2, 7):
            assert find_theta_straight_subset(d, m, theta) == reference_find_straight(d, m, theta)
        cases += 1
    assert cases == 400
    one = as_dse(FiniteMetricSpace([[0.0]]))
    assert max_theta_straight_subset(one, 0.3) == reference_max_straight(one, 0.3) == (0,)
    for d in (one, gen_snowflaked_path(4, 0.5)):
        for m in (d.n + 1, d.n + 3):
            assert find_theta_straight_subset(d, m, 0.3) is None
            assert reference_find_straight(d, m, 0.3) is None
        with pytest.raises(ValueError):
            find_theta_straight_subset(d, 1, 0.3)


def test_straightness_boundary_at_tolerance():
    # The searches compare with no tolerance: d(a,c) at exactly
    # d(a,b) + theta d(b,c) is straight; one ulp above is not, one ulp below is.
    theta = 0.3
    for ab, bc in ((1.0, 1.0), (0.7, 1.3), (2.5, 0.1)):
        edge = ab + theta * bc
        for ac, straight in ((edge, True), (np.nextafter(edge, np.inf), False),
                             (np.nextafter(edge, -np.inf), True)):
            d = DseSpace(FiniteMetricSpace([[0.0, ab, ac], [ab, 0.0, bc], [ac, bc, 0.0]]))
            want = (0, 1, 2) if straight else (0, 1)
            assert max_theta_straight_subset(d, theta) == want
            assert reference_max_straight(d, theta) == want
            assert find_theta_straight_subset(d, 3, theta) == (want if straight else None)


def brute_independent(n, edges, size):
    """First increasing ``size``-tuple in lexicographic order spanning no edge."""
    for combo in combinations(range(n), size):
        if not any(set(e) <= set(combo) for e in edges):
            return combo
    return None


def hypergraph_corpus():
    """(n, edges): hand-made hypergraphs, then 300 random ones with n < 10."""
    # Every triple through 0 is an edge: the maximum (1, 2, 3, 4) skips 0,
    # while the first pair is (0, 1).
    yield 5, [(0, b, c) for b, c in combinations(range(1, 5), 2)]
    yield 6, list(combinations(range(6), 3))
    yield 3, []
    yield 0, []
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(0, 10))
        p = rng.uniform(0.0, 0.6)
        yield n, [t for t in combinations(range(n), 3) if rng.random() < p]


def test_in_order_search_matches_brute_force():
    for n, edges in hypergraph_corpus():
        calls = []

        def third(a, b):
            calls.append((a, b))
            return sum(1 << c for x, y, c in edges if (x, y) == (a, b))

        best = _in_order_search(n, third).subset
        assert len(calls) == len(set(calls)) and all(a < b for a, b in calls)
        top = max(k for k in range(n + 1) if brute_independent(n, edges, k) is not None)
        assert best == brute_independent(n, edges, top)
        for k in range(1, n + 1):
            want = brute_independent(n, edges, k)
            assert _in_order_search(n, third, target=k).subset == (best if want is None else want)


def test_in_order_search_prunes_ties():
    # With the one edge {0, 1, 2} the first independent triple is (0, 1, 3);
    # the popcount search of a target meets it first, so no other pair's mask
    # is asked for.
    calls = []

    def third(a, b):
        calls.append((a, b))
        return 1 << 2 if (a, b) == (0, 1) else 0

    assert _in_order_search(4, third, target=3).subset == (0, 1, 3)
    assert calls == [(0, 1), (0, 3), (1, 3)]


def random_hypergraphs():
    """(n, edges): ``hypergraph_corpus``, then 20-vertex hypergraphs with
    edge densities 0.05 and 0.3."""
    yield from hypergraph_corpus()
    rng = np.random.default_rng(5)
    for p in (0.05, 0.3):
        yield 20, [t for t in combinations(range(20), 3) if rng.random() < p]


def test_row_third_and_edge_third_match_edge_lists(monkeypatch):
    # The 70-vertex hypergraph's masks need more than 64 bits.  In the 5-vertex
    # one the largest vertex is 3, so the pair (0, 6) past it would share the
    # key 0 * 4 + 6 of the pair (1, 2) if nothing told them apart.
    rng = np.random.default_rng(12)
    big = [t for t in combinations(range(70), 3) if rng.random() < 0.02]
    hypergraphs = [*random_hypergraphs(), (5, [(1, 2, 3)]), (70, big)]
    for block in (metric_core._BLOCK_ELEMENTS, 1, 210):
        monkeypatch.setattr(metric_core, "_BLOCK_ELEMENTS", block)
        for n, edges in hypergraphs:
            edge_set = set(edges)
            by_edges = edge_third(edges)
            by_array = edge_third(np.array(edges, dtype=np.intp).reshape(-1, 3))
            # Entries with c <= b are set, to show that row_third ignores them.
            by_rows = row_third(lambda a: np.array(
                [[(a, b, c) in edge_set or c <= b for c in range(a + 1, n)]
                 for b in range(a + 1, n)], dtype=bool))
            want = {}
            for a, b, c in edges:
                want[a, b] = want.get((a, b), 0) | (1 << c)
            for a, b in combinations(range(n + 3), 2):  # three vertices past n
                mask = want.get((a, b), 0)
                assert by_edges(a, b) == mask and by_array(a, b) == mask, (n, a, b)
                assert type(by_array(a, b)) is int
                if b < n:
                    assert by_rows(a, b) == mask and type(by_rows(a, b)) is int
    assert max(want.values()).bit_length() > 64


def test_row_third_builds_each_reached_row_once():
    # The graph of test_in_order_search_prunes_ties: the search for a triple
    # asks for the pairs (0, 1), (0, 3) and (1, 3), so only rows 0 and 1 are
    # built.
    rows = []

    def bad_row(a):
        rows.append(a)
        block = np.zeros((3 - a, 3 - a), dtype=bool)
        if a == 0:
            block[0, 1] = True  # {0, 1, 2}
        return block

    assert _in_order_search(4, row_third(bad_row), target=3).subset == (0, 1, 3)
    assert rows == [0, 1]


def reference_in_order_search(n, third, target=None):
    """The in-order search before the Russian-doll bound, kept verbatim as a
    test oracle: one pass cut by the popcount of ``free`` alone."""
    masks = {}
    seq = []
    best = ()

    def extend(free):
        nonlocal best
        size = len(seq)
        if size > len(best):
            best = tuple(seq)
            if size == target:
                return True
        while free and size + free.bit_count() > len(best):
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            cut = 0
            for a in seq:
                key = a * n + v
                mask = masks.get(key)
                if mask is None:
                    mask = masks[key] = third(a, v)
                cut |= mask
            seq.append(v)
            if extend(free & ~cut):
                return True
            seq.pop()
        return False

    extend((1 << n) - 1)
    return best


def recorded(third):
    """``third`` and the list of the pairs it is asked for."""
    calls = []

    def asked(a, b):
        calls.append((a, b))
        return third(a, b)

    return asked, calls


def assert_asked_once(calls):
    assert len(calls) == len(set(calls)) and all(a < b for a, b in calls)


def test_russian_doll_search_matches_popcount_search():
    for n, edges in random_hypergraphs():
        third, calls = recorded(edge_third(edges))
        assert _in_order_search(n, third).subset == reference_in_order_search(n, edge_third(edges))
        assert_asked_once(calls)


def test_target_searches_keep_the_popcount_search():
    # Same tuple and the same pairs asked for, in the same order.
    for n, edges in random_hypergraphs():
        for k in range(1, min(n, 6) + 1):
            third, calls = recorded(edge_third(edges))
            want, want_calls = recorded(edge_third(edges))
            assert (_in_order_search(n, third, target=k).subset
                    == reference_in_order_search(n, want, target=k))
            assert calls == want_calls


def test_russian_doll_straight_search_on_snowflaked_paths():
    for beta in (0.5, 0.2, 0.1):
        for n in (12, 25, 37, 50):
            d = gen_snowflaked_path(n, beta)
            dist = d.dist
            for alpha in (0.6, 0.8, 0.95):
                theta = default_theta(alpha)
                rows = []

                def bad_row(a):
                    rows.append(a)
                    return dist[a, None, a + 1:] > (dist[a, a + 1:, None]
                                                    + theta * dist[a + 1:, a + 1:])

                third, calls = recorded(row_third(bad_row))
                want = reference_in_order_search(n, _straight_third(d, theta))
                assert _in_order_search(n, third).subset == want
                assert max_theta_straight_subset(d, theta) == want
                assert_asked_once(calls)
                assert len(rows) == len(set(rows))


def pair_mask(row, b):
    """The bitmask of the c > b where ``row``, a boolean row over
    c = b+1..n-1, is true."""
    return sum(1 << c for c, bad in enumerate(row, b + 1) if bad)


def test_row_masks_match_pair_masks_at_float_boundaries():
    """The masks built one block per first vertex equal, bit for bit, the
    masks of the per-pair expressions they replaced, one ulp either side of
    the straightness boundary and at the colouring tie (which is red)."""
    theta = 0.3
    spaces = []
    for ab, bc in ((1.0, 1.0), (0.7, 1.3), (2.5, 0.1)):
        edge = ab + theta * bc
        for ac in (edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)):
            spaces.append(np.array([[0.0, ab, ac], [ab, 0.0, bc], [ac, bc, 0.0]]))
    # On the boundary {0, 1, 2} is straight, one ulp above it is not.
    assert [_straight_third(DseSpace(FiniteMetricSpace(d)), theta)(0, 1)
            for d in spaces] == [0, 1 << 2, 0] * 3
    for dist in spaces + [gen_snowflaked_path(12, 0.1).dist, gradient_dse(3).dist]:
        third = _straight_third(DseSpace(FiniteMetricSpace(dist)), theta)
        for a, b in combinations(range(len(dist)), 2):
            row = dist[a, b + 1:] > dist[a, b] + theta * dist[b, b + 1:]
            assert third(a, b) == pair_mask(row, b)

    tie = 1.0 + 0.8 * 1.0
    ties = [np.array([[0.0, 1.0, 1.0], [1.0, 0.0, d12], [1.0, d12, 0.0]])
            for d12 in (tie, np.nextafter(tie, np.inf))]
    # The tie is red, so it is an edge of the blue search only.
    assert [(_colour_third(sub, 0.8, True)(0, 1), _colour_third(sub, 0.8, False)(0, 1))
            for sub in ties] == [(0, 1 << 2), (1 << 2, 0)]
    for sub in ties + [gradient_dse(3).dist]:
        for red in (True, False):
            third = _colour_third(sub, 0.8, red)
            for a, b in combinations(range(len(sub)), 2):
                row = (sub[b, b + 1:] <= sub[a, b + 1:] + 0.8 * sub[a, b]) != red
                assert third(a, b) == pair_mask(row, b)


def first_monochrome(sub, alpha, size, red):
    """First increasing ``size``-tuple of positions whose in-order triples
    (a, b, c) are all red (``red=True``) or all blue, where (a, b, c) is red
    when sub[b, c] <= sub[a, c] + alpha sub[a, b]; None if there is none."""
    for combo in combinations(range(len(sub)), size):
        if all((sub[b, c] <= sub[a, c] + alpha * sub[a, b]) == red
               for a, b, c in combinations(combo, 3)):
            return combo
    return None


def colouring_corpus():
    """(distance matrix, alpha, k): equality ties, snowflaked paths, then
    random non-metric symmetric matrices.  On several of the latter the
    first k (or n_blue) points of a branch-and-bound maximum are not the
    first all-red (or all-blue) tuple."""
    # d(y_1, y_2) == d(y_0, y_2) + alpha d(y_0, y_1) is red; one ulp above is blue.
    tie = 1.0 + 0.8 * 1.0
    for d12 in (tie, np.nextafter(tie, np.inf)):
        yield np.array([[0.0, 1.0, 1.0], [1.0, 0.0, d12], [1.0, d12, 0.0]]), 0.8, 3
    for n, beta in ((8, 0.05), (12, 0.1), (14, 0.2), (10, 0.3)):
        for alpha, k in ((0.6, 3), (0.8, 4), (0.9, 5)):
            yield gen_snowflaked_path(n, beta).dist, alpha, k
    rng = np.random.default_rng(17)
    for _ in range(120):
        n = int(rng.integers(4, 10))
        a = rng.uniform(0.5, 2.0, size=(n, n))
        yield (np.triu(a, 1) + np.triu(a, 1).T, float(rng.choice([0.6, 0.7, 0.8, 0.9])),
               int(rng.integers(3, 6)))


def test_colouring_searches_match_brute_force():
    # The certificate of "straight-red" is the first all-red k-tuple of the
    # straight subset Y, when it passes the SRA re-check; otherwise the
    # reported blue subset is the first all-blue n_blue-tuple of Y.
    for dist, alpha, k in colouring_corpus():
        d = DseSpace(FiniteMetricSpace(dist))
        res = extract_sra_subspace(d, alpha, k)
        y = res.straight_subset
        sub = dist[np.ix_(y, y)]
        red = first_monochrome(sub, alpha, k, True)
        chosen = None if red is None else tuple(y[p] for p in red)
        if chosen is not None and is_sra(subspace(d.space, chosen), alpha,
                                            default_tol(d.space)).is_sra:
            assert res.branch == "straight-red" and res.certificate.subset == chosen
            continue
        assert res.branch != "straight-red"
        blue = first_monochrome(sub, alpha, res.n_blue, False)
        assert res.blue_subset == (None if blue is None else tuple(y[p] for p in blue))


def first_independent(n, edges, size):
    """First increasing ``size``-tuple of range(n) spanning no triple of
    ``edges`` (a set of increasing triples), or None."""
    for combo in combinations(range(n), size):
        if not any(t in edges for t in combinations(combo, 3)):
            return combo
    return None


def direct_search_corpus():
    """(DSE space, alpha, k): the colouring corpus, then gradient-descent DSE
    spaces at alpha 0.8."""
    for dist, alpha, k in colouring_corpus():
        yield DseSpace(FiniteMetricSpace(dist)), alpha, k
    for seed in range(12):
        for k in (3, 4):
            yield gradient_dse(seed, 20), 0.8, k
    yield gradient_dse(9, 40), 0.8, 4


def test_direct_search_matches_brute_force():
    # The "direct-search" certificate is the first k-tuple of the whole space
    # spanning no violating triple; "below-threshold" reports the exact
    # maximum SRA subset size, which is below k.
    branches = set()
    for d, alpha, k in direct_search_corpus():
        res = extract_sra_subspace(d, alpha, k)
        branches.add(res.branch)
        edges = set(violating_triples(d.space, alpha))
        if res.branch == "direct-search":
            assert res.certificate.subset == first_independent(d.n, edges, k)
        elif res.branch == "below-threshold":
            size = int(re.search(r"direct search reached (\d+) \(optimal=True\)",
                                 res.notes).group(1))
            assert size < k
            assert first_independent(d.n, edges, size) is not None
            assert first_independent(d.n, edges, size + 1) is None
    assert {"direct-search", "below-threshold"} <= branches


def test_direct_search_on_gradient_dse():
    res = extract_sra_subspace(gradient_dse(9, 40), 0.8, 4)
    assert res.branch == "direct-search"
    assert res.certificate.subset == (0, 1, 38, 39) and res.certificate.bound == 41


def test_extract_on_snowflaked_path_keeps_its_result():
    # The result of the popcount search, which took about 6.6 s on a 2-core VM.
    res = extract_sra_subspace(gen_snowflaked_path(60, 0.05), 0.8, 4)
    assert res.branch == "straight-red"
    assert res.certificate.subset == (0, 5, 10, 14)
    assert res.straight_subset == (0, 5, 10, 14, 18, 22, 25, 28, 31, 34, 36, 38, 40, 42, 44,
                                   45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55)


# ---------------------------------------------------------------------------
# Refutation search
# ---------------------------------------------------------------------------

def test_weird_conditions_checker_on_known_instance():
    # Hand-checkable feasible instance at size 3 for (theta, alpha) = (0.2, 0.9):
    # d12 = d13 = 1, d23 = 1.95.  Middle point almost on the segment.
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.95], [1.0, 1.95, 0.0]])
    assert weird_conditions_satisfied(d, 0.2, 0.9)
    # and the expansion condition is sharp: d23 below 1.9 fails
    d_bad = d.copy(); d_bad[1, 2] = d_bad[2, 1] = 1.85
    assert not weird_conditions_satisfied(d_bad, 0.2, 0.9)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_weird_conditions_checker_refuses_non_finite_distances(bad):
    # Every comparison with NaN is false, so without the refusal an all-NaN
    # matrix and the instance above with one NaN pair would both pass.
    one_pair = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, bad], [1.0, bad, 0.0]])
    for d in (np.full((4, 4), bad), one_pair):
        with pytest.raises(ValueError, match="non-finite"):
            weird_conditions_satisfied(d, 0.2, 0.9)


@pytest.mark.parametrize("d, theta", [
    (np.zeros((3, 3)), 0.2),
    # The size-3 instance above with its first point doubled.  For theta < 1
    # straightness pulls every point onto a doubled one, so all zeros would be
    # the only such candidate with total 0; at theta = 1 it stays spread out.
    (np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0],
               [1.0, 1.0, 0.0, 1.95], [1.0, 1.0, 1.95, 0.0]]), 1.0),
], ids=["all-zero", "doubled-point"])
def test_exact_check_refuses_zero_distance_at_total_zero(d, theta):
    """The search sends every candidate with total 0 to the exact check,
    which alone refuses a zero distance between distinct points."""
    assert _violation_totals(d[None], theta, 0.9)[0] == 0.0
    assert not weird_conditions_satisfied(d, theta, 0.9)


def reference_weird_conditions_satisfied(dmat, theta, alpha):
    """``weird_conditions_satisfied`` as it was before it read the metric
    axioms and the DSE order from the library's scans, kept verbatim as the
    oracle."""
    d = np.asarray(dmat, dtype=np.float64)
    n = d.shape[0]
    if np.any(np.abs(np.diag(d)) > 0.0):
        return False
    if np.any(np.abs(d - d.T) > 0.0):
        return False
    off = d + np.diag(np.full(n, np.inf))
    if np.min(off) <= 0.0:
        return False
    for j in range(n):
        if np.any(d > d[:, j][:, None] + d[j, None, :] + 1e-15):
            return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                if d[i, j] > d[i, k]:
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if d[i, k] > d[i, j] + theta * d[j, k]:
                    return False
    for i in range(n - 2):
        if d[n - 1, i + 1] < d[n - 1, i] + alpha * d[i, i + 1]:
            return False
    return True


def test_exact_check_matches_reference_on_search_candidates(monkeypatch):
    """Every candidate the refutation searches send to the exact check (those
    with total 0) and every grid probe gets the frozen check's verdict."""
    seen = []

    def both(d, theta, alpha):
        got = weird_conditions_satisfied(d, theta, alpha)
        assert got == reference_weird_conditions_satisfied(d, theta, alpha), d.tolist()
        seen.append(got)
        return got

    monkeypatch.setattr(constants_extraction, "weird_conditions_satisfied", both)
    calls = [(theta, alpha, n, 20_000, seed) for theta, alpha, n in REFUTATION_GRID
             for seed in (0, 1)]
    calls += [(0.2, 0.9, 3, 100_000, 2024_06), (0.3, 0.95, 5, 100_000, 2024_06)]  # criterion 6
    for theta, alpha, n, trials, seed in calls:
        refute_weird_angles(theta, alpha, n, trials=trials, seed=seed)
    for theta, alpha, n in REFUTATION_GRID:
        for d in _grid_probes(n, theta, alpha):
            both(d, theta, alpha)
    assert True in seen and False in seen  # both verdicts occur, so the comparison bites


def _ulps(x, k):
    """``x`` moved ``k`` representable floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


def _triangle_forms_agree(d):
    """Whether the triangle test ``d(i,k) > d(i,j) + d(j,k) + 1e-15`` of the
    frozen check and the slack test ``d(i,k) - (d(i,j) + d(j,k)) > 1e-15`` of
    ``_metric_violations`` agree on every triple of distinct points."""
    n = len(d)
    return all((d[i, k] - (d[i, j] + d[j, k]) > 1e-15) == (d[i, k] > d[i, j] + d[j, k] + 1e-15)
               for i in range(n) for j in range(n) for k in range(n)
               if len({i, j, k}) == 3)


@st.composite
def near_boundary(draw):
    """(d, theta, alpha): a 3-point space, d01 = a, d02 = c, d12 = b, inside
    the region a <= c <= a + theta b, c + alpha a <= b <= a + c with one of
    these constraints (or all distances 0) tight, then each distance moved a
    few ulps, and in some draws one diagonal entry or one mirror entry moved
    one ulp more."""
    theta = draw(st.sampled_from([0.2, 0.3, 0.5]))
    alpha = draw(st.sampled_from([0.9, 0.95, 0.99]))
    a = draw(st.floats(0.05, 4.0))
    u = draw(st.floats(0.0, 1.0))
    tight = draw(st.sampled_from(["zero", "dse", "straight", "expansion", "triangle"]))
    if tight == "zero":
        a = b = c = 0.0
    elif tight == "dse":
        c = a
        b = a * (1.0 + alpha + u * (1.0 - alpha))
    elif tight == "straight":
        b = a * (1.0 + alpha + u * (1.0 - alpha)) / (1.0 - theta)
        c = a + theta * b
    elif tight == "expansion":
        c = a * (1.0 + u * (1.0 + theta * alpha) / (1.0 - theta) - u)
        b = c + alpha * a
    else:
        c = a * (1.0 + u * (1.0 + theta) / (1.0 - theta) - u)
        b = a + c
    d = np.zeros((3, 3))
    for (i, j), x in zip([(0, 1), (0, 2), (1, 2)], (a, c, b)):
        d[i, j] = d[j, i] = _ulps(x, draw(st.integers(-3, 3)))
    i, j = draw(st.sampled_from([(0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (2, 1)]))
    if draw(st.integers(0, 3)) == 0:
        d[i, j] = _ulps(d[i, j], draw(st.sampled_from([-1, 1])))
    return d, theta, alpha


@settings(max_examples=500, deadline=None)
@given(near_boundary())
def test_exact_check_matches_reference_near_boundaries(case):
    """A few ulps either side of each constraint, the check gives the frozen
    check's verdict.  Where the two triangle tests themselves split (the
    named change pinned below), the slack test is the stricter one."""
    d, theta, alpha = case
    got = weird_conditions_satisfied(d, theta, alpha)
    if _triangle_forms_agree(d):
        assert got == reference_weird_conditions_satisfied(d, theta, alpha)
    else:
        assert not got


def test_exact_check_triangle_slack_boundary():
    """The named change: the 1e-15 triangle tolerance bounds the slack
    d(i,k) - (d(i,j) + d(j,k)), as ``validate_metric`` applies ``tri_tol``,
    where the frozen check added it to the right-hand side.  A slack of five
    ulps of 1.0 (1.11e-15) passed before and is refused now; every other
    constraint of this space holds."""
    x = 1.0 + 1e-15
    assert x - 1.0 == 5 * np.spacing(1.0) > 1e-15
    d = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, x], [0.5, x, 0.0]])
    assert reference_weird_conditions_satisfied(d, 0.2, 0.9)
    assert not weird_conditions_satisfied(d, 0.2, 0.9)
    # At four ulps the slack is below 1e-15 and both pass.
    d[1, 2] = d[2, 1] = 1.0 + 4 * np.spacing(1.0)
    assert weird_conditions_satisfied(d, 0.2, 0.9)
    assert reference_weird_conditions_satisfied(d, 0.2, 0.9)


def test_refutation_at_corrected_size_finds_nothing():
    """At the size where the telescoping argument actually applies, the
    search over grid probes plus seeded random trials must find nothing."""
    for theta, alpha in [(0.2, 0.9), (0.3, 0.95)]:
        n = n_of_theta_alpha(theta, alpha, corrected=True)
        rep = refute_weird_angles(theta, alpha, n, trials=30_000, seed=101)
        assert rep.feasible_count == 0
        assert rep.first_feasible is None
        assert rep.min_total_violation > 0.0


def test_feasible_instances_exist_one_below_corrected_size():
    """One size below, feasible instances exist and the search finds them;
    the closed-form size formula names exactly this size, so its claimed
    nonexistence fails there (the geometric sum behind it carries one term
    too many).  Every reported hit re-verifies against the exact checker."""
    rep = refute_weird_angles(0.2, 0.9, 3, trials=5_000, seed=7)
    assert rep.n_required == 3
    assert rep.n_required_corrected == 4
    assert rep.feasible_count > 0
    assert weird_conditions_satisfied(np.array(rep.first_feasible), 0.2, 0.9)


def test_refutation_n2_out_of_range():
    rep = refute_weird_angles(0.2, 0.9, 2, trials=10, seed=0)
    assert not rep.in_lemma_range
    assert rep.feasible_count == 1  # both conditions vacuous on two points


def test_refutation_requires_alpha_above_limit():
    with pytest.raises(ValueError):
        refute_weird_angles(0.2, 0.7, 4, trials=10, seed=0)


def _feasible_mask(d: np.ndarray, theta: float, alpha: float) -> np.ndarray:
    """Vectorized feasibility of a batch of candidate matrices."""
    # Reference oracle: every constraint tested directly with <= / >=, not
    # through the clipped violation totals the search derives its mask from.
    t, n, _ = d.shape
    ok = np.ones(t, dtype=bool)
    off = d + np.eye(n)[None, :, :]
    ok &= np.all(off > 0.0, axis=(1, 2))
    for j in range(n):
        tri = d - d[:, :, j][:, :, None] - d[:, j, None, :]
        ok &= np.all(tri <= 0.0, axis=(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                ok &= d[:, i, j] <= d[:, i, k]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ok &= d[:, i, k] <= d[:, i, j] + theta * d[:, j, k]
    for i in range(n - 2):
        ok &= d[:, n - 1, i + 1] >= d[:, n - 1, i] + alpha * d[:, i, i + 1]
    return ok


REFUTATION_GRID = [(theta, alpha, n) for theta, alpha in [(0.2, 0.9), (0.3, 0.95)]
                   for n in (3, 4, 5)]


def test_violation_totals_mask_matches_reference_mask():
    feasible = 0
    for theta, alpha, n in REFUTATION_GRID:
        batches = [_grid_probes(n, theta, alpha)]
        batches += [_candidate_batch(n, 1024, np.random.default_rng(seed), alpha)
                    for seed in range(10)]
        for batch in batches:
            total = _violation_totals(batch, theta, alpha)
            mask = np.all(batch + np.eye(n)[None, :, :] > 0.0, axis=(1, 2)) & (total == 0.0)
            ref = _feasible_mask(batch, theta, alpha)
            assert np.array_equal(mask, ref), (theta, alpha, n)
            feasible += int(np.count_nonzero(ref))
    assert feasible > 0  # n = 3 has feasible rows, so the comparison bites


def reference_candidate_batch(n, count, rng, alpha):
    """``_candidate_batch`` as it was before the column-major layout, kept
    verbatim as the oracle."""
    t = count
    kind = rng.integers(0, 3, size=t)
    gaps = np.empty((t, n - 1))
    lo, hi = math.log(5e-2), math.log(1.0)
    gaps[:] = np.exp(rng.uniform(lo, hi, size=(t, n - 1)))
    rho = rng.uniform(0.1, 0.95, size=t)
    decay = rho[:, None] ** np.arange(n - 2, -1, -1)[None, :]
    jitter = np.exp(rng.uniform(-0.2, 0.2, size=(t, n - 1)))
    mask1 = kind == 1
    gaps[mask1] = (decay * jitter)[mask1]
    mask2 = kind == 2
    flat = np.ones((t, n - 1))
    flat[:, -1] = rng.uniform(1.0 + alpha, 2.0, size=t)
    gaps[mask2] = flat[mask2]

    cum = np.concatenate([np.zeros((t, 1)), np.cumsum(gaps, axis=1)], axis=1)
    path = np.abs(cum[:, :, None] - cum[:, None, :])
    shrink = rng.uniform(0.3, 1.0, size=(t, n, n))
    shrink = (shrink + np.transpose(shrink, (0, 2, 1))) / 2.0
    d = path * shrink
    idx = np.arange(n - 1)
    d[:, idx, idx + 1] = gaps
    d[:, idx + 1, idx] = gaps
    d[:, np.arange(n), np.arange(n)] = 0.0
    return d


def reference_violation_totals(d, theta, alpha):
    """``_violation_totals`` as it was before the search pruned on the tail,
    kept verbatim as the oracle; it is run on the C-ordered batches of
    ``reference_candidate_batch``."""
    t, n, _ = d.shape
    total = np.zeros(t)
    for j in range(n):
        tri = d - d[:, :, j][:, :, None] - d[:, j, None, :]
        total += np.sum(np.clip(tri, 0.0, None), axis=(1, 2))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j, n):
                total += np.clip(d[:, i, j] - d[:, i, k], 0.0, None)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total += np.clip(d[:, i, k] - d[:, i, j] - theta * d[:, j, k], 0.0, None)
    for i in range(n - 2):
        total += np.clip(d[:, n - 1, i] + alpha * d[:, i, i + 1] - d[:, n - 1, i + 1], 0.0, None)
    return total


def reference_refutation(theta, alpha, n, trials, seed):
    """The search loop of ``refute_weird_angles`` before it pruned on the
    tail, kept as the oracle: every candidate of every batch gets its full
    total.  Returns (feasible_count, first_feasible, min_total_violation)."""
    if n == 2:
        return 1, [[0.0, 1.0], [1.0, 0.0]], 0.0
    batch_size = 4096
    n_batches = (trials + batch_size - 1) // batch_size
    seeds = np.random.SeedSequence(seed).spawn(n_batches)
    batches = chain([_grid_probes(n, theta, alpha)], (
        reference_candidate_batch(n, min(batch_size, trials - i * batch_size),
                                  np.random.default_rng(s), alpha)
        for i, s in enumerate(seeds)))
    feasible, first, min_viol = 0, None, math.inf
    for batch in batches:
        total = reference_violation_totals(batch, theta, alpha)
        mask = np.all(batch + np.eye(n)[None, :, :] > 0.0, axis=(1, 2)) & (total == 0.0)
        verified = [i for i in np.nonzero(mask)[0]
                    if weird_conditions_satisfied(batch[i], theta, alpha)]
        feasible += len(verified)
        if verified and first is None:
            first = batch[verified[0]].tolist()
        min_viol = min(min_viol, float(np.min(total)))
    return feasible, first, min_viol


def report_key(rep):
    """What the search reports, compared bit for bit (floats by their
    bytes, so -0.0 and 0.0 differ)."""
    first = None if rep[1] is None else np.array(rep[1]).tobytes()
    return rep[0], first, np.float64(rep[2]).tobytes()


@pytest.mark.parametrize("trials", [0, 1, 4095, 4097, 20_000])
@pytest.mark.parametrize("theta, alpha, n", REFUTATION_GRID)
def test_refutation_matches_frozen_search(theta, alpha, n, trials):
    """The pruned search over column-major batches reports what the frozen
    unpruned search over the C-ordered batches reports, bit for bit."""
    for seed in range(4):
        rep = refute_weird_angles(theta, alpha, n, trials=trials, seed=seed)
        got = (rep.feasible_count, rep.first_feasible, rep.min_total_violation)
        assert report_key(got) == report_key(reference_refutation(theta, alpha, n, trials, seed))


@pytest.mark.parametrize("theta, alpha, n, trials, seed", [
    (0.2, 0.9, 2, 10, 0),
    (0.2, 0.9, 3, 100_000, 2024_06),  # criterion 6's call
])
def test_refutation_matches_frozen_search_on_named_calls(theta, alpha, n, trials, seed):
    rep = refute_weird_angles(theta, alpha, n, trials=trials, seed=seed)
    want = reference_refutation(theta, alpha, n, trials, seed)
    got = (rep.feasible_count, rep.first_feasible, rep.min_total_violation)
    assert report_key(got) == report_key(want)
    if n == 3:
        assert want[0] == 411


def test_candidate_batch_matches_frozen_batch():
    """The column-major batch holds the C-ordered batch's values bit for bit
    and leaves the generator in the same state."""
    for n in (2, 3, 4, 5, 7):
        for count in (1, 7, 4096):
            a, b = np.random.default_rng(n + count), np.random.default_rng(n + count)
            got = _candidate_batch(n, count, a, 0.9)
            want = reference_candidate_batch(n, count, b, 0.9)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n, count)
            assert a.bit_generator.state == b.bit_generator.state


def test_violation_totals_ignore_memory_layout():
    """A batch laid out (n, n, count) gets the totals of its C-ordered copy
    bit for bit, though numpy's sum over the triangle terms would run in
    another order on it."""
    for n in (3, 4, 5):
        rng = np.random.default_rng(n)
        batch = reference_candidate_batch(n, 4096, rng, 0.9)
        batch *= rng.uniform(0.5, 1.5, size=batch.shape)  # most triangle terms > 0
        view = np.ascontiguousarray(batch.transpose(1, 2, 0)).transpose(2, 0, 1)
        want = reference_violation_totals(batch, 0.2, 0.9)
        assert _violation_totals(view, 0.2, 0.9).tobytes() == want.tobytes()


BATCH_ENTRIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                          st.floats(0.0, 1e6, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: hnp.arrays(
           np.float64, st.tuples(st.integers(1, 6), st.just(n), st.just(n)),
           elements=BATCH_ENTRIES)),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_tail_never_exceeds_total(batch, theta, alpha):
    """Every term is >= 0 and rounded addition is monotone, so the tail,
    which leaves the triangle terms out, is at most the total: the search
    skips no candidate that could be feasible or lower the minimum."""
    tail = constants_extraction._tail_totals(batch.transpose(1, 2, 0), theta, alpha)
    total = _violation_totals(batch, theta, alpha)
    assert np.all(tail >= 0.0)
    assert np.all(tail <= total)


def test_refutation_matches_reference_search():
    """refute_weird_angles against the search as it ran on the reference
    mask: probes first, then the seeded batches, first verified hit wins."""
    hits = 0
    for theta, alpha, n in REFUTATION_GRID:
        for seed in (0, 1):
            trials = 5_000
            rep = refute_weird_angles(theta, alpha, n, trials=trials, seed=seed)
            spawned = np.random.SeedSequence(seed).spawn(2)
            batches = [_grid_probes(n, theta, alpha),
                       _candidate_batch(n, 4096, np.random.default_rng(spawned[0]), alpha),
                       _candidate_batch(n, trials - 4096, np.random.default_rng(spawned[1]),
                                        alpha)]
            count, first = 0, None
            for batch in batches:
                verified = [i for i in np.nonzero(_feasible_mask(batch, theta, alpha))[0]
                            if weird_conditions_satisfied(batch[i], theta, alpha)]
                count += len(verified)
                if verified and first is None:
                    first = batch[verified[0]].tolist()
            viol = reference_refutation(theta, alpha, n, trials, seed)[2]
            assert rep.feasible_count == count, (theta, alpha, n, seed)
            assert rep.first_feasible == first
            assert rep.min_total_violation == viol
            hits += count
    assert hits > 0


def test_refutation_deterministic():
    a = refute_weird_angles(0.2, 0.9, 4, trials=8_000, seed=5)
    b = refute_weird_angles(0.2, 0.9, 4, trials=8_000, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# Extraction pipeline
# ---------------------------------------------------------------------------

def test_default_theta():
    th = default_theta(0.8)
    assert 0.0 < th < 0.5
    assert float(weird_angle_limit(th)) < 0.8
    with pytest.raises(ValueError):
        default_theta(0.5)


def test_bundle_contents():
    b = make_bundle(0.8, k=4)
    assert b.n_theta_alpha == n_of_theta_alpha(b.theta, 0.8)
    assert b.m == ramsey_triple_bound(4, max(b.n_theta_alpha, 3))
    assert b.c_m_theta == c_of_m_theta(max(b.m, 3), b.theta)
    d = b.as_dict()
    assert d["ramsey_bound_tight"] is False


def test_extract_trivial_pair():
    d = gen_snowflaked_path(5, 0.5)
    res = extract_sra_subspace(d, 0.8, 2)
    assert res.branch == "trivial-pair"
    assert res.certificate.subset == (0, 1)


def test_extract_direct_route_on_snowflaked_path():
    d = gen_snowflaked_path(30, 0.6)
    res = extract_sra_subspace(d, 0.8, 4)
    assert res.certificate is not None
    assert len(res.certificate.subset) == 4
    sub = subspace(d.space, res.certificate.subset)
    assert is_sra(sub, 0.8, tol=1e-12).is_sra
    assert res.branch in ("straight-red", "direct-search")


def test_extract_proof_route_fires_on_rapidly_flattening_path():
    # beta = 0.1 keeps long runs theta-straight at theta ~ 0.115, so the
    # two-coloring route itself produces the certificate.
    d = gen_snowflaked_path(12, 0.1)
    res = extract_sra_subspace(d, 0.8, 4)
    assert res.branch == "straight-red"
    assert len(res.straight_subset) >= 4
    sub = subspace(d.space, res.certificate.subset)
    assert is_sra(sub, 0.8, tol=1e-12).is_sra


def test_extract_collinear_below_threshold():
    d = as_dse(collinear(10))
    res = extract_sra_subspace(d, 0.8, 3)
    assert res.certificate is None
    assert res.branch == "below-threshold"
    assert "not attained" in res.notes


def test_extract_blue_breach_diagnostic():
    # The known feasible 3-point instance is entirely theta-straight and its
    # single triple is blue at alpha = 0.9, so the pipeline must surface the
    # breach instead of fabricating a certificate.
    d = as_dse(FiniteMetricSpace(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.95], [1.0, 1.95, 0.0]]))
    res = extract_sra_subspace(d, 0.9, 3)
    assert res.certificate is None
    assert res.branch == "blue-breach"
    assert res.blue_subset == (0, 1, 2)


def boundary_dse(alpha, frac):
    """The 4-point DSE space [[0,1,b,10],[1,0,1,10],[b,1,0,10],[10,10,10,0]]
    whose one SRA(alpha) slack, of (0, 2) at middle 1, is b - (1 + alpha) =
    ``frac`` times its default tolerance."""
    b = 1.0 + alpha + frac * default_tol(FiniteMetricSpace(10.0 - 10.0 * np.eye(4)))
    return as_dse(FiniteMetricSpace([[0, 1, b, 10], [1, 0, 1, 10], [b, 1, 0, 10],
                                     [10, 10, 10, 0]]))


def test_extract_at_the_tolerance_boundary():
    # The direct search and the re-check of its tuple run at one tolerance, so
    # a slack under it is no violation to either.
    res = extract_sra_subspace(boundary_dse(0.8, 0.005), 0.8, 4)
    assert res.branch == "direct-search" and res.certificate.subset == (0, 1, 2, 3)
    res = extract_sra_subspace(boundary_dse(0.8, 1.5), 0.8, 4)
    assert res.branch == "below-threshold" and res.certificate is None


extraction_inputs = st.one_of(
    st.builds(boundary_dse, st.floats(0.55, 0.95), st.floats(-2.0, 3.0)),
    st.builds(gen_snowflaked_path, st.integers(3, 12), st.floats(0.05, 0.95)),
    st.builds(gradient_dse, st.integers(0, 10_000), st.integers(3, 14)))


@settings(max_examples=150, deadline=None)
@given(extraction_inputs, st.floats(0.55, 0.95), st.integers(2, 6))
def test_extract_certifies_exactly_when_a_k_point_sra_subset_exists(d, alpha, k):
    """``extract`` returns a certificate exactly when the exact maximum
    SRA(alpha) subset at the space's tolerance has at least k points."""
    best = max_sra_subset(d.space, alpha, tol=default_tol(d.space))
    assert best.optimal
    res = extract_sra_subspace(d, alpha, k)
    assert (res.certificate is not None) == (best.size >= k), (res.branch, best.size)
    if res.certificate is not None:
        assert len(res.certificate.subset) == k
        assert is_sra(subspace(d.space, res.certificate.subset), alpha,
                      tol=default_tol(d.space)).is_sra


def test_extract_alpha_range():
    d = gen_snowflaked_path(5, 0.5)
    with pytest.raises(ValueError):
        extract_sra_subspace(d, 0.4, 3)
