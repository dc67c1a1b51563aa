"""Counter layer: error vectors, the dispersion identity, Croft's variance,
interval geometry, the local counts u_p, and lattice counts, each against
an independent brute-force oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab.arith import (mu_of, phi_of, prime_factors,
                          squarefree_counts_by_residue, squarefree_window)
from sqflab.counters import (CorrelationResult, croft_variance,
                             dispersion_check, error_vector, gcd_table,
                             hooley_report, interval_I, lattice_count_N,
                             lattice_count_brute, pair_enumeration_S,
                             u_p_brute, u_p_local, variance_M2)
from sqflab.multiplicative import euler_constant


# ---------------------------------------------------------------------------
# error vector
# ---------------------------------------------------------------------------

def _brute_counts(X, q):
    vals = 1 + np.flatnonzero(squarefree_window(1, X + 1))
    return np.bincount(vals % q, minlength=q)


def test_error_vector_counts_and_errors():
    X, q = 3000, 12
    vec = error_vector(X, q, squarefree_counts_by_residue(X, q))
    assert vec.counts.dtype == np.int64
    assert np.array_equal(vec.counts, _brute_counts(X, q))
    # main term = C(q) X / q
    cq = euler_constant("C_of_q", arg=q)
    assert math.isclose(vec.main_term.value, cq.value * X / q, rel_tol=1e-14)
    # coprime classes and the error split
    assert list(vec.coprime_residues) == [a for a in range(q)
                                          if math.gcd(a, q) == 1]
    arr = vec.errors_array()
    assert arr.shape == (phi_of(q),)
    for i, a in enumerate(vec.coprime_residues):
        assert arr[i] == float(vec.counts[a]) - vec.main_term.value
    # errors over the coprime classes nearly cancel: their sum is
    # Q_coprime(X) - phi(q) C(q) X / q, which is O(sqrt X), not O(X)
    assert abs(math.fsum(arr.tolist())) < 4 * math.sqrt(X)


def test_gcd_table_matches_np_gcd():
    for q in list(range(1, 2000)) + [30030, 510510, 2 ** 20, 3 ** 12]:
        g = gcd_table(q)
        assert g.dtype == np.int64
        assert np.array_equal(g, np.gcd(np.arange(q), q)), q


# ---------------------------------------------------------------------------
# double sum S and the dispersion identity
# ---------------------------------------------------------------------------

def test_double_sum_matches_pair_enumeration_seeded():
    rng = random.Random(20240917)
    checked = 0
    while checked < 20:
        X = rng.randrange(200, 2001)
        q = rng.randrange(2, 60)
        m = rng.choice([1, -1, 2, 3, -5, 7])
        if math.gcd(abs(m), q) != 1:
            continue
        S = variance_M2(X, q, m, squarefree_counts_by_residue(X, q)).S_exact
        assert S == pair_enumeration_S(X, q, m), (X, q, m)
        checked += 1


def test_double_sum_exact_past_int64():
    # synthetic counts of ~10^10 per class: the pair products reach 10^20,
    # past the int64 range, and S must still be the exact integer
    big = 10 ** 10
    fake = np.array([0, big + 1, big + 3], dtype=np.int64)
    X = 3 * 10 ** 10
    assert variance_M2(X, 3, 1, fake).S_exact == (big + 1) ** 2 + (big + 3) ** 2
    assert variance_M2(X, 3, -1, fake).S_exact == 2 * (big + 1) * (big + 3)


def test_double_sum_rejections():
    counts = squarefree_counts_by_residue(100, 10)
    with pytest.raises(ValueError):
        variance_M2(100, 10, 5, counts)
    with pytest.raises(ValueError):
        variance_M2(100, 10, 0, counts)


def test_variance_m2_reduces_huge_m_before_numpy():
    # m * a would wrap in int64 for m near 2^62; M2 and S depend on m mod q
    X, q, m = 1000, 7, 2 ** 62 + 5
    counts = squarefree_counts_by_residue(X, q)
    big, small = variance_M2(X, q, m, counts), variance_M2(X, q, m % q, counts)
    assert big.S_exact == small.S_exact == pair_enumeration_S(X, q, m % q) \
        == pair_enumeration_S(X, q, m)
    assert big.M2_exact.value == small.M2_exact.value
    assert big.decomposition_residual <= 1e-8


def test_variance_m2_direct_and_reassembled():
    X, q, m = 3000, 7, 2
    res = variance_M2(X, q, m, squarefree_counts_by_residue(X, q))
    assert isinstance(res, CorrelationResult)
    assert res.S_exact == pair_enumeration_S(X, q, m)

    # independent direct path: brute counts, float main term, fsum
    counts = _brute_counts(X, q)
    M = euler_constant("C_of_q", arg=q).value * X / q
    a = np.array([r for r in range(q) if math.gcd(r, q) == 1])
    E = counts.astype(float) - M
    direct = math.fsum((E[a] * E[(m * a) % q]).tolist())
    assert res.M2_exact.value == pytest.approx(direct, rel=1e-12)

    # the dispersion identity reassembles M2 from S exactly
    fm = Fraction(M)
    reassembled = float(res.S_exact - 2 * fm * int(counts[a].sum())
                        + phi_of(q) * fm * fm)
    scale = max(1.0, abs(direct))
    assert abs(direct - reassembled) <= 1e-8 * scale
    assert res.decomposition_residual <= 1e-8


def test_dispersion_check_records():
    for (q, m) in [(7, 1), (97, -1), (100, 3), (1009, 2)]:
        counts = squarefree_counts_by_residue(20000, q)
        rec = dispersion_check(20000, q, m, counts)
        assert rec.passed, rec.as_dict()
        assert rec.check_id == "counters.dispersion"
        assert rec.params["S"] == variance_M2(20000, q, m, counts).S_exact


# ---------------------------------------------------------------------------
# Croft variance and the Hooley report
# ---------------------------------------------------------------------------

def test_croft_variance_vs_brute():
    X, q = 4000, 12
    counts = _brute_counts(X, q).astype(float)
    six_over_pi2 = 6.0 / math.pi ** 2
    hq = math.prod(p / (p + 1.0) for p in prime_factors(q))
    total = 0.0
    for a in range(q):
        d = math.gcd(a, q)
        q0 = q // d
        expected = 0.0
        if mu_of(d) != 0:
            expected = six_over_pi2 * hq * (X / q) * q0 / phi_of(q0)
        total += (counts[a] - expected) ** 2
    got = croft_variance(X, q, squarefree_counts_by_residue(X, q))
    assert got.value == pytest.approx(total, rel=1e-9)
    assert got.abs_err < 1e-6 * max(1.0, got.value)


def test_fsum_of_memoryview_equals_fsum_of_list():
    # the dispersion and Croft sums pass fsum a memoryview of a float64
    # array instead of its tolist(); fsum is correctly rounded either way
    rng = np.random.default_rng(8)
    n = 10 ** 5
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.integers(-30, 31, n) \
        * rng.random(n)
    x[::1000] = 1e300
    x[1::1000] = -1e300
    exact = math.fsum(x.tolist())
    assert exact != float(np.sum(x))  # naive summation loses this one
    assert math.fsum(memoryview(x)) == exact


def test_hooley_report_magnitude():
    # report quantity: no theorem constant to assert, but the normalised
    # max error should be order one, not growing
    for (X, q) in [(20000, 13), (50000, 101), (100000, 997)]:
        val = hooley_report(X, q, squarefree_counts_by_residue(X, q))
        assert 0.0 < val < 1.0, (X, q, val)


# ---------------------------------------------------------------------------
# interval geometry
# ---------------------------------------------------------------------------

@given(st.integers(-8, 8), st.sampled_from([1, -1, 2, 3, -5]),
       st.integers(1, 12), st.integers(10, 400))
@settings(max_examples=120, deadline=None)
def test_interval_matches_exact_membership(l, m, q, X):
    iv = interval_I(l, m, q, X)
    assert iv.length >= 0.0
    for n in range(0, X + 1):
        assert iv.contains(n) == iv.member(n), (l, m, q, X, n)


def test_interval_rejections():
    with pytest.raises(ValueError):
        interval_I(0, 0, 5, 100)
    with pytest.raises(ValueError):
        interval_I(0, 1, 0, 100)
    with pytest.raises(ValueError):
        interval_I(0, 1, 5, 0)
    # degenerate interval clamps to zero length
    assert interval_I(1000, 1, 3, 10).length == 0.0


# ---------------------------------------------------------------------------
# local counts u_p
# ---------------------------------------------------------------------------

def test_u_p_local_vs_brute_exhaustive():
    for p in (2, 3, 5, 7):
        for m in (1, -1, 2, 3, 6, -5, 10, -15, 2 * p, 3 * p * p):
            if mu_of(abs(m)) == 0:
                continue
            for q in (1, 11, 13):
                if q % p == 0:
                    continue
                for l in range(-2 * p * p, 2 * p * p + 1):
                    assert u_p_local(p, l, m, q) == u_p_brute(p, l, m, q), \
                        (p, l, m, q)


def test_u_p_rejections():
    with pytest.raises(ValueError):
        u_p_local(5, 1, 1, 10)
    with pytest.raises(ValueError):
        u_p_local(3, 1, 0, 5)
    with pytest.raises(ValueError):
        u_p_local(3, 1, 4, 5)


# ---------------------------------------------------------------------------
# lattice counts
# ---------------------------------------------------------------------------

def test_lattice_count_matches_brute():
    for (J, K) in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]:
        for (m1, m2) in [(1, 1), (1, 2), (2, -1), (-3, 1)]:
            for q in (1, 3, 7, 12):
                if math.gcd(abs(m1) * abs(m2), q) != 1:
                    continue
                for X in (50, 200, 500):
                    assert lattice_count_N(J, K, m1, m2, X, q) == \
                        lattice_count_brute(J, K, m1, m2, X, q), \
                        (J, K, m1, m2, X, q)


def test_lattice_rejections():
    with pytest.raises(ValueError):
        lattice_count_N(0, 1, 1, 1, 100, 3)
    with pytest.raises(ValueError):
        lattice_count_N(1, 1, 3, 1, 100, 6)
    with pytest.raises(ValueError):
        lattice_count_N(1, 1, 1, 1, 2 ** 62, 2)  # q X = 2^63 would wrap c v
