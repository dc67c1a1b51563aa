"""Exponential sums: Kloosterman/Gauss values against hand-computable cases,
S1/S2 against literal triple-sum oracles, the explicit gcd envelopes over
exhaustive multiplier sweeps, and the CRT factorization identity."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflab.arith import jacobi_symbol, phi_of
from sqflab.expsums import (crt_factor_check, crt_product, full_sum_S,
                            gauss_sum, kloosterman_weil_report, s1_literal,
                            s1_sum, s1_table, s1_zero_plane, s2_gcd_bound,
                            s2_sum, s2_table)

from oracles import kloosterman_K


def _e(k, n):
    return cmath.exp(2j * cmath.pi * k / n)


# ---------------------------------------------------------------------------
# classical sums
# ---------------------------------------------------------------------------

def test_kloosterman_values_and_symmetry():
    for q in (2, 3, 5, 12, 30):
        assert kloosterman_K(0, 0, q) == pytest.approx(phi_of(q))
    # x + xbar runs over {2, 0, 0, 3} mod 5
    want = 2 + 2 * math.cos(4 * math.pi / 5)
    got = kloosterman_K(1, 1, 5)
    assert got == pytest.approx(want, abs=1e-12)
    for (a, b, q) in [(1, 2, 7), (3, 5, 11), (2, 9, 15)]:
        # x -> xbar swaps the roles of a and b; x -> -x conjugates
        assert kloosterman_K(a, b, q) == pytest.approx(
            kloosterman_K(b, a, q), abs=1e-10)
        assert abs(kloosterman_K(a, b, q).imag) < 1e-10


def test_kloosterman_rejections():
    with pytest.raises(ValueError):
        kloosterman_K(1, 1, 1)
    with pytest.raises(ValueError):
        kloosterman_K(1, 1, 10 ** 4 + 1)


def test_gauss_values():
    for p in (3, 5, 7, 11, 19, 31):
        g1 = gauss_sum(1, p)
        assert abs(g1) == pytest.approx(math.sqrt(p), rel=1e-12)
        # classical evaluation: sqrt(p) or i sqrt(p) by p mod 4
        if p % 4 == 1:
            assert g1 == pytest.approx(math.sqrt(p), abs=1e-10)
        else:
            assert g1 == pytest.approx(1j * math.sqrt(p), abs=1e-10)
        assert gauss_sum(0, p) == pytest.approx(0.0, abs=1e-12)
        assert gauss_sum(p, p) == pytest.approx(0.0, abs=1e-12)
        for t in range(1, p):
            assert gauss_sum(t, p) == pytest.approx(
                jacobi_symbol(t, p) * g1, abs=1e-10)


def test_gauss_rejections():
    with pytest.raises(ValueError):
        gauss_sum(1, 2)
    with pytest.raises(ValueError):
        gauss_sum(1, 9)


def test_weil_report():
    rec = kloosterman_weil_report(53)
    assert rec.mode == "report_only" and rec.passed
    assert 0.0 < rec.lhs <= 1.0 + 1e-9
    with pytest.raises(ValueError):
        kloosterman_weil_report(10)


@pytest.mark.parametrize("p", [13, 53])
def test_weil_report_matches_literal_kloosterman(p):
    # the FFT table against the literal sums it stands for
    worst = max(abs(kloosterman_K(a, b, p))
                for a in range(1, p) for b in range(1, p))
    rec = kloosterman_weil_report(p)
    assert rec.lhs == pytest.approx(worst / (2 * math.sqrt(p)), rel=1e-12)


# ---------------------------------------------------------------------------
# S2 against the literal triple sum
# ---------------------------------------------------------------------------

def _s2_brute(n, q, m2, b, c, d):
    """Direct sum over all (alpha, beta, gamma) with n | m2 a^2 b - q g."""
    total = 0j
    for a in range(n):
        for be in range(n):
            lhs = (m2 * a * a * be) % n
            for g in range(n):
                if (lhs - q * g) % n == 0:
                    total += _e((b * a + c * be + d * g) % n, n)
    return total


def test_s2_vs_brute():
    cases = [(3, 1, 1), (4, 3, 1), (5, 2, -2), (8, 5, 3),
             (9, 2, 1), (25, 3, 2), (27, 5, -1)]
    for (n, q, m2) in cases:
        for (b, c, d) in [(0, 0, 0), (1, 0, 0), (1, 2, 1), (n - 1, 1, 2)]:
            got = s2_sum(n, q, m2, b, c, d)
            want = _s2_brute(n, q, m2, b, c, d)
            assert got == pytest.approx(want, abs=1e-9), (n, q, m2, b, c, d)


def test_s2_reflection_and_reality():
    for (n, q, m2) in [(5, 2, 3), (9, 2, 1), (8, 3, 5)]:
        tab = s2_table(n, q, m2)
        # S2 is always real: gamma is pinned, terms pair off conjugately
        assert float(np.max(np.abs(tab.imag))) < 1e-9
        for (b, c, d) in [(1, 2, 3), (0, 1, n - 1), (2, 2, 2)]:
            assert tab[b, c, d] == pytest.approx(
                s2_sum(n, q, m2, b, c, d), abs=1e-9)
            lhs = s2_sum(n, q, m2, b, c, d).conjugate()
            rhs = s2_sum(n, q, m2, -b, -c, -d)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_s2_bound_exhaustive():
    for (n, q, m2) in [(3, 1, 1), (5, 2, -2), (9, 2, 1), (4, 3, 1),
                       (8, 3, 5), (25, 3, 2)]:
        tab = s2_table(n, q, m2)
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    bound = s2_gcd_bound(n, m2, b, c, d)
                    assert abs(tab[b, c, d]) <= bound + 1e-9, (n, q, m2, b, c, d)


def _s2_envelope(n, m2):
    """s2_gcd_bound's docstring formula over the whole (b, c, d) cube for
    n = r^f, cell by cell from math.gcd and math.sqrt."""
    r = next(k for k in range(2, n + 1) if n % k == 0)

    def cell(g):
        if n == r:
            return 2.0 * r * g
        return (4.0 if r == 2 else 2.0) * n ** 1.5 * math.sqrt(g)

    return np.array([[[cell(math.gcd(n, b, c, d * m2)) for d in range(n)]
                      for c in range(n)] for b in range(n)])


@pytest.mark.parametrize("n", [3, 5, 7, 11, 9, 25, 27, 49, 4, 8, 16])
def test_s2_gcd_bound_array_matches_scalar(n):
    grid = np.arange(n)
    for m2 in (1, 2, -2, 3):
        arr = s2_gcd_bound(n, m2, grid[:, None, None], grid[None, :, None],
                           grid[None, None, :])
        assert arr.shape == (n, n, n)
        np.testing.assert_allclose(arr, _s2_envelope(n, m2), rtol=1e-12)
        # scalar calls on every 4th b, c and d plus the last index: the
        # envelope above already covers every cell of the array
        sample = sorted(set(range(0, n, 4)) | {n - 1})
        for b in sample:
            for c in sample:
                for d in sample:
                    assert arr[b, c, d] == s2_gcd_bound(n, m2, b, c, d)


@pytest.mark.parametrize("s2", [s2_sum, s2_table])
def test_s2_rejections(s2):
    tail = (0, 0, 0) if s2 is s2_sum else ()
    with pytest.raises(ValueError):
        s2(6, 1, 1, *tail)  # not a prime power
    with pytest.raises(ValueError):
        s2(9, 3, 1, *tail)  # q shares the prime
    with pytest.raises(ValueError):
        s2(9, 1, 0, *tail)


def test_s2_size_guard_runs_before_the_gamma_table():
    # 10007 is a prime above the literal-sum limit 10^4; its int64 gamma
    # table alone would take 10007^2 * 8 bytes, about 764 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            s2_sum(10007, 1, 1, 0, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_s2_table_transforms_in_place():
    # the 49^3 complex128 cube is 1.8 MiB; a copy for the FFT and another
    # for the conjugate would add two more
    s2_table(49, 3, 2)
    tracemalloc.start()
    try:
        tab = s2_table(49, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.dtype == np.complex128 and tab.shape == (49, 49, 49)
    assert peak <= 2.5 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# S1: two paths, vanishing, bound, reality pattern
# ---------------------------------------------------------------------------

@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 40),
       st.integers(-12, 12), st.integers(0, 12), st.integers(0, 12),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_s1_factored_matches_literal(p, q, m2, b, c, d):
    if m2 == 0 or (m2 * q) % p == 0:
        return
    lhs = s1_sum(p, q, m2, b, c, d)
    rhs = s1_literal(p, q, m2, b, c, d)
    assert lhs == pytest.approx(rhs, abs=1e-9 * p ** 1.5 + 1e-12)


def test_s1_vanishes_without_gamma_twist():
    # d = 0 makes the Gauss factor gauss_sum(0, p) = 0
    for p in (3, 5, 7, 11):
        for (q, m2, b, c) in [(1, 1, 0, 0), (2, 3, 1, 2), (5, -2, 4, 1)]:
            if (m2 * q) % p == 0:
                continue
            assert s1_sum(p, q, m2, b, c, 0) == pytest.approx(0, abs=1e-10)
            assert s1_sum(p, q, m2, b, c, p) == pytest.approx(0, abs=1e-10)


def test_s1_table_and_weil_style_bound():
    for (p, q, m2) in [(3, 1, 1), (5, 2, 3), (7, 1, 1), (13, 5, -2)]:
        tab = s1_table(p, q, m2)
        worst = float(np.max(np.abs(tab)))
        assert worst <= 2 * p ** 1.5 + 1e-9, (p, q, m2, worst)
        for (b, c, d) in [(0, 0, 1), (1, 2 % p, 3 % p), (p - 1, 0, 2)]:
            assert tab[b, c, d] == pytest.approx(
                s1_sum(p, q, m2, b, c, d), abs=1e-9)
        # parity of the Gauss factor: real for p = 1 (4), imaginary else
        if p % 4 == 1:
            assert float(np.max(np.abs(tab.imag))) < 1e-9
        else:
            assert float(np.max(np.abs(tab.real))) < 1e-9


def test_s1_zero_plane_is_the_tables_d0_plane_bit_for_bit():
    # every (q, m2) of the verify suite's pool that p admits
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for (q, m2) in [(1, 1), (2, 3), (5, -2), (12, 7), (4, -6)]:
            if (m2 * q) % p == 0:
                continue
            want, got = s1_table(p, q, m2)[:, :, 0], s1_zero_plane(p, q, m2)
            assert got.shape == (p, p), (p, q, m2)
            assert got.real.tobytes() == want.real.tobytes(), (p, q, m2)
            assert got.imag.tobytes() == want.imag.tobytes(), (p, q, m2)
    with pytest.raises(ValueError):
        s1_zero_plane(5, 5, 1)


def test_s1_rejections():
    with pytest.raises(ValueError):
        s1_sum(2, 1, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        s1_sum(9, 1, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        s1_sum(5, 5, 1, 0, 0, 1)


# ---------------------------------------------------------------------------
# CRT factorization
# ---------------------------------------------------------------------------

def test_crt_identity_small_cases():
    cases = [(1, 3, 5, 1, 1), (2, 3, 5, 1, 1), (6, 5, 7, 1, 1),
             (9, 5, 11, 2, 1), (4, 3, 7, 5, 1)]
    for (u, p1, p2, q, m2) in cases:
        for (b, c, d) in [(1, 1, 1), (0, 2, 5)]:
            rec = crt_factor_check(u, p1, p2, q, m2, b, c, d)
            assert rec.passed, rec.as_dict()
            assert rec.check_id == "expsums.crt"


def _full_sum_literal(u, p1, p2, q, m2, lam, mu, nu):
    """S(u, p1 p2, q, m2; lam, mu, nu) by the O(M^2) double loop over alpha,
    beta mod M = u p1 p2: gamma0 mod u is pinned by the congruence and the
    gamma-progression mod P = p1 p2 collapses to the Jacobi coefficient
    jhat.  Test-only oracle for full_sum_S."""
    P = p1 * p2
    M = u * P
    assert M <= 2500, "the literal oracle is O(M^2)"
    EM = np.exp(2j * np.pi * np.arange(M) / M)
    EP = np.exp(2j * np.pi * np.arange(P) / P)
    J = np.array([jacobi_symbol(t, P) for t in range(P)], dtype=np.float64)
    k1 = (nu * pow(u, -1, P) * pow(q % P, -1, P)) % P
    jhat = complex(np.sum(J * EP[(-k1 * np.arange(P)) % P]))
    qbar_u = pow(q % u, -1, u)
    beta = np.arange(M, dtype=np.int64)
    total = 0j
    for alpha in range(M):
        sq = alpha * alpha
        gamma0 = (qbar_u * m2 * sq) % u * beta % u
        W = (((m2 * sq) % P) * beta - (q % P) * gamma0) % P
        idx = (lam * alpha + mu * beta + nu * gamma0) % M
        total += complex(np.sum(EM[idx] * EP[(k1 * W) % P]))
    return jhat * total


def _live_tuple(u, p1, p2, q, m2, seed):
    """(lam, mu, nu) with nu prime to p1 p2 and mu chosen so that a drawn
    alpha0 is live (mu + k1 u m2 alpha0^2 = 0 mod p1 p2), redrawn until the
    factored product is far from 0."""
    rng = random.Random(seed)
    P = p1 * p2
    M = u * P
    for _ in range(200):
        nu = rng.choice([v for v in range(1, M) if math.gcd(v, P) == 1])
        k1 = (nu * pow(u, -1, P) * pow(q % P, -1, P)) % P
        alpha0 = rng.randrange(M)
        mu = (-k1 * u * m2 * alpha0 * alpha0) % P + P * rng.randrange(u)
        lam = rng.randrange(M)
        if abs(crt_product(u, p1, p2, q, m2, lam, mu, nu)) > 1:
            return lam, mu, nu
    raise AssertionError("no tuple with a nonzero sum")


@pytest.mark.parametrize("u,p1,p2,q,m2", [
    (1, 3, 5, 1, 1), (1, 13, 19, 2, -1), (4, 3, 7, 5, 1), (8, 5, 11, 7, -3),
    (9, 5, 7, 2, 1), (25, 3, 11, 2, -1), (27, 5, 7, 1, 2), (49, 3, 5, 2, -2),
    (6, 5, 7, 1, -1), (30, 7, 11, 13, -1)])
def test_full_sum_with_live_alpha(u, p1, p2, q, m2):
    lam, mu, nu = _live_tuple(u, p1, p2, q, m2, seed=u * 1000 + p1 * p2)
    got = full_sum_S(u, p1, p2, q, m2, lam, mu, nu)
    want = _full_sum_literal(u, p1, p2, q, m2, lam, mu, nu)
    prod = crt_product(u, p1, p2, q, m2, lam, mu, nu)
    assert abs(got) > 1
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    assert abs(got - prod) <= 1e-6 * max(1.0, abs(got))


def test_full_sum_matches_literal_on_random_tuples():
    # criterion-4 style draws; every fourth puts p1 into both mu and nu,
    # where jhat is zero only up to rounding and every alpha mod p1 is live
    rng = random.Random(4)
    checked = 0
    while checked < 16:
        u = rng.randrange(1, 51)
        p1, p2 = rng.sample([3, 5, 7, 11, 13, 17, 19], 2)
        q = rng.randrange(1, 30)
        m2 = rng.choice([1, -1, 2, 3, 5, -2, 7])
        M = u * p1 * p2
        if M > 1500 or (m2 * q) % p1 == 0 or (m2 * q) % p2 == 0:
            continue
        if math.gcd(u, p1 * p2 * q * abs(m2)) != 1:
            continue
        lam, mu, nu = (rng.randrange(M) for _ in range(3))
        if checked % 4 == 0:
            mu, nu = mu * p1 % M, nu * p1 % M
        got = full_sum_S(u, p1, p2, q, m2, lam, mu, nu)
        want = _full_sum_literal(u, p1, p2, q, m2, lam, mu, nu)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), \
            (u, p1, p2, q, m2, lam, mu, nu)
        checked += 1


def test_crt_zero_shortcut_consistent():
    # when the collapsed character coefficient vanishes the literal sum is 0,
    # and the factored product must agree
    val = full_sum_S(1, 3, 5, 1, 1, 1, 1, 0)
    assert val == pytest.approx(crt_product(1, 3, 5, 1, 1, 1, 1, 0), abs=1e-9)
    assert abs(val) < 1e-9


def test_crt_precondition_rejections():
    with pytest.raises(ValueError):
        full_sum_S(60, 3, 5, 1, 1, 0, 0, 1)  # u > 50
    with pytest.raises(ValueError):
        full_sum_S(1, 5, 5, 1, 1, 0, 0, 1)  # p1 = p2
    with pytest.raises(ValueError):
        full_sum_S(1, 2, 5, 1, 1, 0, 0, 1)  # even prime
    with pytest.raises(ValueError):
        full_sum_S(1, 23, 19, 1, 1, 0, 0, 1)  # p1 p2 > 400
    with pytest.raises(ValueError):
        full_sum_S(3, 5, 7, 1, 3, 0, 0, 1)  # gcd(u, m2) > 1
    with pytest.raises(ValueError):
        full_sum_S(1, 3, 5, 3, 1, 0, 0, 1)  # p1 | q
    with pytest.raises(ValueError):
        full_sum_S(1, 3, 5, 1, 0, 0, 0, 1)  # m2 = 0
