import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from sqflab.arith import mu_of, prime_factors, primes_up_to
from sqflab.multiplicative import (euler_constant, euler_product_mp, f_q_of,
                                   f_q_rational_part, f_q_zero,
                                   f_q_zero_local_factors, gamma_an, gamma_ar,
                                   gq_product, gq_sum, h_of, h_series_partials,
                                   identity_suite, kappa, kappa_mu_products,
                                   kappa_mu_sums, zeta_em, _h_table)

# 30-digit value derived from the zeta-accelerated Euler product, confirmed
# by two independent extraction depths and a 2*10^6-prime direct log sum
C_REF = 0.238443361676831696


def test_kappa_values():
    assert kappa(1) == 1
    for p in (2, 3, 5, 13):
        assert kappa(p) == Fraction(p * p - p - 1, p * p - 1)
        assert kappa(p * p) == Fraction(p * p - p, p * p - 1)
        assert kappa(p ** 3) == 0
    assert kappa(6) == kappa(2) * kappa(3)
    assert kappa(12) == kappa(4) * kappa(3)


def test_h_values():
    assert h_of(1) == 1
    assert h_of(4) == 0
    for p in (2, 3, 7):
        assert h_of(p) == Fraction(p * p, p * p - 2)


def test_h_of_cache_still_rejects_zero():
    assert h_of(30) == h_of(30) == Fraction(4 * 9 * 25, 2 * 7 * 23)
    for _ in range(2):
        with pytest.raises(ValueError):
            h_of(0)


@given(st.integers(min_value=1, max_value=10 ** 5),
       st.sampled_from([1, 2, 6, 30]))
@settings(max_examples=300, deadline=None)
def test_gq_sum_equals_product(l, r):
    assert gq_sum(l, r) == gq_product(l, r)


def test_gamma_an_values():
    assert gamma_an(1) == pytest.approx(2.0, abs=1e-15)
    assert gamma_an(-1) == pytest.approx(math.sqrt(2) - 2, abs=1e-15)
    for m in (2, 3, 10):
        expected = (math.sqrt(m) + 1 - math.sqrt(m - 1)) / m
        assert gamma_an(m) == pytest.approx(expected, rel=1e-14)
        assert gamma_an(m) > 0 > gamma_an(-m)
    with pytest.raises(ValueError):
        gamma_an(0)


def test_gamma_ar_values():
    assert gamma_ar(1) == 1.0
    assert gamma_ar(-1) == 1.0
    for m in (2, 3, 6, -10):
        prod = 1.0
        for p in prime_factors(abs(m)):
            sp = math.sqrt(p)
            prod /= 1 + (p + sp + 1) / (p * sp + sp + 1)
        assert gamma_ar(m) == pytest.approx(prod, rel=1e-13)
    with pytest.raises(ValueError):
        gamma_ar(4)


def test_kappa_mu_sums_match_products():
    for m in (1, 2, 3, 5, 6, 10, 30, -7, -15):
        s_recip, s_plain, s_sqrt = kappa_mu_sums(m)
        p_recip, p_plain, p_sqrt = kappa_mu_products(m)
        assert s_recip == p_recip
        assert s_plain == p_plain
        assert s_sqrt == pytest.approx(p_sqrt, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_mu_sums(4)


def test_f_q_rational_part_matches_local_product():
    # spot-check the closed per-prime structure against the literal formula
    for (l, m, q) in [(1, 1, 1), (4, 1, 1), (12, 2, 5), (75, -1, 12),
                      (98, 3, 5), (360, 10, 1)]:
        val = f_q_rational_part(l, m, q)
        m2 = m * m
        expect = Fraction(1)
        for p in prime_factors(abs(m)):
            expect *= Fraction(p * p - 1, p * p - 2)
        for p in prime_factors(q):
            expect *= Fraction(p * p - p, p * p - 2)
        expect *= kappa(math.gcd(l, m2))
        for p in primes_up_to(int(math.isqrt(l)) + 1):
            p = int(p)
            if l % (p * p) == 0 and abs(m) % p and q % p:
                expect *= Fraction(p * p - 1, p * p - 2)
        assert val == expect, (l, m, q)


def test_f_q_of_scales_rational_by_c2():
    c2 = euler_constant("C2", 1e-12)
    for (l, m, q) in [(1, 1, 1), (30, -1, 7), (49, 3, 5)]:
        v = f_q_of(l, m, q)
        assert v.value == pytest.approx(c2.value * float(f_q_rational_part(l, m, q)),
                                        rel=1e-14)


def test_f_q_zero_local_factors_split_exactly():
    for (m, q) in [(1, 1), (2, 5), (-3, 5), (10, 9), (-1, 12)]:
        for p in (2, 3, 5, 7, 11, 97):
            lit, closed = f_q_zero_local_factors(p, m, q)
            assert lit == closed
            if (abs(m) * q) % p == 0:
                assert closed == Fraction(p - 1, p)
            else:
                assert closed == Fraction(p * p - 1, p * p)


def test_f_q_zero_matches_phi_over_mq_times_c():
    for (m, q) in [(1, 1), (2, 5), (-5, 12)]:
        from sqflab.arith import phi_of
        mq = abs(m) * q
        cmq = euler_constant("C_of_q", 1e-12, arg=mq)
        v = f_q_zero(m, q)
        assert v.value == pytest.approx(phi_of(mq) / mq * cmq.value, rel=1e-13)


def test_zeta_em_matches_mpmath():
    with mp.workprec(180):
        for s in (Fraction(3, 2), 2, 4, mpf("0.75"), mpf("-0.5"), mpf("3.25")):
            ours = zeta_em(s)
            ref = mp.zeta(mpf(s.numerator) / s.denominator
                          if isinstance(s, Fraction) else mpf(s))
            assert abs(ours - ref) < mpf(10) ** -50, s


def test_zeta_em_depth_guard():
    with mp.workprec(180):
        with pytest.raises(ArithmeticError):
            zeta_em(Fraction(3, 2), N=2, M=2)


def test_euler_constant_reference_values():
    c = euler_constant("C", 1e-12)
    assert abs(c.value - C_REF) <= 2e-16
    assert c.abs_err < 1e-14
    c2 = euler_constant("C2", 1e-12)
    cp = euler_constant("Cprime", 1e-12)
    # C2 * C' = C / 2 (the two products share the same numerator polynomial)
    assert c2.value * cp.value == pytest.approx(c.value / 2, abs=1e-15)
    six_pi2 = euler_constant("C_of_q", 1e-12, arg=1)
    with mp.workprec(120):
        assert six_pi2.value == pytest.approx(float(6 / mp.pi ** 2), abs=1e-15)
    # C(q) rescales by p^2/(p^2-1) at p | q
    c12 = euler_constant("C_of_q", 1e-12, arg=12)
    assert c12.value == pytest.approx(six_pi2.value * 4 / 3 * 9 / 8, rel=1e-14)
    assert euler_constant("hall_factor", 1e-12, arg=12).value == pytest.approx(
        (2 / 4) * (3 / 5), rel=1e-15)
    with pytest.raises(ValueError):
        euler_constant("nope", 1e-12)
    with pytest.raises(ArithmeticError):
        euler_constant("C", 1e-30)


def test_euler_product_mp_agrees_with_float_path():
    for kind in ("sum_h_d2", "sum_h_d4"):
        hi, tail = euler_product_mp(kind, r=1)
        lo = euler_constant(kind, 1e-12)
        assert float(hi) == pytest.approx(lo.value, abs=1e-14)
        assert tail < mpf(10) ** -24


def test_h_series_partials_bracket_euler_products():
    for r in (1, 2, 6, 15):
        p2, p4, tail2, tail4 = h_series_partials(r)
        h2 = euler_constant("sum_h_d2", 1e-12, arg=r)
        h4 = euler_constant("sum_h_d4", 1e-12, arg=r)
        assert abs(p2 - h2.value) <= tail2 + h2.abs_err
        assert abs(p4 - h4.value) <= tail4 + h4.abs_err


def test_h_table_matches_exact_h():
    d, d_float, hv = _h_table()
    assert len(d) == sum(1 for n in range(1, 10**4 + 1) if mu_of(n) != 0)
    assert list(d_float) == [float(n) for n in d]
    for n, h in zip(d.tolist(), hv.tolist()):
        exact = float(h_of(n))
        assert abs(h - exact) <= 4 * math.ulp(exact), n


def test_identity_suite_composition():
    records = identity_suite(m_max=30, r_max=10)
    assert all(r.passed for r in records)
    ids = {r.check_id for r in records}
    assert {"products.kmu_recip", "products.kmu_plain", "products.kmu_sqrt",
            "products.h_d2", "products.h_d4", "gq.exact"} <= ids
