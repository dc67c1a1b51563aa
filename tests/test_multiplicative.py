import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from mpmath import bernfrac, mp, mpf

from sqflab import asymptotics, multiplicative
from sqflab.arith import factorize, mu_of, prime_factors, primes_up_to
from sqflab.multiplicative import (euler_constant, euler_product_mp,
                                   f_q_zero, gamma_an, gamma_ar, gq_product,
                                   gq_sum, h_of, h_series_partials,
                                   identity_suite, kappa_mu_products,
                                   kappa_mu_sums, zeta_em, _bernoulli_even,
                                   _h_table, _kappa_times_K)

from oracles import (LOCAL_FACTORS, SERIES_ORDER, accelerated_product,
                     divisors, f_q_of, f_q_rational_part,
                     f_q_zero_local_factors, kappa, local_factor, log_series)

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


# literal scalar oracles of the gq tables: one l at a time, from l's
# factorization

def _gq_sum_oracle(l, r):
    """sum over d with d^2 | l, gcd(d,r)=1 of h(d)/d^2, exact."""
    total = Fraction(0)
    for d in divisors((p, e // 2) for p, e in factorize(l)):
        if math.gcd(d, r) == 1:
            total += h_of(d) / (d * d)
    return total


def _gq_product_oracle(l, r):
    """prod over p with p^2 | l, p not dividing r of (p^2-1)/(p^2-2), exact."""
    out = Fraction(1)
    for p, e in factorize(l):
        if e >= 2 and r % p != 0:
            out *= Fraction(p * p - 1, p * p - 2)
    return out


@lru_cache(maxsize=None)
def _gq_oracle_values(l_max, r):
    return ([_gq_sum_oracle(l, r) for l in range(1, l_max + 1)],
            [_gq_product_oracle(l, r) for l in range(1, l_max + 1)])


def _gq_table_values(l_max, r):
    """Both tables as exact values for l = 1..l_max."""
    D, sum_num = gq_sum(l_max, r)
    prod_num, prod_den = gq_product(l_max, r)
    assert len(sum_num) == len(prod_num) == len(prod_den) == l_max + 1
    return ([Fraction(n, D) for n in sum_num[1:]],
            [Fraction(n, d) for n, d in zip(prod_num[1:], prod_den[1:])])


@pytest.mark.parametrize("r", [1, 2, 4, 6, 12, 30, 49])
def test_gq_tables_match_scalar_oracles(r):
    sums, prods = _gq_table_values(3000, r)
    oracle_sums, oracle_prods = _gq_oracle_values(3000, r)
    assert sums == oracle_sums
    assert prods == oracle_prods


@pytest.mark.parametrize("l_max", [1, 3, 4, 99, 100, 101, 10**4])
@pytest.mark.parametrize("r", [1, 6])
def test_gq_tables_at_boundary_l_max(l_max, r):
    sums, prods = _gq_table_values(l_max, r)
    oracle_sums, oracle_prods = _gq_oracle_values(10**4, r)
    assert sums == oracle_sums[:l_max]
    assert prods == oracle_prods[:l_max]


@pytest.mark.parametrize("table", [gq_sum, gq_product])
@pytest.mark.parametrize("l_max, r", [(0, 1), (-5, 6), (10, 0), (0, 0)])
def test_gq_tables_reject_bad_arguments(table, l_max, r):
    with pytest.raises(ValueError):
        table(l_max, r)


def test_gq_sum_equals_product():
    l_max = 10**5
    for r in (1, 2, 6, 30):
        D, sum_num = gq_sum(l_max, r)
        prod_num, prod_den = gq_product(l_max, r)
        bad = [l for l in range(1, l_max + 1)
               if sum_num[l] * prod_den[l] != D * prod_num[l]]
        assert bad == [], r


@pytest.mark.parametrize("side", ["gq_sum", "gq_product"])
def test_gq_exact_record_reports_injected_faults(monkeypatch, side):
    table = getattr(multiplicative, side)

    def faulty(l_max, r):
        out = table(l_max, r)
        if r == 6:  # out[1]: the sum's numerators or the product's denominators
            for l in (50, 7, 9999):
                out[1][l] += 1
        return out

    monkeypatch.setattr(multiplicative, side, faulty)
    records = [rec for rec in identity_suite(m_max=1, r_max=1)
               if rec.check_id == "gq.exact"]
    assert [rec.params["r"] for rec in records] == [1, 2, 6, 30]
    for rec in records:
        if rec.params["r"] == 6:
            assert (rec.lhs, rec.params["first_failure"], rec.passed) \
                == (3.0, 7, False)
        else:
            assert (rec.lhs, rec.params["first_failure"], rec.passed) \
                == (0.0, 0, True)


def _log_series_oracle(coeffs, order=SERIES_ORDER):
    """The Fraction form of the log-series recurrence."""
    a = [Fraction(c) for c in coeffs] + [Fraction(0)] * order
    ell = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        acc = k * a[k]
        for j in range(1, k):
            acc -= j * ell[j] * a[k - j]
        ell[k] = Fraction(acc, k)
    return tuple(ell)


def test_log_series_matches_fraction_recurrence():
    rng = random.Random(20141)
    # the two products, plus the Sigma h(d)/d^2 and /d^4 numerators that
    # are now derived from them rather than accelerated
    polys = list(LOCAL_FACTORS.values()) + [(1, 0, -1), (1, 0, -2, 0, 1)]
    polys += [(1,) + tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
              for _ in range(8)]
    for poly in polys:
        assert log_series(poly) == _log_series_oracle(poly), poly
    for bad in [(), (2, 1), (0, 1), (1, Fraction(1, 2)), (1, 0.5)]:
        with pytest.raises(ValueError):
            log_series(bad)


def test_local_factor_matches_fraction_evaluation():
    for name, coeffs in LOCAL_FACTORS.items():
        for p in primes_up_to(10**4).tolist():
            x = Fraction(1, p)
            value = sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
            assert local_factor(coeffs, p) == value, (name, p)


def test_local_factor_roots_have_modulus_at_least_half():
    # accelerated_product's tail past SERIES_ORDER bounds the log-series
    # coefficients by deg 2^k / k, which needs every root |x| >= 1/2
    # (C: 1, 1 and -1/2 exactly; C2: +-1/sqrt(2))
    for name, coeffs in LOCAL_FACTORS.items():
        roots = np.roots(coeffs[::-1])
        assert len(roots) == len(coeffs) - 1
        assert min(abs(roots)) >= 0.5 - 1e-12, (name, roots)


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


def _divisor_pair_sums(m):
    """kappa_mu_sums(m) by the literal formula in multiplicative._CTX: rho
    over the divisors of m^2 ascending, then sigma over those of m^2/rho
    ascending, weighted by mu(sigma)."""
    pairs = [(rho * sigma, kappa(rho) * mu_of(sigma))
             for rho in divisors(factorize(m * m))
             for sigma in divisors(factorize(m * m // rho))
             if mu_of(sigma)]
    with localcontext(multiplicative._CTX):
        s_sqrt = sum((multiplicative._dec(t) * Decimal(rs).sqrt()
                      for rs, t in pairs), Decimal(0))
    return (sum(t / rs for rs, t in pairs), sum(t for _, t in pairs),
            float(s_sqrt))


def test_kappa_mu_sums_match_the_divisor_pair_formula():
    # sigma over every divisor of m^2/rho, weighted by mu(sigma): the same
    # Decimal terms (a correctly rounded quotient of the same rational) in
    # the same order, so the same bits
    for m in filter(mu_of, range(1, 201)):
        want = _divisor_pair_sums(m)
        assert kappa_mu_sums(m) == kappa_mu_sums(-m) == want, m


def test_kappa_mu_sums_add_in_the_literal_order(monkeypatch):
    # at 56 digits no order of the terms reaches the float for m <= 200; at
    # 8 it does (sigma visited unsorted changes it), so this pins the order
    monkeypatch.setattr(multiplicative, "_CTX", Context(prec=8))
    for m in filter(mu_of, range(1, 201)):
        assert kappa_mu_sums(m) == _divisor_pair_sums(m), m


def test_kappa_times_K_is_kappa_times_K():
    for m in filter(mu_of, range(1, 301)):
        primes = prime_factors(m)
        K = math.prod(p * p - 1 for p in primes)
        got = _kappa_times_K(primes)
        assert [rho for rho, _ in got] == divisors(factorize(m * m)), m
        assert all(n == kappa(rho) * K for rho, n in got), m


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
    c2 = euler_constant("C2")
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
        cmq = euler_constant("C_of_q", arg=mq)
        v = f_q_zero(m, q)
        assert v.value == pytest.approx(phi_of(mq) / mq * cmq.value, rel=1e-13)


def test_f_q_bars_are_the_constants_bar_plus_rounding():
    # C_2 or C(|m|q) times an exact rational: the bar is the constant's bar
    # scaled by the rational plus the rounding ApproxReal counts, under
    # 3 ulp of the value (a 1e-15 relative pad alone is over 4.5 ulp)
    from sqflab.arith import phi_of
    c2 = euler_constant("C2")
    for m in (1, 2, 3, -1, -5, 6, -30):
        for q in (1, 5, 7, 12, 30, 49, 97):
            if math.gcd(m, q) != 1:
                continue
            mq = abs(m) * q
            v = f_q_zero(m, q)
            bound = (Fraction(euler_constant("C_of_q", arg=mq).abs_err)
                     * Fraction(phi_of(mq), mq) + 3 * Fraction(math.ulp(v.value)))
            assert v.abs_err <= bound, (m, q)
            for l in (1, 4, 9, 30, -36, 225, 1000):
                v = f_q_of(l, m, q)
                rat = abs(f_q_rational_part(l, m, q))
                bound = (Fraction(c2.abs_err) * rat
                         + 3 * Fraction(math.ulp(v.value)))
                assert v.abs_err <= bound, (l, m, q)


def test_zeta_em_matches_mpmath():
    # at -37/8 the sum cancels about 12 of the 12 guard digits
    for s in (Fraction(3, 2), 2, 4, Decimal("0.75"), Decimal("-0.5"),
              Decimal("3.25"), Fraction(-37, 8)):
        ours = zeta_em(s)
        assert isinstance(ours, Decimal)
        with mp.workprec(180):
            ref = mp.zeta(mpf(s.numerator) / s.denominator
                          if isinstance(s, Fraction) else mpf(str(s)))
            assert abs(mpf(str(ours)) - ref) < mpf(10) ** -50, s


def test_zeta_em_pinned_at_the_non_integer_s_in_use():
    # psi_mellin_limit's -3/4, -1/2, -1/4 and C's 3/2: every digit as
    # taken when p^-s was Decimal's power, before exp(-s ln p)
    pins = {
        Fraction(-3, 4):
            "-0.13364277443658456240761443736798310818310470577700792483",
        Fraction(-1, 2):
            "-0.20788622497735456601730672539704930222626853128767253761",
        Fraction(-1, 4):
            "-0.32045126422857728279044449305487246970591083908511093271",
        Fraction(3, 2):
            "2.6123753486854883433485675679240716305708006524000634076",
    }
    for s, pin in pins.items():
        assert str(zeta_em.__wrapped__(s)) == pin, s  # bypass the cache
    # psi_mellin_limit reads the first three from literals, digit for digit
    assert asymptotics._ZETA_AT.keys() == set(pins) - {Fraction(3, 2)}
    for s, literal in asymptotics._ZETA_AT.items():
        assert str(literal) == str(zeta_em.__wrapped__(s)), s


def test_zeta_em_ignores_caller_context():
    for s in (Fraction(3, 2), 2, Fraction(-3, 4)):
        with localcontext(Context(prec=10)):
            low = zeta_em.__wrapped__(s)  # bypass the cache
        with localcontext(Context(prec=100)):
            high = zeta_em.__wrapped__(s)
        assert str(low) == str(high) == str(zeta_em(s)), s


def test_zeta_em_depth_guard(monkeypatch):
    monkeypatch.setattr(multiplicative, "_EM_N", 2)
    monkeypatch.setattr(multiplicative, "_EM_M", 2)
    with pytest.raises(ArithmeticError):
        zeta_em.__wrapped__(Fraction(3, 2))  # bypass the cache


def test_bernoulli_table():
    assert _bernoulli_even(6) == (
        1, Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
        Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730))
    table = _bernoulli_even(26)
    assert len(table) == 27
    for k, b in enumerate(table):
        assert b == Fraction(*bernfrac(2 * k)), 2 * k


def test_euler_constant_reference_values():
    c = euler_constant("C")
    assert abs(c.value - C_REF) <= 2e-16
    assert c.abs_err < 1e-14
    c2 = euler_constant("C2")
    cp = euler_constant("Cprime")
    # C2 * C' = C / 2 holds by construction (C' is derived from C and C2);
    # the prime-zeta oracle test checks C' independently
    assert c2.value * cp.value == pytest.approx(c.value / 2, abs=1e-15)
    six_pi2 = euler_constant("C_of_q", arg=1)
    with mp.workprec(120):
        assert six_pi2.value == pytest.approx(float(6 / mp.pi ** 2), abs=1e-15)
    # C(q) rescales by p^2/(p^2-1) at p | q
    c12 = euler_constant("C_of_q", arg=12)
    assert c12.value == pytest.approx(six_pi2.value * 4 / 3 * 9 / 8, rel=1e-14)
    assert euler_constant("hall_factor", arg=12).value == pytest.approx(
        (2 / 4) * (3 / 5), rel=1e-15)
    with pytest.raises(ValueError):
        euler_constant("nope")


@pytest.mark.parametrize("kind, arg", [
    ("C", None), ("C2", None), ("Cprime", None), ("C_of_q", 12),
    ("sum_h_d2", 6), ("sum_h_d4", 6), ("hall_factor", 12)])
def test_euler_constant_error_guard(kind, arg, monkeypatch):
    # every kind carries at least the 2e-16 relative float rounding, so a
    # bound below that must raise instead of returning a wider error bar
    assert euler_constant(kind, arg=arg).abs_err <= multiplicative.MAX_ABS_ERR
    monkeypatch.setattr(multiplicative, "MAX_ABS_ERR", 1e-30)
    with pytest.raises(ArithmeticError):
        euler_constant(kind, arg=arg)


def test_euler_product_mp_agrees_with_float_path():
    for kind in ("sum_h_d2", "sum_h_d4"):
        hi, tail = euler_product_mp(kind, r=1)
        lo = euler_constant(kind)
        assert float(hi) == pytest.approx(lo.value, abs=1e-14)
        assert tail < mpf(10) ** -24
    for kind in ("C", "C2", "Cprime", "C_of_q"):
        with pytest.raises(ValueError):
            euler_product_mp(kind)


_ORACLE_SPLIT, _ORACLE_ORDER = 50, 80


@lru_cache(maxsize=1)
def _prime_zeta_tails():
    """P(k) - sum_{p<=50} p^-k for k <= 80, P the prime zeta function."""
    small = primes_up_to(_ORACLE_SPLIT).tolist()
    with mp.workprec(200):
        return {k: mp.primezeta(k) - mp.fsum(mpf(p) ** -k for p in small)
                for k in range(2, _ORACLE_ORDER + 1)}


def _prime_zeta_log_product(num, den=(1,), r=1):
    """log prod_{p not | r} num(1/p)/den(1/p) (coefficients in x = 1/p),
    independent of the package: the primes p <= 50 directly, the rest as
    sum_{k=2}^{80} c_k (P(k) - sum_{p<=50} p^-k) with c_k the log-series
    coefficients of num/den.  Every root has |x| >= 1/2, so the series past
    k = 80 adds under 4 (2/53)^81 at p > 50."""
    assert all(p <= _ORACLE_SPLIT for p in prime_factors(r))
    cn = _log_series_oracle(num, _ORACLE_ORDER)
    cd = _log_series_oracle(den, _ORACLE_ORDER)
    tails = _prime_zeta_tails()
    with mp.workprec(200):
        def f(p):
            x = mpf(1) / p
            return mp.fsum(c * x**i for i, c in enumerate(num)) \
                / mp.fsum(c * x**i for i, c in enumerate(den))
        head = mp.fsum(mp.log(f(p))
                       for p in primes_up_to(_ORACLE_SPLIT).tolist() if r % p)
        return head + mp.fsum(
            mpf((cn[k] - cd[k]).numerator) / (cn[k] - cd[k]).denominator
            * tails[k] for k in range(2, _ORACLE_ORDER + 1))


def test_product_literals_equal_their_derivation():
    # the shipped Decimals and tails are the derivation's, digit for digit
    # and bit for bit; zeta(2) and zeta(3/2) are zeta_em's
    for name, coeffs in LOCAL_FACTORS.items():
        value, tail = multiplicative._PRODUCTS[name]
        derived, derived_tail = accelerated_product(coeffs)
        assert isinstance(value, Decimal) and isinstance(tail, float)
        assert str(value) == str(derived), name
        assert tail.hex() == derived_tail.hex(), name
    assert str(multiplicative._ZETA_2) == str(zeta_em(2))
    assert str(multiplicative._ZETA_3_2) == str(zeta_em(Fraction(3, 2)))


# euler_constant(kind, arg) as (value.hex(), abs_err.hex()), taken while
# every process still derived the products and zeta values at run time
_EULER_CONSTANT_PINS = {
    ("C", None): ("0x1.e854fe42cd65dp-3", "0x1.b7d9b2a7c0550p-55"),
    ("C2", None): ("0x1.4a6097de12ed8p-2", "0x1.2993d29ff6589p-54"),
    ("Cprime", None): ("0x1.7a6504945d76dp-2", "0x1.54d3db8dd3061p-54"),
    ("C_of_q", 1): ("0x1.37423899a1558p-1", "0x1.185b5d3f32e9fp-53"),
    ("C_of_q", 2): ("0x1.9f02f6222c720p-1", "0x1.75cf26feee8d4p-53"),
    ("C_of_q", 30): ("0x1.e65778700c159p-1", "0x1.b60ec1b2bf8d8p-53"),
    ("C_of_q", 999983): ("0x1.37423899a2abcp-1", "0x1.185b5d3f341e3p-53"),
    ("hall_factor", 1): ("0x1.0000000000000p+0", "0x1.cd2b297d889bcp-53"),
    ("hall_factor", 2): ("0x1.0000000000000p-1", "0x1.cd2b297d889bcp-54"),
    ("hall_factor", 30): ("0x1.b6db6db6db6dbp-3", "0x1.8b4991470760ep-55"),
    ("hall_factor", 999983): ("0x1.ffffbce3df846p-1",
                              "0x1.cd2aed0b0d0f8p-53"),
    ("sum_h_d2", 1): ("0x1.e25efae62bb34p+0", "0x1.b27b2ef936e19p-52"),
    ("sum_h_d2", 2): ("0x1.4194a7441d222p+0", "0x1.21a774a624966p-52"),
    ("sum_h_d2", 30): ("0x1.0da8a6ed1dc35p+0", "0x1.e5c62ba14d5c4p-53"),
    ("sum_h_d2", 999983): ("0x1.e25efae629a0dp+0", "0x1.b27b2ef93503dp-52"),
    ("sum_h_d4", 1): ("0x1.253f14f848099p+0", "0x1.082204f146d13p-52"),
    ("sum_h_d4", 2): ("0x1.04a9d9c040088p+0", "0x1.d591cfe5d33b0p-53"),
    ("sum_h_d4", 30): ("0x1.00252809faec6p+0", "0x1.cd6e18db4761cp-53"),
    ("sum_h_d4", 999983): ("0x1.253f14f848099p+0", "0x1.082204f146d13p-52"),
}


def test_euler_constants_pinned():
    for (kind, arg), pin in _EULER_CONSTANT_PINS.items():
        c = euler_constant(kind, arg=arg)
        assert (c.value.hex(), c.abs_err.hex()) == pin, (kind, arg)


def test_euler_product_mp_pinned():
    tail = "0x1.a68cfbe5ef8a3p-91"  # C_2's
    pins = {
        ("sum_h_d2", 1):
            "1.8842617809238619067282912805635455033243830136952934798",
        ("sum_h_d2", 6):
            "1.0991527055389194455915032469954015436058900913222545299",
        ("sum_h_d4", 1):
            "1.1454938036113502069631301071481986138160444414418891159",
        ("sum_h_d4", 6):
            "1.0023070781599314310927388437546737870890388862616529764",
    }
    for (kind, r), pin in pins.items():
        value, t = euler_product_mp(kind, r)
        assert (str(value), t.hex()) == (pin, tail), (kind, r)


def test_products_match_prime_zeta_oracle():
    with mp.workprec(200):
        for name, coeffs in LOCAL_FACTORS.items():
            value, tail = multiplicative._PRODUCTS[name]
            oracle = mp.exp(_prime_zeta_log_product(coeffs))
            assert abs(mpf(str(value)) - oracle) <= mpf(str(value)) * tail, name
        c2 = (1, 0, -2)
        for kind, num in (("sum_h_d2", (1, 0, -1)),
                          ("sum_h_d4", (1, 0, -2, 0, 1))):
            for r in (1, 6, 30):
                value, tail = euler_product_mp(kind, r)
                oracle = mp.exp(_prime_zeta_log_product(num, c2, r))
                assert abs(mpf(str(value)) - oracle) \
                    <= mpf(str(value)) * tail, (kind, r)
        # C' = zeta(3/2)/(2 pi) prod (1-3/p^2+2/p^3)/(1-2/p^2), read directly
        cprime = mp.zeta(1.5) / (2 * mp.pi) * mp.exp(
            _prime_zeta_log_product(LOCAL_FACTORS["C"], c2))
        assert euler_constant("Cprime").contains(Fraction(mp.nstr(cprime, 55)))


def test_h_series_partials_bracket_euler_products():
    for r in (1, 2, 6, 15):
        p2, p4, tail2, tail4 = h_series_partials(r)
        h2 = euler_constant("sum_h_d2", arg=r)
        h4 = euler_constant("sum_h_d4", arg=r)
        assert abs(p2 - h2.value) <= tail2 + h2.abs_err
        assert abs(p4 - h4.value) <= tail4 + h4.abs_err


def test_h_table_matches_exact_h():
    d, d_float, hv, t2, t4 = _h_table()
    assert len(d) == sum(1 for n in range(1, 10**4 + 1) if mu_of(n) != 0)
    assert list(d_float) == [float(n) for n in d]
    for n, h in zip(d.tolist(), hv.tolist()):
        exact = float(h_of(n))
        assert abs(h - exact) <= 4 * math.ulp(exact), n
    # the terms are the elementwise quotients, bit for bit
    assert t2.tobytes() == (hv / d_float**2).tobytes()
    assert t4.tobytes() == (hv / d_float**4).tobytes()


def test_h_table_takes_the_factors_in_ascending_p():
    # bit for bit: a prime above 100 is each d's largest, so its factor,
    # which goes in by one indexed multiply after the strided ones, is last
    d, _, hv, _, _ = _h_table()
    for n, h in zip(d.tolist(), hv.tolist()):
        want = 1.0
        for p in prime_factors(n):
            want *= p * p / (p * p - 2.0)
        assert h == want, n


def test_h_series_partials_equal_the_gcd_mask_bit_for_bit():
    # masking by r's primes keeps the terms that gcd(d, r) = 1 keeps, in
    # the same order, so each np.sum is the same float
    d, d_float, hv, _, _ = _h_table()
    for r in [*range(1, 41), 210, 864, 9973, 10007, 20011, 30030]:
        keep = np.gcd(d, r) == 1
        s2 = float(np.sum(hv[keep] / d_float[keep]**2))
        s4 = float(np.sum(hv[keep] / d_float[keep]**4))
        got = h_series_partials(r)
        assert (got[0].hex(), got[1].hex()) == (s2.hex(), s4.hex()), r


def test_identity_suite_composition():
    records = identity_suite(m_max=30, r_max=10)
    assert all(r.passed for r in records)
    ids = {r.check_id for r in records}
    assert {"products.kmu_recip", "products.kmu_plain", "products.kmu_sqrt",
            "products.h_d2", "products.h_d4", "gq.exact"} <= ids
