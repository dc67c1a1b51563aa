"""Multiplicative functions (kappa, h, f_q), the Gamma factors, and
Euler-product constants with rigorous truncation-error bounds.

Infinite products over primes are evaluated by zeta-factor acceleration:
the local factor f(p) = num(1/p)/den(1/p) is rewritten as
prod_k zeta(k)^{-e_k} times a residual local factor r(p) = 1 + O(p^-(J+1)),
so a short truncated product meets a 1e-12 error target.  zeta itself is
computed in-house by Euler-Maclaurin summation in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf, bernoulli

from .arith import (factorize, mu_of, phi_of, prime_factors, primes_up_to,
                    require_mq, squarefree_window)
from .records import ApproxReal, VerificationRecord

_WORK_PREC = 180  # bits; leaves ~40 guard digits below the 1e-12 default eps


# ---------------------------------------------------------------------------
# basic multiplicative functions (exact rationals)
# ---------------------------------------------------------------------------

def kappa(l: int) -> Fraction:
    """Multiplicative: (p^2-p-1)/(p^2-1) at p, (p^2-p)/(p^2-1) at p^2,
    0 at p^alpha for alpha >= 3; kappa(1) = 1."""
    if l < 1:
        raise ValueError("kappa requires l >= 1")
    out = Fraction(1)
    for p, e in factorize(l).factors:
        if e == 1:
            out *= Fraction(p * p - p - 1, p * p - 1)
        elif e == 2:
            out *= Fraction(p * p - p, p * p - 1)
        else:
            return Fraction(0)
    return out


@lru_cache(maxsize=1 << 14)  # bounded: G_of's head reads every d <= Y^(2/3)
def h_of(d: int) -> Fraction:
    """h(d) = mu^2(d) * prod_{p|d} (1 - 2/p^2)^(-1), exact."""
    if d < 1:
        raise ValueError("h_of requires d >= 1")
    out = Fraction(1)
    for p, e in factorize(d).factors:
        if e > 1:
            return Fraction(0)
        out *= Fraction(p * p, p * p - 2)
    return out


def gq_sum(l: int, r: int) -> Fraction:
    """sum over d with d^2 | l, gcd(d,r)=1 of h(d)/d^2, exact."""
    if l == 0 or r == 0:
        raise ValueError("gq_sum requires nonzero l and r")
    total = Fraction(0)
    for d in _divisors((p, e // 2) for p, e in factorize(abs(l)).factors):
        if math.gcd(d, r) == 1:
            total += h_of(d) / (d * d)
    return total


def gq_product(l: int, r: int) -> Fraction:
    """prod over p with p^2 | l, p not dividing r of (p^2-1)/(p^2-2), exact."""
    if l == 0 or r == 0:
        raise ValueError("gq_product requires nonzero l and r")
    out = Fraction(1)
    for p, e in factorize(abs(l)).factors:
        if e >= 2 and r % p != 0:
            out *= Fraction(p * p - 1, p * p - 2)
    return out


def _divisors(factors) -> list:
    """Sorted divisors of prod p^e over the (p, e) pairs."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


# ---------------------------------------------------------------------------
# Gamma factors
# ---------------------------------------------------------------------------

def gamma_an(m: int) -> float:
    """Analytic factor: (sqrt(m)+1-sqrt(m-1))/m for m>0, and
    (sqrt(1-m)-sqrt(-m)-1)/(-m) for m<0."""
    if m == 0:
        raise ValueError("gamma_an requires m != 0")
    if m > 0:
        return (math.sqrt(m) + 1 - math.sqrt(m - 1)) / m
    return (math.sqrt(1 - m) - math.sqrt(-m) - 1) / (-m)


def gamma_ar(m: int) -> float:
    """Arithmetic factor for squarefree m:
    prod_{p | m} (1 + (p+sqrt(p)+1)/(p^(3/2)+sqrt(p)+1))^(-1)."""
    if m == 0:
        raise ValueError("gamma_ar requires m != 0")
    fac = factorize(abs(m))
    if any(e > 1 for _, e in fac.factors):
        raise ValueError("gamma_ar is only defined here for squarefree m")
    with mp.workprec(_WORK_PREC):
        out = mpf(1)
        for p, _ in fac.factors:
            sp = mp.sqrt(p)
            out /= 1 + (p + sp + 1) / (p * sp + sp + 1)
        return float(out)


# ---------------------------------------------------------------------------
# f_q
# ---------------------------------------------------------------------------

def f_q_rational_part(l: int, m: int, q: int) -> Fraction:
    """The exact finite-product part of f_q(l, m): everything except the
    leading C_2 constant.  Divisibility conditions use |m| and |l|."""
    require_mq(m, q)
    if l == 0:
        raise ValueError("l = 0 goes through f_q_zero")
    m_abs = abs(m)
    out = _local_product(m_abs, lambda p: Fraction(p * p - 1, p * p - 2)) \
        * _local_product(q, lambda p: Fraction(p * p - p, p * p - 2))
    out *= kappa(math.gcd(abs(l), m_abs * m_abs))
    for p, e in factorize(abs(l)).factors:
        if e >= 2 and m_abs % p != 0 and q % p != 0:
            out *= Fraction(p * p - 1, p * p - 2)
    return out


def f_q_of(l: int, m: int, q: int, eps: float = 1e-12) -> ApproxReal:
    """f_q(l, m) for l != 0: C_2 times an exact rational local product;
    the error bound comes only from the C_2 truncation."""
    rat = f_q_rational_part(l, m, q)
    c2 = euler_constant("C2", eps)
    val = c2.value * float(rat)
    err = c2.abs_err * float(abs(rat)) + abs(val) * 1e-15
    return ApproxReal(val, err)


def f_q_zero(m: int, q: int, eps: float = 1e-12) -> ApproxReal:
    """f_q(0, m) via the closed form phi(|m|q)/(|m|q) * C(|m|q)."""
    require_mq(m, q)
    mq = abs(m) * q
    rat = Fraction(phi_of(mq), mq)
    c = euler_constant("C_of_q", eps, arg=mq)
    val = c.value * float(rat)
    return ApproxReal(val, c.abs_err * float(rat) + abs(val) * 1e-15)


def f_q_zero_local_factors(p: int, m: int, q: int) -> tuple:
    """Local factor at prime p of the literal infinite product defining
    f_q(0, m), paired with the local factor of the closed form
    phi(|m|q)/(|m|q) * C(|m|q).  Both exact rationals; they must be equal."""
    require_mq(m, q)
    m_abs = abs(m)
    p2 = p * p
    literal = Fraction(p2 - 2, p2)            # C_2 local factor
    if m_abs % p == 0:
        literal *= Fraction(p2 - 1, p2 - 2)   # p | m product
        literal *= Fraction(p2 - p, p2 - 1)   # kappa(m^2) local factor, exponent 2
    if q % p == 0:
        literal *= Fraction(p2 - p, p2 - 2)   # p | q product
    if m_abs % p != 0 and q % p != 0:
        literal *= Fraction(p2 - 1, p2 - 2)   # p^2 | 0 holds for every p
    if (m_abs * q) % p == 0:
        closed = Fraction(p - 1, p)
    else:
        closed = Fraction(p2 - 1, p2)
    return literal, closed


# ---------------------------------------------------------------------------
# zeta by Euler-Maclaurin
# ---------------------------------------------------------------------------

_zeta_cache = {}


def zeta_em(s, N: int = 128, M: int = 24):
    """zeta(s) for real s != 1 (s > -(2M-1)) by Euler-Maclaurin:

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{i=1..M} B_2i/(2i)! * (s)_(2i-1) * N^(-s-2i+1) + R,

    with |R| below the working precision for the default N, M.  Returns an
    mpf at the caller's precision.
    """
    key = (str(s), N, M, mp.prec)
    if key in _zeta_cache:
        return _zeta_cache[key]
    with mp.workprec(mp.prec + 40):
        if isinstance(s, Fraction):
            s = mpf(s.numerator) / s.denominator
        s = mpf(s)
        if s == 1:
            raise ValueError("zeta pole at s = 1")
        total = mp.fsum(mpf(n) ** (-s) for n in range(1, N + 1))
        total += mpf(N) ** (1 - s) / (s - 1)
        total -= mpf(N) ** (-s) / 2
        rising = s  # (s)_(2i-1) = s (s+1) ... (s+2i-2)
        for i in range(1, M + 1):
            total += (bernoulli(2 * i) / mp.factorial(2 * i)) * rising \
                * mpf(N) ** (-s - 2 * i + 1)
            rising *= (s + 2 * i - 1) * (s + 2 * i)
        # remainder <= |B_(2M+2)/(2M+2)! * (s)_(2M+1) * N^(-s-2M-1)|
        rem = abs(bernoulli(2 * M + 2) / mp.factorial(2 * M + 2)
                  * rising * mpf(N) ** (-s - 2 * M - 1))
        if rem > mpf(2) ** (-mp.prec) * (abs(total) + 1):
            raise ArithmeticError("Euler-Maclaurin depth insufficient")
    _zeta_cache[key] = total
    return total


# ---------------------------------------------------------------------------
# accelerated Euler products
# ---------------------------------------------------------------------------

_SERIES_ORDER = 64
_ZETA_DEPTH = 8        # extract zeta(2)..zeta(8); residual is 1 + O(p^-9)
_GROWTH_BASE = 2.5     # |series coeff k| <= D * 2.5^k (min root modulus 1/2)


@lru_cache(maxsize=None)
def _log_series(coeffs: tuple) -> tuple:
    """Power-series log of 1 + a_1 x + ... (exact Fractions, _SERIES_ORDER)."""
    a = [Fraction(c) for c in coeffs] + [Fraction(0)] * _SERIES_ORDER
    if a[0] != 1:
        raise ValueError("local factor must have constant term 1")
    ell = [Fraction(0)] * (_SERIES_ORDER + 1)
    for k in range(1, _SERIES_ORDER + 1):
        acc = k * a[k]
        for j in range(1, k):
            acc -= j * ell[j] * a[k - j]
        ell[k] = Fraction(acc, k)
    return tuple(ell)


@dataclass(frozen=True)
class LocalFactorFn:
    """Euler local factor p -> num(1/p)/den(1/p); _accelerated_product
    bounds the tail of its product from the log series of num/den."""

    name: str
    num: tuple
    den: tuple

    def factor(self, p: int) -> Fraction:
        x = Fraction(1, p)
        num = sum(Fraction(c) * x**i for i, c in enumerate(self.num))
        den = sum(Fraction(c) * x**i for i, c in enumerate(self.den))
        return num / den


LOCAL_FACTORS = {
    # (1-x)^2 (1+2x) = 1 - 3x^2 + 2x^3
    "C": LocalFactorFn("C", (1, 0, -3, 2), (1,)),
    "C2": LocalFactorFn("C2", (1, 0, -2), (1,)),
    "Cprime": LocalFactorFn("Cprime", (1, 0, -3, 2), (1, 0, -2)),
    "sum_h_d2": LocalFactorFn("sum_h_d2", (1, 0, -1), (1, 0, -2)),
    "sum_h_d4": LocalFactorFn("sum_h_d4", (1, 0, -2, 0, 1), (1, 0, -2)),
}


@lru_cache(maxsize=None)
def _accelerated_product(lf: LocalFactorFn, target_exp: int) -> tuple:
    """prod over all primes of the local factor lf, with zeta acceleration.

    Returns (mpf value, float tail bound) computed at _WORK_PREC with the
    truncation point chosen so the tail factor is below 10^-target_exp.
    """
    with mp.workprec(_WORK_PREC):
        series = [x - y for x, y in zip(_log_series(lf.num),
                                        _log_series(lf.den))]
        if series[1] != 0:
            raise ArithmeticError("divergent product: x^1 term present")
        exponents = {}
        for k in range(2, _ZETA_DEPTH + 1):
            e_k = series[k]
            if e_k == 0:
                continue
            exponents[k] = e_k
            # subtract e_k * -log(1 - x^k) = e_k * sum_j x^(kj)/j
            for j in range(1, _SERIES_ORDER // k + 1):
                series[k * j] -= e_k / j
        # residual log-series coefficient envelope, geometric beyond the
        # computed order because every root of num/den has modulus >= 1/2
        growth = max((abs(series[k]) / Fraction(5, 2) ** k
                      for k in range(2, _SERIES_ORDER + 1) if series[k] != 0),
                     default=Fraction(0))
        # choose truncation P so sum_{p>P} |log r(p)| < 10^-target_exp
        P = 1000
        while True:
            tail = mpf(0)
            for k in range(_ZETA_DEPTH + 1, _SERIES_ORDER + 1):
                if series[k]:
                    # sum_{p>P} p^-k <= P^(1-k)/(k-1)
                    tail += abs(mpf(series[k].numerator) / series[k].denominator) \
                        * mpf(P) ** (1 - k) / (k - 1)
            tail += mpf(float(growth)) * (mpf(_GROWTH_BASE) / P) ** (_SERIES_ORDER + 1) \
                / (1 - mpf(_GROWTH_BASE) / P) * 2
            tail_factor = mp.expm1(tail)
            if tail_factor < mpf(10) ** (-target_exp) or P >= 10**7:
                break
            P *= 4
        value = mpf(1)
        for k, e_k in exponents.items():
            zk = zeta_em(k)
            value *= zk ** (mpf(e_k.numerator) / e_k.denominator)
        for p in primes_up_to(P):
            p = int(p)
            r = lf.factor(p)
            rp = mpf(r.numerator) / r.denominator
            for k, e_k in exponents.items():
                rp *= (1 - mpf(p) ** (-k)) ** (mpf(e_k.numerator) / e_k.denominator)
            value *= rp
        return value, float(tail_factor)


def _local_product(n: int, factor) -> Fraction:
    """prod over the primes p | n of the exact local factor factor(p)."""
    out = Fraction(1)
    for p in prime_factors(n):
        out *= factor(p)
    return out


def euler_product_mp(kind: str, r: int = 1, target_exp: int = 26):
    """(mpf value, tail-factor bound) for the LOCAL_FACTORS product `kind`
    over primes not dividing r, at full working precision; used directly
    where a float-rounded constant would lose too much in downstream
    cancellation."""
    lf = LOCAL_FACTORS[kind]
    with mp.workprec(_WORK_PREC):
        base, tail = _accelerated_product(lf, target_exp)
        rat = _local_product(r, lf.factor)
        return base / (mpf(rat.numerator) / rat.denominator), tail


def euler_constant(kind: str, eps: float = 1e-12, arg: int = None) -> ApproxReal:
    """Named Euler-product constants with abs_err <= eps.

    Kinds: C, C2, Cprime, C_of_q (arg=q), sum_h_d2 (arg=r), sum_h_d4 (arg=r),
    hall_factor (arg=q).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    target_exp = max(14, int(-math.log10(eps)) + 2)
    with mp.workprec(_WORK_PREC):
        if kind == "C_of_q":
            q = _require_arg(arg)
            val = 1 / zeta_em(2)
            rat = _local_product(q, lambda p: Fraction(p * p, p * p - 1))
            val *= mpf(rat.numerator) / rat.denominator
            return _to_approx(val, mpf(2) ** (60 - _WORK_PREC) * abs(val), eps, kind)
        if kind == "hall_factor":
            rat = _local_product(_require_arg(arg), lambda p: Fraction(p, p + 2))
            val = mpf(rat.numerator) / rat.denominator
            return _to_approx(val, mpf(0), eps, kind)
        if kind in ("C", "C2", "Cprime"):
            val, tail = euler_product_mp(kind, 1, target_exp)
            if kind == "C":
                val = zeta_em(Fraction(3, 2)) / mp.pi * val
            elif kind == "Cprime":
                val = zeta_em(Fraction(3, 2)) / (2 * mp.pi) * val
        elif kind in ("sum_h_d2", "sum_h_d4"):
            r = _require_arg(arg if arg is not None else 1)
            val, tail = euler_product_mp(kind, r, target_exp)
        else:
            raise ValueError(f"unknown euler_constant kind: {kind}")
        err = abs(val) * (mpf(tail) + mpf(2) ** (60 - _WORK_PREC))
        return _to_approx(val, err, eps, kind)


def _require_arg(arg) -> int:
    if arg is None or int(arg) < 1:
        raise ValueError("this kind requires a positive integer argument")
    return int(arg)


def _to_approx(val, err, eps: float, kind: str) -> ApproxReal:
    err_f = float(err) + abs(float(val)) * 2e-16
    if err_f > eps:
        raise ArithmeticError(f"cannot reach eps={eps} for kind {kind}")
    return ApproxReal(float(val), err_f)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def kappa_mu_sums(m: int) -> tuple:
    """The three sums over rho*sigma | m^2 of kappa(rho)mu(sigma) weighted by
    1/(rho sigma), 1, and sqrt(rho sigma); m squarefree.  Returns
    (Fraction, Fraction, float)."""
    m_abs = abs(m)
    if mu_of(m_abs) == 0:
        raise ValueError("kappa_mu_sums requires squarefree m")
    m2 = m_abs * m_abs
    divs = _divisors(factorize(m2).factors)
    s_recip = Fraction(0)
    s_plain = Fraction(0)
    with mp.workprec(_WORK_PREC):
        s_sqrt = mpf(0)
        for rho in divs:
            krho = kappa(rho)
            if krho == 0:
                continue
            for sigma in _divisors(factorize(m2 // rho).factors):
                msig = mu_of(sigma)
                if msig == 0:
                    continue
                term = krho * msig
                s_recip += term / (rho * sigma)
                s_plain += term
                s_sqrt += (mpf(term.numerator) / term.denominator) \
                    * mp.sqrt(rho * sigma)
        return s_recip, s_plain, float(s_sqrt)


def kappa_mu_products(m: int) -> tuple:
    """Closed product forms matching kappa_mu_sums, per prime p | m:
    (p^2-1)/p^2, (p^2-p)/(p^2-1), (p^2-p^(3/2)+p-1)/(p^2-1)."""
    m_abs = abs(m)
    p_recip = Fraction(1)
    p_plain = Fraction(1)
    with mp.workprec(_WORK_PREC):
        p_sqrt = mpf(1)
        for p in prime_factors(m_abs):
            p_recip *= Fraction(p * p - 1, p * p)
            p_plain *= Fraction(p * p - p, p * p - 1)
            p_sqrt *= (p * p - p * mp.sqrt(p) + p - 1) / (p * p - 1)
        return p_recip, p_plain, float(p_sqrt)


_H_SERIES_D = 10**4


@lru_cache(maxsize=1)
def _h_table() -> tuple:
    """(d, float d, float h(d)) over all squarefree d <= _H_SERIES_D, built
    once; h(d) multiplies its prime factors' p^2/(p^2-2) in increasing p."""
    d = squarefree_window(1, _H_SERIES_D + 1).squarefree_values()
    d_float = d.astype(np.float64)
    hv = np.ones_like(d_float)
    for p in primes_up_to(_H_SERIES_D):
        p = int(p)
        sel = (d % p) == 0
        if sel.any():
            hv[sel] *= p * p / (p * p - 2.0)
    for arr in (d, d_float, hv):
        arr.flags.writeable = False
    return d, d_float, hv


def h_series_partials(r: int) -> tuple:
    """Partial sums over squarefree d <= D = 10^4, gcd(d,r)=1 of h(d)/d^2 and
    h(d)/d^4 (floats), with rigorous tail bounds for the two full series."""
    D = _H_SERIES_D
    d, d_float, hv = _h_table()
    mask = np.gcd(d, r) == 1
    d_vals, hv = d_float[mask], hv[mask]
    s2 = float(np.sum(hv / d_vals**2))
    s4 = float(np.sum(hv / d_vals**4))
    hmax = 1.0 / euler_constant("C2", 1e-13).value
    tail2 = hmax / D
    tail4 = hmax / (3 * D**3)
    return s2, s4, tail2, tail4


def identity_suite(m_max: int, r_max: int) -> list:
    """Exact identity battery: the three kappa-mu sums against their product
    forms for squarefree m <= m_max; the two h-series against their Euler
    products for r <= r_max; and the gcd-restricted h(d)/d^2 identity."""
    if m_max < 1 or r_max < 1:
        raise ValueError("m_max and r_max must be >= 1")
    records = []
    for m in range(1, m_max + 1):
        if mu_of(m) == 0:
            continue
        s1, s2, s3 = kappa_mu_sums(m)
        q1, q2, q3 = kappa_mu_products(m)
        records.append(VerificationRecord(
            "products.kmu_recip", {"m": m}, float(s1), float(q1), 0.0,
            "assert", s1 == q1))
        records.append(VerificationRecord(
            "products.kmu_plain", {"m": m}, float(s2), float(q2), 0.0,
            "assert", s2 == q2))
        records.append(VerificationRecord.checked(
            "products.kmu_sqrt", {"m": m}, s3, q3, 1e-12 * max(1.0, abs(q3))))
    for r in range(1, r_max + 1):
        s2, s4, tail2, tail4 = h_series_partials(r)
        p2 = euler_constant("sum_h_d2", 1e-13, arg=r)
        p4 = euler_constant("sum_h_d4", 1e-13, arg=r)
        records.append(VerificationRecord.checked(
            "products.h_d2", {"r": r}, s2, p2.value, tail2 + p2.abs_err + 1e-12))
        records.append(VerificationRecord.checked(
            "products.h_d4", {"r": r}, s4, p4.value, tail4 + p4.abs_err + 1e-12))
    for r in (1, 2, 6, 30):
        bad = 0
        first_bad = 0
        for l in range(1, 10**4 + 1):
            if gq_sum(l, r) != gq_product(l, r):
                bad += 1
                if not first_bad:
                    first_bad = l
        records.append(VerificationRecord(
            "gq.exact", {"r": r, "l_max": 10**4, "first_failure": first_bad},
            float(bad), 0.0, 0.0, "assert", bad == 0))
    return records
