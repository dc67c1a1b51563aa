"""Multiplicative functions (kappa, h, f_q), the Gamma factors, and
Euler-product constants with rigorous truncation-error bounds.

Two infinite products over primes are evaluated by zeta-factor
acceleration, C's prod (1 - 3/p^2 + 2/p^3) and C_2 = prod (1 - 2/p^2): the
polynomial local factor f(p) = poly(1/p) is rewritten as
prod_k zeta(k)^{-e_k} times a residual local factor r(p) = 1 + O(p^-(J+1)),
so the product truncated at the fixed P = 1000 carries a rigorous tail
bound far below double precision.  Every other Euler constant is an exact
ratio of these two and zeta(2): C' = C/(2 C_2), sum h(d)/d^2 =
1/(zeta(2) C_2) and sum h(d)/d^4 = 1/(zeta(2)^2 C_2).  zeta itself is
computed in-house by Euler-Maclaurin summation; every extended-precision
value is a Decimal in _CTX.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import (factorize, mu_of, phi_of, prime_factors, primes_up_to,
                    require_mq, squarefree_window)
from .records import ApproxReal, VerificationRecord

_WORK_PREC = 180  # bits; leaves ~40 guard digits below MAX_ABS_ERR
_CTX = Context(prec=56)  # 56 digits carry at least _WORK_PREC bits
MAX_ABS_ERR = 1e-13  # a constant or G value whose error bound exceeds this raises
_EM_N, _EM_M = 128, 24  # zeta_em: terms summed directly, Bernoulli corrections


def _dec(f: Fraction) -> Decimal:
    """f rounded to a Decimal in the current context."""
    return Decimal(f.numerator) / f.denominator


# ---------------------------------------------------------------------------
# basic multiplicative functions (exact rationals)
# ---------------------------------------------------------------------------

def kappa(l: int) -> Fraction:
    """Multiplicative: (p^2-p-1)/(p^2-1) at p, (p^2-p)/(p^2-1) at p^2,
    0 at p^alpha for alpha >= 3; kappa(1) = 1."""
    if l < 1:
        raise ValueError("kappa requires l >= 1")
    out = Fraction(1)
    for p, e in factorize(l):
        if e == 1:
            out *= Fraction(p * p - p - 1, p * p - 1)
        elif e == 2:
            out *= Fraction(p * p - p, p * p - 1)
        else:
            return Fraction(0)
    return out


@lru_cache(maxsize=1 << 14)  # bounded: G_of's head reads d <= ceil(sqrt(Y))
def h_of(d: int) -> Fraction:
    """h(d) = mu^2(d) * prod_{p|d} (1 - 2/p^2)^(-1), exact."""
    if d < 1:
        raise ValueError("h_of requires d >= 1")
    out = Fraction(1)
    for p, e in factorize(d):
        if e > 1:
            return Fraction(0)
        out *= Fraction(p * p, p * p - 2)
    return out


def gq_sum(l_max: int, r: int) -> tuple:
    """Table of sum over d with d^2 | l, gcd(d,r)=1 of h(d)/d^2 for
    l = 1..l_max, exact: returns (D, num) with value num[l]/D (num[0] is
    unused).  Built in the dual order: each d <= isqrt(l_max) with
    gcd(d,r)=1 and h(d) != 0 adds h(d)/d^2, scaled to the common denominator
    D, to every multiple of d^2.  It reads only h_of, never a prime list, so
    it stays independent of gq_product, the other side of the identity."""
    _require_table_args(l_max, r)
    terms = [(d, h_of(d) / (d * d)) for d in range(1, math.isqrt(l_max) + 1)
             if math.gcd(d, r) == 1 and h_of(d)]
    D = math.lcm(*(t.denominator for _, t in terms))
    num = [0] * (l_max + 1)
    for d, t in terms:
        c = t.numerator * (D // t.denominator)
        for l in range(d * d, l_max + 1, d * d):
            num[l] += c
    return D, num


def gq_product(l_max: int, r: int) -> tuple:
    """Table of prod over p with p^2 | l, p not dividing r of
    (p^2-1)/(p^2-2) for l = 1..l_max, exact: returns (num, den) with value
    num[l]/den[l] (index 0 is unused).  Each prime p <= isqrt(l_max) with
    p not dividing r multiplies its factor into every multiple of p^2.  It
    walks primes_up_to and never h(d) or square divisors, so it stays
    independent of gq_sum, the other side of the identity."""
    _require_table_args(l_max, r)
    num = [1] * (l_max + 1)
    den = [1] * (l_max + 1)
    for p in primes_up_to(math.isqrt(l_max)).tolist():
        if r % p:
            p2 = p * p
            for l in range(p2, l_max + 1, p2):
                num[l] *= p2 - 1
                den[l] *= p2 - 2
    return num, den


def _require_table_args(l_max: int, r: int) -> None:
    if l_max < 1 or r == 0:
        raise ValueError("gq tables require l_max >= 1 and nonzero r")


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
    if any(e > 1 for _, e in fac):
        raise ValueError("gamma_ar is only defined here for squarefree m")
    with localcontext(_CTX):
        out = Decimal(1)
        for p, _ in fac:
            sp = Decimal(p).sqrt()
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
    for p, e in factorize(abs(l)):
        if e >= 2 and m_abs % p != 0 and q % p != 0:
            out *= Fraction(p * p - 1, p * p - 2)
    return out


def f_q_of(l: int, m: int, q: int) -> ApproxReal:
    """f_q(l, m) for l != 0: C_2 times an exact rational local product;
    the error bound comes only from the C_2 truncation."""
    rat = f_q_rational_part(l, m, q)
    c2 = euler_constant("C2")
    val = c2.value * float(rat)
    err = c2.abs_err * float(abs(rat)) + abs(val) * 1e-15
    return ApproxReal(val, err)


def f_q_zero(m: int, q: int) -> ApproxReal:
    """f_q(0, m) via the closed form phi(|m|q)/(|m|q) * C(|m|q)."""
    require_mq(m, q)
    mq = abs(m) * q
    rat = Fraction(phi_of(mq), mq)
    c = euler_constant("C_of_q", arg=mq)
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

@lru_cache(maxsize=None)
def _bernoulli_even(n: int) -> tuple:
    """(B_0, B_2, ..., B_2n) as exact Fractions, B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1)), from the tangent numbers T_k by Brent-Harvey."""
    t = [0] + [math.factorial(k - 1) for k in range(1, n + 1)]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return (Fraction(1),) + tuple(
        Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
        for k in range(1, n + 1))


@lru_cache(maxsize=None)
def zeta_em(s) -> Decimal:
    """zeta(s) for real s != 1 (s > -(2M-1)) by Euler-Maclaurin:

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{i=1..M} B_2i/(2i)! * (s)_(2i-1) * N^(-s-2i+1) + R,

    at N = _EM_N, M = _EM_M, raising unless |R| is below the working
    precision.  It sums with 12 guard digits beyond _CTX, whatever the
    caller's context.
    """
    N, M = _EM_N, _EM_M
    bern = _bernoulli_even(M + 1)
    with localcontext(Context(prec=_CTX.prec + 12)) as ctx:  # ~40 bits more
        s = _dec(Fraction(s))  # s: int, float, Fraction or Decimal
        if s == 1:
            raise ValueError("zeta pole at s = 1")
        total = sum(Decimal(n) ** -s for n in range(1, N + 1)) \
            + Decimal(N) ** (1 - s) / (s - 1) - Decimal(N) ** -s / 2
        rising = s  # (s)_(2i-1) = s (s+1) ... (s+2i-2)
        for i in range(1, M + 1):
            total += _dec(bern[i] / math.factorial(2 * i)) * rising \
                * Decimal(N) ** (-s - 2 * i + 1)
            rising *= (s + 2 * i - 1) * (s + 2 * i)
        # remainder <= |B_(2M+2)/(2M+2)! * (s)_(2M+1) * N^(-s-2M-1)|
        rem = abs(_dec(bern[M + 1] / math.factorial(2 * M + 2))
                  * rising * Decimal(N) ** (-s - 2 * M - 1))
        if rem > Decimal(10) ** -ctx.prec * (abs(total) + 1):
            raise ArithmeticError("Euler-Maclaurin depth insufficient")
    return _CTX.plus(total)


# ---------------------------------------------------------------------------
# accelerated Euler products
# ---------------------------------------------------------------------------

_SERIES_ORDER = 64
_ZETA_DEPTH = 8        # extract zeta(2)..zeta(8); residual is 1 + O(p^-9)
_EULER_P = 1000        # truncation point of every accelerated product


@lru_cache(maxsize=None)
def _log_series(coeffs: tuple) -> tuple:
    """Power-series log of 1 + a_1 x + ... with integer a_i (exact
    Fractions, _SERIES_ORDER).  With s_k = k * [x^k] log, the Newton
    recurrence s_k = k a_k - sum_{j>=1} a_j s_(k-j) stays in the integers."""
    if any(not isinstance(c, int) for c in coeffs):
        raise ValueError("local factor coefficients must be integers")
    if not coeffs or coeffs[0] != 1:
        raise ValueError("local factor must have constant term 1")
    n = len(coeffs)
    s = [0] * (_SERIES_ORDER + 1)
    for k in range(1, _SERIES_ORDER + 1):
        s[k] = (k * coeffs[k] if k < n else 0) \
            - sum(coeffs[j] * s[k - j] for j in range(1, min(k, n)))
    return (Fraction(0),) + tuple(Fraction(s[k], k)
                                  for k in range(1, _SERIES_ORDER + 1))


# local factors f(p) = sum_i c_i p^-i as coefficients in x = 1/p; the tail
# bound of _accelerated_product needs every root in x of modulus >= 1/2
LOCAL_FACTORS = {
    "C": (1, 0, -3, 2),  # (1-x)^2 (1+2x)
    "C2": (1, 0, -2),
}


def _local_factor(coeffs: tuple, p: int) -> Fraction:
    """sum_i c_i p^-i, by integer Horner as an integer over p^deg."""
    num = 0
    for c in coeffs:
        num = num * p + c
    return Fraction(num, p ** (len(coeffs) - 1))


@lru_cache(maxsize=None)
def _accelerated_product(coeffs: tuple) -> tuple:
    """prod over all primes of the local factor with coefficients coeffs,
    with zeta acceleration.

    Returns (Decimal value, float tail bound) computed in _CTX with the
    product truncated at p <= _EULER_P; the bound covers every p > _EULER_P.
    """
    with localcontext(_CTX):
        series = list(_log_series(coeffs))
        if series[1] != 0:
            raise ArithmeticError("divergent product: x^1 term present")
        exponents = {}
        for k in range(2, _ZETA_DEPTH + 1):
            e_k = series[k]
            if e_k == 0:
                continue
            exponents[k] = _dec(e_k)
            # subtract e_k * -log(1 - x^k) = e_k * sum_j x^(kj)/j
            for j in range(1, _SERIES_ORDER // k + 1):
                series[k * j] -= e_k / j
        # bound sum_{p>P} |log r(p)| by sum_{p>P} p^-k <= P^(1-k)/(k-1)
        P = _EULER_P
        tail = sum(abs(_dec(series[k])) * Decimal(P) ** (1 - k) / (k - 1)
                   for k in range(_ZETA_DEPTH + 1, _SERIES_ORDER + 1))
        # past _SERIES_ORDER: roots of modulus >= 1/2 give |series[k]| <=
        # (deg 2^k + E)/k, E = sum_j j |e_j| from the extracted zeta factors;
        # the terms over k >= K fall by a ratio of at most 2/P
        K = _SERIES_ORDER + 1
        E = sum(k * abs(e_k) for k, e_k in exponents.items())
        tail += ((len(coeffs) - 1) * Decimal(2) ** K + E) \
            * Decimal(P) ** (1 - K) / (K * (K - 1)) / (1 - Decimal(2) / P)
        primes = primes_up_to(P).tolist()
        value = Decimal(1)
        for k, e_k in exponents.items():  # (zeta(k) prod_{p<=P} (1-p^-k))^e_k
            zk = zeta_em(k)
            for p in primes:
                zk *= 1 - Decimal(p) ** -k
            value *= zk ** e_k
        for p in primes:
            value *= _dec(_local_factor(coeffs, p))
        return value, float(tail.exp() - 1)


def _local_product(n: int, factor) -> Fraction:
    """prod over the primes p | n of the exact local factor factor(p)."""
    out = Fraction(1)
    for p in prime_factors(n):
        out *= factor(p)
    return out


def euler_product_mp(kind: str, r: int = 1):
    """(Decimal value, float tail-factor bound) of sum_{(d,r)=1} h(d)/d^(2k),
    k = 1 (sum_h_d2) or 2 (sum_h_d4): 1/(zeta(2)^k C_2) over the local
    factors (p^2-1)^k/(p^(2k-2)(p^2-2)) at p | r, with C_2's tail, at full
    working precision for downstream cancellation."""
    k = {"sum_h_d2": 1, "sum_h_d4": 2}.get(kind)
    if k is None:
        raise ValueError(f"euler_product_mp has no kind {kind!r}")
    with localcontext(_CTX):
        c2, tail = _accelerated_product(LOCAL_FACTORS["C2"])
        at_r = _local_product(r, lambda p: Fraction(
            (p * p - 1) ** k, p ** (2 * k - 2) * (p * p - 2)))
        return 1 / (zeta_em(2) ** k * c2 * _dec(at_r)), tail


def euler_constant(kind: str, arg: int = None) -> ApproxReal:
    """Named Euler-product constants with abs_err <= MAX_ABS_ERR.

    Kinds: C, C2, Cprime, C_of_q (arg=q), sum_h_d2 (arg=r), sum_h_d4 (arg=r),
    hall_factor (arg=q).
    """
    with localcontext(_CTX):
        if kind == "C_of_q":
            q = _require_arg(arg)
            val = 1 / zeta_em(2)
            val *= _dec(_local_product(q, lambda p: Fraction(p * p, p * p - 1)))
            return _to_approx(val, Decimal(2) ** (60 - _WORK_PREC) * abs(val), kind)
        if kind == "hall_factor":
            rat = _local_product(_require_arg(arg), lambda p: Fraction(p, p + 2))
            return _to_approx(_dec(rat), 0, kind)
        if kind == "C2":
            val, tail = _accelerated_product(LOCAL_FACTORS["C2"])
        elif kind in ("C", "Cprime"):
            val, tail = _accelerated_product(LOCAL_FACTORS["C"])
            # C = zeta(3/2)/pi times the product, pi = sqrt(6 zeta(2))
            val *= zeta_em(Fraction(3, 2)) / (6 * zeta_em(2)).sqrt()
            if kind == "Cprime":  # C' = C / (2 C_2); relative tails compound
                c2, tail2 = _accelerated_product(LOCAL_FACTORS["C2"])
                val /= 2 * c2
                tail = tail + tail2 + tail * tail2
        elif kind in ("sum_h_d2", "sum_h_d4"):
            r = _require_arg(arg if arg is not None else 1)
            val, tail = euler_product_mp(kind, r)
        else:
            raise ValueError(f"unknown euler_constant kind: {kind}")
        err = abs(val) * (Decimal(tail) + Decimal(2) ** (60 - _WORK_PREC))
        return _to_approx(val, err, kind)


def _require_arg(arg) -> int:
    if arg is None or int(arg) < 1:
        raise ValueError("this kind requires a positive integer argument")
    return int(arg)


def _to_approx(val, err, kind: str) -> ApproxReal:
    err_f = float(err) + abs(float(val)) * 2e-16
    if err_f > MAX_ABS_ERR:
        raise ArithmeticError(
            f"{kind} error bound {err_f} exceeds {MAX_ABS_ERR}")
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
    divs = _divisors(factorize(m2))
    s_recip = Fraction(0)
    s_plain = Fraction(0)
    with localcontext(_CTX):
        s_sqrt = Decimal(0)
        for rho in divs:
            krho = kappa(rho)
            if krho == 0:
                continue
            for sigma in _divisors(factorize(m2 // rho)):
                msig = mu_of(sigma)
                if msig == 0:
                    continue
                term = krho * msig
                s_recip += term / (rho * sigma)
                s_plain += term
                s_sqrt += _dec(term) * Decimal(rho * sigma).sqrt()
        return s_recip, s_plain, float(s_sqrt)


def kappa_mu_products(m: int) -> tuple:
    """Closed product forms matching kappa_mu_sums, per prime p | m:
    (p^2-1)/p^2, (p^2-p)/(p^2-1), (p^2-p^(3/2)+p-1)/(p^2-1)."""
    m_abs = abs(m)
    p_recip = Fraction(1)
    p_plain = Fraction(1)
    with localcontext(_CTX):
        p_sqrt = Decimal(1)
        for p in prime_factors(m_abs):
            p_recip *= Fraction(p * p - 1, p * p)
            p_plain *= Fraction(p * p - p, p * p - 1)
            p_sqrt *= (p * p - p * Decimal(p).sqrt() + p - 1) / (p * p - 1)
        return p_recip, p_plain, float(p_sqrt)


_H_SERIES_D = 10**4


@lru_cache(maxsize=1)
def _h_table() -> tuple:
    """(d, float d, float h(d)) over all squarefree d <= _H_SERIES_D, built
    once; h(d) multiplies its prime factors' p^2/(p^2-2) in increasing p."""
    d = 1 + np.flatnonzero(squarefree_window(1, _H_SERIES_D + 1))
    h = np.ones(_H_SERIES_D + 1)
    for p in primes_up_to(_H_SERIES_D).tolist():
        h[p::p] *= p * p / (p * p - 2.0)
    d_float, hv = d.astype(np.float64), h[d]
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
    hmax = 1.0 / euler_constant("C2").value
    tail2 = hmax / D
    tail4 = hmax / (3 * D**3)
    return s2, s4, tail2, tail4


def identity_suite(m_max: int, r_max: int) -> list:
    """Exact identity battery: the three kappa-mu sums against their product
    forms for squarefree m <= m_max; the two h-series against their Euler
    products for r <= r_max; and the gcd-restricted h(d)/d^2 identity.

    The last is checked for r in (1, 2, 6, 30) at every l <= 10^4, squarefree
    l included, from one gq_sum and one gq_product table per r: l passes
    when num[l] * den[l] == D * num'[l] in integers.  The sum table is the
    literal divisor sum and the product table the literal Euler product, so
    a fault in one side cannot hide in the other.  A "gq.exact" record
    counts the failing l and names the smallest as first_failure (0 if
    none)."""
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
        p2 = euler_constant("sum_h_d2", arg=r)
        p4 = euler_constant("sum_h_d4", arg=r)
        records.append(VerificationRecord.checked(
            "products.h_d2", {"r": r}, s2, p2.value, tail2 + p2.abs_err + 1e-12))
        records.append(VerificationRecord.checked(
            "products.h_d4", {"r": r}, s4, p4.value, tail4 + p4.abs_err + 1e-12))
    l_max = 10**4
    for r in (1, 2, 6, 30):
        D, sum_num = gq_sum(l_max, r)
        prod_num, prod_den = gq_product(l_max, r)
        bad = [l for l in range(1, l_max + 1)
               if sum_num[l] * prod_den[l] != D * prod_num[l]]
        del sum_num, prod_num, prod_den  # one r's big-int lists at a time
        records.append(VerificationRecord(
            "gq.exact", {"r": r, "l_max": l_max,
                         "first_failure": bad[0] if bad else 0},
            float(len(bad)), 0.0, 0.0, "assert", not bad))
    return records
