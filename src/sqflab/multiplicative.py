"""Multiplicative functions (h, f_q(0, m), kappa inside the kappa-mu sums),
the Gamma factors, and Euler-product constants with rigorous
truncation-error bounds.

Two infinite products over primes, C's prod (1 - 3/p^2 + 2/p^3) and
C_2 = prod (1 - 2/p^2), come from zeta-factor acceleration: the polynomial
local factor f(p) = poly(1/p) is rewritten as prod_k zeta(k)^{-e_k} times a
residual local factor r(p) = 1 + O(p^-(J+1)), so the product truncated at
the fixed P = 1000 carries a rigorous tail bound far below double
precision.  The two products and zeta(2), zeta(3/2) are the same in every
process, so they are data here: Decimal literals, with each product's tail,
that the tests hold to the derivation in tests/oracles.py.  Every other
Euler constant is an exact ratio of these: C' = C/(2 C_2),
sum h(d)/d^2 = 1/(zeta(2) C_2) and sum h(d)/d^4 = 1/(zeta(2)^2 C_2).  zeta
at other s is computed in-house by Euler-Maclaurin summation; every
extended-precision value is a Decimal in _CTX.

f_q(0, m) is an Euler constant times an exact rational, and its bar comes
from ApproxReal multiplication alone: the constant's bar, scaled, plus the
roundings of the rational and of the product.  f_q(l, m) at l != 0 is
built in bulk by asymptotics; its one-l form, like kappa(l), is a test
oracle.
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
    D, to every multiple of d^2, d = 1 by starting every l at D.  It reads only h_of, never a prime list, so
    it stays independent of gq_product, the other side of the identity."""
    _require_table_args(l_max, r)
    terms = [(d, h_of(d) / (d * d)) for d in range(1, math.isqrt(l_max) + 1)
             if math.gcd(d, r) == 1 and h_of(d)]
    D = math.lcm(*(t.denominator for _, t in terms))
    num = [D] * (l_max + 1)  # d = 1 adds h(1) = 1 to every l >= 1
    num[0] = 0
    for d, t in terms[1:]:
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

def f_q_zero(m: int, q: int) -> ApproxReal:
    """f_q(0, m) via the closed form phi(|m|q)/(|m|q) * C(|m|q)."""
    require_mq(m, q)
    mq = abs(m) * q
    return euler_constant("C_of_q", arg=mq) * Fraction(phi_of(mq), mq)


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


@lru_cache(maxsize=1)
def _prime_logs(N: int, prec: int) -> tuple:
    """(p, ln p) for the primes p <= N, ln p correctly rounded to prec."""
    return tuple((p, Decimal(p).ln(Context(prec=prec)))
                 for p in map(int, primes_up_to(N)))


@lru_cache(maxsize=None)
def zeta_em(s) -> Decimal:
    """zeta(s) for real s != 1 (s > -(2M-1)) by Euler-Maclaurin:

        zeta(s) = sum_{n<=N} n^-s + N^(1-s)/(s-1) - N^-s/2
                  + sum_{i=1..M} B_2i/(2i)! * (s)_(2i-1) * N^(-s-2i+1) + R,

    at N = _EM_N, M = _EM_M, raising unless |R| is below the working
    precision.  It sums with 12 guard digits beyond _CTX, whatever the
    caller's context.  Only the primes p <= N take a power p^-s: n^-s is
    the product of the p^-s over n's factorization, and N^(-s-k) is
    N^-s / N^k.  p^-s is Decimal's power at integer s, else exp(-s ln p)
    from a cached ln p.  Each step adds a few units of rounding in the 68th
    digit, so _CTX's 56 digits hold while the sum cancels fewer than the
    12 guard digits, about log10(N^-s / |zeta(s)|): at every s the package
    calls, but not at s = -37/8, where about 12 cancel.
    """
    N, M = _EM_N, _EM_M
    bern = _bernoulli_even(M + 1)
    with localcontext(Context(prec=_CTX.prec + 12)) as ctx:  # ~40 bits more
        s = _dec(Fraction(s))  # s: int, float, Fraction or Decimal
        if s == 1:
            raise ValueError("zeta pole at s = 1")
        if s == s.to_integral_value():
            power = {p: Decimal(p) ** -s for p in map(int, primes_up_to(N))}
        else:
            power = {p: (-s * ln).exp() for p, ln in _prime_logs(N, ctx.prec)}
        terms = [math.prod((power[p] ** e for p, e in factorize(n)),
                           start=Decimal(1)) for n in range(1, N + 1)]
        N_s = terms[-1]  # N^-s
        total = sum(terms) + N * N_s / (s - 1) - N_s / 2
        rising = s  # (s)_(2i-1) = s (s+1) ... (s+2i-2)
        for i in range(1, M + 1):
            total += _dec(bern[i] / math.factorial(2 * i)) * rising \
                * N_s / N ** (2 * i - 1)
            rising *= (s + 2 * i - 1) * (s + 2 * i)
        # remainder <= |B_(2M+2)/(2M+2)! * (s)_(2M+1) * N^(-s-2M-1)|
        rem = abs(_dec(bern[M + 1] / math.factorial(2 * M + 2))
                  * rising * N_s / N ** (2 * M + 1))
        if rem > Decimal(10) ** -ctx.prec * (abs(total) + 1):
            raise ArithmeticError("Euler-Maclaurin depth insufficient")
    return _CTX.plus(total)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

# The values every process would derive identically, in _CTX's 56 digits:
# zeta(2) and zeta(3/2) as zeta_em gives them, and the (value, tail-factor
# bound) of the zeta-accelerated products over all primes of C's local
# factor 1 - 3/p^2 + 2/p^3 and C_2's 1 - 2/p^2.  Each product extracts
# zeta(2)..zeta(8) and truncates the residual product at p <= P = 1000; its
# bound covers every p > P.  tests/oracles.py holds the derivation, and the
# tests hold these literals to it bit for bit.
_ZETA_2 = Decimal("1.6449340668482264364724151666460251892189499012067984377")
_ZETA_3_2 = Decimal("2.6123753486854883433485675679240716305708006524000634076")
_PRODUCTS = {
    "C": (Decimal("0.28674742843447873410789242212658215810208515125764604082"),
          7.011685297173803e-24),
    "C2": (Decimal("0.32263409893924467057953169257962098041720458208396296305"),
           6.666674848498695e-28),
}


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
        c2, tail = _PRODUCTS["C2"]
        at_r = _local_product(r, lambda p: Fraction(
            (p * p - 1) ** k, p ** (2 * k - 2) * (p * p - 2)))
        return 1 / (_ZETA_2 ** k * c2 * _dec(at_r)), tail


def euler_constant(kind: str, arg: int = None) -> ApproxReal:
    """Named Euler-product constants with abs_err <= MAX_ABS_ERR.

    Kinds: C, C2, Cprime, C_of_q (arg=q), sum_h_d2 (arg=r), sum_h_d4 (arg=r),
    hall_factor (arg=q).
    """
    return _to_approx(*_euler_decimal(kind, arg), kind)


@lru_cache(maxsize=1 << 10)  # bounded: one entry per (kind, arg) in use
def _euler_decimal(kind: str, arg) -> tuple:
    """(Decimal value, error bound) of euler_constant(kind, arg), before
    the MAX_ABS_ERR guard, which stays outside the cache."""
    with localcontext(_CTX):
        if kind == "C_of_q":
            q = _require_arg(arg)
            val = 1 / _ZETA_2
            val *= _dec(_local_product(q, lambda p: Fraction(p * p, p * p - 1)))
            return val, Decimal(2) ** (60 - _WORK_PREC) * abs(val)
        if kind == "hall_factor":
            rat = _local_product(_require_arg(arg), lambda p: Fraction(p, p + 2))
            return _dec(rat), 0
        if kind == "C2":
            val, tail = _PRODUCTS["C2"]
        elif kind in ("C", "Cprime"):
            val, tail = _PRODUCTS["C"]
            # C = zeta(3/2)/pi times the product, pi = sqrt(6 zeta(2))
            val *= _ZETA_3_2 / (6 * _ZETA_2).sqrt()
            if kind == "Cprime":  # C' = C / (2 C_2); relative tails compound
                c2, tail2 = _PRODUCTS["C2"]
                val /= 2 * c2
                tail = tail + tail2 + tail * tail2
        elif kind in ("sum_h_d2", "sum_h_d4"):
            r = _require_arg(arg if arg is not None else 1)
            val, tail = euler_product_mp(kind, r)
        else:
            raise ValueError(f"unknown euler_constant kind: {kind}")
        return val, abs(val) * (Decimal(tail) + Decimal(2) ** (60 - _WORK_PREC))


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
    (Fraction, Fraction, float).  rho runs over the divisors of m^2 in
    ascending order, and for each rho, sigma over the squarefree divisors
    of m^2/rho in ascending order: the products of the primes p | m with
    p^2 not dividing rho, each signed mu(sigma).  kappa(rho) is an integer
    n_rho over K = prod_{p|m} (p^2-1), built by _kappa_times_K without a
    Fraction, so the first two sums are integers over K m^2 and K;
    Decimal(int)/int is correctly rounded, so the sqrt sum's terms are the
    same Decimals as from the reduced kappa(rho)mu(sigma), added in the
    same order."""
    m_abs = abs(m)
    if mu_of(m_abs) == 0:
        raise ValueError("kappa_mu_sums requires squarefree m")
    m2 = m_abs * m_abs
    primes = prime_factors(m_abs)
    K = math.prod(p * p - 1 for p in primes)
    n_recip = n_plain = 0
    roots = {}  # rho sigma -> its Decimal sqrt; few products are distinct
    with localcontext(_CTX):
        s_sqrt = Decimal(0)
        for rho, n_rho in _kappa_times_K(primes):
            sigmas = [(1, 1)]
            for p in primes:
                if rho % (p * p):
                    sigmas += [(sigma * p, -msig) for sigma, msig in sigmas]
            for sigma, msig in sorted(sigmas):
                term, rs = n_rho * msig, rho * sigma
                n_recip += term * (m2 // rs)
                n_plain += term
                if rs not in roots:
                    roots[rs] = Decimal(rs).sqrt()
                s_sqrt += Decimal(term) / K * roots[rs]
        return Fraction(n_recip, K * m2), Fraction(n_plain, K), float(s_sqrt)


def _kappa_times_K(primes) -> list:
    """(rho, kappa(rho) K) for every divisor rho of m^2, ascending, where
    primes are those of the squarefree m and K = prod (p^2-1) over them.
    kappa(rho) K is an integer: the product over p | m of p^2-1 at p not
    dividing rho, p^2-p-1 at p || rho and p^2-p at p^2 || rho."""
    out = [(1, 1)]
    for p in primes:
        p2 = p * p
        out = [(rho * pe, n * k) for rho, n in out
               for pe, k in ((1, p2 - 1), (p, p2 - p - 1), (p2, p2 - p))]
    return sorted(out)


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
    """(d, float d, float h(d), h(d)/d^2, h(d)/d^4) over all squarefree
    d <= _H_SERIES_D, built once; h(d) multiplies its prime factors'
    p^2/(p^2-2) in increasing p, and each term is h(d) / d^k, d^k a float
    power of float d.  The primes up to sqrt(D) go in by one strided
    multiply each, and all larger ones by one indexed multiply after them."""
    d = 1 + np.flatnonzero(squarefree_window(1, _H_SERIES_D + 1))
    h = np.ones(_H_SERIES_D + 1)
    primes = primes_up_to(_H_SERIES_D).astype(np.int64)
    small = primes <= math.isqrt(_H_SERIES_D)
    for p in primes[small].tolist():
        h[p::p] *= p * p / (p * p - 2.0)
    # d <= D has at most one prime above sqrt(D), its largest: each d takes
    # that factor last, and no index repeats in one fancy-indexed multiply
    big = primes[~small]
    hits = _H_SERIES_D // big
    i = np.repeat(np.arange(big.size), hits)
    multiple = np.arange(i.size) - (np.cumsum(hits) - hits)[i] + 1
    big2 = big * big
    h[big[i] * multiple] *= (big2 / (big2 - 2.0))[i]
    d_float, hv = d.astype(np.float64), h[d]
    table = d, d_float, hv, hv / d_float**2, hv / d_float**4
    for arr in table:
        arr.flags.writeable = False
    return table


def h_series_partials(r: int) -> tuple:
    """Partial sums over squarefree d <= D = 10^4, gcd(d,r)=1 of h(d)/d^2 and
    h(d)/d^4 (floats), with rigorous tail bounds for the two full series.
    The terms come from _h_table, kept where no prime of r divides d, and
    each sum is one np.sum over them in increasing d."""
    D = _H_SERIES_D
    d, _, _, t2, t4 = _h_table()
    coprime = np.ones(D + 1, dtype=bool)
    for p in prime_factors(r):
        coprime[::p] = False
    mask = coprime[d]
    s2 = float(np.sum(t2[mask]))
    s4 = float(np.sum(t4[mask]))
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
    when num[l] * den[l] == D * num'[l] in integers, read as num[l] == D
    where the product table holds 1/1.  The sum table is the literal
    divisor sum and the product table the literal Euler product, so a
    fault in one side cannot hide in the other.  A "gq.exact" record counts
    the failing l and names the smallest as first_failure (0 if none)."""
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
        # most l have no coprime p^2 | l, and there the products are 1 / 1
        bad = [l for l in range(1, l_max + 1)
               if (sum_num[l] != D if prod_num[l] == prod_den[l] == 1
                   else sum_num[l] * prod_den[l] != D * prod_num[l])]
        del sum_num, prod_num, prod_den  # one r's big-int lists at a time
        records.append(VerificationRecord(
            "gq.exact", {"r": r, "l_max": l_max,
                         "first_failure": bad[0] if bad else 0},
            float(len(bad)), 0.0, 0.0, "assert", not bad))
    return records
