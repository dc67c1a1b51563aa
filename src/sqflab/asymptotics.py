"""Sawtooth integrals, G(Y,r), the weighted sum frakS[m](Y,q), the interval
sum A[m](X,q), and the closed-form main terms they are compared against.

Each quantity has an exact computation path (direct summation over the
defining formula) and a closed-form path; the difference is the remainder
the tests calibrate and enforce.  The closed forms implemented here are the
ones that make the exact/decomposition identities hold to float precision;
where a printed source formula disagrees with its own downstream algebra,
the exact oracle decides.

G(Y,r) is an exact head over d <= ceil(sqrt(Y)) plus a closed-form tail;
the head reads h(d), h(d)/d^2 and h(d)/d^4 as Decimals from a bounded
cache.  A_formula is the S_main of theorem_main_terms, so the main-term
closed form exists once.

frakS_exact and A_exact share one builder, _f_weighted_sum: f_q(l, m) and
the weights are built at most _SUM_BLOCK values of l at a time, and the
products are added leaf by leaf in np.sum's own pairwise order over the
full length, so the float is that of one np.sum and the memory does not
grow with X.  Within a leaf every l takes its factors in one fixed order:
the kappa slices, then the factor of each coprime p^2 | l in ascending p,
those past the sieve wheel's p <= 7 from one np.multiply.at, whose hits
are indexed in a fixed number of numpy calls.  A leaf's l is one cached
float64 arange plus its first l.  A_exact's lengths go region by region of
l, each region taking only the float operations of the clip formula whose
results it reads, so they are that formula's floats bit for bit; a leaf
whose lengths are all +0.0 (past l q = m X at m > 0) is not built.  The
error bars of both sums come from ApproxReal arithmetic on C_2, f_q(0, m)
and the float sum, which carries a relative bar of its own (its terms are
nonnegative).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .arith import phi_of, prime_factors, primes_up_to, require_mq
from .multiplicative import (MAX_ABS_ERR, _CTX, _WORK_PREC, _dec,
                             _local_product, euler_constant, euler_product_mp,
                             f_q_zero, gamma_an, gamma_ar, h_of, zeta_em)
from .records import _SUM_BLOCK, ApproxReal, _block_sum


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------

def psi_mellin_integral(X: float, s: float) -> ApproxReal:
    """integral_0^X psi(v) v^(-s/2) dv, psi(v) = floor(v) - v + 1/2 the
    balanced sawtooth, by exact per-interval antiderivatives; converges to
    zeta(s/2-1)/(s/2-1) with remainder O(X^(-s/2))."""
    if not (0 < s < 2):
        raise ValueError("require 0 < s < 2")
    if X <= 1:
        raise ValueError("require X > 1")
    a = 1 - s / 2
    b = 2 - s / 2
    N = int(math.floor(X))
    # [0,1): psi(v) = 1/2 - v; then [n, n+1) for 1 <= n < N, on which
    # psi(v) = n + 1/2 - v: _SUM_BLOCK values of n at a time, summed exactly
    total, abs_total = Fraction(0.5 / a - 1.0 / b), Fraction(0.5 / a + 1.0 / b)
    for lo in range(1, N, _SUM_BLOCK):
        n = np.arange(lo, min(lo + _SUM_BLOCK, N), dtype=np.float64)
        da = n ** a * np.expm1(a * np.log1p(1.0 / n))
        db = n ** b * np.expm1(b * np.log1p(1.0 / n))
        total += _block_sum((n + 0.5) * da / a - db / b)
        abs_total += _block_sum((n + 0.5) * da / a + db / b)
    if X > N:
        da = X ** a - N ** a
        db = X ** b - N ** b
        total += Fraction((N + 0.5) * da / a - db / b)
        abs_total += Fraction(abs((N + 0.5) * da / a) + abs(db / b))
    value = float(total)
    return ApproxReal(value, float(abs_total) * 2e-16 + abs(value) * 1e-16)


# zeta(s/2 - 1) at the s = 1/2, 1, 3/2 of the verify suite, as zeta_em gives
# them in _CTX's 56 digits; the tests hold each literal to zeta_em.
_ZETA_AT = {
    Fraction(-3, 4):
        Decimal("-0.13364277443658456240761443736798310818310470577700792483"),
    Fraction(-1, 2):
        Decimal("-0.20788622497735456601730672539704930222626853128767253761"),
    Fraction(-1, 4):
        Decimal("-0.32045126422857728279044449305487246970591083908511093271"),
}


def psi_mellin_limit(s: float) -> float:
    """zeta(s/2-1)/(s/2-1), the X -> infinity limit of the integral: zeta
    from the _ZETA_AT literals where they hold it, else from zeta_em."""
    if not (0 < s < 2):
        raise ValueError("require 0 < s < 2")
    a = Fraction(s) / 2 - 1
    zeta = _ZETA_AT[a] if a in _ZETA_AT else zeta_em(a)
    return float(Fraction(zeta) / a)


# ---------------------------------------------------------------------------
# G(Y, r)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1 << 14)  # bounded like h_of's
def _h_terms(d: int):
    """h(d), h(d)/d^2 and h(d)/d^4 as Decimals in _CTX, or None where
    h(d) = 0."""
    h = h_of(d)
    if h == 0:
        return None
    with localcontext(_CTX):
        hm = _dec(h)
        return hm, hm / d ** 2, hm / d ** 4


def G_of(Y: float, r: int) -> ApproxReal:
    """G(Y,r) = sum over (d,r)=1 of h(d) Psi_1(Y/d^2): an exact head d <= D,
    the least D with D^2 >= Y, plus the d > D tail, where Psi_1(Y/d^2) =
    Y/(2d^2) - Y^2/(2d^4) exactly, summed in closed form (the sum_h_d2 /
    sum_h_d4 Euler products minus their partial sums)."""
    if Y <= 0:
        raise ValueError("require Y > 0")
    if r < 1:
        raise ValueError("require r >= 1")
    D = math.isqrt(math.ceil(Y) - 1) + 1
    with localcontext(_CTX):
        Ym = Decimal(Y)
        head = p2 = p4 = Decimal(0)  # p2, p4: partial sums of h(d)/d^2, /d^4
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1 or (terms := _h_terms(d)) is None:
                continue
            hm, hm2, hm4 = terms
            frac = Ym / (d * d) % 1  # Psi_1 = ({x} - {x}^2)/2
            head += hm * ((frac - frac * frac) / 2)
            p2 += hm2
            p4 += hm4
        H2, t2 = euler_product_mp("sum_h_d2", r)
        H4, t4 = euler_product_mp("sum_h_d4", r)
        tail = Ym / 2 * (H2 - p2) - Ym * Ym / 2 * (H4 - p4)
        value = head + tail
        err = float(Ym / 2 * H2 * Decimal(t2) + Ym * Ym / 2 * H4 * Decimal(t4)
                    + (abs(value) + Ym * Ym) * Decimal(2) ** (40 - _WORK_PREC))
        if err > MAX_ABS_ERR:
            raise ArithmeticError(f"G tail bound {err} exceeds {MAX_ABS_ERR}")
        return ApproxReal(float(value), err)


def G_main_term(Y: float, r: int) -> ApproxReal:
    """C' prod_{p|r} (1 + p/(p^2-2))^(-1) sqrt(Y)."""
    cp = euler_constant("Cprime")
    rat = _local_product(r, lambda p: Fraction(p * p - 2, p * p + p - 2))
    scale = float(rat) * math.sqrt(Y)
    return ApproxReal(cp.value * scale, cp.abs_err * scale + abs(cp.value) * scale * 1e-15)


# ---------------------------------------------------------------------------
# frakS[m](Y, q)
# ---------------------------------------------------------------------------

def _pairwise_sum(leaf, lo: int, k: int) -> float:
    """np.sum of the float64 terms lo, ..., lo + k - 1, bit for bit, where
    leaf(a, b) returns terms a, ..., b - 1 as an array.  np.sum adds k
    terms in a fixed pairwise tree: it splits them at k//2 rounded down to
    a multiple of 8 until a piece has at most 128.  Splitting the same way
    down to pieces of at most _SUM_BLOCK (>= 128) terms and summing each
    with np.sum builds the same float from one leaf at a time."""
    if k <= _SUM_BLOCK:
        return float(np.sum(leaf(lo, lo + k)))
    k2 = k // 2 - k // 2 % 8
    return _pairwise_sum(leaf, lo, k2) + _pairwise_sum(leaf, lo + k2, k - k2)


@functools.cache
def _float_arange(n: int) -> np.ndarray:
    """Read-only float64 0, 1, ..., n - 1: a leaf's l is a slice of it plus
    float(lo), exact below 2^53."""
    a = np.arange(n, dtype=np.float64)
    a.flags.writeable = False
    return a


def _f_weighted_sum(n: int, m: int, q: int, weight, end=None) -> ApproxReal:
    """sum over 0 < l < n of f_q(l, m)/C_2 weight(l), weight mapping a leaf's
    consecutive l as float64, which it may overwrite, to their nonnegative
    weights.  Given end, every weight from l = end on must be +0.0: a leaf
    that starts there builds neither f nor weights and returns its +0.0
    products.  Each f is the constant m,q factor times the kappa(gcd(l,
    m^2)) slices and the (p^2-1)/(p^2-2) factors at p^2 | l, p coprime to
    mq, applied in that order with p ascending, so no value depends on the
    leaf holding it.  The
    kappa slices and the p^2 of the sieve wheel's p <= 7 are strided
    multiplies; every larger p^2's hits in the leaf are indexed at once and
    go in by one unbuffered np.multiply.at, grouped by ascending p, so an l
    with two such p^2 takes both, smaller p first.  A leaf holds at most
    _SUM_BLOCK values, and _pairwise_sum adds the n products as one np.sum
    would.  As they are nonnegative, the sum's rounding is bounded relative
    to it."""
    end = n if end is None else end
    m_abs = abs(m)
    const = 1.0
    for p in prime_factors(m_abs):
        const *= (p * p - 1) / (p * p - 2)
    for p in prime_factors(q):
        const *= (p * p - p) / (p * p - 2)
    slices = []  # (step, factor) in the order they apply
    for p in prime_factors(m_abs):
        k1 = (p * p - p - 1) / (p * p - 1)
        k2 = (p * p - p) / (p * p - 1)
        slices += [(p, k1), (p * p, k2 / k1)]
    coprime = [p * p for p in map(int, primes_up_to(math.isqrt(n - 1)))
               if m_abs % p and q % p]
    # 4, 9, 25 and 49 (the sieve wheel's) by strides, the rest by hits
    slices += [(p2, (p2 - 1) / (p2 - 2)) for p2 in coprime if p2 <= 49]
    big = np.array([p2 for p2 in coprime if p2 > 49], dtype=np.int64)
    big_factor = (big - 1) / (big - 2)  # the floats Python int / int gives

    def leaf(lo, hi):
        if lo >= end:  # its products are all +0.0
            return np.zeros(hi - lo)
        f = np.full(hi - lo, const, dtype=np.float64)
        if lo == 0:
            f[0] = 0.0  # l = 0 enters through f_q_zero
        for step, factor in slices:
            if step < hi:
                f[-lo % step::step] *= factor
        first = -lo % big
        hits = (hi - lo - 1 - first) // big + 1  # 0 where p^2 misses the leaf
        i = np.repeat(np.arange(big.size), hits)  # each hit's p, ascending
        kth = np.arange(i.size) - (np.cumsum(hits) - hits)[i]
        np.multiply.at(f, first[i] + kth * big[i], big_factor[i])
        l = np.add(_float_arange(_SUM_BLOCK)[:hi - lo], float(lo))
        return np.multiply(f, weight(l), out=f)

    total = _pairwise_sum(leaf, 0, n)
    return ApproxReal(total, total * 2e-14)


def frakS_exact(Y: float, q: int, m: int) -> ApproxReal:
    """frakS[m](Y,q) = sum_{0 < l <= Y} f_q(l,m) (Y - l), by direct
    summation of the vectorized f_q values."""
    require_mq(m, q)
    if Y <= 0:
        raise ValueError("require Y > 0")
    N = int(math.floor(Y))
    if N < 1:
        return ApproxReal(0.0, 0.0)
    return euler_constant("C2") * _f_weighted_sum(
        N + 1, m, q, lambda l: np.subtract(Y, l, out=l))


@dataclass(frozen=True)
class MainTermBreakdown:
    """Closed-form coefficients: value(Y) = quadratic Y^2 - linear Y
    + half_power sqrt(Y)."""

    quadratic: ApproxReal
    linear: ApproxReal
    half_power: ApproxReal

    def at(self, Y: float) -> float:
        return (self.quadratic.value * Y * Y - self.linear.value * Y
                + self.half_power.value * math.sqrt(Y))


def frakS_formula(q: int, m: int) -> MainTermBreakdown:
    """Main-term coefficients for frakS[m](Y,q):
    (1/2)(phi(q)/q) C(q)^2, (1/2)(phi(|m|q)/(|m|q)) C(|m|q) (entering with a
    minus sign), and (C/2) Gamma_ar(m) prod_{p|q}(1+2/p)^(-1).  The halves
    on the polynomial coefficients are forced by the exact oracle: they are
    what the decomposition identity and the remainder scaling require.
    gamma_ar rejects m that is not squarefree."""
    require_mq(m, q)
    cq = euler_constant("C_of_q", arg=q)
    quadratic = cq * cq * Fraction(phi_of(q), 2 * q)
    linear = f_q_zero(m, q) * 0.5
    c_half = euler_constant("C") * 0.5
    hall = euler_constant("hall_factor", arg=q)
    half_power = c_half * gamma_ar(m) * hall
    return MainTermBreakdown(quadratic, linear, half_power)


# ---------------------------------------------------------------------------
# A[m](X, q)
# ---------------------------------------------------------------------------

def _first(pred, guess: int, start: int, stop: int) -> int:
    """The least l in [start, stop) with pred(l), or stop if none, for a
    pred that is false and then true there: stepped to from guess, which
    exact arithmetic puts on it or a step away."""
    l = min(max(guess, start), stop)
    while l > start and pred(l - 1):
        l -= 1
    while l < stop and not pred(l):
        l += 1
    return l


def _interval_lengths(X: float, q: int, m: int, n: int):
    """(lengths, end) for A_exact: lengths maps a float64 array of
    consecutive l, 0 <= l < n, in place to |I(l)| + |I(-l)|, and every
    length from l = end on is +0.0.  The floats are those of the clip
    formula over every l, with lq the float l q: at m > 0
    clip((X - lq)/m, 0, X) + clip(min(X, (X + lq)/m) - lq/m, 0, None),
    and at m < 0, mu = -m,
    clip(min(X, lq/mu) - max(0, (lq - X)/mu), 0, None).
    In each region of l every clip, minimum and maximum returns an input
    known beforehand, so the region takes only the operations whose
    results it reads, in the same order.  With the floats a = (X - lq)/m,
    b = (X + lq)/m, c = lq/m at m > 0, and c = lq/mu, d = (lq - X)/mu at
    m < 0:

        m > 0:  lq <= X              a + (b - c); 2 (X - lq) at m = 1
                X < lq, b <= X       b - c
                b > X, lq <= m X     X - c
        m < 0:  lq <= X              c
                X < lq <= mu X       c - d
                mu X < lq, d <= X    X - d

    and +0.0 past the last region.  lq is compared with X, m X and mu X
    exactly; b and d with X by the float tests, which are monotone in l
    and differ from the exact ones at some non-integral X."""
    Xx = Fraction(X)

    def first(pred, bound):  # the least l with pred(l), near l q = bound
        return _first(pred, math.floor(bound / q) + 1, 0, n)

    below_x = first(lambda l: float(l * q) > X, Xx)
    if m > 0:
        def short(v):  # a + (b - c), or 2 (X - lq) at m = 1
            if m == 1:
                np.subtract(X, v, out=v)
                v *= 2
                return
            a = np.subtract(X, v)
            a /= m
            b_minus_c(v)
            v += a

        def b_minus_c(v):
            b = np.add(X, v)
            b /= m
            v /= m
            np.subtract(b, v, out=v)

        def long(v):  # X - c
            v /= m
            np.subtract(X, v, out=v)

        end = first(lambda l: float(l * q) > m * Xx, m * Xx)
        b_below = _first(lambda l: (X + float(l * q)) / m > X,
                         math.floor((m - 1) * Xx / q) + 1, below_x, end)
        regions = ((below_x, short), (b_below, b_minus_c), (end, long))
    else:
        mu = -m

        def short(v):  # c
            v /= mu

        def c_minus_d(v):
            d = np.subtract(v, X)
            d /= mu
            v /= mu
            v -= d

        def long(v):  # X - d
            v -= X
            v /= mu
            np.subtract(X, v, out=v)

        below_mux = first(lambda l: float(l * q) > mu * Xx, mu * Xx)
        end = _first(lambda l: (float(l * q) - X) / mu > X,
                     math.floor((1 + mu) * Xx / q) + 1, below_mux, n)
        regions = ((below_x, short), (below_mux, c_minus_d), (end, long))

    def lengths(l):
        lo = int(l[0]) if l.size else 0
        lq = np.multiply(l, q, out=l)
        i = 0
        for stop, region in regions:
            j = min(max(stop - lo, i), l.size)
            if j > i:
                region(lq[i:j])
            i = j
        lq[i:] = 0.0
        return lq

    return lengths, end


def A_exact(X: float, q: int, m: int) -> ApproxReal:
    """A[m](X,q) = sum over l of f_q(l,m) |I(l)|, summed directly over the
    support |l| <= (|m|+1) X / q, using f_q(-l) = f_q(l).  The lengths are
    _interval_lengths', region by region; the leaves from their end on,
    where every length is +0.0 (at m > 0 from the first l q > m X on), are
    not built, and the float is that of the whole sum."""
    require_mq(m, q, X)
    L = int(math.floor((abs(m) + 1) * X / q)) + 1
    Xf = float(X)
    lengths, end = _interval_lengths(Xf, q, m, L + 1)
    zero_len = Fraction(Xf) / m if m > 0 else 0  # exact: as_approx rounds
    return (euler_constant("C2") * _f_weighted_sum(L + 1, m, q, lengths, end)
            + f_q_zero(m, q) * zero_len)


def A_decomposition(X: float, q: int, m: int) -> ApproxReal:
    """The frakS-decomposition path for A[m](X,q): an exact algebraic
    rearrangement of A_exact, evaluated independently."""
    require_mq(m, q, X)

    @functools.cache  # m = 1, 2 and -1 name S(X/q) twice
    def S(Y: float) -> ApproxReal:
        if Y <= 0:
            return ApproxReal(0.0, 0.0)
        return frakS_exact(Y, q, m)

    if m > 0:
        f0 = f_q_zero(m, q)
        bracket = S(X / q) - S((m - 1) * X / q) + S(m * X / q)
        return f0 * X / m + bracket * (q / m)
    bracket = S(X / q) + S(-m * X / q) - S((1 - m) * X / q)
    return bracket * (q / m)


def A_formula(X: float, q: int, m: int) -> ApproxReal:
    """phi(q) (C(q) X/q)^2 + (C/2) Gamma_an(m) Gamma_ar(m)
    prod_{p|q}(1+2/p)^(-1) sqrt(Xq): the S_main of theorem_main_terms."""
    return theorem_main_terms(X, q, m).S_main


# ---------------------------------------------------------------------------
# theorem main terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremMainTerms:
    S_main: ApproxReal
    M2_main: ApproxReal


def theorem_main_terms(X: float, q: int, m: int) -> TheoremMainTerms:
    """Main terms of the correlation and double-sum asymptotics:
    M2_main = (C/2) Gamma_an Gamma_ar prod_{p|q}(1+2/p)^(-1) sqrt(Xq) and
    S_main = phi(q) (C(q) X/q)^2 + M2_main.  The quadratic coefficient
    phi(q) (not phi(q)/2) is the one the dispersion identity and the exact
    S oracle confirm.  gamma_ar rejects m that is not squarefree."""
    require_mq(m, q, X)
    m2 = euler_constant("C") * 0.5 * gamma_an(m) * gamma_ar(m) \
        * euler_constant("hall_factor", arg=q) * math.sqrt(X * q)
    cq = euler_constant("C_of_q", arg=q)
    s_main = cq * cq * (phi_of(q) * (X / q) ** 2) + m2
    return TheoremMainTerms(s_main, m2)


def calibration_constant(residuals_over_scales) -> float:
    """2x the max observed residual/scale ratio: the non-exceedance constant
    used to turn Big-O remainders into testable envelopes."""
    vals = list(residuals_over_scales)
    if not vals:
        raise ValueError("empty calibration set")
    return 2.0 * max(vals)
