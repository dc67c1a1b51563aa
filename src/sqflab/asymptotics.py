"""Sawtooth integrals, G(Y,r), the weighted sum frakS[m](Y,q), the interval
sum A[m](X,q), and the closed-form main terms they are compared against.

Each quantity has an exact computation path (direct summation over the
defining formula) and a closed-form path; the difference is the remainder
the tests calibrate and enforce.  The closed forms implemented here are the
ones that make the exact/decomposition identities hold to float precision;
where a printed source formula disagrees with its own downstream algebra,
the exact oracle decides.

G(Y,r) is evaluated at a split point (exact head, closed-form tail);
A_formula is the S_main of theorem_main_terms, so the main-term closed form
exists once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpf

from .arith import phi_of, prime_factors, primes_up_to, require_mq
from .multiplicative import (_WORK_PREC, euler_constant, euler_product_mp,
                             f_q_zero, gamma_an, gamma_ar, h_of, zeta_em)
from .records import ApproxReal


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------

def psi(v: float) -> float:
    """psi(v) = floor(v) - v + 1/2, the balanced sawtooth."""
    return math.floor(v) - v + 0.5


def psi_antiderivative(x: float) -> float:
    """Psi_1(x) = integral of psi over [0,x] = ({x} - {x}^2)/2, in [0, 1/8]."""
    if x < 0:
        raise ValueError("psi_antiderivative requires x >= 0")
    frac = x - math.floor(x)
    return (frac - frac * frac) / 2


def psi_mellin_integral(X: float, s: float) -> ApproxReal:
    """integral_0^X psi(v) v^(-s/2) dv by exact per-interval antiderivatives;
    converges to zeta(s/2-1)/(s/2-1) with remainder O(X^(-s/2))."""
    if not (0 < s < 2):
        raise ValueError("require 0 < s < 2")
    if X <= 1:
        raise ValueError("require X > 1")
    a = 1 - s / 2
    b = 2 - s / 2
    N = int(math.floor(X))
    # [0,1): psi(v) = 1/2 - v
    total_parts = [0.5 / a - 1.0 / b]
    abs_parts = [0.5 / a + 1.0 / b]
    if N >= 2:
        n = np.arange(1, N, dtype=np.float64)
        na = n ** a
        nb = n ** b
        da = na * np.expm1(a * np.log1p(1.0 / n))
        db = nb * np.expm1(b * np.log1p(1.0 / n))
        terms = (n + 0.5) * da / a - db / b
        total_parts.extend(terms.tolist())
        abs_parts.extend(((n + 0.5) * da / a + db / b).tolist())
    if X > N:
        da = X ** a - N ** a
        db = X ** b - N ** b
        total_parts.append((N + 0.5) * da / a - db / b)
        abs_parts.append(abs((N + 0.5) * da / a) + abs(db / b))
    value = math.fsum(total_parts)
    err = math.fsum(abs_parts) * 2e-16 + abs(value) * 1e-16
    return ApproxReal(value, err)


def psi_mellin_limit(s: float) -> float:
    """zeta(s/2-1)/(s/2-1), the X -> infinity limit of the integral."""
    if not (0 < s < 2):
        raise ValueError("require 0 < s < 2")
    with mp.workprec(_WORK_PREC):
        return float(zeta_em(mpf(s) / 2 - 1) / (mpf(s) / 2 - 1))


# ---------------------------------------------------------------------------
# G(Y, r)
# ---------------------------------------------------------------------------

def _psi1_mp(x):
    frac = x - mp.floor(x)
    return (frac - frac * frac) / 2


def G_of(Y: float, r: int, eps: float = 1e-12, D: int = None) -> ApproxReal:
    """G(Y,r) = sum over (d,r)=1 of h(d) Psi_1(Y/d^2): exact head d <= D
    (default ceil(Y^(2/3))) plus the d > D tail Y/(2d^2) - Y^2/(2d^4) summed
    in closed form (the sum_h_d2 / sum_h_d4 Euler products minus their
    partial sums).  Result is independent of the split D."""
    if Y <= 0:
        raise ValueError("require Y > 0")
    if r < 1:
        raise ValueError("require r >= 1")
    if D is None:
        D = math.ceil(Y ** (2 / 3))
    if D * D < Y:
        raise ValueError("split point must satisfy D^2 >= Y")
    with mp.workprec(_WORK_PREC):
        Ym = mpf(Y)
        head = mpf(0)
        p2 = mpf(0)  # partial sum of h(d)/d^2, d <= D
        p4 = mpf(0)
        for d in range(1, D + 1):
            if math.gcd(d, r) != 1:
                continue
            h = h_of(d)
            if h == 0:
                continue
            hm = mpf(h.numerator) / h.denominator
            head += hm * _psi1_mp(Ym / (d * d))
            p2 += hm / d ** 2
            p4 += hm / d ** 4
        H2, t2 = euler_product_mp("sum_h_d2", r)
        H4, t4 = euler_product_mp("sum_h_d4", r)
        tail = Ym / 2 * (H2 - p2) - Ym * Ym / 2 * (H4 - p4)
        value = head + tail
        err = float(Ym / 2 * H2 * t2 + Ym * Ym / 2 * H4 * t4
                    + (abs(value) + Ym * Ym) * mpf(2) ** (40 - _WORK_PREC))
        if err > eps:
            raise ArithmeticError(f"G tail bound {err} exceeds eps={eps}")
        return ApproxReal(float(value), err)


def G_main_term(Y: float, r: int, eps: float = 1e-12) -> ApproxReal:
    """C' prod_{p|r} (1 + p/(p^2-2))^(-1) sqrt(Y)."""
    cp = euler_constant("Cprime", eps)
    rat = Fraction(1)
    for p in prime_factors(r):
        rat *= Fraction(p * p - 2, p * p + p - 2)
    scale = float(rat) * math.sqrt(Y)
    return ApproxReal(cp.value * scale, cp.abs_err * scale + abs(cp.value) * scale * 1e-15)


# ---------------------------------------------------------------------------
# frakS[m](Y, q)
# ---------------------------------------------------------------------------

def _f_rational_array(N: int, m: int, q: int) -> np.ndarray:
    """f_q(l, m)/C_2 for l = 1..N as float64 (index 0 unused, set to 0):
    the constant m,q factor, the kappa(gcd(l, m^2)) slices, and the
    (p^2-1)/(p^2-2) factors at p^2 | l, p coprime to mq."""
    m_abs = abs(m)
    const = 1.0
    for p in prime_factors(m_abs):
        const *= (p * p - 1) / (p * p - 2)
    for p in prime_factors(q):
        const *= (p * p - p) / (p * p - 2)
    arr = np.full(N + 1, const, dtype=np.float64)
    arr[0] = 0.0
    for p in prime_factors(m_abs):
        k1 = (p * p - p - 1) / (p * p - 1)
        k2 = (p * p - p) / (p * p - 1)
        arr[p::p] *= k1
        arr[p * p::p * p] *= k2 / k1
    for p in primes_up_to(math.isqrt(N) + 1):
        p = int(p)
        if p * p > N:
            break
        if m_abs % p and q % p:
            arr[p * p::p * p] *= (p * p - 1) / (p * p - 2)
    return arr


def frakS_exact(Y: float, q: int, m: int, eps: float = 1e-12) -> ApproxReal:
    """frakS[m](Y,q) = sum_{0 < l <= Y} f_q(l,m) (Y - l), by direct
    summation of the vectorized f_q values."""
    require_mq(m, q)
    if Y <= 0:
        raise ValueError("require Y > 0")
    N = int(math.floor(Y))
    if N < 1:
        return ApproxReal(0.0, 0.0)
    c2 = euler_constant("C2", eps)
    arr = _f_rational_array(N, m, q)
    l = np.arange(N + 1, dtype=np.float64)
    weighted = float(np.sum(arr * (Y - l)))
    value = c2.value * weighted
    err = c2.abs_err * weighted + abs(value) * 2e-14
    return ApproxReal(value, err)


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


def frakS_formula(Y: float, q: int, m: int, eps: float = 1e-12) -> MainTermBreakdown:
    """Main-term coefficients for frakS[m](Y,q):
    (1/2)(phi(q)/q) C(q)^2, (1/2)(phi(|m|q)/(|m|q)) C(|m|q) (entering with a
    minus sign), and (C/2) Gamma_ar(m) prod_{p|q}(1+2/p)^(-1).  The halves
    on the polynomial coefficients are forced by the exact oracle: they are
    what the decomposition identity and the remainder scaling require.
    gamma_ar rejects m that is not squarefree."""
    require_mq(m, q)
    cq = euler_constant("C_of_q", eps, arg=q)
    quadratic = cq * cq * float(Fraction(phi_of(q), 2 * q))
    mq = abs(m) * q
    cmq = euler_constant("C_of_q", eps, arg=mq)
    linear = cmq * float(Fraction(phi_of(mq), 2 * mq))
    c_half = euler_constant("C", eps) * 0.5
    hall = euler_constant("hall_factor", eps, arg=q)
    half_power = c_half * gamma_ar(m) * hall
    return MainTermBreakdown(quadratic, linear, half_power)


# ---------------------------------------------------------------------------
# A[m](X, q)
# ---------------------------------------------------------------------------

def A_exact(X: float, q: int, m: int, eps: float = 1e-12) -> ApproxReal:
    """A[m](X,q) = sum over l of f_q(l,m) |I(l)|, summed directly over the
    support |l| <= (|m|+1) X / q, using f_q(-l) = f_q(l)."""
    require_mq(m, q, X)
    m_abs = abs(m)
    L = int(math.floor((m_abs + 1) * X / q)) + 1
    arr = _f_rational_array(L, m, q)
    l = np.arange(L + 1, dtype=np.float64)
    Xf = float(X)
    if m > 0:
        len_pos = np.clip((Xf - l * q) / m, 0.0, Xf)
        lo_neg = l * q / m
        len_neg = np.clip(np.minimum(Xf, (Xf + l * q) / m) - lo_neg, 0.0, None)
        lengths = len_pos + len_neg
        lengths[0] = 0.0  # l = 0 handled via f_q_zero below
        zero_len = Xf / m
    else:
        mu = -m
        len_pos = np.clip(np.minimum(Xf, l * q / mu)
                          - np.maximum(0.0, (l * q - Xf) / mu), 0.0, None)
        lengths = len_pos
        lengths[0] = 0.0
        zero_len = 0.0
    c2 = euler_constant("C2", eps)
    weighted = float(np.sum(arr * lengths))
    f0 = f_q_zero(m, q, eps)
    value = c2.value * weighted + f0.value * zero_len
    err = c2.abs_err * weighted + f0.abs_err * zero_len + abs(value) * 2e-14
    return ApproxReal(value, err)


def A_decomposition(X: float, q: int, m: int, eps: float = 1e-12) -> ApproxReal:
    """The frakS-decomposition path for A[m](X,q): an exact algebraic
    rearrangement of A_exact, evaluated independently."""
    require_mq(m, q, X)

    def S(Y: float) -> ApproxReal:
        if Y <= 0:
            return ApproxReal(0.0, 0.0)
        return frakS_exact(Y, q, m, eps)

    if m > 0:
        f0 = f_q_zero(m, q, eps)
        bracket = S(X / q) - S((m - 1) * X / q) + S(m * X / q)
        term0 = ApproxReal(f0.value * X / m, f0.abs_err * X / m)
        return term0 + bracket * (q / m)
    bracket = S(X / q) + S(-m * X / q) - S((1 - m) * X / q)
    return bracket * (q / m)


def A_formula(X: float, q: int, m: int, eps: float = 1e-12) -> ApproxReal:
    """phi(q) (C(q) X/q)^2 + (C/2) Gamma_an(m) Gamma_ar(m)
    prod_{p|q}(1+2/p)^(-1) sqrt(Xq): the S_main of theorem_main_terms."""
    return theorem_main_terms(X, q, m, eps).S_main


# ---------------------------------------------------------------------------
# theorem main terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremMainTerms:
    S_main: ApproxReal
    M2_main: ApproxReal


def theorem_main_terms(X: float, q: int, m: int, eps: float = 1e-12) -> TheoremMainTerms:
    """Main terms of the correlation and double-sum asymptotics:
    M2_main = (C/2) Gamma_an Gamma_ar prod_{p|q}(1+2/p)^(-1) sqrt(Xq) and
    S_main = phi(q) (C(q) X/q)^2 + M2_main.  The quadratic coefficient
    phi(q) (not phi(q)/2) is the one the dispersion identity and the exact
    S oracle confirm.  gamma_ar rejects m that is not squarefree."""
    require_mq(m, q, X)
    m2 = euler_constant("C", eps) * 0.5 * gamma_an(m) * gamma_ar(m) \
        * euler_constant("hall_factor", eps, arg=q) * math.sqrt(X * q)
    cq = euler_constant("C_of_q", eps, arg=q)
    s_main = cq * cq * (phi_of(q) * (X / q) ** 2) + m2
    return TheoremMainTerms(s_main, m2)


def calibration_constant(residuals_over_scales) -> float:
    """2x the max observed residual/scale ratio: the non-exceedance constant
    used to turn Big-O remainders into testable envelopes."""
    vals = list(residuals_over_scales)
    if not vals:
        raise ValueError("empty calibration set")
    return 2.0 * max(vals)
