"""Exact enumerative quantities: per-residue error terms, the variance and
correlation sums, the double sum S[m], Croft's all-classes variance,
interval geometry, the local counts u_p, and lattice counts.

Everything here is either an exact integer count or a float built from exact
counts plus one Euler-product constant; the dispersion identity ties the two
paths together and is checked to 1e-8 relative.  The residue-class
statistics never sieve: they take the caller's counts, one vector per (X, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arith import (factorize, mod_inverse, mu_of, phi_of, prime_factors,
                    require_mq)
from .multiplicative import euler_constant
from .records import ApproxReal, VerificationRecord


# ---------------------------------------------------------------------------
# error vector and variance
# ---------------------------------------------------------------------------

def gcd_table(q: int) -> np.ndarray:
    """gcd(a, q) for a = 0..q-1 as int64, built from the prime powers of q:
    each p^k dividing q multiplies every p^k-th entry by p."""
    g = np.ones(q, dtype=np.int64)
    for p, e in factorize(q):
        for k in range(1, e + 1):
            g[:: p**k] *= p
    return g


def _coprime_residues(q: int) -> np.ndarray:
    """The residues a mod q with gcd(a, q) = 1, ascending."""
    return np.flatnonzero(gcd_table(q) == 1)


@dataclass
class ResidueErrorVector:
    """Squarefree counts per residue class mod q on [1, X], split as
    count(a) = C(q) X/q + E(X,q,a) on the coprime classes."""

    X: int
    q: int
    counts: np.ndarray
    main_term: ApproxReal

    @cached_property
    def coprime_residues(self) -> np.ndarray:
        return _coprime_residues(self.q)

    def errors_array(self) -> np.ndarray:
        """E over the coprime residues, float64, in residue order."""
        return self.counts[self.coprime_residues].astype(np.float64) \
            - self.main_term.value


def error_vector(X: int, q: int, counts: np.ndarray) -> ResidueErrorVector:
    """The caller's squarefree counts mod q, widened to int64, plus the main
    term C(q) X/q."""
    cq = euler_constant("C_of_q", arg=q)
    main = ApproxReal(cq.value * X / q, cq.abs_err * X / q)
    return ResidueErrorVector(X, q, counts.astype(np.int64, copy=False), main)


@dataclass(frozen=True)
class CorrelationResult:
    X: int
    q: int
    m: int
    S_exact: int
    M2_exact: ApproxReal
    decomposition_residual: float


def _double_sum_from_counts(c: np.ndarray, c_partner: np.ndarray) -> int:
    """sum_i c[i] c_partner[i] exactly, for nonnegative int64 counts where
    c_partner is a permutation of c.  By Cauchy-Schwarz the sum and every
    partial sum are at most max(c) sum(c), so the int64 sum cannot wrap
    while that bound is below 2^63 (checked in floats against 2^62, which
    leaves room for their rounding); otherwise sum Python ints."""
    if float(c.max(initial=0)) * float(c.sum(dtype=np.float64)) < 2.0 ** 62:
        return int(np.sum(c * c_partner))
    return sum(x * y for x, y in zip(c.tolist(), c_partner.tolist()))


def _dispersion_parts(X: int, q: int, m: int, counts: np.ndarray):
    """(direct M2 as ApproxReal, reassembled M2, exact S, comparison scale)
    for one cell."""
    require_mq(m, q)
    vec = error_vector(X, q, counts)
    a = vec.coprime_residues
    partner = (m % q * a) % q  # m reduced first: m * a may pass int64
    M = vec.main_term.value
    E = vec.counts.astype(np.float64) - M
    terms = E[a] * E[partner]
    direct = math.fsum(memoryview(terms))

    err_m = vec.main_term.abs_err
    err = err_m * float(np.sum(np.abs(E[a]) + np.abs(E[partner]))) \
        + len(a) * err_m * err_m + abs(direct) * 1e-15 \
        + float(np.sum(np.abs(terms))) * 2e-16
    m2 = ApproxReal(direct, err)

    ca = vec.counts[a]
    S = _double_sum_from_counts(ca, vec.counts[partner])
    reassembled = _reassemble_m2(S, int(np.sum(ca)), phi_of(q), M)
    scale = max(1.0, abs(m2.value), abs(reassembled))
    return m2, reassembled, S, scale


def variance_M2(X: int, q: int, m: int,
                counts: np.ndarray) -> CorrelationResult:
    """M2[m](X,q) = sum over coprime a of E(X,q,a) E(X,q,ma) from the caller's
    counts, with the exact S[m] = #{(n1,n2) <= X squarefree, coprime to q,
    m n1 = n2 (q)} and the dispersion residual."""
    m2, reassembled, S, scale = _dispersion_parts(X, q, m, counts)
    residual = abs(m2.value - reassembled) / scale
    return CorrelationResult(X, q, m, S, m2, residual)


def _reassemble_m2(S: int, coprime_count: int, phi: int, M: float) -> float:
    """S - 2 M sum_{(n,q)=1} mu^2(n) + phi(q) M^2, in exact rational
    arithmetic over the float main term M."""
    fm = Fraction(M)
    return float(S - 2 * fm * coprime_count + phi * fm * fm)


def dispersion_check(X: int, q: int, m: int,
                     counts: np.ndarray) -> VerificationRecord:
    """The dispersion identity on the caller's counts: direct M2 against
    S - 2 C(q)(X/q) Q + phi M^2."""
    m2, reassembled, S, scale = _dispersion_parts(X, q, m, counts)
    return VerificationRecord.checked(
        "counters.dispersion", {"X": X, "q": q, "m": m, "S": S},
        m2.value, reassembled, 1e-8 * scale)


def pair_enumeration_S(X: int, q: int, m: int) -> int:
    """Literal O(X^2)-pair oracle for variance_M2's S_exact (test use;
    X <= a few 10^3).  It lists squarefree n by mu_of, never through the
    sieve that counts variance_M2's classes."""
    require_mq(m, q)
    vals = np.array([n for n in range(1, X + 1)
                     if mu_of(n) != 0 and math.gcd(n, q) == 1], dtype=np.int64)
    lhs = (m % q * vals) % q  # m reduced first: m * vals wraps in int64
    rhs = vals % q
    return int(np.sum(lhs[:, None] == rhs[None, :]))


# ---------------------------------------------------------------------------
# Croft's all-classes variance and the Hooley envelope report
# ---------------------------------------------------------------------------

def croft_variance(X: int, q: int, counts: np.ndarray) -> ApproxReal:
    """Sum over all residues a mod q of (count(a) - expected(a))^2 with the
    class-dependent expected value
    mu^2(d) (q0/phi(q0)) (6/pi^2) prod_{p|q} (1+1/p)^(-1) X/q,
    d = gcd(a,q), q0 = q/d; the caller's counts, widened to float64."""
    counts = counts.astype(np.float64)
    six_over_pi2 = euler_constant("C_of_q", arg=1)
    hq = 1.0
    for p in prime_factors(q):
        hq *= p / (p + 1.0)
    base = six_over_pi2.value * hq * X / q
    base_err = six_over_pi2.abs_err * hq * X / q

    # expected value per gcd d, nonzero only at the squarefree d | q
    by_gcd = np.zeros(q + 1)
    squarefree_divisors = [1]
    for p in prime_factors(q):
        squarefree_divisors += [d * p for d in squarefree_divisors]
    for d in squarefree_divisors:
        q0 = q // d
        by_gcd[d] = base * q0 / phi_of(q0)
    expected = by_gcd[gcd_table(q)]
    diff = counts - expected
    value = math.fsum(memoryview(diff * diff))
    err_e = np.abs(expected) * (base_err / base if base > 0 else 0.0) \
        + np.abs(expected) * 3e-16
    err = float(np.sum(2 * np.abs(diff) * err_e + err_e * err_e)) \
        + abs(value) * 1e-15
    return ApproxReal(value, err)


def hooley_report(X: int, q: int, counts: np.ndarray) -> float:
    """max_a |E(X,q,a)| / ((X/q)^(1/2) + q^(1/2)) from the caller's counts;
    the bound's constant is unspecified, so this is only ever reported."""
    vec = error_vector(X, q, counts)
    emax = float(np.max(np.abs(vec.errors_array())))
    return emax / (math.sqrt(X / q) + math.sqrt(q))


# ---------------------------------------------------------------------------
# interval geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalIL:
    """I(l) = {n : n in (0,X) and mn + lq in (0,X)} as an open interval."""

    l: int
    m: int
    q: int
    X: float
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, t: float) -> bool:
        return self.lo < t < self.hi

    def member(self, n: int) -> bool:
        """Exact integer membership per the defining set."""
        return 0 < n < self.X and 0 < self.m * n + self.l * self.q < self.X


def interval_I(l: int, m: int, q: int, X: float) -> IntervalIL:
    if m == 0:
        raise ValueError("m must be nonzero")
    if q < 1 or X <= 0:
        raise ValueError("require q >= 1 and X > 0")
    if m > 0:
        lo = max(0.0, (-l * q) / m)
        hi = min(float(X), (X - l * q) / m)
    else:
        lo = max(0.0, (X - l * q) / m)
        hi = min(float(X), (-l * q) / m)
    if hi < lo:
        hi = lo
    return IntervalIL(l, m, q, float(X), lo, hi)


# ---------------------------------------------------------------------------
# local counts u_p
# ---------------------------------------------------------------------------

def u_p_local(p: int, l: int, m: int, q: int) -> int:
    """#{v mod p^2 : p^2 | v or p^2 | mv + lq} by the five-case table
    (p coprime to q, m squarefree)."""
    if q % p == 0:
        raise ValueError("u_p requires p coprime to q")
    if m == 0 or mu_of(abs(m)) == 0:
        raise ValueError("u_p requires squarefree m")
    p2 = p * p
    if m % p == 0:
        if l % p2 == 0:
            return p
        if l % p == 0:
            return p + 1
        return 1
    if l % p2 == 0:
        return 1
    return 2


def u_p_brute(p: int, l: int, m: int, q: int) -> int:
    """Direct count over all p^2 residues; oracle for u_p_local."""
    p2 = p * p
    return sum(1 for v in range(p2) if v % p2 == 0 or (m * v + l * q) % p2 == 0)


# ---------------------------------------------------------------------------
# lattice counts
# ---------------------------------------------------------------------------

def lattice_count_N(J: int, K: int, m1: int, m2: int, X: int, q: int) -> int:
    """#{(j,k,u,v): J<j<=2J, K<k<=2K, gcd(jk,q)=1, 0<j^2 u<X, 0<k^2 v<X,
    m1 j^2 u = m2 k^2 v (mod q)}; per-class counting, O(JK + K*X/K^2)."""
    if J < 1 or K < 1 or X < 1 or q < 1:
        raise ValueError("require J, K, X, q >= 1")
    if math.gcd(abs(m1) * abs(m2), q) != 1:
        raise ValueError("require gcd(m1 m2, q) = 1")
    if q * X >= 2 ** 63:
        raise ValueError("require q X < 2^63 for the int64 class counts")
    total = 0
    for j in range(J + 1, 2 * J + 1):
        if math.gcd(j, q) != 1:
            continue
        uj = (X - 1) // (j * j)
        if uj < 1:
            continue
        for k in range(K + 1, 2 * K + 1):
            if math.gcd(k, q) != 1:
                continue
            vk = (X - 1) // (k * k)
            if vk < 1:
                continue
            if q == 1:
                total += uj * vk
                continue
            c = (m2 * k * k * mod_inverse(m1 * j * j, q)) % q
            v = np.arange(1, vk + 1, dtype=np.int64)
            r = (c * v) % q
            hits = np.where((r >= 1) & (r <= uj), (uj - r) // q + 1, 0)
            hits = hits + np.where(r == 0, uj // q, 0)
            total += int(hits.sum())
    return total


def lattice_count_brute(J: int, K: int, m1: int, m2: int, X: int, q: int) -> int:
    """Four nested loops; oracle for lattice_count_N at small X."""
    total = 0
    for j in range(J + 1, 2 * J + 1):
        for k in range(K + 1, 2 * K + 1):
            if math.gcd(j * k, q) != 1:
                continue
            u = 1
            while j * j * u < X:
                v = 1
                while k * k * v < X:
                    if (m1 * j * j * u - m2 * k * k * v) % q == 0:
                        total += 1
                    v += 1
                u += 1
    return total
