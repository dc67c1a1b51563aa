"""Exact enumerative quantities: per-residue error terms, the variance and
correlation sums, the double sum S[m], Croft's all-classes variance,
interval geometry, the local counts u_p, and lattice counts.

Everything here is either an exact integer count or a value built from
exact counts plus one Euler-product constant.  M2 and Croft's variance are
quadratics in the float main terms over integer moments of the counts,
evaluated exactly in rationals, so their error bars come from the main
terms' bars alone.  The direct float sum of E(a) E(ma), correctly rounded
by records.exact_sum, is the other side of the dispersion identity, checked
to 1e-8 relative.  The residue-class statistics never sieve: they take the
caller's counts, one vector per (X, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import (factorize, mod_inverse, mu_of, phi_of, prime_factors,
                    require_mq)
from .multiplicative import _divisors, euler_constant
from .records import ApproxReal, VerificationRecord, _rounded, exact_sum


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


def error_vector(X: int, q: int, counts: np.ndarray) -> tuple:
    """(a, count(a), C(q) X/q) from the caller's squarefree counts mod q on
    [1, X]: the coprime residues a ascending, their counts gathered and
    widened to int64, and the main term, so E(X,q,a) = count(a) - C(q) X/q.
    """
    if counts.shape != (q,):
        raise ValueError(f"need one count per residue class mod {q}, "
                         f"got shape {counts.shape}")
    a = np.flatnonzero(gcd_table(q) == 1)
    main = euler_constant("C_of_q", arg=q) * X / q
    return a, counts[a].astype(np.int64), main


@dataclass(frozen=True)
class CorrelationResult:
    S_exact: int
    M2_exact: ApproxReal
    decomposition_residual: float


def _exact_sums(c: np.ndarray, c_partner: np.ndarray) -> tuple:
    """(sum_i c[i], sum_i c[i] c_partner[i]) exactly, for nonnegative int64
    counts where c_partner is a permutation of c.  By Cauchy-Schwarz the
    second sum and every partial sum of either are at most max(c) sum(c), so
    the int64 sums cannot wrap while that bound is below 2^63 (checked in
    floats against 2^62, which leaves room for their rounding); otherwise
    sum Python ints."""
    if float(c.max(initial=0)) * float(c.sum(dtype=np.float64)) < 2.0 ** 62:
        return int(np.sum(c)), int(np.dot(c, c_partner))
    return (sum(c.tolist()),
            sum(x * y for x, y in zip(c.tolist(), c_partner.tolist())))


def _dispersion_parts(X: int, q: int, m: int, counts: np.ndarray):
    """(M2 from the integer moments as ApproxReal, direct M2, exact S,
    comparison scale) for one cell."""
    require_mq(m, q)
    a, ca, main = error_vector(X, q, counts)
    # m reduced first: m * a may pass int64
    cp = counts[(m % q * a) % q].astype(np.int64)
    total, S = _exact_sums(ca, cp)
    # S - 2 M sum c + phi(q) M^2, exact in rationals at the float M; over
    # M's interval [M - dM, M + dM] it moves by at most
    # 2 |phi(q) M - sum c| dM + phi(q) dM^2
    phi, M, dM = len(a), Fraction(main.value), Fraction(main.abs_err)
    m2 = _rounded(float(S - 2 * M * total + phi * M * M),
                  float(2 * abs(phi * M - total) * dM + phi * dM * dM))
    direct = exact_sum((ca - main.value) * (cp - main.value))
    scale = max(1.0, abs(direct), abs(m2.value))
    return m2, direct, S, scale


def variance_M2(X: int, q: int, m: int,
                counts: np.ndarray) -> CorrelationResult:
    """M2[m](X,q) = sum over coprime a of E(X,q,a) E(X,q,ma) from the caller's
    counts, with the exact S[m] = #{(n1,n2) <= X squarefree, coprime to q,
    m n1 = n2 (q)} and the dispersion residual between the direct sum and
    the value from the integer moments."""
    m2, direct, S, scale = _dispersion_parts(X, q, m, counts)
    return CorrelationResult(S, m2, abs(direct - m2.value) / scale)


def dispersion_check(X: int, q: int, m: int,
                     counts: np.ndarray) -> VerificationRecord:
    """The dispersion identity on the caller's counts: direct M2 against
    S - 2 C(q)(X/q) Q + phi M^2."""
    m2, direct, S, scale = _dispersion_parts(X, q, m, counts)
    return VerificationRecord.checked(
        "counters.dispersion", {"X": X, "q": q, "m": m, "S": S},
        direct, m2.value, 1e-8 * scale)


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
    e_d = mu^2(d) (q0/phi(q0)) (6/pi^2) prod_{p|q} (1+1/p)^(-1) X/q,
    d = gcd(a,q), q0 = q/d, from the caller's counts.  It is
    sum c^2 - 2 sum_d e_d T_d + sum_d phi(q0) e_d^2 over the squarefree d | q,
    T_d the total count of the classes with gcd d, exact in rationals at the
    float e_d; each class's quadratic moves by at most
    2 |phi(q0) e_d - T_d| de_d + phi(q0) de_d^2 over e_d's interval."""
    if counts.shape != (q,):
        raise ValueError(f"need one count per residue class mod {q}, "
                         f"got shape {counts.shape}")
    primes = prime_factors(q)
    divisors = list(_divisors((p, 1) for p in primes))
    hq = Fraction(math.prod(primes), math.prod(p + 1 for p in primes))
    six_over_pi2 = euler_constant("C_of_q", arg=1)
    T = np.bincount(gcd_table(q), weights=counts)
    if T.sum() >= 2.0 ** 53:  # float class totals are exact only below 2^53
        g = gcd_table(q)
        T = {d: sum(counts[g == d].tolist()) for d in divisors}
    c = counts.astype(np.int64)
    value, err = Fraction(_exact_sums(c, c)[1]), Fraction(0)
    for d in divisors:
        q0 = q // d
        n = phi_of(q0)
        e = six_over_pi2 * (Fraction(X) * hq * q0 / (q * n))
        ev, de, t = Fraction(e.value), Fraction(e.abs_err), int(T[d])
        value += n * ev * ev - 2 * ev * t
        err += 2 * abs(n * ev - t) * de + n * de * de
    return _rounded(float(value), float(err))


def hooley_report(X: int, q: int, counts: np.ndarray) -> float:
    """max_a |E(X,q,a)| / ((X/q)^(1/2) + q^(1/2)) from the caller's counts;
    the bound's constant is unspecified, so this is only ever reported."""
    _, ca, main = error_vector(X, q, counts)
    # fl(c - M) is monotone in c: max|ca - M| without two phi(q)-long arrays
    emax = float(max(ca.max() - main.value, main.value - ca.min()))
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
