"""Test-only derivations and oracles, kept out of the package because no
sqflab run calls them.

The zeta-accelerated Euler products: sqflab.multiplicative ships C's and
C_2's (value, tail bound) as Decimal literals, and this is the derivation
that produced them.  The tests hold the literals to it bit for bit.  Then
the brute-force oracles and proof-lemma checks: kappa(l) and the sorted
divisors of a factored integer, f_q(l, m) one l at a time, A[m](X, q)'s
interval lengths by the clip formula,
f_q(0, m)'s local factors, the O(X^2) pair count S[m], the local counts
u_p, the lattice counts and the literal Kloosterman sum.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from sqflab.arith import factorize, mu_of, primes_up_to, require_mq
from sqflab.expsums import _MAX_LITERAL_MODULUS, _phase_table
from sqflab.multiplicative import (_CTX, _dec, _local_product, euler_constant,
                                   zeta_em)
from sqflab.records import ApproxReal

SERIES_ORDER = 64
ZETA_DEPTH = 8        # extract zeta(2)..zeta(8); residual is 1 + O(p^-9)
EULER_P = 1000        # truncation point of every accelerated product


def log_series(coeffs: tuple) -> tuple:
    """Power-series log of 1 + a_1 x + ... with integer a_i (exact
    Fractions, SERIES_ORDER).  With s_k = k * [x^k] log, the Newton
    recurrence s_k = k a_k - sum_{j>=1} a_j s_(k-j) stays in the integers."""
    if any(not isinstance(c, int) for c in coeffs):
        raise ValueError("local factor coefficients must be integers")
    if not coeffs or coeffs[0] != 1:
        raise ValueError("local factor must have constant term 1")
    n = len(coeffs)
    s = [0] * (SERIES_ORDER + 1)
    for k in range(1, SERIES_ORDER + 1):
        s[k] = (k * coeffs[k] if k < n else 0) \
            - sum(coeffs[j] * s[k - j] for j in range(1, min(k, n)))
    return (Fraction(0),) + tuple(Fraction(s[k], k)
                                  for k in range(1, SERIES_ORDER + 1))


# local factors f(p) = sum_i c_i p^-i as coefficients in x = 1/p; the tail
# bound of accelerated_product needs every root in x of modulus >= 1/2
LOCAL_FACTORS = {
    "C": (1, 0, -3, 2),  # (1-x)^2 (1+2x)
    "C2": (1, 0, -2),
}


def local_factor(coeffs: tuple, p: int) -> Fraction:
    """sum_i c_i p^-i, by integer Horner as an integer over p^deg."""
    num = 0
    for c in coeffs:
        num = num * p + c
    return Fraction(num, p ** (len(coeffs) - 1))


@lru_cache(maxsize=None)
def accelerated_product(coeffs: tuple) -> tuple:
    """prod over all primes of the local factor with coefficients coeffs,
    with zeta acceleration.

    Returns (Decimal value, float tail bound) computed in _CTX with the
    product truncated at p <= EULER_P; the bound covers every p > EULER_P.
    """
    with localcontext(_CTX):
        series = list(log_series(coeffs))
        if series[1] != 0:
            raise ArithmeticError("divergent product: x^1 term present")
        exponents = {}
        for k in range(2, ZETA_DEPTH + 1):
            e_k = series[k]
            if e_k == 0:
                continue
            exponents[k] = _dec(e_k)
            # subtract e_k * -log(1 - x^k) = e_k * sum_j x^(kj)/j
            for j in range(1, SERIES_ORDER // k + 1):
                series[k * j] -= e_k / j
        # bound sum_{p>P} |log r(p)| by sum_{p>P} p^-k <= P^(1-k)/(k-1)
        P = EULER_P
        tail = sum(abs(_dec(series[k])) * Decimal(P) ** (1 - k) / (k - 1)
                   for k in range(ZETA_DEPTH + 1, SERIES_ORDER + 1))
        # past SERIES_ORDER: roots of modulus >= 1/2 give |series[k]| <=
        # (deg 2^k + E)/k, E = sum_j j |e_j| from the extracted zeta factors;
        # the terms over k >= K fall by a ratio of at most 2/P
        K = SERIES_ORDER + 1
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
            value *= _dec(local_factor(coeffs, p))
        return value, float(tail.exp() - 1)


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


def divisors(factors) -> list:
    """Sorted divisors of prod p^e over the (p, e) pairs."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


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
    the bar is C_2's, scaled, plus the rounding of the rational and of the
    product."""
    return euler_constant("C2") * f_q_rational_part(l, m, q)


def A_lengths_clip(l: np.ndarray, X: float, q: int, m: int) -> np.ndarray:
    """|I(l)| + |I(-l)| for the float64 array l, by the clip formula over
    every l: at m > 0
    clip((X - l q)/m, 0, X) + clip(min(X, (X + l q)/m) - l q/m, 0, None),
    at m < 0, mu = -m, clip(min(X, l q/mu) - max(0, (l q - X)/mu), 0, None),
    each float operation in that order.  A_exact's lengths, which keep
    only the operations whose results a region of l reads, must give the
    same floats."""
    lq = np.multiply(l, q)
    if m > 0:
        pos = np.subtract(X, lq)
        pos /= m
        np.clip(pos, 0.0, X, out=pos)
        neg = np.add(X, lq)
        neg /= m
        np.minimum(X, neg, out=neg)
        lq /= m
        neg -= lq
        pos += np.clip(neg, 0.0, None, out=neg)
        return pos
    mu = -m
    top = np.divide(lq, mu)
    np.minimum(X, top, out=top)
    lq -= X
    lq /= mu
    top -= np.maximum(0.0, lq, out=lq)
    return np.clip(top, 0.0, None, out=top)


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


def pair_enumeration_S(X: int, q: int, m: int) -> int:
    """Literal O(X^2)-pair oracle for variance_M2's S_exact (X <= a few
    10^3).  It lists squarefree n by mu_of, never through the sieve that
    counts variance_M2's classes."""
    require_mq(m, q)
    vals = np.array([n for n in range(1, X + 1)
                     if mu_of(n) != 0 and math.gcd(n, q) == 1], dtype=np.int64)
    lhs = (m % q * vals) % q  # m reduced first: m * vals wraps in int64
    rhs = vals % q
    return int(np.sum(lhs[:, None] == rhs[None, :]))


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
            c = (m2 * k * k * pow(m1 * j * j, -1, q)) % q
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


def kloosterman_K(a: int, b: int, q: int) -> complex:
    """K(a,b;q) = sum over x coprime to q of e((a x + b xbar)/q), summed
    literally: the oracle for kloosterman_weil_report's FFT table."""
    if q <= 1:
        raise ValueError("require q >= 2")
    if q > _MAX_LITERAL_MODULUS:
        raise ValueError("modulus too large for a literal sum")
    E = _phase_table(q)
    idx = [(a * x + b * pow(x, -1, q)) % q for x in range(1, q) if math.gcd(x, q) == 1]
    return complex(np.sum(E[idx]))
