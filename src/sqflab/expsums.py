"""Complete exponential sums: Kloosterman sums, Gauss sums, and the
character sums S1, S2 whose explicit bounds power the large-modulus range.

All sums are evaluated exactly (complex double accumulation over per-modulus
root-of-unity tables) and returned as plain complex numbers.  The literal
kloosterman_K is the oracle for the FFT table behind
kloosterman_weil_report.  S1 carries two independent paths — the
Gauss-times-S2 factorization (s1_sum) and the literal triple sum
(s1_literal) — and the CRT product identity over a
composite modulus is checked against a direct, CRT-free evaluation of the
full sum (full_sum_S), itself checked against the literal double loop in
the tests.  Full-sweep helpers return (n, n, n) tables computed with FFTs
so exhaustive bound checks over all multiplier triples stay cheap.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import factorize, is_prime, jacobi_symbol
from .records import VerificationRecord

_MAX_LITERAL_MODULUS = 10 ** 4


@lru_cache(maxsize=64)
def _phase_table(M: int) -> np.ndarray:
    """e(k/M) for k < M; one table per modulus so phases never drift."""
    return np.exp(2j * np.pi * np.arange(M) / M)


@lru_cache(maxsize=64)
def _symbol_table(n: int) -> np.ndarray:
    """Jacobi symbols (h/n), h < n, as a float array (Legendre for prime n)."""
    return np.array([jacobi_symbol(h, n) for h in range(n)], dtype=np.float64)


# ---------------------------------------------------------------------------
# classical sums
# ---------------------------------------------------------------------------

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


def kloosterman_weil_report(p: int) -> VerificationRecord:
    """max |K(a,b;p)| / (2 sqrt(p)) over a,b != 0 mod p — report only; the
    square-root cancellation is not an asserted input anywhere downstream."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    table = np.zeros((p, p))
    for x in range(1, p):
        table[x, pow(x, -1, p)] = 1.0
    K = np.conj(np.fft.fft2(table))
    worst = float(np.max(np.abs(K[1:, 1:])))
    return VerificationRecord.report("expsums.weil", {"p": p},
                                     worst / (2 * math.sqrt(p)), 1.0)


def gauss_sum(t: int, p: int) -> complex:
    """sum_{h=1}^{p-1} (h/p) e(t h / p); magnitude sqrt(p) for p not dividing
    t, zero otherwise."""
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    E = _phase_table(p)
    sym = _symbol_table(p)
    h = np.arange(1, p)
    return complex(np.sum(sym[h] * E[(t * h) % p]))


# ---------------------------------------------------------------------------
# S1 and S2
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prime_power(n: int) -> tuple:
    """(r, f) with n = r^f; cached because the bound sweeps ask for the same
    few moduli many times (a ValueError is raised afresh on every call)."""
    fact = factorize(n)
    if len(fact) != 1:
        raise ValueError(f"{n} is not a prime power")
    return fact[0]


def _require_s2_args(r_pow: int, q: int, m2: int) -> None:
    r, f = _prime_power(r_pow)
    if m2 == 0:
        raise ValueError("m2 must be nonzero")
    if q % r == 0:
        raise ValueError("require r coprime to q")


def s2_sum(r_pow: int, q: int, m2: int, b: int, c: int, d: int) -> complex:
    """S2(r^f, q, m2; b,c,d): the triple sum over alpha,beta,gamma mod r^f
    constrained by r^f | m2 alpha^2 beta - q gamma.  The constraint pins
    gamma, so the evaluation is a double sum."""
    _require_s2_args(r_pow, q, m2)
    n = r_pow
    if n > _MAX_LITERAL_MODULUS:
        raise ValueError("modulus too large for a literal sum")
    E = _phase_table(n)
    coef = (m2 * pow(q, -1, n)) % n
    alpha = np.arange(n, dtype=np.int64)
    gamma = (coef * ((alpha * alpha) % n))[:, None] * alpha[None, :] % n
    idx = ((b % n) * alpha[:, None] + (c % n) * alpha[None, :] + (d % n) * gamma) % n
    return complex(np.sum(E[idx]))


def _require_s1_args(p: int, q: int, m2: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if (m2 * q) % p == 0:
        raise ValueError("require p coprime to m2 q, m2 nonzero")


def _s1_symbols(p: int, q: int, m2: int) -> np.ndarray:
    """The (p,p,p) cube of Legendre symbols ((m2 alpha^2 beta - q gamma)/p)
    indexed [alpha, beta, gamma]."""
    _require_s1_args(p, q, m2)
    sym = _symbol_table(p)
    alpha = np.arange(p, dtype=np.int64)
    a2b = ((m2 % p) * ((alpha * alpha) % p))[:, None] * alpha[None, :] % p
    resid = (a2b[:, :, None] - (q % p) * alpha[None, None, :]) % p
    return sym[resid]


def s1_sum(p: int, q: int, m2: int, b: int, c: int, d: int) -> complex:
    """S1(p, q, m2; b,c,d) = sum over alpha,beta,gamma mod p of
    ((m2 alpha^2 beta - q gamma)/p) e((b alpha + c beta + d gamma)/p),
    as gauss_sum(-d qbar, p) * S2(p, ...): an exact consequence of
    substituting h = m2 alpha^2 beta - q gamma.  s1_literal is the
    independent oracle."""
    _require_s1_args(p, q, m2)
    return gauss_sum((-d * pow(q, -1, p)) % p, p) * s2_sum(p, q, m2, b, c, d)


def s1_literal(p: int, q: int, m2: int, b: int, c: int, d: int) -> complex:
    """S1(p, q, m2; b,c,d) by direct evaluation of the triple sum."""
    cube = _s1_symbols(p, q, m2)
    E = _phase_table(p)
    alpha = np.arange(p, dtype=np.int64)
    idx = ((b % p) * alpha[:, None, None] + (c % p) * alpha[None, :, None]
           + (d % p) * alpha[None, None, :]) % p
    return complex(np.sum(cube * E[idx]))


def s1_table(p: int, q: int, m2: int) -> np.ndarray:
    """All S1(p,q,m2;b,c,d) at once as a (p,p,p) complex array indexed
    [b,c,d], via a 3D FFT of the Legendre-symbol cube."""
    return np.conj(np.fft.fftn(_s1_symbols(p, q, m2)))


def s2_table(r_pow: int, q: int, m2: int) -> np.ndarray:
    """All S2(r^f,q,m2;b,c,d) as a (n,n,n) complex array indexed [b,c,d]."""
    _require_s2_args(r_pow, q, m2)
    n = r_pow
    coef = (m2 * pow(q, -1, n)) % n
    alpha = np.arange(n, dtype=np.int64)
    gamma = (coef * ((alpha * alpha) % n))[:, None] * alpha[None, :] % n
    cube = np.zeros((n, n, n))
    ii, jj = np.meshgrid(alpha, alpha, indexing="ij")
    cube[ii, jj, gamma] = 1.0
    return np.conj(np.fft.fftn(cube))


def s2_gcd_bound(r_pow: int, m2: int, b, c, d):
    """The explicit envelope: 2 r (r,b,c,d m2) at f=1, else
    2 r^{3f/2} (r^f,b,c,d m2)^{1/2} for odd r and 4 2^{3f/2} (...)^{1/2}.
    b, c, d may be integers or integer arrays that broadcast together."""
    r, f = _prime_power(r_pow)
    g = np.gcd(r_pow, np.gcd(b, np.gcd(c, d * m2)))
    if f == 1:
        return 2.0 * r * g
    lead = 4.0 if r == 2 else 2.0
    return lead * r_pow ** 1.5 * np.sqrt(g)


# ---------------------------------------------------------------------------
# CRT factorization over u p1 p2
# ---------------------------------------------------------------------------

def _crt_multiplier(v: int, M: int, Mi: int) -> int:
    """Local additive multiplier: e(v x / M) restricted to the Mi coordinate
    is e(v ((M/Mi)^-1 mod Mi) x_i / Mi)."""
    return (v * pow(M // Mi, -1, Mi)) % Mi


def full_sum_S(u: int, p1: int, p2: int, q: int, m2: int,
               lam: int, mu: int, nu: int) -> complex:
    """Direct evaluation of S(u, p1 p2, q, m2; lam, mu, nu): the sum over
    alpha, beta, gamma mod M = u p1 p2 with u | m2 alpha^2 beta - q gamma of
    ((m2 alpha^2 beta - q gamma)/(p1 p2)) e((lam alpha + mu beta + nu gamma)
    / M), without any CRT splitting of the modulus.

    The congruence pins gamma mod u to gamma0; the remaining
    gamma-progression is a complete system mod P = p1 p2, where the Jacobi
    character's discrete Fourier transform collapses it to one coefficient
    jhat.  Writing beta = b + u j (b < u, j < P), gamma0 depends on b only
    and the sum over j is a complete geometric sum: P when
    mu + k1 u m2 alpha^2 = 0 mod P, else 0.  Only those live alpha (at most
    4u when jhat != 0) need a length-u sum over b.  Cost O(M + u^2); the
    literal O(M^2) double loop is the test-only oracle in
    tests/test_expsums.py.
    """
    _validate_crt_args(u, p1, p2, q, m2)
    P = p1 * p2
    M = u * P
    EM = _phase_table(M)
    EP = _phase_table(P)
    J = _symbol_table(P)
    ubar = pow(u, -1, P)
    qbar_P = pow(q % P, -1, P)
    k1 = (nu * ubar * qbar_P) % P
    t = np.arange(P)
    jhat = complex(np.sum(J * EP[(-k1 * t) % P]))
    if jhat == 0:
        return 0j
    qbar_u = pow(q % u, -1, u)  # 0 when u = 1, so gamma0 vanishes
    lam, mu, nu = lam % M, mu % M, nu % M
    b = np.arange(u)
    total = 0j
    # Liveness depends on alpha mod P only: each live residue r stands for
    # the u values alpha = r + P i, one row each of a u x u block over b.
    for r in t[(mu + (k1 * u * m2) % P * (t * t % P)) % P == 0]:
        alpha = (r + P * b)[:, None]
        sq = alpha * alpha
        gamma0 = (qbar_u * m2) % u * (sq % u) % u * b % u
        W = ((m2 % P) * (sq % P) % P * b - (q % P) * gamma0) % P
        idx = (lam * alpha + mu * b + nu * gamma0) % M
        total += complex(np.sum(EM[idx] * EP[(k1 * W) % P]))
    return jhat * P * total


def crt_product(u: int, p1: int, p2: int, q: int, m2: int,
                lam: int, mu: int, nu: int) -> complex:
    """S1(p1) S1(p2) prod_{r^f || u} S2(r^f) with each factor taking the
    local multipliers of lam, mu, nu for its own modulus."""
    _validate_crt_args(u, p1, p2, q, m2)
    M = u * p1 * p2

    def local(n: int) -> list:
        return [_crt_multiplier(v, M, n) for v in (lam, mu, nu)]

    out = 1 + 0j
    for p in (p1, p2):
        out *= s1_sum(p, q, m2, *local(p))
    for r, f in factorize(u):
        out *= s2_sum(r ** f, q, m2, *local(r ** f))
    return out


def _validate_crt_args(u: int, p1: int, p2: int, q: int, m2: int) -> None:
    if u < 1 or u > 50:
        raise ValueError("require 1 <= u <= 50")
    if p1 == p2:
        raise ValueError("moduli overlap: p1 = p2")
    for p in (p1, p2):
        _require_s1_args(p, q, m2)
    if p1 * p2 > 400:
        raise ValueError("require p1 p2 <= 400")
    if math.gcd(u, p1 * p2 * q * m2) != 1:
        raise ValueError("require u coprime to p1 p2 q m2")


def crt_factor_check(u: int, p1: int, p2: int, q: int, m2: int,
                     b: int, c: int, d: int) -> VerificationRecord:
    """Compare the direct full sum (full_sum_S, no CRT) against the factored
    product (crt_product); lhs is the residual |full - product|."""
    full = full_sum_S(u, p1, p2, q, m2, b, c, d)
    prod = crt_product(u, p1, p2, q, m2, b, c, d)
    tol = 1e-6 * max(1.0, abs(full))
    params = {"u": u, "p1": p1, "p2": p2, "q": q, "m2": m2,
              "b": b, "c": c, "d": d}
    return VerificationRecord.checked("expsums.crt", params,
                                      abs(full - prod), 0.0, tol)
