"""Exact integer arithmetic: factorization, multiplicative basics, Jacobi
symbols, modular inverses, and a segmented squarefree sieve.

factorize reads n <= 2^14 off a smallest-prime-factor table built on first
use; larger n go through trial division, then Miller-Rabin and Pollard rho.

Residue counts mod q come from q-aligned sieve segments: each segment is a
whole number of periods q long, so the counts are column sums of the
segment's flags, with no modulo and no bincount.

All functions are pure; the shared tables are immutable after first use.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SEGMENT = 1 << 20  # numbers per sieve segment, sized to stay cache-friendly

_prime_table = None  # primes up to _prime_table_limit, grown lazily
_prime_table_limit = 0


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (cached, grow-only)."""
    global _prime_table, _prime_table_limit
    if n > _prime_table_limit:
        limit = max(n, 1 << 16)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _prime_table = np.flatnonzero(sieve).astype(np.int64)
        _prime_table_limit = limit
    return _prime_table[: np.searchsorted(_prime_table, n, side="right")]


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition: factors sorted by prime, exponents >= 1."""

    n: int
    factors: tuple  # of (prime, exponent)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError("factors must be sorted by prime with exponents >= 1")
            last = p
            prod *= p**e
        if prod != self.n:
            raise ValueError("factor product does not equal n")

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_LIMIT = 10**6
_SPF_LIMIT = 1 << 14  # factorize walks the smallest-prime-factor table up to here


@lru_cache(maxsize=1)
def _spf_table() -> array:
    """Smallest prime factor of each 2 <= n <= _SPF_LIMIT: primes mark their
    multiples largest first, so the smallest prime writes last."""
    spf = np.zeros(_SPF_LIMIT + 1, dtype=np.uintc)
    for p in primes_up_to(math.isqrt(_SPF_LIMIT))[::-1]:
        spf[p * p :: p] = p
    unmarked = np.flatnonzero(spf == 0)
    spf[unmarked] = unmarked
    return array("I", spf.tobytes())


def factorize(n: int) -> Factorization:
    """Canonical factorization of 1 <= n <= 2**63: n <= _SPF_LIMIT walks the
    smallest-prime-factor table, larger n go through _factorize_trial."""
    if not 1 <= n <= _SPF_LIMIT:
        return _factorize_trial(n)
    spf = _spf_table()
    out = {}  # spf of the shrinking cofactor never decreases: primes ascend
    m = n
    while m > 1:
        out[spf[m]] = out.get(spf[m], 0) + 1
        m //= spf[m]
    return Factorization(n, tuple(out.items()))


def _factorize_trial(n: int) -> Factorization:
    """factorize without the table: trial division by primes up to 10**6.
    A remaining cofactor whose square root is at most 10**6 is then prime; a
    larger one gets deterministic primality testing plus rho splitting."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > 1 << 63:
        raise ValueError("factorize supports n <= 2**63")
    orig = n
    out = {}
    for p in primes_up_to(min(_TRIAL_LIMIT, math.isqrt(n))):
        p = int(p)
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1 and math.isqrt(n) <= _TRIAL_LIMIT:
        out[n] = 1  # every prime <= sqrt(n) is divided out, so n is prime
        n = 1
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        g = _pollard_rho(v)
        stack.extend((g, v // g))
    return Factorization(orig, tuple(sorted(out.items())))


def mu_of(n: int) -> int:
    factors = factorize(n).factors
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def phi_of(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n).factors)


def tau_of(n: int) -> int:
    return math.prod(e + 1 for _, e in factorize(n).factors)


def prime_factors(n: int) -> tuple:
    """Sorted distinct primes dividing n (empty for n=1)."""
    return factorize(n).primes


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi_symbol requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def mod_inverse(x: int, q: int) -> int:
    """Multiplicative inverse of x modulo q, in [1, q-1] (0 when q = 1)."""
    if q < 1:
        raise ValueError("modulus must be positive")
    if math.gcd(x, q) != 1:
        raise ValueError(f"{x} is not invertible modulo {q}")
    return pow(x, -1, q)


def require_mq(m: int, q: int, X=None) -> None:
    """Reject a multiplier m and modulus q outside the theory: m = 0, q < 1,
    gcd(m, q) > 1, or q > X when a range X is given."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if q < 1:
        raise ValueError("q must be a positive integer")
    if math.gcd(abs(m), q) != 1:
        raise ValueError("require gcd(m, q) = 1")
    if X is not None and q > X:
        raise ValueError("require q <= X")


@dataclass(frozen=True)
class SieveWindow:
    """Squarefree indicator over [lo, hi): flags[i] means lo+i is squarefree.

    The integer 0 is treated as not squarefree.
    """

    lo: int
    hi: int
    flags: np.ndarray

    def count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def squarefree_values(self) -> np.ndarray:
        return self.lo + np.flatnonzero(self.flags)


def squarefree_window(lo: int, hi: int) -> SieveWindow:
    """Sieve the window [lo, hi) by clearing multiples of p^2, p <= sqrt(hi)."""
    if hi <= lo or lo < 0:
        raise ValueError("require 0 <= lo < hi")
    flags = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        flags[0] = False
    for p in primes_up_to(math.isqrt(max(hi - 1, 0))):
        p2 = int(p) * int(p)
        start = (-lo) % p2
        flags[start::p2] = False
    return SieveWindow(lo, hi, flags)


def squarefree_count(X: int) -> int:
    """Q(X) = number of squarefree integers in [1, X]: the one residue
    class count modulo 1."""
    if X < 1:
        return 0
    return int(squarefree_counts_by_residue(X, 1)[0])


def squarefree_counts_by_residue(X: int, q: int) -> np.ndarray:
    """Entry a counts squarefree n <= X with n = a (mod q), 0 <= a < q.

    The sieve runs over [0, X] (0 is flagged as not squarefree) in segments
    of a whole number of periods q, so every segment starts at a multiple of
    q and the residue of n is its offset within the period.  Each segment's
    flags, laid out as rows of length q, are added in as column sums; the
    partial last period is added slice-wise.
    """
    if q < 1 or q > X:
        raise ValueError("require 1 <= q <= X")
    counts = np.zeros(q, dtype=np.int64)
    step = q * max(1, _SEGMENT // q)
    for lo in range(0, X + 1, step):
        flags = squarefree_window(lo, min(lo + step, X + 1)).flags
        full = len(flags) - len(flags) % q
        counts += flags[:full].reshape(-1, q).sum(axis=0, dtype=np.int64)
        counts[: len(flags) - full] += flags[full:]
    return counts
