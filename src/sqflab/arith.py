"""Exact integer arithmetic: factorization, multiplicative basics, Jacobi
symbols, and a segmented squarefree sieve.

factorize trial-divides, then finishes with Miller-Rabin and Pollard rho;
its results are memoised, since the constants re-read the same few moduli.

Each sieve segment starts as a rotated copy of a wheel of period
2^2 3^2 5^2 7^2 = 44,100 with the multiples of those four squares already
cleared (built on first use).  Primes 11 <= p with p^2 shorter than the
segment clear their squares' multiples by strided writes; the larger ones hit
a segment at most once, so their offsets are cleared in one vectorized step.

Residue counts come from one sieve pass over [0, X] in _SEGMENT windows that
feeds every requested modulus q.  Each q accumulates into w = q ceil(256/q)
columns, in the narrowest unsigned dtype that cannot wrap; a window's full
rows of length w are summed in uint8 blocks of 255 rows, and the w columns
fold to the q classes at the end.

All functions are pure; tables are immutable.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

_SEGMENT = 1 << 20  # numbers per sieve segment, sized to stay cache-friendly
_WHEEL = 4 * 9 * 25 * 49  # period of the pre-sieved squares of 2, 3, 5, 7

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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    n = operator.index(n)
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


@lru_cache(maxsize=1 << 14, typed=True)  # typed: 12.0 never hits 12's entry
def factorize(n: int) -> tuple:
    """Canonical factorization of 1 <= n <= 2**63 as (prime, exponent) pairs
    of Python ints, primes ascending (memoised, bounded).  Trial division by
    primes up to 10**6 leaves a cofactor that is prime when its square root
    is at most 10**6; a larger one gets deterministic primality testing plus
    rho splitting."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > 1 << 63:
        raise ValueError("factorize supports n <= 2**63")
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
    return tuple(sorted(out.items()))


def mu_of(n: int) -> int:
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def phi_of(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factorize(n))


def tau_of(n: int) -> int:
    return math.prod(e + 1 for _, e in factorize(n))


def prime_factors(n: int) -> tuple:
    """Sorted distinct primes dividing n (empty for n=1)."""
    return tuple(p for p, _ in factorize(n))


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


@lru_cache(maxsize=1)
def _wheel() -> np.ndarray:
    """Read-only squarefree flags of 0 <= n < 2 _WHEEL with the multiples of
    4, 9, 25 and 49 cleared: two periods, so every rotation is one slice."""
    flags = np.ones(2 * _WHEEL, dtype=bool)
    for p2 in (4, 9, 25, 49):
        flags[::p2] = False
    flags.flags.writeable = False
    return flags


def squarefree_window(lo: int, hi: int) -> np.ndarray:
    """Squarefree flags of the window [lo, hi): flags[i] means lo + i is
    squarefree, and 0 is not squarefree.  Sieved by clearing multiples of
    p^2, p <= sqrt(hi).

    The wheel, rotated to lo mod _WHEEL and tiled, clears p <= 7 (and 0, a
    multiple of 4).  Primes with p^2 < hi - lo clear by strided writes;
    every larger p^2 hits the window at most once, at offset (-lo) mod p^2,
    and all of those offsets are cleared in one fancy-index assignment.
    """
    if hi <= lo or lo < 0:
        raise ValueError("require 0 <= lo < hi")
    length = hi - lo
    r = lo % _WHEEL
    flags = np.resize(_wheel()[r : r + _WHEEL], length)
    primes = primes_up_to(math.isqrt(hi - 1))[4:]  # 2, 3, 5, 7: the wheel
    split = int(np.searchsorted(primes, math.isqrt(length - 1), side="right"))
    for p in primes[:split].tolist():
        p2 = p * p
        flags[(-lo) % p2 :: p2] = False
    single = primes[split:]
    offsets = (-lo) % (single * single)
    flags[offsets[offsets < length]] = False
    return flags


def squarefree_count(X: int) -> int:
    """Q(X) = number of squarefree integers in [1, X]: the one residue
    class count modulo 1."""
    if X < 1:
        return 0
    return int(squarefree_counts_by_residue(X, 1)[0])


def squarefree_counts_by_residue(X: int, q: int) -> np.ndarray:
    """Entry a counts squarefree n <= X with n = a (mod q), 0 <= a < q, as
    int64: the one-modulus case of squarefree_counts_by_moduli."""
    return squarefree_counts_by_moduli(X, (q,))[0].astype(np.int64)


def _count_dtype(n: int) -> np.dtype:
    """The narrowest unsigned dtype that holds n, or int64 past uint32."""
    dtype = np.min_scalar_type(n)
    return dtype if dtype.itemsize < 8 else np.dtype(np.int64)


def squarefree_counts_by_moduli(X: int, qs) -> list:
    """Return, for each q of qs in turn, the caller's own counts of squarefree
    n <= X by residue mod q, in the narrowest unsigned dtype holding ceil(X/q),
    from one pass; a repeated q shares one array.  Accumulators are sized by
    ceil(X/w): each of q's w = q ceil(256/q) columns meets that many n <= X."""
    qs = list(qs)
    if any(q < 1 or q > X for q in qs):
        raise ValueError("require 1 <= q <= X")
    if not qs:
        return []
    distinct = list(dict.fromkeys(qs))
    widths = [q * -(-256 // q) for q in distinct]
    accs = [np.zeros(w, dtype=_count_dtype(-(-X // w))) for w in widths]
    for lo in range(0, X + 1, _SEGMENT):
        flags = squarefree_window(lo, min(lo + _SEGMENT, X + 1)).view(np.uint8)
        for w, acc in zip(widths, accs):
            head = min(len(flags), -lo % w)
            acc[lo % w : lo % w + head] += flags[:head]
            k, tail = divmod(len(flags) - head, w)
            rows = flags[head : head + k * w].reshape(k, w)
            blocks = k - k % 255
            if blocks:
                acc += rows[:blocks].reshape(-1, 255, w).sum(
                    axis=1, dtype=np.uint8).sum(axis=0, dtype=acc.dtype)
            if k - blocks == 1:  # a lone row adds with no w-byte copy
                acc += rows[blocks]
            elif k > blocks:
                acc += rows[blocks:].sum(axis=0, dtype=np.uint8)
            acc[:tail] += flags[len(flags) - tail :]
        del flags, rows  # free this window before the next is sieved
    counts = {q: acc if w == q else acc.reshape(-1, q).sum(
                  axis=0, dtype=_count_dtype(-(-X // q)))
              for q, w, acc in zip(distinct, widths, accs)}  # w = q, q >= 256
    return [counts[q] for q in qs]
