import math
import os
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqflab.arith import (_SEGMENT, _SPF_LIMIT, _factorize_trial,
                          _spf_table, factorize, is_prime, jacobi_symbol,
                          mod_inverse, mu_of, phi_of,
                          prime_factors, primes_up_to, squarefree_count,
                          squarefree_counts_by_residue, squarefree_window,
                          tau_of)


def _mu_brute(n: int) -> int:
    out = 1
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
    if n > 1:
        out = -out
    return out


def test_prime_table():
    ps = primes_up_to(100)
    assert list(ps[:10]) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10 ** 4)) == 1229
    assert len(primes_up_to(1)) == 0


def test_is_prime_matches_trial_division():
    small = set(int(p) for p in primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in small)
    # Carmichael numbers and large primes
    for n in (561, 1105, 1729, 2465, 75361):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1)


@given(st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=200, deadline=None)
def test_factorize_roundtrip(n):
    fact = factorize(n)
    prod = 1
    for p, e in fact.factors:
        assert is_prime(p) and e >= 1
        prod *= p ** e
    assert prod == n


@pytest.mark.parametrize("n, factors", [
    (999983 ** 2, ((999983, 2),)),
    (1000003 ** 2, ((1000003, 2),)),
    (999983 * 1000003, ((999983, 1), (1000003, 1))),
    (10 ** 12 + 39, ((10 ** 12 + 39, 1),)),
    (2 ** 63, ((2, 63),)),
])
def test_factorize_around_trial_limit(n, factors):
    # cofactors just inside and just past the square of the trial limit
    fact = factorize(n)
    assert fact.factors == factors
    assert math.prod(p ** e for p, e in fact.factors) == n
    assert all(is_prime(p) for p, _ in fact.factors)


def test_factorize_table_matches_trial_division():
    # the trial path is the table's independent oracle, past the table too
    for n in range(1, _SPF_LIMIT + 1001):
        assert factorize(n) == _factorize_trial(n), n


@pytest.mark.parametrize("n, factors", [
    (_SPF_LIMIT - 1, ((3, 1), (43, 1), (127, 1))),
    (_SPF_LIMIT, ((2, 14),)),
    (_SPF_LIMIT + 1, ((5, 1), (29, 1), (113, 1))),
    (127 ** 2, ((127, 2),)),             # largest prime square in the table
    (131 ** 2, ((131, 2),)),             # smallest one past it
    (16381, ((16381, 1),)),              # largest prime in the table
])
def test_factorize_at_table_limit(n, factors):
    fact = factorize(n)
    assert fact.factors == factors
    assert all(type(p) is int and type(e) is int for p, e in fact.factors)


def test_spf_table_is_built_lazily():
    assert len(_spf_table()) == _SPF_LIMIT + 1
    code = ("import sqflab, sqflab.cli, sqflab.arith as a; "
            "assert a._spf_table.cache_info().currsize == 0; "
            "a.factorize(12); "
            "assert a._spf_table.cache_info().currsize == 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_profile_known_values():
    assert mu_of(360) == 0  # 360 = 2^3 3^2 5
    assert phi_of(360) == 96
    assert tau_of(360) == 24
    assert mu_of(1) == 1 and phi_of(1) == 1 and tau_of(1) == 1
    assert prime_factors(84) == (2, 3, 7)


@given(st.integers(min_value=1, max_value=3000))
@settings(max_examples=150, deadline=None)
def test_mu_matches_brute(n):
    assert mu_of(n) == _mu_brute(n)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
@settings(max_examples=100, deadline=None)
def test_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert phi_of(a * b) == phi_of(a) * phi_of(b)


def test_jacobi_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101, 997):
        for a in range(1, min(p, 40)):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if euler == 0 else (1 if euler == 1 else -1)
            assert jacobi_symbol(a, p) == expected


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_jacobi_multiplicative_in_top(a, b):
    n = 15015  # odd, composite
    assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)


def test_mod_inverse():
    assert mod_inverse(3, 10) == 7
    with pytest.raises(ValueError):
        mod_inverse(4, 10)


def test_squarefree_window_matches_mu():
    win = squarefree_window(1, 2001)
    for n in range(1, 2001):
        assert bool(win.flags[n - 1]) == (_mu_brute(n) != 0), n
    assert win.count() == int(np.count_nonzero(win.flags))
    vals = win.squarefree_values()
    assert vals[0] == 1 and vals[-1] <= 2000


def test_squarefree_count_known_values():
    assert squarefree_count(1) == 1
    assert squarefree_count(10) == 7
    assert squarefree_count(100) == 61
    assert squarefree_count(1000) == 608


def test_counts_by_residue_consistency():
    X, q = 10 ** 4, 12
    counts = squarefree_counts_by_residue(X, q)
    assert counts.sum() == squarefree_count(X)
    vals = squarefree_window(1, X + 1).squarefree_values()
    ref = np.bincount(vals % q, minlength=q)
    assert np.array_equal(counts, ref)


@lru_cache(maxsize=None)
def _squarefree_values(X):
    return squarefree_window(1, X + 1).squarefree_values()


def _residue_oracle(X, q):
    return np.bincount(_squarefree_values(X) % q, minlength=q)


def test_counts_by_residue_small_cases():
    for X in (1, 2, 3, 10, 97, 1000, 12345):
        for q in range(1, min(X, 60) + 1):
            counts = squarefree_counts_by_residue(X, q)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, _residue_oracle(X, q)), (X, q)


_X3 = 3 * _SEGMENT + 5  # spans four segments for q <= _SEGMENT


@pytest.mark.parametrize("X, q", [
    (_X3, 1),
    (_X3, _X3),
    (_X3, 1000),
    (_X3, 4096),                 # divides _SEGMENT
    (_X3, _SEGMENT),
    (_X3, _SEGMENT - 1),
    (_X3, _SEGMENT + 3),
    (_X3, 18),                   # 18 divides X + 1
    (_X3, (_X3 + 1) // 2),       # X + 1 = 2q
    (2 * _SEGMENT - 1, _SEGMENT),  # X + 1 = 2q = 2 segments exactly
])
def test_counts_by_residue_matches_bincount_oracle(X, q):
    counts = squarefree_counts_by_residue(X, q)
    assert counts.dtype == np.int64 and counts.shape == (q,)
    assert np.array_equal(counts, _residue_oracle(X, q))
