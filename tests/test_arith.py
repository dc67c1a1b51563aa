import math
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sqflab import arith
from sqflab.arith import (_SEGMENT, factorize, is_prime, jacobi_symbol,
                          mu_of, phi_of, prime_factors, primes_up_to, squarefree_count,
                          squarefree_counts_by_moduli,
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
    _assert_factorization(n)


def _assert_factorization(n):
    fact = factorize(n)
    assert isinstance(fact, tuple)
    assert all(a[0] < b[0] for a, b in zip(fact, fact[1:])), n
    assert all(is_prime(p) and e >= 1 for p, e in fact), n
    assert math.prod(p ** e for p, e in fact) == n


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
    assert fact == factors
    assert math.prod(p ** e for p, e in fact) == n
    assert all(is_prime(p) for p, _ in fact)


def test_factorize_exhaustive_roundtrip():
    # every n up to 2^14 + 1000, past the largest n the constants layer reads
    for n in range(1, (1 << 14) + 1001):
        _assert_factorization(n)


@pytest.mark.parametrize("n, factors", [
    ((1 << 14) - 1, ((3, 1), (43, 1), (127, 1))),
    (1 << 14, ((2, 14),)),
    ((1 << 14) + 1, ((5, 1), (29, 1), (113, 1))),
    (127 ** 2, ((127, 2),)),             # largest prime square below 2^14
    (131 ** 2, ((131, 2),)),             # smallest one past it
    (16381, ((16381, 1),)),              # largest prime below 2^14
])
def test_factorize_at_table_limit(n, factors):
    fact = factorize(n)
    assert fact == factors
    assert all(type(p) is int and type(e) is int for p, e in fact)


@pytest.mark.parametrize("n", [12, 1 << 14, 999983 * 1000003])
def test_factorize_memo_keys_by_type(n):
    # the memo is typed: a float never reaches an int's cached entry, and
    # a numpy key gets Python-int primes, equal to the int key's result
    factorize(n)
    with pytest.raises(TypeError):
        factorize(float(n))
    fact = factorize(np.int64(n))
    assert fact == factorize(n)
    assert all(type(p) is int and type(e) is int for p, e in fact)


def test_numpy_integers_past_the_trial_limit():
    # a cofactor above 10^12 goes through Miller-Rabin, whose pow() takes
    # no numpy integers; both entry points convert to Python ints first
    p = 10 ** 13 + 37
    assert factorize(np.int64(2 * p)) == ((2, 1), (p, 1))
    assert is_prime(np.int64(p)) is True
    assert mu_of(np.int64(p)) == -1
    with pytest.raises(TypeError):
        is_prime(float(p))


def test_wheel_is_built_lazily():
    code = ("import sqflab, sqflab.cli, sqflab.arith as a; "
            "assert a._wheel.cache_info().currsize == 0; "
            "a.squarefree_window(0, 10); "
            "assert a._wheel.cache_info().currsize == 1")
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


def test_squarefree_window_matches_mu():
    flags = squarefree_window(1, 2001)
    assert isinstance(flags, np.ndarray)
    assert flags.dtype == bool and flags.shape == (2000,)
    for n in range(1, 2001):
        assert bool(flags[n - 1]) == (_mu_brute(n) != 0), n
    vals = 1 + np.flatnonzero(flags)
    assert vals[0] == 1 and vals[-1] <= 2000


def _window_oracle(lo, hi):
    """Squarefree flags of [lo, hi) by clearing every p^2 in turn."""
    flags = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        flags[0] = False
    for p in primes_up_to(math.isqrt(hi - 1)).tolist():
        flags[(-lo) % (p * p) :: p * p] = False
    return flags


_PERIOD = 4 * 9 * 25 * 49


@pytest.mark.parametrize("length", [1, _PERIOD - 1, _PERIOD, _PERIOD + 1,
                                    211 ** 2 + 1, _SEGMENT, 2 * _SEGMENT + 3])
def test_squarefree_window_matches_per_prime_oracle(length):
    # runs (first lo, last lo), each checked against one oracle window:
    # lo = 0, 1; m - 1, m, m + 1 for multiples m of the period up to about
    # 10^12; a random lo; windows that start or end on p^2 for the least
    # prime that hits at most once and for 999983.  A window of 211^2 + 1
    # holds two multiples of 211^2, where strided and single-hit clearing meet
    rng = random.Random(length)
    multiples = [_PERIOD, _PERIOD * rng.randrange(2, 10 ** 4),
                 _PERIOD * rng.randrange(10 ** 7, 10 ** 12 // _PERIOD)]
    runs = [(0, 1), (rng.randrange(10 ** 12),) * 2]
    runs += [(m - 1, m + 1) for m in multiples]
    p = math.isqrt(length - 1) + 1
    while not is_prime(p):
        p += 1
    for sq in (p * p, 999983 ** 2):
        runs += [(sq,) * 2, (sq - length + 1,) * 2]
    for first, last in runs:
        ref = _window_oracle(first, last + length)
        for lo in range(first, last + 1):
            flags = squarefree_window(lo, lo + length)
            assert np.array_equal(flags, ref[lo - first :][:length]), lo
    assert not squarefree_window(0, length)[0]


def test_squarefree_count_known_values():
    assert squarefree_count(1) == 1
    assert squarefree_count(10) == 7
    assert squarefree_count(100) == 61
    assert squarefree_count(1000) == 608


def test_counts_by_residue_consistency():
    X, q = 10 ** 4, 12
    counts = squarefree_counts_by_residue(X, q)
    assert counts.sum() == squarefree_count(X)
    vals = 1 + np.flatnonzero(squarefree_window(1, X + 1))
    ref = np.bincount(vals % q, minlength=q)
    assert np.array_equal(counts, ref)


@lru_cache(maxsize=None)
def _squarefree_values(X):
    return 1 + np.flatnonzero(squarefree_window(1, X + 1))


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
    (_X3, 2),                    # divides the wheel period 44100
    (_X3, 900),                  # divides it
    (_X3, 44100),                # equals it
    (_X3, 44101),                # coprime to it
])
def test_counts_by_residue_matches_bincount_oracle(X, q):
    counts = squarefree_counts_by_residue(X, q)
    assert counts.dtype == np.int64 and counts.shape == (q,)
    assert np.array_equal(counts, _residue_oracle(X, q))


# ---------------------------------------------------------------------------
# squarefree_counts_by_moduli: one pass, every modulus, narrow accumulators
# ---------------------------------------------------------------------------

_MU_LISTING_MAX = 5000


@lru_cache(maxsize=1)
def _mu_listing():
    """Squarefree n <= 5000 listed by mu_of, independent of the sieve."""
    return np.array([n for n in range(1, _MU_LISTING_MAX + 1) if mu_of(n)])


def _moduli_oracle(X, q):
    """Counts by residue mod q from mu_of for X <= 5000, else from a bincount
    of one sieve window's values: neither reaches the accumulation kernel."""
    if X <= _MU_LISTING_MAX:
        vals = _mu_listing()[: int(np.searchsorted(_mu_listing(), X, "right"))]
    else:
        vals = np.flatnonzero(squarefree_window(0, X + 1))
    return np.bincount(vals % q, minlength=q)


def _check_moduli(X, qs):
    outs = list(squarefree_counts_by_moduli(X, qs))
    assert len(outs) == len(qs)
    for q, counts in zip(qs, outs):
        assert counts.shape == (q,)
        assert counts.dtype == np.min_scalar_type(-(-X // q)), (X, q)
        assert np.array_equal(counts, _moduli_oracle(X, q)), (X, q)
    return outs


@given(st.one_of(st.integers(1, _MU_LISTING_MAX),
                 st.integers(_MU_LISTING_MAX + 1, 3 * _SEGMENT)),
       st.data())
@settings(max_examples=40, deadline=None)
def test_counts_by_moduli_match_oracles(X, data):
    small = st.integers(1, min(X, 600))
    qs = data.draw(st.lists(st.one_of(small, st.integers(1, X)),
                            min_size=1, max_size=4))
    _check_moduli(X, qs)


def test_counts_by_moduli_edge_moduli():
    # q = 1, q = X, q above 2^20 and a repeated q in one pass over four
    # windows; the repeated q is counted once and yields the same array.
    # 256,020 = 255 * 1004, so 1004 and 1003 put ceil(X/q) at 255 (uint8)
    # and 256 (uint16)
    outs = _check_moduli(_X3, [1000, 1, _X3, _SEGMENT + 3, 1000])
    assert outs[0] is outs[4]
    outs = _check_moduli(256020, [1004, 1003, 256020])
    assert [o.dtype for o in outs] == [np.uint8, np.uint16, np.uint8]


@pytest.mark.parametrize("q", [2**19 + 1, 2**20 - 1, 2**20 + 1])
def test_counts_by_moduli_memory_past_half_a_window(q):
    # a modulus wider than half a window takes at most one whole row of a
    # window, which goes into the counts without a q-byte copy: the pass
    # holds the counts and one window, and 2^20 + 1 (no whole row) is the
    # boundary case
    squarefree_counts_by_moduli(_X3, [q])  # warm the wheel and prime table
    tracemalloc.start()
    try:
        (counts,) = squarefree_counts_by_moduli(_X3, [q])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counts.nbytes + _SEGMENT + 2**16, peak
    assert np.array_equal(counts, _residue_oracle(_X3, q))


@pytest.mark.parametrize("X", [16776960, 16777216])
def test_counts_by_moduli_q1_at_uint16_switch(X):
    # q = 1 keeps 256 columns; ceil(X/256) is 65535 and then 65536, so the
    # accumulator is uint16 at the first X and uint32 at the second
    (counts,) = squarefree_counts_by_moduli(X, [1])
    assert counts.dtype == np.uint32
    assert int(counts[0]) == int(np.count_nonzero(squarefree_window(0, X + 1)))


@pytest.mark.parametrize("qs", [[5, 0], [5, -3], [5, 101]])
def test_counts_by_moduli_reject_before_sieving(qs, monkeypatch):
    def no_sieve(lo, hi):
        raise AssertionError("sieved before checking the moduli")

    monkeypatch.setattr("sqflab.arith.squarefree_window", no_sieve)
    with pytest.raises(ValueError):
        squarefree_counts_by_moduli(100, qs)[0]


def test_counts_by_moduli_reject_at_the_call(monkeypatch):
    # the counts are a list, so a bad modulus raises at the call itself,
    # before anything is iterated or sieved
    def no_pass(*args):
        raise AssertionError("counted before checking the moduli")

    monkeypatch.setattr(arith, "squarefree_window", no_pass)
    with pytest.raises(ValueError):
        squarefree_counts_by_moduli(100, [5, 0])


def test_counts_are_the_callers_own(monkeypatch):
    # one pass over _X3's four windows counts both moduli; the arrays are
    # fresh and writable, so a write leaves a later call's counts alone
    windows, window = [], arith.squarefree_window
    monkeypatch.setattr(arith, "squarefree_window",
                        lambda lo, hi: windows.append(lo) or window(lo, hi))
    outs = squarefree_counts_by_moduli(_X3, [1000, 7])
    assert len(windows) == 4
    for counts in outs:
        counts += 1
    for counts, fresh in zip(outs, _check_moduli(_X3, [1000, 7])):
        assert np.array_equal(counts, fresh + 1)
    # so is the int64 copy of squarefree_counts_by_residue
    counts = squarefree_counts_by_residue(1000, 7)
    counts[0] += 1
    assert squarefree_counts_by_moduli(1000, [7])[0][0] == counts[0] - 1
