"""Counter layer: the mirror walk over the residues, the dispersion identity
and Croft's variance, each against an independent brute-force oracle; then
the local counts u_p of tests/oracles.py against their brute-force form
where criterion 9 does not reach, and the oracles' rejections."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqflab import counters
from sqflab.arith import (mu_of, phi_of, prime_factors,
                          squarefree_counts_by_residue, squarefree_window)
from sqflab.counters import (CorrelationResult, _block_sums,
                             _gcd_class_moments, _mirror_walk, _partner,
                             _quadratic, croft_variance, dispersion_check,
                             error_vector, hooley_report, variance_M2)
from sqflab.multiplicative import euler_constant
from sqflab.records import _SUM_BLOCK, _block_sum, _rounded

from oracles import lattice_count_N, pair_enumeration_S, u_p_brute, u_p_local


# ---------------------------------------------------------------------------
# error vector
# ---------------------------------------------------------------------------

def _brute_counts(X, q):
    vals = 1 + np.flatnonzero(squarefree_window(1, X + 1))
    return np.bincount(vals % q, minlength=q)


def _gathered(X, q, counts):
    """(a, count(a), main) with error_vector's halves joined, a ascending:
    the first half of each piece is at a, the second at q - a."""
    main, walk = error_vector(X, q, counts)
    a, ca = [], []
    for r, halves in walk:
        a += [r, q - r][:len(halves)]
        ca += halves
    a = np.concatenate(a)
    order = np.argsort(a)
    return a[order], np.concatenate(ca)[order], main


def test_error_vector_counts_and_errors():
    # the full count vector is checked against the bincount oracle in
    # test_arith.py; here only the coprime gather and the main term
    X, q = 3000, 12
    counts = squarefree_counts_by_residue(X, q)
    a, ca, main = _gathered(X, q, counts)
    assert list(a) == [r for r in range(q) if math.gcd(r, q) == 1]
    assert len(a) == phi_of(q)
    # the gathered counts keep the caller's dtype, never widened
    assert ca.dtype == np.int64
    for dtype in (np.uint8, np.uint16, np.uint32):
        assert _gathered(X, q, counts.astype(dtype))[1].dtype == dtype
    assert np.array_equal(ca, _brute_counts(X, q)[a])
    # main term = C(q) X / q
    cq = euler_constant("C_of_q", arg=q)
    assert main.value == cq.value * X / q
    assert main.abs_err >= cq.abs_err * X / q
    # errors over the coprime classes nearly cancel: their sum is
    # Q_coprime(X) - phi(q) C(q) X / q, which is O(sqrt X), not O(X)
    assert abs(math.fsum((ca - main.value).tolist())) < 4 * math.sqrt(X)


def test_counts_of_the_wrong_modulus_are_rejected():
    # counts mod 20 (too long) or mod 5 (too short) passed as counts mod 10
    X, q = 1000, 10
    for wrong in (20, 5):
        counts = squarefree_counts_by_residue(X, wrong)
        for call in (lambda: error_vector(X, q, counts),
                     lambda: variance_M2(X, q, 1, counts),
                     lambda: dispersion_check(X, q, 1, counts),
                     lambda: croft_variance(X, q, counts),
                     lambda: hooley_report(X, q, counts)):
            with pytest.raises(ValueError, match="residue class mod 10"):
                call()


def test_negative_or_float_counts_are_rejected():
    # a negative int64 count wraps the exact sums (c[1] = -2^40, c[2] = 3 at
    # q = 7 gave S = 9, not 2^80 + 9), so does a uint64 count past 2^63
    # once widened to int64, and float counts were truncated
    X, q = 100, 7
    negative = np.zeros(q, dtype=np.int64)
    negative[1], negative[2] = -2 ** 40, 3
    huge = np.zeros(q, dtype=np.uint64)
    huge[1], huge[2] = 2 ** 63 + 5, 3
    floats = squarefree_counts_by_residue(X, q).astype(np.float64)
    floats[1] += 0.5
    for counts in (negative, huge, floats):
        for call in (lambda: variance_M2(X, q, 1, counts),
                     lambda: croft_variance(X, q, counts),
                     lambda: hooley_report(X, q, counts)):
            with pytest.raises(ValueError, match="nonnegative integers"):
                call()


@pytest.mark.parametrize("q", [97, 100])
def test_statistics_equal_across_count_dtypes(q):
    # the CLI passes the narrowest unsigned counter that cannot wrap; every
    # statistic must read it exactly as it reads int64 counts
    X = 20000
    wide = squarefree_counts_by_residue(X, q)
    assert wide.dtype == np.int64 and wide.max() < 256

    def stats(counts):
        res = variance_M2(X, q, -1, counts)
        rec = dispersion_check(X, q, -1, counts)
        croft = croft_variance(X, q, counts)
        return (res.S_exact, res.M2_exact, res.decomposition_residual,
                rec.as_dict(), croft.value, croft.abs_err,
                hooley_report(X, q, counts))

    expected = stats(wide)
    for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
        assert stats(wide.astype(dtype)) == expected, dtype


_WALK_MODULI = [1, 2, 3, 4, 8, 9, 12, 44100, 65537, 131075]


def test_mirror_walk_meets_each_residue_once():
    # counts equal to the residues themselves show which residue each half
    # holds.  Every residue mod q lies in exactly one piece, as itself or
    # as its reflection q - a, and the coprime walk keeps exactly the
    # coprime ones; the own half of a piece spans at most 2^15 residues, and
    # at 65537 the half-range [1, 32769) is exactly one block
    for q in sorted(set(range(1, 2000)) | set(_WALK_MODULI) | {
            2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 30030, 510510, 2 ** 20}):
        counts = np.arange(q, dtype=np.int64)
        seen = []
        for lo, halves in _mirror_walk(q, counts):
            own = halves[0]
            assert 0 < len(own) <= _SUM_BLOCK
            assert np.array_equal(own, np.arange(lo, lo + len(own)))
            if len(halves) == 1:  # a residue that is its own reflection
                assert len(own) == 1 and 2 * lo % q == 0
            else:
                assert np.array_equal(halves[1], q - own)
            seen += halves
        assert np.array_equal(np.sort(np.concatenate(seen)), counts), q
        coprime = []
        for a, halves in error_vector(q, q, counts)[1]:
            assert a.dtype == np.int64 and len(a) > 0
            assert np.array_equal(halves[0], a)
            if len(halves) == 2:
                assert np.array_equal(halves[1], q - a)
            coprime += halves
        assert np.array_equal(np.sort(np.concatenate(coprime)),
                              np.flatnonzero(np.gcd(counts, q) == 1)), q


def test_partner_index_past_int64_products():
    # (m mod q) a passes 2^63 once q > 3.04e9; near q = 2^40 the product
    # reaches 2^80, so the index must come from exact integers
    for q in (2 ** 32, 2 ** 32 + 15, 2 ** 40 + 15, 2 ** 40 - 87):
        a = np.array([0, 1, 2, q // 2, q - 12345, q - 2, q - 1],
                     dtype=np.int64)
        for m in (-1, -3, 5, q - 3, 2 ** 62 + 5):
            got = _partner(a, m, q)
            assert got.dtype == np.int64
            assert got.tolist() == [m * int(x) % q for x in a], (q, m)


# ---------------------------------------------------------------------------
# double sum S and the dispersion identity
# ---------------------------------------------------------------------------

def test_double_sum_matches_pair_enumeration_seeded():
    rng = random.Random(20240917)
    checked = 0
    while checked < 20:
        X = rng.randrange(200, 2001)
        q = rng.randrange(2, 60)
        m = rng.choice([1, -1, 2, 3, -5, 7])
        if math.gcd(abs(m), q) != 1:
            continue
        S = variance_M2(X, q, m, squarefree_counts_by_residue(X, q)).S_exact
        assert S == pair_enumeration_S(X, q, m), (X, q, m)
        checked += 1


@pytest.mark.parametrize("bound", [2 ** 53 - 2 ** 32, 2 ** 53,
                                   2 ** 62 + 2 ** 32],
                         ids=["below-2^53", "at-2^53", "past-2^62"])
@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
def test_block_sums_exact_around_the_float_limit(dtype, bound):
    # len(c) max(c) max(c') equals the bound: below 2^53 the float64 sum and
    # dot are exact, from 2^53 on Python ints take over.  c is in the dtype
    # under test; where the bound needs a partner past that dtype (uint8
    # and uint16), the partner is int64.  Counts sit just under their
    # maxima, so the sums come near the bound with every low bit in play
    n = 2 ** 11
    top = min(2 ** 21, 2 ** (8 * np.dtype(dtype).itemsize - 1))
    ptop = bound // (n * top)
    assert n * top * ptop == bound
    partner = dtype if ptop <= np.iinfo(dtype).max else np.int64
    rng = np.random.default_rng(bound % 1009)
    c = (top - rng.integers(0, 2, n)).astype(dtype)
    cp = (ptop - rng.integers(0, 2 ** 10, n)).astype(partner)
    c[0], cp[0] = top, ptop
    exact = (sum(c.tolist()), sum(cp.tolist()),
             sum(x * y for x, y in zip(c.tolist(), cp.tolist())))
    assert _block_sums(c, cp) == exact
    assert _block_sums(cp, cp) == (exact[1], exact[1],
                                   sum(x * x for x in cp.tolist()))


def test_double_sum_exact_past_int64():
    # synthetic counts of ~10^10 per class: the pair products reach 10^20,
    # past the int64 range, and S must still be the exact integer
    big = 10 ** 10
    fake = np.array([0, big + 1, big + 3], dtype=np.int64)
    X = 3 * 10 ** 10
    assert variance_M2(X, 3, 1, fake).S_exact == (big + 1) ** 2 + (big + 3) ** 2
    assert variance_M2(X, 3, -1, fake).S_exact == 2 * (big + 1) * (big + 3)


def test_double_sum_rejections():
    counts = squarefree_counts_by_residue(100, 10)
    with pytest.raises(ValueError):
        variance_M2(100, 10, 5, counts)
    with pytest.raises(ValueError):
        variance_M2(100, 10, 0, counts)


def test_variance_m2_reduces_huge_m_before_numpy():
    # m * a would wrap in int64 for m near 2^62; M2 and S depend on m mod q
    X, q, m = 1000, 7, 2 ** 62 + 5
    counts = squarefree_counts_by_residue(X, q)
    big, small = variance_M2(X, q, m, counts), variance_M2(X, q, m % q, counts)
    assert big.S_exact == small.S_exact == pair_enumeration_S(X, q, m % q) \
        == pair_enumeration_S(X, q, m)
    assert big.M2_exact.value == small.M2_exact.value
    assert big.decomposition_residual <= 1e-8


def test_variance_m2_direct_and_reassembled():
    X, q, m = 3000, 7, 2
    res = variance_M2(X, q, m, squarefree_counts_by_residue(X, q))
    assert isinstance(res, CorrelationResult)
    assert res.S_exact == pair_enumeration_S(X, q, m)

    # independent direct path: brute counts, float main term, fsum
    counts = _brute_counts(X, q)
    M = euler_constant("C_of_q", arg=q).value * X / q
    a = np.array([r for r in range(q) if math.gcd(r, q) == 1])
    E = counts.astype(float) - M
    direct = math.fsum((E[a] * E[(m * a) % q]).tolist())
    assert res.M2_exact.value == pytest.approx(direct, rel=1e-12)

    # the dispersion identity reassembles M2 from S exactly
    fm = Fraction(M)
    reassembled = float(res.S_exact - 2 * fm * int(counts[a].sum())
                        + phi_of(q) * fm * fm)
    scale = max(1.0, abs(direct))
    assert abs(direct - reassembled) <= 1e-8 * scale
    assert res.decomposition_residual <= 1e-8


def test_dispersion_check_records():
    for (q, m) in [(7, 1), (97, -1), (100, 3), (1009, 2)]:
        counts = squarefree_counts_by_residue(20000, q)
        rec = dispersion_check(20000, q, m, counts)
        assert rec.passed, rec.as_dict()
        assert rec.check_id == "counters.dispersion"
        assert rec.params["S"] == variance_M2(20000, q, m, counts).S_exact


# ---------------------------------------------------------------------------
# Croft variance and the Hooley report
# ---------------------------------------------------------------------------

def test_croft_variance_vs_brute():
    X, q = 4000, 12
    counts = _brute_counts(X, q).astype(float)
    six_over_pi2 = 6.0 / math.pi ** 2
    hq = math.prod(p / (p + 1.0) for p in prime_factors(q))
    total = 0.0
    for a in range(q):
        d = math.gcd(a, q)
        q0 = q // d
        expected = 0.0
        if mu_of(d) != 0:
            expected = six_over_pi2 * hq * (X / q) * q0 / phi_of(q0)
        total += (counts[a] - expected) ** 2
    got = croft_variance(X, q, squarefree_counts_by_residue(X, q))
    assert got.value == pytest.approx(total, rel=1e-9)
    assert got.abs_err < 1e-6 * max(1.0, got.value)


def test_exact_sum_equals_fsum_on_spiked_blocks():
    # the direct dispersion sum adds each block's records._block_sum
    # Fraction and rounds once; on 10^5 elements (four 2^15 blocks) with
    # +-1e300 spikes in every block that gives fsum's correctly rounded
    # float, which np.sum misses
    rng = np.random.default_rng(8)
    n = 10 ** 5
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.integers(-30, 31, n) \
        * rng.random(n)
    x[::1000] = 1e300
    x[1::1000] = -1e300
    exact = math.fsum(x.tolist())
    blocks = [x[i:i + _SUM_BLOCK].copy() for i in range(0, n, _SUM_BLOCK)]
    assert len(blocks) == 4
    assert float(sum(map(_block_sum, blocks))) == exact
    assert exact != float(np.sum(x))  # naive summation loses this one


def test_hooley_report_magnitude():
    # report quantity: no theorem constant to assert, but the normalised
    # max error should be order one, not growing
    for (X, q) in [(20000, 13), (50000, 101), (100000, 997)]:
        val = hooley_report(X, q, squarefree_counts_by_residue(X, q))
        assert 0.0 < val < 1.0, (X, q, val)


_COUNT_LIMITS = {np.uint8: 2 ** 8 - 1, np.uint16: 2 ** 16 - 1,
                 np.uint32: 2 ** 32 - 1, np.int64: 2 ** 62,
                 np.uint64: 2 ** 63 - 1}


@st.composite
def _hooley_cells(draw):
    # counts drawn from a pool of one to three values, so ties and
    # constant vectors are common; X puts C(q)X/q across the count range
    dtype = draw(st.sampled_from(list(_COUNT_LIMITS)))
    top = _COUNT_LIMITS[dtype]
    q = draw(st.integers(1, 40))
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=3))
    counts = np.array(draw(st.lists(st.sampled_from(pool),
                                    min_size=q, max_size=q)), dtype=dtype)
    X = draw(st.integers(1, 2 * q * top + 1))
    return X, q, counts


@given(_hooley_cells())
@settings(max_examples=300, deadline=None)
def test_hooley_max_error_is_the_literal_max(cell):
    X, q, counts = cell
    _, ca, main = _gathered(X, q, counts)
    literal = float(np.max(np.abs(ca - main.value)))
    assert hooley_report(X, q, counts) == \
        literal / (math.sqrt(X / q) + math.sqrt(q))


# ---------------------------------------------------------------------------
# error bars of M2 and Croft's variance
# ---------------------------------------------------------------------------

@st.composite
def _moment_cells(draw):
    # counts of every width the CLI passes, composite q, m coprime to q, and
    # X putting the main terms C(q)X/q across the count range
    dtype = draw(st.sampled_from(list(_COUNT_LIMITS)))
    top = _COUNT_LIMITS[dtype]
    q = draw(st.integers(4, 60).filter(lambda n: len(prime_factors(n)) > 1
                                       or mu_of(n) == 0))
    m = draw(st.integers(-3 * q, 3 * q).filter(lambda k: math.gcd(k, q) == 1))
    counts = np.array(draw(st.lists(st.integers(0, top),
                                    min_size=q, max_size=q)), dtype=dtype)
    X = draw(st.integers(1, 2 * q * top + 1))
    return X, q, m, counts


def _ends(x):
    return (Fraction(x.value) - Fraction(x.abs_err),
            Fraction(x.value) + Fraction(x.abs_err))


def _croft_expected(X, q):
    """croft_variance's e_d as ApproxReal, per squarefree d | q."""
    primes = prime_factors(q)
    hq = Fraction(math.prod(primes), math.prod(p + 1 for p in primes))
    return {d: euler_constant("C_of_q", arg=1)
            * (Fraction(X) * hq * (q // d) / (q * phi_of(q // d)))
            for d in range(1, q + 1) if q % d == 0 and mu_of(d) != 0}


@given(_moment_cells())
@settings(max_examples=200, deadline=None)
def test_m2_bar_contains_the_sum_over_the_main_terms_interval(cell):
    X, q, m, counts = cell
    res = variance_M2(X, q, m, counts)
    c = [int(v) for v in counts]
    a = [r for r in range(q) if math.gcd(r, q) == 1]
    for M in _ends(error_vector(X, q, counts)[0]):
        exact = sum((c[r] - M) * (c[m * r % q] - M) for r in a)
        assert res.M2_exact.contains(exact), (M, exact, res.M2_exact)


@given(_moment_cells())
@settings(max_examples=200, deadline=None)
def test_croft_bar_contains_the_sum_over_the_expected_intervals(cell):
    # each gcd class d contributes sum (c - e_d)^2 on its own, so the
    # extremes over every choice of ends are the sums of the per-class
    # extremes; classes with no squarefree gcd expect 0
    X, q, _, counts = cell
    got = croft_variance(X, q, counts)
    expected = _croft_expected(X, q)
    lo = hi = Fraction(0)
    for d in range(1, q + 1):
        if q % d:
            continue
        cls = [int(counts[r]) for r in range(q) if math.gcd(r, q) == d]
        sums = [sum((v - e) ** 2 for v in cls)
                for e in (_ends(expected[d]) if d in expected else (0,))]
        lo, hi = lo + min(sums), hi + max(sums)
    assert got.contains(lo) and got.contains(hi), (lo, hi, got)


def test_croft_exact_for_counts_past_2_53():
    # counts near 2^55 lose their low bits as float64, and each lies within
    # a few units of its class's float e_d; the class totals must stay
    # exact, or the error shows far above the tiny true variance
    X, q = 2 ** 57, 6
    expected = _croft_expected(X, q)
    e = [Fraction(expected[math.gcd(r, q)].value) for r in range(q)]
    counts = np.array([int(v) + 2 * r + 1 for r, v in enumerate(e)],
                      dtype=np.int64)
    exact = sum((int(c) - v) ** 2 for c, v in zip(counts, e))
    got = croft_variance(X, q, counts)
    assert got.value == float(exact) and got.contains(exact)


@pytest.mark.parametrize("X, q, m", [(3000, 1, 1), (20000, 97, -1),
                                     (20000, 100, 3), (100000, 1009, 2),
                                     (100000, 30030, 1)])
def test_bars_are_the_main_terms_change_plus_rounding(X, q, m):
    # the bar is the exact change of the quadratic over the main terms'
    # intervals, plus a few ulps for rounding, and nothing else
    counts = squarefree_counts_by_residue(X, q)
    res = variance_M2(X, q, m, counts)
    _, ca, main = _gathered(X, q, counts)
    M, dM = Fraction(main.value), Fraction(main.abs_err)
    phi = phi_of(q)
    change = 2 * abs(phi * M - int(ca.sum())) * dM + phi * dM * dM
    assert Fraction(res.M2_exact.abs_err) <= \
        change + 4 * Fraction(math.ulp(res.M2_exact.value))

    croft = croft_variance(X, q, counts)
    g = np.gcd(np.arange(q), q)
    change = Fraction(0)
    for d, e in _croft_expected(X, q).items():
        n, t = phi_of(q // d), int(counts[g == d].sum())
        ev, de = Fraction(e.value), Fraction(e.abs_err)
        change += 2 * abs(n * ev - t) * de + n * de * de
    assert Fraction(croft.abs_err) <= \
        change + 4 * Fraction(math.ulp(croft.value))


# ---------------------------------------------------------------------------
# the blockwise walk against the whole-vector formulas
# ---------------------------------------------------------------------------

def _whole_vector_stats(X, q, m, counts):
    """(S, sum c, M2, direct, Croft, Hooley) from phi(q)- and q-length
    arrays, by the formulas the statistics used before they walked the
    residues in blocks: the reference the walk must match bit for bit."""
    g = np.gcd(np.arange(q), q)
    a = np.flatnonzero(g == 1)
    main = euler_constant("C_of_q", arg=q) * X / q
    ca = counts[a].astype(object)  # exact Python-int sums and products
    cp = counts[[m * int(r) % q for r in a]].astype(object)
    total, S = int(ca.sum()), int(np.dot(ca, cp))
    M, dM, phi = Fraction(main.value), Fraction(main.abs_err), len(a)
    m2 = _rounded(float(S - 2 * M * total + phi * M * M),
                  float(2 * abs(phi * M - total) * dM + phi * dM * dM))
    direct = math.fsum(((ca.astype(np.float64) - main.value)
                        * (cp.astype(np.float64) - main.value)).tolist())
    c = counts.astype(object)
    value, err = Fraction(int(np.dot(c, c))), Fraction(0)
    for d, e in _croft_expected(X, q).items():
        n, t = phi_of(q // d), int(c[g == d].sum())
        ev, de = Fraction(e.value), Fraction(e.abs_err)
        value += n * ev * ev - 2 * ev * t
        err += 2 * abs(n * ev - t) * de + n * de * de
    hooley = float(np.max(np.abs(counts[a] - main.value))) \
        / (math.sqrt(X / q) + math.sqrt(q))
    return S, total, m2, direct, _rounded(float(value), float(err)), hooley


@st.composite
def _block_cells(draw):
    # q at and around multiples of the 2^15 block, with the half-range
    # [1, ceil(q/2)) ending on a block edge (65537) or just past one
    # (131075), q <= 12, where 0 and q/2 are their own reflections, prime
    # powers, and moduli with many prime factors, some square; counts of
    # every width from a seed (so nonzero counts sit at every gcd class);
    # m = 1, -1 and its other forms, q + 1, 2, -3 or a random m coprime to q
    q = draw(st.sampled_from(_WALK_MODULI + [
        2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 16 + 3, 2 ** 16, 3 ** 10,
        30030, 510510]))
    dtype = draw(st.sampled_from(list(_COUNT_LIMITS)))
    # a block's sum of c^2 passes 2^63 from c ~ 2^25 on
    top = draw(st.sampled_from([3, min(2 ** 25, _COUNT_LIMITS[dtype]),
                                _COUNT_LIMITS[dtype]]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    counts = rng.integers(0, top, q, endpoint=True, dtype=np.int64) \
        .astype(dtype)
    coprime = lambda k: k != 0 and math.gcd(k, q) == 1
    fixed = [k for k in (1, -1, q - 1, q + 1, 2, -3) if coprime(k)]
    m = draw(st.one_of(st.sampled_from(fixed),
                       st.integers(-10 ** 6, 10 ** 6).filter(coprime)))
    X = draw(st.integers(1, 2 * q * top + 1))
    return X, q, m, counts


@given(_block_cells())
@settings(max_examples=60, deadline=None)
def test_blockwise_statistics_equal_the_whole_vector_formulas(cell):
    X, q, m, counts = cell
    S, total, m2, direct, croft, hooley = _whole_vector_stats(X, q, m, counts)
    res = variance_M2(X, q, m, counts)
    rec = dispersion_check(X, q, m, counts)
    assert res.S_exact == S == rec.params["S"]
    assert sum(sum(h.tolist()) for _, halves in error_vector(X, q, counts)[1]
               for h in halves) == total
    assert res.M2_exact == m2 and rec.rhs == m2.value
    assert rec.lhs == direct
    assert croft_variance(X, q, counts) == croft
    assert hooley_report(X, q, counts) == hooley


def test_quadratic_in_ints_equals_the_fraction_loop():
    # M2's and Croft's quadratics over one power-of-two denominator against
    # the Fraction sums: random e and de of scattered exponents, small and
    # huge n and t
    rng = random.Random(22)
    for _ in range(300):
        terms = [(rng.randrange(1, 10 ** rng.randrange(1, 12)),
                  rng.uniform(0, 1) * 2.0 ** rng.randrange(-60, 60),
                  rng.uniform(0, 1) * 2.0 ** rng.randrange(-110, 10),
                  rng.randrange(0, 10 ** rng.randrange(1, 25)))
                 for _ in range(rng.randrange(1, 70))]
        base = rng.randrange(0, 10 ** rng.randrange(1, 40))
        value, err = Fraction(base), Fraction(0)
        for n, e, de, t in terms:
            ev, dev = Fraction(e), Fraction(de)
            value += n * ev * ev - 2 * ev * t
            err += 2 * abs(n * ev - t) * dev + n * dev * dev
        assert _quadratic(base, terms) == _rounded(float(value), float(err))


def test_statistics_memory_does_not_grow_with_q():
    # at q = 999,983 whole-vector temporaries of the phi(q) coprime classes
    # take 16-38 MiB; the blockwise walk keeps a few 2^15-element arrays,
    # and the histograms' codes are one block's and their bins at most 2^15
    X, q = 2 * 10 ** 7, 999983
    counts = squarefree_counts_by_residue(X, q)
    assert counts.max() < 256
    counts = counts.astype(np.uint8)
    for f in (lambda: variance_M2(X, q, 1, counts),
              lambda: variance_M2(X, q, -1, counts),
              lambda: variance_M2(X, q, 2, counts),
              lambda: croft_variance(X, q, counts),
              lambda: hooley_report(X, q, counts)):
        f()  # warm the cached constants and factorizations
        tracemalloc.start()
        try:
            f()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# the two paths of the dispersion sums, Croft's class totals, and no BLAS
# ---------------------------------------------------------------------------

@st.composite
def _narrow_cells(draw):
    # counts spanning R values at any offset of their dtype, with the ends
    # of the range present so that max - min + 1 = R; q = 1, 2, prime
    # powers up to p^6, moduli with p^2 or p^3 | q, one past two blocks,
    # and random ones; m = 1, -1 or a random unit
    q = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 8, 12, 18, 27, 54, 72,
                                        250, 729, 1000, 3375, 30030,
                                        131075]),
                       st.integers(3, 5000)))
    dtype = draw(st.sampled_from(list(_COUNT_LIMITS)))
    R = 1 if q == 1 else draw(st.integers(1, min(300, _COUNT_LIMITS[dtype])))
    lo = draw(st.sampled_from([0, _COUNT_LIMITS[dtype] - R + 1])
              | st.integers(0, _COUNT_LIMITS[dtype] - R + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    counts = lo + rng.integers(0, R, q)
    counts[0], counts[-1] = lo, lo + R - 1
    coprime = lambda k: k != 0 and math.gcd(k, q) == 1
    m = draw(st.sampled_from([1, -1])
             | st.integers(-10 ** 6, 10 ** 6).filter(coprime))
    # C(q) X/q near the counts, or anywhere
    near = round((lo + R / 2) * q * math.pi ** 2 / 6)
    X = draw(st.sampled_from([max(1, near)])
             | st.integers(1, 2 * q * (lo + R) + 1))
    return X, q, m, counts.astype(dtype)


def _dispersion_stats(X, q, m, counts):
    res = variance_M2(X, q, m, counts)
    rec = dispersion_check(X, q, m, counts)
    return res.S_exact, res.M2_exact, rec.lhs, res.decomposition_residual


@given(_narrow_cells())
@settings(max_examples=150, deadline=None)
def test_histogram_and_elementwise_paths_agree(cell):
    # (S, M2 and its bar, the direct sum, the residual) from the histogram
    # of the pairs equal those from the elementwise sums, each path forced
    # on the same cell; unforced, the histogram serves exactly the cells
    # whose bins (R, or R^2 when paired) fit one block and number at most
    # 2^13 more than phi(q)
    X, q, m, counts = cell
    lo = int(counts.min())
    R = int(counts.max()) - lo + 1
    paired = m % q != 1 % q
    histogram, elementwise = (counters._histogram_parts,
                              counters._elementwise_parts)
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counters, "_histogram_parts",
                   lambda *args: taken.append("h") or histogram(*args))
        mp.setattr(counters, "_elementwise_parts",
                   lambda *args: taken.append("e") or elementwise(*args))
        unforced = _dispersion_stats(X, q, m, counts)
    bins = R * R if paired else R
    assert taken == 2 * ["h" if bins <= min(_SUM_BLOCK, 2 ** 13 + phi_of(q))
                         else "e"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counters, "_histogram_parts",
                   lambda pairs, lo, R, paired, M: elementwise(pairs, M))
        by_elements = _dispersion_stats(X, q, m, counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counters, "_elementwise_parts",
                   lambda pairs, M: histogram(pairs, lo, R, paired, M))
        by_histogram = _dispersion_stats(X, q, m, counts)
    assert by_histogram == by_elements == unforced


@st.composite
def _class_cells(draw):
    dtype = draw(st.sampled_from(list(_COUNT_LIMITS)))
    q = draw(st.one_of(st.sampled_from([1, 2, 8, 12, 16, 27, 72, 1080,
                                        30030]),
                       st.integers(1, 3000)))
    top = draw(st.sampled_from([3, _COUNT_LIMITS[dtype]]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    counts = rng.integers(0, top, q, endpoint=True, dtype=np.int64)
    return q, counts.astype(dtype)


@given(_class_cells())
@example((72, np.full(72, 2 ** 62, dtype=np.int64)))
@example((1, np.array([2 ** 62], dtype=np.int64)))
@settings(max_examples=150, deadline=None)
def test_croft_class_totals_are_the_per_gcd_class_sums(cell):
    # T_d from the divisor sums by inclusion-exclusion, against the sum over
    # the residues whose gcd with q is d; past q max(c)^2 = 2^63 (int64
    # counts near 2^62) every sum is in Python ints
    q, counts = cell
    c = counts.tolist()
    gcds = [math.gcd(a, q) for a in range(q)]
    sq, classes = _gcd_class_moments(q, counts)
    assert sq == sum(x * x for x in c)
    assert sorted(d for d, _, _ in classes) == \
        [d for d in range(1, q + 1) if q % d == 0 and mu_of(d) != 0]
    for d, n, total in classes:
        assert n == phi_of(q // d)
        assert total == sum(x for x, g in zip(c, gcds) if g == d), d


def test_statistics_call_no_blas(monkeypatch):
    # np.dot on float64 runs in BLAS's thread pool, which on a 2-CPU host
    # held one 30-block variance_M2 call for 0.2 s in 2 of 25 processes;
    # the exact sums need no BLAS.  Counts spanning 10^6 values take the
    # elementwise path at every m, a narrow range the histogram
    def no_blas(*args, **kwargs):
        raise AssertionError("np.dot called")

    q = 3 ** 3 * 5 * 7 * 11 * 13
    rng = np.random.default_rng(37)
    wide = rng.integers(0, 10 ** 6, q)
    narrow = rng.integers(100, 120, q).astype(np.uint8)
    monkeypatch.setattr(np, "dot", no_blas)
    for X, counts in ((5 * 10 ** 5 * q, wide), (110 * q, narrow)):
        for m in (1, -1, 2):
            assert variance_M2(X, q, m, counts).decomposition_residual < 1e-8
        assert croft_variance(X, q, counts).value > 0


# ---------------------------------------------------------------------------
# the oracles' local counts u_p and lattice counts
# ---------------------------------------------------------------------------

def test_u_p_local_vs_brute_exhaustive():
    # criterion 9 (test_acceptance.py) runs this grid at its other m
    m = -15
    for p in (2, 3, 5, 7):
        for q in (1, 11, 13):
            if q % p == 0:
                continue
            for l in range(-2 * p * p, 2 * p * p + 1):
                assert u_p_local(p, l, m, q) == u_p_brute(p, l, m, q), \
                    (p, l, q)


def test_u_p_rejections():
    with pytest.raises(ValueError):
        u_p_local(5, 1, 1, 10)
    with pytest.raises(ValueError):
        u_p_local(3, 1, 0, 5)
    with pytest.raises(ValueError):
        u_p_local(3, 1, 4, 5)


def test_lattice_rejections():
    with pytest.raises(ValueError):
        lattice_count_N(0, 1, 1, 1, 100, 3)
    with pytest.raises(ValueError):
        lattice_count_N(1, 1, 3, 1, 100, 6)
    with pytest.raises(ValueError):
        lattice_count_N(1, 1, 1, 1, 2 ** 62, 2)  # q X = 2^63 would wrap c v
