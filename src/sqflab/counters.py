"""Exact enumerative quantities: per-residue error terms, the variance and
correlation sums, the double sum S[m], and Croft's all-classes variance.

Everything here is either an exact integer count or a value built from
exact counts plus one Euler-product constant.  M2 and Croft's variance are
quadratics in the float main terms over integer moments of the counts,
evaluated exactly, so their error bars come from the main terms' bars
alone.  The direct float sum of E(a) E(ma), exact and rounded once, is the
other side of the dispersion identity, checked to 1e-8 relative.  The
residue-class statistics never sieve: they read the caller's counts, one
vector per (X, q).  M2 walks them once, in blocks of at most _SUM_BLOCK
residues a of [1, ceil(q/2)) each read with its reflection q - a, so apart
from the counts no array it builds grows with q, and the index work of a
block serves both halves.  Counts of a narrow range go into one histogram
per cell, which every moment and the direct sum read once per distinct
(c, c'); wider ones are summed block by block in their own dtype, as
float64 sums while every partial sum is an integer below 2^53 and
Python-int sums past that.  Croft's variance needs only sum c^2 and the
divisor sums of the counts, whole-vector reductions with no walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, phi_of, require_mq
from .multiplicative import euler_constant
from .records import (_SUM_BLOCK, ApproxReal, VerificationRecord, _block_sum,
                      _rounded)


# ---------------------------------------------------------------------------
# the mirror walk, and the error terms on it
# ---------------------------------------------------------------------------

def _mirror_walk(q: int, counts: np.ndarray):
    """(lo, halves) over the residues mod q, each once: for the blocks
    [lo, hi) of at most _SUM_BLOCK residues that cut [1, ceil(q/2)), halves
    is [counts[lo:hi], the counts at the reflections q - a in the same
    order]; the residues that are their own reflection, 0 and q/2 for even
    q, come as (a, [counts[a:a+1]]).  gcd(q - a, q) = gcd(a, q), so one
    coprime index made for [lo, hi) serves both halves."""
    yield 0, [counts[:1]]
    end = (q + 1) // 2
    for lo in range(1, end, _SUM_BLOCK):
        hi = min(lo + _SUM_BLOCK, end)
        yield lo, [counts[lo:hi], counts[q - hi + 1:q - lo + 1][::-1]]
    if q % 2 == 0:
        yield q // 2, [counts[q // 2:q // 2 + 1]]


def _coprime_walk(q: int, counts: np.ndarray):
    """(a, halves) per piece of _mirror_walk that holds a residue coprime to
    q: a those residues of the piece's own half, as int64, from a bool mask
    with every p-th entry cleared for each prime p | q, and halves its
    halves' counts at a (and at q - a), gathered in the caller's dtype."""
    primes = [p for p, _ in factorize(q)]
    for lo, halves in _mirror_walk(q, counts):
        keep = np.ones(len(halves[0]), dtype=bool)
        for p in primes:
            keep[-lo % p::p] = False
        idx = np.flatnonzero(keep)
        if len(idx):
            yield lo + idx, [h[idx] for h in halves]


def _check_counts(q: int, counts: np.ndarray) -> None:
    """One count per class mod q, in an integer dtype, in [0, 2^63): a
    float would be truncated, and _block_sums' float path is exact only for
    nonnegative counts.  The sieve's uint8 to uint32 counts need no scan."""
    if counts.shape != (q,):
        raise ValueError(f"need one count per residue class mod {q}, "
                         f"got shape {counts.shape}")
    kind = counts.dtype.kind
    if (kind not in "iu" or kind == "i" and counts.min() < 0
            or counts.dtype == np.uint64 and counts.max() >= 2 ** 63):
        raise ValueError(f"counts must be nonnegative integers below 2^63, "
                         f"got dtype {counts.dtype}")


def error_vector(X: int, q: int, counts: np.ndarray) -> tuple:
    """(C(q) X/q, walk) from the caller's squarefree counts mod q on [1, X]:
    the main term, and an iterator over (a, halves) that meets every residue
    coprime to q once, either as an a or as its reflection q - a.  a holds
    the coprime residues of one block of [1, ceil(q/2)), and halves is
    [count(a), count(q - a)]; a residue that is its own reflection (0 for
    q = 1, 1 for q = 2) comes with the one half [count(a)].  The counts are
    gathered in the caller's dtype, so E(X,q,a) = count(a) - C(q) X/q."""
    _check_counts(q, counts)
    main = euler_constant("C_of_q", arg=q) * X / q
    return main, _coprime_walk(q, counts)


def _partner(a: np.ndarray, m: int, q: int) -> np.ndarray:
    """(m a) mod q for residues 0 <= a < q, as int64 and without wrapping:
    in uint64 for q <= 2^32, where both factors are below 2^32, and in
    Python ints above that."""
    m %= q
    if q <= 2 ** 32:
        b = a.view(np.uint64) * np.uint64(m)
        b %= np.uint64(q)
        return b.view(np.int64)
    return np.array([m * int(x) % q for x in a.tolist()], dtype=np.int64)


def _block_sums(c: np.ndarray, c_partner: np.ndarray) -> tuple:
    """(sum_i c[i], sum_i c_partner[i], sum_i c[i] c_partner[i]) exactly for
    one block of nonnegative integer counts in any dtype.  Every partial sum
    of each is an integer of at most len(c) max(1, max(c)) max(1,
    max(c_partner)); while that is below 2^53 float64 sums and an einsum
    product sum are exact in any order, otherwise sum Python ints.  (np.dot
    would be exact too, but it runs in BLAS's thread pool, which on a small
    host can stall a block for milliseconds.)"""
    top = max(1, int(c.max(initial=0))) * max(1, int(c_partner.max(initial=0)))
    if len(c) * top < 2 ** 53:
        cf = c.astype(np.float64)
        cpf = cf if c_partner is c else c_partner.astype(np.float64)
        t = int(cf.sum())
        return (t, t if cpf is cf else int(cpf.sum()),
                int(np.einsum("i,i->", cf, cpf)))
    c, cp = c.tolist(), c_partner.tolist()
    return sum(c), sum(cp), sum(x * y for x, y in zip(c, cp))


@dataclass(frozen=True)
class CorrelationResult:
    S_exact: int
    M2_exact: ApproxReal
    decomposition_residual: float


def _quadratic(base: int, terms: list) -> ApproxReal:
    """base + sum_j (n_j e_j^2 - 2 e_j t_j) over the terms (n, e, de, t).
    For n classes with counts c, t = sum c and base = sum c c', c' a
    permutation of c (c itself for Croft, c(ma) for M2), it is
    sum (c - e)(c' - e).  Over e's interval [e - de, e + de] each term moves
    by at most 2 |n e - t| de + n de^2, and their sum is the bar.  The ints
    n, t and floats e, de are dyadic, so both sums are exact in ints over
    one power-of-two denominator and rounded once."""
    ratios = [x.as_integer_ratio() for _, e, de, _ in terms for x in (e, de)]
    D = max(d for _, d in ratios)
    nums = [n * (D // d) for n, d in ratios]
    value, err = base * D * D, 0
    for (n, _, _, t), E, F in zip(terms, nums[::2], nums[1::2]):
        value += n * E * E - 2 * E * t * D
        err += 2 * abs(n * E - t * D) * F + n * F * F
    return _rounded(value / (D * D), err / (D * D))


def _histogram_parts(pairs, lo: int, R: int, paired: bool,
                     M: float) -> tuple:
    """(phi, sum c + c', S, direct) over the pairs (c, c') from one
    histogram: each pair adds the bincount of its codes (c - lo) R + (c' - lo),
    or of c - lo alone where c' is c, so every statistic is read once per
    distinct (c, c') from its multiplicity n.  fl(c - M) is formed as the
    elementwise path forms it, from the count correctly rounded to float64,
    and direct is sum n fl(fl(c - M) fl(c' - M)) exactly, in Python ints
    over one power-of-two denominator: the multiset of rounded products is
    the elementwise path's."""
    hist = np.zeros(R * R if paired else R, dtype=np.int64)
    for c, cp in pairs:
        code = np.subtract(c, lo, dtype=np.intp)
        if paired:
            code *= R
            code += np.subtract(cp, lo, dtype=np.intp)
        hist += np.bincount(code, minlength=len(hist))
    nz = np.flatnonzero(hist)
    i, j = np.divmod(nz, R) if paired else (nz, nz)
    e = (np.arange(R) + lo) - M
    n = hist[nz].tolist()
    ratios = [x.as_integer_ratio() for x in (e[i] * e[j]).tolist()]
    D = max(d for _, d in ratios)
    v, vp = (i + lo).tolist(), (j + lo).tolist()
    return (sum(n), sum(k * (x + y) for k, x, y in zip(n, v, vp)),
            sum(k * x * y for k, x, y in zip(n, v, vp)),
            Fraction(sum(k * t * (D // d) for k, (t, d) in zip(n, ratios)), D))


def _elementwise_parts(pairs, M: float) -> tuple:
    """(phi, sum c + c', S, direct) over the pairs (c, c'), each pair's
    sums from _block_sums and its products fl(fl(c - M) fl(c' - M)) summed
    exactly by records._block_sum."""
    phi = twice_total = S = direct = 0  # direct: exact, a sum of Fractions
    for c, cp in pairs:
        t, tp, s = _block_sums(c, cp)
        phi += len(c)
        twice_total += t + tp
        S += s
        e = c - M
        e *= e if cp is c else cp - M
        direct += _block_sum(e)
    return phi, twice_total, S, direct


def _histogram_bins(q: int) -> int:
    """The most bins for which _dispersion_parts takes the histogram: they
    must fit one block, and past 2^13 bins more than phi(q) the histogram's
    passes over its bins cost more than the elementwise sums over the
    phi(q) residues (timed on both paths from q = 7 to 10^6)."""
    return min(_SUM_BLOCK, 2 ** 13 + phi_of(q))


def _dispersion_parts(X: int, q: int, m: int, counts: np.ndarray):
    """(M2 from the integer moments as ApproxReal, direct M2, exact S,
    comparison scale) for one cell, in one mirror walk.  Each half of a
    piece is paired with its partners' counts c(ma): itself for m = 1, the
    other half for m = -1 (whose two pairs have the same products, so one
    is taken twice: for q >= 3 every coprime piece has both halves), else
    the counts at pa = (ma) mod q and at m(q - a) = q - pa.  Over all pairs
    sum c + sum c' = 2 sum c, since c' permutes the coprime counts.

    With R = max - min + 1 over the counts, the pairs go into one histogram
    when its bins (R at m = 1, else R^2 pair bins) are at most
    _histogram_bins(q), and otherwise are summed elementwise; both give
    the same integers and the same exact direct sum."""
    require_mq(m, q)
    main, walk = error_vector(X, q, counts)
    M, m = main.value, m % q
    weight, paired = 1, m != 1 % q
    if not paired:
        pairs = ((h, h) for _, halves in walk for h in halves)
    elif m == q - 1:
        pairs, weight = ((c, cp) for _, (c, cp) in walk), 2
    else:  # pa > 0: 0 is coprime only to q = 1, where m = 1
        pairs = (pair for a, halves in walk for pa in [_partner(a, m, q)]
                 for pair in zip(halves, (counts[pa], counts[q - pa])))
    lo = int(counts.min())
    R = int(counts.max()) - lo + 1
    if (R * R if paired else R) <= _histogram_bins(q):
        parts = _histogram_parts(pairs, lo, R, paired, M)
    else:
        parts = _elementwise_parts(pairs, M)
    phi, twice_total, S, direct = (weight * x for x in parts)
    direct = float(direct)
    m2 = _quadratic(S, [(phi, M, main.abs_err, twice_total // 2)])
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


# ---------------------------------------------------------------------------
# Croft's all-classes variance and the Hooley envelope report
# ---------------------------------------------------------------------------

def _gcd_class_moments(q: int, counts: np.ndarray) -> tuple:
    """(sum c^2, [(d, phi(q/d), T_d)] over the squarefree d | q), T_d the
    total count of the residues a with gcd(a, q) = d.  sum c^2 and the
    divisor sums U_g, the total count at the multiples of g | q, are int64
    reductions while q max(c)^2 < 2^63 bounds every partial sum, and Python
    ints past that.  T_d = sum mu(g/d) U_g over d | g | q, by
    inclusion-exclusion one prime at a time on the grid of g = prod p^x_p,
    x_p <= min(e_p, 2); phi(q/d) comes from q's own factorization."""
    fac = factorize(q)
    top = int(counts.max())
    if q * top * top < 2 ** 63:
        sq = int(np.einsum("i,i->", counts, counts, dtype=np.int64,
                           casting="unsafe"))
        divisor_sum = lambda g: int(counts[::g].sum(dtype=np.int64))
    else:
        sq = sum(x * x for x in counts.tolist())
        divisor_sum = lambda g: sum(counts[::g].tolist())
    # one axis per prime p^e || q, of Python ints
    outer = lambda rows: functools.reduce(np.multiply.outer, rows,
                                          np.ones((), dtype=object))
    g = outer([[p ** x for x in range(min(e, 2) + 1)] for p, e in fac])
    phi = outer([[(p - 1) * p ** (e - x - 1) if x < e else 1
                  for x in (0, 1)] for p, e in fac])
    T = np.array([divisor_sum(x) for x in g.flat], dtype=object)
    T = T.reshape(g.shape)
    # U at x_p less U at x_p + 1 is the total at the a with p^x_p || a,
    # which the grid gives for x_p in {0, 1}
    for axis in range(len(fac)):
        grid = np.moveaxis(T, axis, 0)
        grid[:-1] -= grid[1:]
    squarefree = (slice(0, 2),) * len(fac) + (...,)
    return sq, list(zip(g[squarefree].flat, phi.flat, T[squarefree].flat))


def croft_variance(X: int, q: int, counts: np.ndarray) -> ApproxReal:
    """Sum over all residues a mod q of (count(a) - expected(a))^2 with the
    class-dependent expected value
    e_d = mu^2(d) (q0/phi(q0)) (6/pi^2) prod_{p|q} (1+1/p)^(-1) X/q,
    d = gcd(a,q), q0 = q/d, from the caller's counts.  It is
    sum c^2 - 2 sum_d e_d T_d + sum_d phi(q0) e_d^2 over the squarefree d | q,
    T_d the total count of the classes with gcd d, exact at the float e_d;
    each class's quadratic moves by at most
    2 |phi(q0) e_d - T_d| de_d + phi(q0) de_d^2 over e_d's interval.
    sum c^2 and every T_d come from whole-vector reductions over the
    counts (_gcd_class_moments), with no per-residue class code."""
    _check_counts(q, counts)
    sq, classes = _gcd_class_moments(q, counts)
    six_over_pi2 = euler_constant("C_of_q", arg=1)
    primes = [p for p, _ in factorize(q)]
    num, den = math.prod(primes), math.prod(p + 1 for p in primes)
    terms = []
    for d, n, T in classes:
        e = six_over_pi2 * Fraction(X * num * (q // d), den * q * n)
        terms.append((n, e.value, e.abs_err, T))
    return _quadratic(sq, terms)


def hooley_report(X: int, q: int, counts: np.ndarray) -> float:
    """max_a |E(X,q,a)| / ((X/q)^(1/2) + q^(1/2)) from the caller's counts;
    the bound's constant is unspecified, so this is only ever reported."""
    main, walk = error_vector(X, q, counts)
    ends = [(int(h.max()), int(h.min())) for _, halves in walk for h in halves]
    top, bottom = max(t for t, _ in ends), min(b for _, b in ends)
    # fl(c - M) is monotone in c: max|c - M| from the extreme counts
    emax = max(top - main.value, main.value - bottom)
    return emax / (math.sqrt(X / q) + math.sqrt(q))
