"""Exact enumerative quantities: per-residue error terms, the variance and
correlation sums, the double sum S[m], Croft's all-classes variance, the
local counts u_p, and lattice counts.

Everything here is either an exact integer count or a value built from
exact counts plus one Euler-product constant.  M2 and Croft's variance are
quadratics in the float main terms over integer moments of the counts,
evaluated exactly, so their error bars come from the main terms' bars
alone.  The direct float sum of E(a) E(ma), exact by records._block_sum
and rounded once, is the other side of the dispersion identity, checked to
1e-8 relative.  The residue-class statistics never sieve: they read the
caller's counts, one vector per (X, q), in blocks of _SUM_BLOCK residues, so
apart from the counts no array they build grows with q.  The blocks keep the
counts' own dtype; their integer moments are float64 sums while every
partial sum is an integer below 2^53, and Python-int sums past that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, mu_of, phi_of, require_mq
from .multiplicative import euler_constant
from .records import (_SUM_BLOCK, ApproxReal, VerificationRecord, _block_sum,
                      _rounded)


# ---------------------------------------------------------------------------
# the coprime residues in blocks, and the error terms on them
# ---------------------------------------------------------------------------

def coprime_blocks(q: int):
    """The residues 0 <= b < q coprime to q, ascending, as int64 arrays: one
    per window of _SUM_BLOCK residues (one _block_sum each), from a bool mask
    with every p-th entry cleared for each prime p | q."""
    primes = [p for p, _ in factorize(q)]
    for start in range(0, q, _SUM_BLOCK):
        keep = np.ones(min(_SUM_BLOCK, q - start), dtype=bool)
        for p in primes:
            keep[-start % p::p] = False
        yield start + np.flatnonzero(keep)


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
    """(C(q) X/q, blocks) from the caller's squarefree counts mod q on
    [1, X]: the main term, and an iterator over (a, count(a)) for the blocks
    of coprime_blocks(q), the counts gathered in the caller's dtype, so
    E(X,q,a) = count(a) - C(q) X/q."""
    _check_counts(q, counts)
    main = euler_constant("C_of_q", arg=q) * X / q
    return main, ((a, counts[a]) for a in coprime_blocks(q))


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
    """(sum_i c[i], sum_i c[i] c_partner[i]) exactly for one block of
    nonnegative integer counts in any dtype.  Every partial sum of either is
    an integer of at most len(c) max(c) max(1, max(c_partner)); while that
    is below 2^53 a float64 sum and dot are exact in any order, otherwise
    sum Python ints."""
    top = int(c.max(initial=0)) * max(1, int(c_partner.max(initial=0)))
    if len(c) * top < 2 ** 53:
        cf = c.astype(np.float64)
        cpf = cf if c_partner is c else c_partner.astype(np.float64)
        return int(cf.sum()), int(np.dot(cf, cpf))
    return (sum(c.tolist()),
            sum(x * y for x, y in zip(c.tolist(), c_partner.tolist())))


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


def _dispersion_parts(X: int, q: int, m: int, counts: np.ndarray):
    """(M2 from the integer moments as ApproxReal, direct M2, exact S,
    comparison scale) for one cell, in one walk over the coprime blocks."""
    require_mq(m, q)
    main, blocks = error_vector(X, q, counts)
    M, self_partner = main.value, m % q == 1 % q
    phi = total = S = direct = 0  # direct: exact, a sum of Fractions
    for a, ca in blocks:
        cp = ca if self_partner else counts[_partner(a, m, q)]
        t, s = _block_sums(ca, cp)
        phi, total, S = phi + len(a), total + t, S + s
        e = ca - M
        e *= e if self_partner else cp - M
        direct += _block_sum(e)
    direct = float(direct)
    m2 = _quadratic(S, [(phi, M, main.abs_err, total)])
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
    T_d the total count of the classes with gcd d, exact at the float e_d;
    each class's quadratic moves by at most
    2 |phi(q0) e_d - T_d| de_d + phi(q0) de_d^2 over e_d's interval.

    One walk over the counts in blocks gives sum c^2 and every T_d: each
    residue gets the class code sum of 2^i over the primes p_i | a, or
    2^k (k primes) where p^2 | gcd(a, q) for some p, and the codes are
    binned with the counts as weights."""
    _check_counts(q, counts)
    fac = factorize(q)
    k = len(fac)
    # the float weights' totals are exact integers below 2^53
    float_totals = q * int(counts.max()) < 2 ** 53
    sq, T = 0, np.zeros(2 ** k + 1) if float_totals else [0] * (2 ** k + 1)
    for start in range(0, q, _SUM_BLOCK):
        c = counts[start:start + _SUM_BLOCK]
        code = np.zeros(len(c), dtype=np.intp)
        for i, (p, _) in enumerate(fac):
            code[-start % p::p] += 1 << i
        for p, e in fac:
            if e > 1:
                code[-start % (p * p)::p * p] = 1 << k
        sq += _block_sums(c, c)[1]
        if float_totals:
            T += np.bincount(code, weights=c, minlength=len(T))
        else:
            T = [t + sum(c[code == i].tolist()) for i, t in enumerate(T)]
    six_over_pi2 = euler_constant("C_of_q", arg=1)
    hq = Fraction(math.prod(p for p, _ in fac), math.prod(p + 1 for p, _ in fac))
    terms = []
    for i in range(2 ** k):
        d = math.prod(p for j, (p, _) in enumerate(fac) if i >> j & 1)
        n = phi_of(q // d)
        e = six_over_pi2 * (Fraction(X) * hq * (q // d) / (q * n))
        terms.append((n, e.value, e.abs_err, int(T[i])))
    return _quadratic(sq, terms)


def hooley_report(X: int, q: int, counts: np.ndarray) -> float:
    """max_a |E(X,q,a)| / ((X/q)^(1/2) + q^(1/2)) from the caller's counts;
    the bound's constant is unspecified, so this is only ever reported."""
    main, blocks = error_vector(X, q, counts)
    ends = [(int(ca.max()), int(ca.min())) for _, ca in blocks]
    top, bottom = max(t for t, _ in ends), min(b for _, b in ends)
    # fl(c - M) is monotone in c: max|c - M| from the extreme counts
    emax = max(top - main.value, main.value - bottom)
    return emax / (math.sqrt(X / q) + math.sqrt(q))


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
