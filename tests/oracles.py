"""Test-only derivations and oracles, kept out of the package.

The zeta-accelerated Euler products: sqflab.multiplicative ships C's and
C_2's (value, tail bound) as Decimal literals, and this is the derivation
that produced them.  The tests hold the literals to it bit for bit.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

from sqflab.arith import primes_up_to
from sqflab.multiplicative import _CTX, _dec, zeta_em

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
