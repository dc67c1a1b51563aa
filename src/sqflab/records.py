"""Shared value-with-error and check-outcome records, and exact block sums."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ApproxReal:
    """A real value paired with a rigorous absolute error bound.

    Arithmetic propagates worst-case bounds: errors add under addition,
    |a|*eb + |b|*ea + ea*eb under multiplication and
    (|a|*eb + |b|*ea) / (|b| (|b| - eb)) under division; each result's bound
    also covers the rounding of its value and of the bound itself.
    """

    value: float
    abs_err: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.abs_err) or self.abs_err < 0:
            raise ValueError("abs_err must be finite and >= 0")

    def __add__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        return _rounded(self.value + other.value, self.abs_err + other.abs_err)

    __radd__ = __add__

    def __sub__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        return _rounded(self.value - other.value, self.abs_err + other.abs_err)

    def __mul__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        err = (abs(self.value) * other.abs_err
               + abs(other.value) * self.abs_err
               + self.abs_err * other.abs_err)
        return _rounded(self.value * other.value, err)

    __rmul__ = __mul__

    def __truediv__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        b, eb = abs(other.value), other.abs_err
        if eb >= b:
            raise ZeroDivisionError("divisor interval contains 0")
        err = (abs(self.value) * eb + b * self.abs_err) / (b * (b - eb))
        return _rounded(self.value / other.value, err)

    def contains(self, x) -> bool:
        """Whether x (a float, int or Fraction) lies in the interval, exactly."""
        return abs(Fraction(x) - Fraction(self.value)) <= Fraction(self.abs_err)


def _rounded(r: float, err: float) -> ApproxReal:
    """r with the propagated bound err widened by ulp(r), which covers r's
    own rounding, and padded past the few roundings in evaluating err."""
    return ApproxReal(r, math.nextafter((err + math.ulp(r)) * (1 + 2**-50), math.inf))


def as_approx(x) -> ApproxReal:
    """x as an ApproxReal: an int or Fraction that float(x) rounds (correctly)
    gets half an ulp of bound, or a whole one where half is not a float."""
    if isinstance(x, ApproxReal):
        return x
    if isinstance(x, numbers.Integral):
        x = int(x)  # numpy integers compare with floats in float64
    r = float(x)
    return ApproxReal(r, 0.0 if r == x else math.ulp(r) / 2 or math.ulp(r))


# callers cut a float64 array into blocks of at most this many elements for
# _block_sum: two 256 KB buffers, in cache and independent of the length
_SUM_BLOCK = 2**15


def _block_sum(block: np.ndarray) -> Fraction:
    """The exact sum of a float64 block of at most _SUM_BLOCK elements as a
    Fraction, overwriting the block; rounded once, it (or a sum of them) is
    the correctly rounded sum that fsum gives.  The extraction of Rump,
    Ogita and Oishi (SIAM J. Sci. Comput. 31(1), 2008): with max|block| <
    2^e and n elements, each level rounds the block to hi on the grid of
    ulp(sigma)/2, sigma = 2^(e + shift).  Since n max|hi| < sigma/2,
    hi.sum() is exact in any order; block - hi is exact too, and each level
    removes at least 53 - shift bits.  Non-finite input raises ValueError
    (a NaN would loop forever); an overflowing sigma (|x| near 1e308) raises
    OverflowError, as fsum does on intermediate overflow."""
    shift = block.size.bit_length() + 1
    total = Fraction(0)
    while True:
        top = max(-block.min(), block.max())
        if not math.isfinite(top):
            raise ValueError("an exact sum requires finite input")
        if top == 0:
            break
        sigma = 2.0 ** (math.frexp(top)[1] + shift)
        hi = block + sigma
        hi -= sigma
        total += Fraction(float(hi.sum()))
        block -= hi
    return total


@dataclass
class VerificationRecord:
    """Outcome of one identity or bound check, ready for CSV/JSON emission.

    mode "assert" records count toward the exit code; "report_only" records
    carry columns for inspection and never fail a run.
    """

    check_id: str
    params: dict = field(default_factory=dict)
    lhs: float = 0.0
    rhs: float = 0.0
    tolerance: float = 0.0
    mode: str = "assert"  # "assert" | "report_only"
    passed: bool = True

    @staticmethod
    def checked(check_id: str, params: dict, lhs: float, rhs: float,
                tolerance: float) -> "VerificationRecord":
        ok = abs(lhs - rhs) <= tolerance
        return VerificationRecord(check_id, params, lhs, rhs, tolerance, "assert", ok)

    @staticmethod
    def report(check_id: str, params: dict, lhs: float, rhs: float,
               tolerance: float = float("inf")) -> "VerificationRecord":
        return VerificationRecord(check_id, params, lhs, rhs, tolerance,
                                  "report_only", True)

    def as_dict(self) -> dict:
        d = {"check_id": self.check_id}
        d.update({str(k): v for k, v in sorted(self.params.items())})
        d.update({"lhs": self.lhs, "rhs": self.rhs, "tol": self.tolerance,
                  "mode": self.mode, "pass": self.passed})
        return d
