"""Shared value-with-error and check-outcome records used across modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class ApproxReal:
    """A real value paired with a rigorous absolute error bound.

    Arithmetic propagates worst-case bounds: errors add under addition,
    and |a|*eb + |b|*ea + ea*eb under multiplication.
    """

    value: float
    abs_err: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.abs_err) or self.abs_err < 0:
            raise ValueError("abs_err must be finite and >= 0")

    def __add__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        return ApproxReal(self.value + other.value, self.abs_err + other.abs_err)

    __radd__ = __add__

    def __sub__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        return ApproxReal(self.value - other.value, self.abs_err + other.abs_err)

    def __mul__(self, other: "ApproxReal | float") -> "ApproxReal":
        other = as_approx(other)
        err = (abs(self.value) * other.abs_err
               + abs(other.value) * self.abs_err
               + self.abs_err * other.abs_err)
        return ApproxReal(self.value * other.value, err)

    __rmul__ = __mul__

    def contains(self, x) -> bool:
        """Whether x (a float, int or Fraction) lies in the interval, exactly."""
        return abs(Fraction(x) - Fraction(self.value)) <= Fraction(self.abs_err)


def as_approx(x) -> ApproxReal:
    if isinstance(x, ApproxReal):
        return x
    return ApproxReal(float(x), 0.0)


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
