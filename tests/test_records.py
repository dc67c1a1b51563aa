import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sqflab.records import ApproxReal, VerificationRecord, as_approx

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
errs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(finite, errs, finite, errs)
def test_add_sub_error_budget(a, ea, b, eb):
    x = ApproxReal(a, ea) + ApproxReal(b, eb)
    assert x.value == a + b
    assert x.abs_err == ea + eb
    y = ApproxReal(a, ea) - ApproxReal(b, eb)
    assert y.abs_err == ea + eb


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=0, max_value=10, allow_nan=False),
       st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.floats(min_value=0, max_value=10, allow_nan=False))
def test_mul_interval_containment(a, ea, b, eb):
    x = ApproxReal(a, ea) * ApproxReal(b, eb)
    # worst case is attained at the interval corners
    corners = [(a + sa * ea) * (b + sb * eb) for sa in (-1, 1) for sb in (-1, 1)]
    pad = 1e-9 * (abs(x.value) + x.abs_err) + 1e-12
    assert max(corners) <= x.value + x.abs_err + pad
    assert min(corners) >= x.value - x.abs_err - pad


def test_sqrt_and_contains():
    r = ApproxReal(2.0, 2.0 - math.sqrt(3.5))  # covers sqrt of [3.5, 4.5]
    assert r.contains(math.sqrt(3.6))
    assert not r.contains(1.5)
    assert as_approx(3).value == 3.0


def test_contains_is_exact():
    # 0.1 as a float is 0.1000000000000000055...; Fraction(1, 10) - 0.1
    # rounds to 0.0 in floats, but the exact difference is not zero
    assert ApproxReal(0.1, 0.0).contains(Fraction(1, 10)) is False
    assert ApproxReal(0.1, 0.0).contains(0.1) is True
    assert ApproxReal(0.1, 1e-17).contains(Fraction(1, 10)) is True


def test_negative_error_rejected():
    with pytest.raises(ValueError):
        ApproxReal(1.0, -1e-9)


def test_verification_record_modes():
    ok = VerificationRecord.checked("x", {"a": 1}, 1.0, 1.0 + 1e-12, 1e-9)
    bad = VerificationRecord.checked("x", {}, 1.0, 2.0, 1e-9)
    rep = VerificationRecord.report("y", {}, 123.0, 1.0)
    assert ok.passed and not bad.passed and rep.passed
    assert rep.mode == "report_only"
    d = ok.as_dict()
    assert d["check_id"] == "x" and d["a"] == 1 and d["pass"] is True
