import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sqflab.records import (_SUM_BLOCK, ApproxReal, VerificationRecord, _block_sum,
                            as_approx)

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
errs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(finite, errs, finite, errs)
def test_add_sub_error_budget(a, ea, b, eb):
    x = ApproxReal(a, ea) + ApproxReal(b, eb)
    assert x.value == a + b
    assert x.abs_err >= ea + eb
    y = ApproxReal(a, ea) - ApproxReal(b, eb)
    assert y.abs_err >= ea + eb


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


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv}
_moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_operand = st.tuples(_moderate, st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
                     st.booleans())


@given(_operand, st.lists(st.tuples(st.sampled_from(sorted(_OPS)), _operand),
                          min_size=1, max_size=6))
@settings(max_examples=300)
# 0.1 + 0.2 and 0.1 * 3.0 both round to 0.30000000000000004
@example((0.1, 0.0, False), [("+", (0.2, 0.0, False))])
@example((0.1, 0.0, False), [("*", (3.0, 0.0, True))])
@example((1.0, 0.0, False), [("/", (3.0, 0.0, True))])
@example((1.0, 0.0, False), [("/", (3.0, 3.0, False))])
def test_arithmetic_chain_contains_exact_interval(first, steps):
    # the exact interval of the inputs, carried in Fractions beside the chain;
    # a plain float operand (flag set) is the point interval of that float
    a, ea, _ = first
    x = ApproxReal(a, ea)
    lo, hi = Fraction(a) - Fraction(ea), Fraction(a) + Fraction(ea)
    for op, (b, eb, plain) in steps:
        y = b if plain else ApproxReal(b, eb)
        eb = 0.0 if plain else eb
        blo, bhi = Fraction(b) - Fraction(eb), Fraction(b) + Fraction(eb)
        if op == "/" and blo <= 0 <= bhi:
            with pytest.raises(ZeroDivisionError):
                x / y
            continue
        # a divisor interval near 0 overflows the chain to infinity
        assume(op != "/" or min(abs(blo), abs(bhi)) >= Fraction(1, 1000))
        x = _OPS[op](x, y)
        ends = [_OPS[op](u, v) for u in (lo, hi) for v in (blo, bhi)]
        lo, hi = min(ends), max(ends)
        assert x.contains(lo) and x.contains(hi), (op, x, lo, hi)


def test_sqrt_and_contains():
    r = ApproxReal(2.0, 2.0 - math.sqrt(3.5))  # covers sqrt of [3.5, 4.5]
    assert r.contains(math.sqrt(3.6))
    assert not r.contains(1.5)
    assert as_approx(3).value == 3.0


def test_as_approx_bounds_the_conversion():
    # float(x) rounds these; the bound must cover the rounding
    for x in (Fraction(1, 3), 2**53 + 1, np.int64(2**53 + 1),
              Fraction(10**400 + 1, 3 * 10**400)):
        r = as_approx(x)
        assert r.contains(x) and 0 < r.abs_err <= math.ulp(r.value) / 2
    assert (ApproxReal(1.0) * Fraction(1, 3)).contains(Fraction(1, 3))
    # numbers that are floats stay exact
    for x in (3, Fraction(1, 4), 2**53, 0.1):
        assert as_approx(x).abs_err == 0.0


def test_division_bound_and_zero_divisor():
    q = ApproxReal(1.0, 0.0) / 3
    assert q.value == 1 / 3 and q.contains(Fraction(1, 3))
    # [2, 4] / [1, 3] spans [2/3, 4]
    r = ApproxReal(3.0, 1.0) / ApproxReal(2.0, 1.0)
    assert r.contains(Fraction(2, 3)) and r.contains(4)
    for divisor in (ApproxReal(0.0, 0.0), ApproxReal(1.0, 1.0),
                    ApproxReal(-1.0, 2.0), 0):
        with pytest.raises(ZeroDivisionError):
            ApproxReal(1.0) / divisor


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


@st.composite
def _float_arrays(draw):
    """Float64 blocks of 1 to _SUM_BLOCK elements, the length log-uniform,
    with 53-bit mantissas: exponents spread across a drawn part of
    [-300, 300], x beside -x (exact cancellation, plus a tail far below it),
    subnormals, or all equal."""
    top = min(2 ** draw(st.integers(0, 15)), _SUM_BLOCK - 3)  # cancel adds 3
    n = draw(st.integers(1, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    kind = draw(st.sampled_from(["spread", "cancel", "subnormal", "equal"]))
    if kind == "cancel":
        tail = np.ldexp(rng.uniform(-1.0, 1.0, 3), lo - 60)
        x = rng.permutation(np.concatenate([x[: n // 2], -x[: n // 2], tail]))
    elif kind == "subnormal":  # 2^-1074 is the least subnormal, 2^-1022 normal
        x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, -1000, n))
    elif kind == "equal":
        x = np.full(n, x[0])
    return x


@given(_float_arrays())
@settings(max_examples=150, deadline=None)
# seven values just above -1: their running sums pass 2 and 4, which is
# exact only on the grid that shift = bit_length(7) + 1 = 4 leaves
@example(np.full(7, -(1 - 2.0**-52)))
def test_exact_sum_is_correctly_rounded(x):
    got = _block_sum(x.copy())
    assert type(got) is Fraction
    assert float(got) == math.fsum(x.tolist()) \
        == float(sum(map(Fraction, x.tolist())))


def test_exact_sum_needs_three_levels():
    # one block of 2^15 elements that cancels down to 2^-61 + 2^-61.  A
    # level keeps at most 53 - 17 = 36 bits below the largest element of the
    # block, so the first level takes 2^60 and two more are needed for the
    # 53-bit values in (-1, -1/2]
    v = -np.random.default_rng(17).uniform(0.5, 1.0, 2**14 - 2)
    x = np.concatenate([[2.0**60], v, -v, [-2.0**60, 2.0**-61, 2.0**-61]])
    assert x.size == _SUM_BLOCK
    assert _block_sum(x.copy()) == Fraction(2) ** -60
    assert 2.0**-60 == math.fsum(x.tolist())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_exact_sum_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        _block_sum(np.array([1.0, bad, -1.0]))


def test_exact_sum_overflow():
    with pytest.raises(OverflowError):
        _block_sum(np.array([1e308, -1e308]))
