"""Asymptotic layer: sawtooth integrals, G(Y,r), frakS, A, and the theorem
main terms.  The exact paths are cross-checked against literal per-term
oracles built from other modules; the closed forms are checked through the
decomposition identity and calibrated envelopes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from sqflab import asymptotics
from sqflab.arith import phi_of, tau_of
from sqflab.asymptotics import (A_decomposition, A_exact, A_formula,
                                G_main_term, G_of, MainTermBreakdown,
                                TheoremMainTerms, calibration_constant,
                                frakS_exact, frakS_formula, psi,
                                psi_antiderivative, psi_mellin_integral,
                                psi_mellin_limit, theorem_main_terms)
from sqflab.counters import interval_I
from sqflab.multiplicative import (euler_constant, euler_product_mp, f_q_of,
                                   f_q_zero, gamma_an, gamma_ar, h_of)
from sqflab.records import ApproxReal


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------

@given(st.integers(-50, 50), st.floats(0.001, 0.999))
def test_psi_periodic_and_odd(k, t):
    v = k + t
    assert psi(v) == pytest.approx(psi(t), abs=1e-12)
    assert abs(psi(v)) <= 0.5
    # away from integers the sawtooth is odd
    assert psi(v) + psi(-v) == pytest.approx(0.0, abs=1e-12)


def test_psi_antiderivative_range_and_brute():
    for x in (0.0, 0.25, 1.0, 2.5, 7.85, 100.125):
        val = psi_antiderivative(x)
        assert 0.0 <= val <= 0.125
        # midpoint rule per unit piece: psi is linear there, so the rule is
        # exact up to roundoff once no subcell straddles an integer
        parts = []
        k = 0
        while k < x:
            hi = min(k + 1.0, x)
            h = (hi - k) / 64
            parts.extend(h * psi(k + (i + 0.5) * h) for i in range(64))
            k += 1
        brute = math.fsum(parts)
        assert val == pytest.approx(brute, abs=1e-10)
    with pytest.raises(ValueError):
        psi_antiderivative(-0.1)


def test_psi_mellin_vs_quadrature():
    X, s = 37.5, 1.0
    got = psi_mellin_integral(X, s)
    with mp.workprec(120):
        total = mpf(0)
        v0 = 0
        while v0 < X:
            v1 = min(v0 + 1, X)
            n = v0
            total += mp.quad(lambda v: (n + mpf(1) / 2 - v) * v ** (-mpf(s) / 2),
                             [v0, v1])
            v0 += 1
        brute = float(total)
    assert got.value == pytest.approx(brute, abs=1e-12)
    assert abs(got.value - brute) <= got.abs_err + 1e-13


def test_psi_mellin_converges_to_limit():
    for s in (0.5, 1.0, 1.5):
        lim = psi_mellin_limit(s)
        with mp.workprec(120):
            ref = float(mp.zeta(mpf(s) / 2 - 1) / (mpf(s) / 2 - 1))
        assert lim == pytest.approx(ref, rel=1e-13)
        for X in (1e2, 1e4):
            val = psi_mellin_integral(X, s).value
            assert abs(val - lim) <= X ** (-s / 2), (s, X)


def test_psi_mellin_rejections():
    for bad_s in (0.0, 2.0, -1.0):
        with pytest.raises(ValueError):
            psi_mellin_integral(100.0, bad_s)
    with pytest.raises(ValueError):
        psi_mellin_integral(1.0, 1.0)
    with pytest.raises(ValueError):
        psi_mellin_limit(2.5)


# ---------------------------------------------------------------------------
# G(Y, r)
# ---------------------------------------------------------------------------

def _G_mp(Y, r, D):
    """G(Y, r) from an mpmath head over d <= D plus the closed-form tail
    Y/2 (H2 - p2) - Y^2/2 (H4 - p4), at 180 bits; D^2 >= Y."""
    with mp.workprec(180):
        # mpf(str(.)) inside workprec, else H2, H4 round to 53 bits
        H2 = mpf(str(euler_product_mp("sum_h_d2", r)[0]))
        H4 = mpf(str(euler_product_mp("sum_h_d4", r)[0]))
        Ym = mpf(Y)
        head = p2 = p4 = mpf(0)
        for d in range(1, D + 1):
            h = h_of(d)
            if math.gcd(d, r) != 1 or h == 0:
                continue
            hm = mpf(h.numerator) / h.denominator
            x = Ym / (d * d)
            frac = x - mp.floor(x)
            head += hm * (frac - frac * frac) / 2
            p2 += hm / d ** 2
            p4 += hm / d ** 4
        return float(head + Ym / 2 * (H2 - p2) - Ym * Ym / 2 * (H4 - p4))


def test_G_split_point_independence():
    # G_of splits at the least D0 with D0^2 >= Y; later splits agree.  The
    # grid after the first three cells covers Y < 1, perfect squares and just
    # past them.
    cells = [(50.0, 1), (487.25, 2), (1000.0, 6)] + [
        (Y, r) for Y in (0.3, 1.0, 2.5, 99.999, 100.0, 100.5, 1e6)
        for r in (1, 6)]
    for (Y, r) in cells:
        d0 = math.ceil(math.sqrt(Y))
        got = G_of(Y, r).value
        for D in (2 * d0, 5 * d0 + 3):
            assert got == pytest.approx(_G_mp(Y, r, D), rel=1e-13), (Y, r, D)


@pytest.mark.parametrize("Y", [50.0, 487.25])
@pytest.mark.parametrize("r", [1, 6])
def test_G_split_sum_vs_literal_sum(Y, r):
    # S_N = sum over d <= N, (d,r)=1 of h(d) Psi_1(Y/d^2).  Each term with
    # d^2 > Y lies in [0, h_max Y/(2 d^2)], so the infinite sum exceeds S_N
    # by at most h_max Y/(2N), with h_max = 1/C_2.
    N = 20000
    h_max = 1 / euler_constant("C2").value
    S_N = math.fsum(float(h_of(d)) * psi_antiderivative(Y / (d * d))
                    for d in range(1, N + 1) if math.gcd(d, r) == 1)
    gap = G_of(Y, r).value - S_N
    assert -1e-9 <= gap <= h_max * Y / (2 * N), (Y, r, gap)


def test_G_guards():
    with pytest.raises(ValueError):
        G_of(0.0, 1)
    with pytest.raises(ValueError):
        G_of(100.0, 0)


def test_G_error_guard(monkeypatch):
    # the tail bound grows like Y^2 times the Euler-product tails
    assert G_of(1e4, 1).abs_err <= asymptotics.MAX_ABS_ERR
    monkeypatch.setattr(asymptotics, "MAX_ABS_ERR", 1e-40)
    with pytest.raises(ArithmeticError):
        G_of(1e4, 1)


def test_G_envelope_calibrated():
    # calibrate the remainder constant on small Y, enforce at larger Y
    ratios = []
    for r in (1, 2, 6):
        for Y in (100.0, 300.0, 1000.0):
            resid = abs(G_of(Y, r).value - G_main_term(Y, r).value)
            ratios.append(resid / (tau_of(r) * Y ** (1 / 3)))
    c = calibration_constant(ratios)
    for r in (1, 2, 6):
        for Y in (1e4, 1e5):
            resid = abs(G_of(Y, r).value - G_main_term(Y, r).value)
            assert resid <= c * tau_of(r) * Y ** (1 / 3), (r, Y, c)


def test_G_main_term_shape():
    cp = euler_constant("Cprime")
    assert G_main_term(10000.0, 1).value == pytest.approx(cp.value * 100.0)
    # local factor at r = 2: (p^2-2)/(p^2+p-2) = 2/4
    assert G_main_term(10000.0, 2).value == pytest.approx(cp.value * 50.0)


# ---------------------------------------------------------------------------
# frakS
# ---------------------------------------------------------------------------

def test_frakS_exact_vs_per_l_oracle():
    Y = 300.5
    for (m, q) in [(1, 1), (2, 5), (-1, 12), (3, 5)]:
        brute = math.fsum(f_q_of(l, m, q).value * (Y - l)
                          for l in range(1, int(Y) + 1))
        got = frakS_exact(Y, q, m)
        assert got.value == pytest.approx(brute, rel=1e-12), (m, q)
    assert frakS_exact(0.5, 5, 2).value == 0.0


def test_frakS_formula_coefficients():
    bd = frakS_formula(12, 1)
    assert isinstance(bd, MainTermBreakdown)
    cq = euler_constant("C_of_q", arg=12)
    assert bd.quadratic.value == pytest.approx(
        cq.value ** 2 * phi_of(12) / (2 * 12), rel=1e-13)
    c12 = euler_constant("C_of_q", arg=12)
    assert bd.linear.value == pytest.approx(
        c12.value * phi_of(12) / (2 * 12), rel=1e-13)
    c = euler_constant("C")
    hall = euler_constant("hall_factor", arg=12)
    assert bd.half_power.value == pytest.approx(
        c.value / 2 * gamma_ar(1) * hall.value, rel=1e-13)
    # at() pins the sign convention
    assert bd.at(100.0) == pytest.approx(
        bd.quadratic.value * 1e4 - bd.linear.value * 100.0
        + bd.half_power.value * 10.0)
    with pytest.raises(ValueError):
        frakS_formula(5, 4)  # m not squarefree
    with pytest.raises(ValueError):
        frakS_formula(6, 2)  # gcd(m, q) > 1


def test_frakS_envelope_calibrated():
    mq = [(1, 1), (2, 5), (3, 5), (-1, 12)]
    ratios = []
    for (m, q) in mq:
        bd = frakS_formula(q, m)
        for Y in (100.0, 300.0, 1000.0):
            resid = abs(frakS_exact(Y, q, m).value - bd.at(Y))
            ratios.append(resid / (tau_of(q) * Y ** (1 / 3)))
    c = calibration_constant(ratios)
    for (m, q) in mq:
        bd = frakS_formula(q, m)
        for Y in (1e4, 1e5):
            resid = abs(frakS_exact(Y, q, m).value - bd.at(Y))
            assert resid <= c * tau_of(q) * Y ** (1 / 3), (m, q, Y, c)


# ---------------------------------------------------------------------------
# A[m](X, q)
# ---------------------------------------------------------------------------

def test_A_exact_vs_interval_oracle():
    X = 2000.0
    for (m, q) in [(2, 5), (-1, 12), (1, 7)]:
        L = int((abs(m) + 1) * X / q) + 1
        total = f_q_zero(m, q).value * interval_I(0, m, q, X).length
        for l in range(1, L + 1):
            fl = f_q_of(l, m, q).value
            total += fl * (interval_I(l, m, q, X).length
                           + interval_I(-l, m, q, X).length)
        got = A_exact(X, q, m)
        assert got.value == pytest.approx(total, rel=1e-12), (m, q)


def test_A_decomposition_matches_exact():
    for (m, q) in [(1, 1), (2, 5), (3, 5), (-1, 12), (-5, 12)]:
        for X in (2000.0, 10000.0):
            a = A_exact(X, q, m)
            d = A_decomposition(X, q, m)
            assert d.value == pytest.approx(a.value, rel=1e-9), (m, q, X)


def test_A_rejections():
    with pytest.raises(ValueError):
        A_exact(100.0, 200, 1)
    with pytest.raises(ValueError):
        A_exact(100.0, 6, 2)
    with pytest.raises(ValueError):
        A_formula(1000.0, 5, 4)


# ---------------------------------------------------------------------------
# theorem main terms
# ---------------------------------------------------------------------------

def test_theorem_main_terms_structure():
    X = 1e5
    for (m, q) in [(1, 12), (-1, 12), (2, 5), (3, 5)]:
        tm = theorem_main_terms(X, q, m)
        assert isinstance(tm, TheoremMainTerms)
        cq = euler_constant("C_of_q", arg=q)
        quad = cq.value ** 2 * phi_of(q) * (X / q) ** 2
        # S_main - M2_main is the pure quadratic term
        assert tm.S_main.value - tm.M2_main.value == pytest.approx(
            quad, rel=1e-12)
        # A_formula is the same closed form
        assert A_formula(X, q, m).value == pytest.approx(
            tm.S_main.value, rel=1e-13)
        # sign of M2_main follows Gamma_an
        assert (tm.M2_main.value > 0) == (gamma_an(m) > 0)
    assert theorem_main_terms(1e5, 12, -1).M2_main.value < 0
    with pytest.raises(ValueError):
        theorem_main_terms(1e5, 12, 4)


def test_calibration_constant():
    assert calibration_constant([0.1, 0.3, 0.2]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        calibration_constant([])


def test_approxreal_results_carry_errors():
    g = G_of(1000.0, 2)
    assert isinstance(g, ApproxReal) and g.abs_err < 1e-12
    s = frakS_exact(500.0, 5, 2)
    assert isinstance(s, ApproxReal) and s.abs_err < 1e-6 * abs(s.value)
