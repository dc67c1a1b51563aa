"""Asymptotic layer: sawtooth integrals, G(Y,r), frakS, A, and the theorem
main terms.  The exact paths are cross-checked against literal per-term
oracles built from other modules; the closed forms are checked through the
decomposition identity and calibrated envelopes."""

import math
import random
import tracemalloc
from decimal import localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from sqflab import asymptotics
from sqflab.arith import phi_of, prime_factors, primes_up_to, tau_of
from sqflab.asymptotics import (A_decomposition, A_exact, A_formula,
                                G_main_term, G_of, MainTermBreakdown,
                                TheoremMainTerms, calibration_constant,
                                frakS_exact, frakS_formula,
                                psi_mellin_integral, psi_mellin_limit,
                                theorem_main_terms)
from sqflab.cli import _envelope
from sqflab.multiplicative import (_CTX, _dec, euler_constant,
                                   euler_product_mp, f_q_zero, gamma_an,
                                   gamma_ar, h_of)
from sqflab.records import ApproxReal

from oracles import A_lengths_clip, f_q_of, f_q_rational_part


# ---------------------------------------------------------------------------
# sawtooth
# ---------------------------------------------------------------------------

def test_psi_antiderivative_range_and_brute():
    # G_of's Psi_1(x) = ({x} - {x}^2)/2 is the integral of the sawtooth
    # psi(v) = floor(v) - v + 1/2 over [0, x]
    for x in (0.0, 0.25, 1.0, 2.5, 7.85, 100.125):
        frac = x % 1
        val = (frac - frac * frac) / 2
        assert 0.0 <= val <= 0.125
        # midpoint rule per unit piece: psi is linear there, so the rule is
        # exact up to roundoff once no subcell straddles an integer
        parts = []
        k = 0
        while k < x:
            hi = min(k + 1.0, x)
            h = (hi - k) / 64
            mids = (k + (i + 0.5) * h for i in range(64))
            parts.extend(h * (math.floor(v) - v + 0.5) for v in mids)
            k += 1
        brute = math.fsum(parts)
        assert val == pytest.approx(brute, abs=1e-10)


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


@pytest.mark.parametrize("X, s, value, bar", [
    (1e6, 1.0, "0x1.a9aa68c1eacbap-2", "0x1.1e54c674c6697p-22"),
    (65537.5, 0.5, "0x1.72445fde17424p-3", "0x1.078914a030c92p-24"),
    (32769.0, 1.5, "0x1.482222455b256p+0", "0x1.363faac52df74p-33"),
])
def test_psi_mellin_pinned_in_block_memory(X, s, value, bar):
    # value and bar pinned from one exact_sum over all ~X terms at once;
    # taking them 2^15 values of n at a time keeps the bytes (both sums are
    # exact before one rounding), across a block edge (65537 = 2^16 + 1)
    # and with a partial last interval, while the peak stays that of a
    # block, not ~46 bytes per n
    tracemalloc.start()
    try:
        got = psi_mellin_integral(X, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.value.hex(), got.abs_err.hex()) == (value, bar)
    assert peak <= 2 * 2**20, peak


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
    parts = []
    for d in range(1, N + 1):
        if math.gcd(d, r) == 1:
            frac = Y / (d * d) % 1
            parts.append(float(h_of(d)) * (frac - frac * frac) / 2)
    S_N = math.fsum(parts)
    gap = G_of(Y, r).value - S_N
    assert -1e-9 <= gap <= h_max * Y / (2 * N), (Y, r, gap)


def test_G_head_terms_are_the_per_call_quotients():
    # h(d), h(d)/d^2 and h(d)/d^4 from the cache are the Decimals that
    # dividing in _CTX at each call gives, digits and exponent alike
    for d in [*range(1, 400), 1 << 14, 30029, 99991]:
        h = h_of(d)
        if h == 0:
            assert asymptotics._h_terms(d) is None, d
            continue
        with localcontext(_CTX):
            hm = _dec(h)
            want = (hm, hm / d ** 2, hm / d ** 4)
        got = asymptotics._h_terms(d)
        assert [x.as_tuple() for x in got] == \
            [x.as_tuple() for x in want], d


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
    records = _envelope(
        "G", "Y", [{"r": r} for r in (1, 2, 6)], (100.0, 300.0, 1000.0),
        (1e4, 1e5),
        lambda c, Y: abs(G_of(Y, c["r"]).value - G_main_term(Y, c["r"]).value),
        lambda c, Y: (tau_of(c["r"]), Y ** (1 / 3)))
    assert not [r.params for r in records if not r.passed]


def test_G_main_term_shape():
    cp = euler_constant("Cprime")
    assert G_main_term(10000.0, 1).value == pytest.approx(cp.value * 100.0)
    # local factor at r = 2: (p^2-2)/(p^2+p-2) = 2/4
    assert G_main_term(10000.0, 2).value == pytest.approx(cp.value * 50.0)


# ---------------------------------------------------------------------------
# frakS
# ---------------------------------------------------------------------------

def test_frakS_exact_vs_per_l_oracle(monkeypatch):
    # at 2^8 values of l to a block, N + 1 = 301 spans two blocks
    Y = 300.5
    for (m, q) in [(1, 1), (2, 5), (-1, 12), (3, 5)]:
        brute = math.fsum(f_q_of(l, m, q).value * (Y - l)
                          for l in range(1, int(Y) + 1))
        for block in (asymptotics._SUM_BLOCK, 2**8):
            monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
            got = frakS_exact(Y, q, m)
            assert got.value == pytest.approx(brute, rel=1e-12), (m, q, block)
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
    mq = [{"m": m, "q": q} for m, q in [(1, 1), (2, 5), (3, 5), (-1, 12)]]
    records = _envelope(
        "frakS", "Y", mq, (100.0, 300.0, 1000.0), (1e4, 1e5),
        lambda c, Y: abs(frakS_exact(Y, c["q"], c["m"]).value
                         - frakS_formula(c["q"], c["m"]).at(Y)),
        lambda c, Y: (tau_of(c["q"]), Y ** (1 / 3)))
    assert not [r.params for r in records if not r.passed]


# ---------------------------------------------------------------------------
# A[m](X, q)
# ---------------------------------------------------------------------------

def test_A_exact_vs_interval_oracle(monkeypatch):
    # f_q(l, m) times the exact |I(l)| + |I(-l)| of _exact_length; at 2^8
    # values of l to a block, L + 1 = 1202 at (2, 5) spans five blocks, the
    # last one partial
    X = 2000.0
    Xx = Fraction(X)
    for (m, q) in [(2, 5), (-1, 12), (1, 7)]:
        L = int((abs(m) + 1) * X / q) + 1
        total = f_q_zero(m, q).value * float(_exact_length(0, m, q, Xx))
        for l in range(1, L + 1):
            fl = f_q_of(l, m, q).value
            total += fl * float(_exact_length(l, m, q, Xx)
                                + _exact_length(-l, m, q, Xx))
        for block in (asymptotics._SUM_BLOCK, 2**8):
            monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
            got = A_exact(X, q, m)
            assert got.value == pytest.approx(total, rel=1e-12), (m, q, block)


# value.hex() and abs_err.hex() of A_exact and then frakS_exact.  The values
# were taken from the whole-array build before f_q was built block by block;
# the bars since they come from ApproxReal arithmetic alone.  size is the
# length of the summed array, L + 1 or N + 1: 2^15 - 1, 2^15, 2^15 + 1, and
# four blocks with a partial last one (and a fractional Y).
_BLOCK_EDGE_PINS = {
    (1, 1, 32767): ("0x1.7a63360c77da6p+26", "0x1.10e729cb39389p-19",
        "0x1.7a6148f45e261p+27", "0x1.0eec83701db59p-18"),
    (1, 1, 32768): ("0x1.7a691fbb3a633p+26", "0x1.10eb5d8d4b13dp-19",
        "0x1.7a67329fd3861p+27", "0x1.0ef0b73d675a0p-18"),
    (1, 1, 32769): ("0x1.7a6f09744ff0cp+26", "0x1.10ef9156b3644p-19",
        "0x1.7a6d1c559beabp+27", "0x1.0ef4eb1207738p-18"),
    (1, 1, 99538): ("0x1.b47e5ba509a4dp+29", "0x1.3a37738f10319p-16",
        "0x1.b47e78c1319dbp+30", "0x1.383a177f60802p-15"),
    (1, 5, 32767): ("0x1.9a93a51be2f87p+28", "0x1.27c7985b39a7ap-17",
        "0x1.48749daf71333p+27", "0x1.d6e1f65d26403p-19"),
    (1, 5, 32768): ("0x1.9a9a0f8f49d1dp+28", "0x1.27cc27a193ed9p-17",
        "0x1.4879bfa2f0aadp+27", "0x1.d6e94213f4821p-19"),
    (1, 5, 32769): ("0x1.9aa07a0de9840p+28", "0x1.27d0b6efe800bp-17",
        "0x1.487ee19f6a697p+27", "0x1.d6f08dd785a5fp-19"),
    (1, 5, 99538): ("0x1.d9a0378f55cb7p+31", "0x1.549b6752cf680p-14",
        "0x1.7ae6bcb34691cp+30", "0x1.0f4b5c7159f28p-15"),
    (1, 12, 32767): ("0x1.a9af979a7bca1p+29", "0x1.328691d43df19p-16",
        "0x1.1bca2cb8166a2p+27", "0x1.97647dcf7dcadp-19"),
    (1, 12, 32768): ("0x1.a9b63e80ee728p+29", "0x1.328b4c150278dp-16",
        "0x1.1bce9bfba6628p+27", "0x1.976acb87a4786p-19"),
    (1, 12, 32769): ("0x1.a9bce574a7456p+29", "0x1.3290065f3628ep-16",
        "0x1.1bd30b480fccbp+27", "0x1.9771194c5f5c7p-19"),
    (1, 12, 99538): ("0x1.eb0e25f8018ddp+32", "0x1.60ff59fede3eep-13",
        "0x1.475f507ce50a9p+30", "0x1.d557caddc17c0p-16"),
    (1, 30, 32767): ("0x1.cde61525e7cf3p+30", "0x1.4c43230b9bf85p-15",
        "0x1.ecb0f17e0f7d7p+26", "0x1.602ae8312d5cep-19"),
    (1, 30, 32768): ("0x1.cded4ce9816f2p+30", "0x1.4c4844414e118p-15",
        "0x1.ecb8a4704045bp+26", "0x1.603060fdcb890p-19"),
    (1, 30, 32769): ("0x1.cdf484bb88b7cp+30", "0x1.4c4d658141572p-15",
        "0x1.ecc05771d4f55p+26", "0x1.6035d9d559e48p-19"),
    (1, 30, 99538): ("0x1.0a6a1ebf7fe58p+34", "0x1.82afd41110c44p-12",
        "0x1.1c2d6fd3725cdp+30", "0x1.97f19664c4835p-16"),
    (2, 1, 32767): ("0x1.50582b9dcab8bp+25", "0x1.e612acfbe0890p-21",
        "0x1.7a62e6b4add4dp+27", "0x1.0eeda98041c08p-18"),
    (2, 1, 32768): ("0x1.505d6d1f128b8p+25", "0x1.e61a2580c03d5p-21",
        "0x1.7a68d06042362p+27", "0x1.0ef1dd4da16e2p-18"),
    (2, 1, 32769): ("0x1.5062aea73c618p+25", "0x1.e6219e0f688dfp-21",
        "0x1.7a6eba1b531eap+27", "0x1.0ef6112602cb9p-18"),
    (2, 1, 99538): ("0x1.83fe896462fc1p+28", "0x1.17c0a5405337dp-17",
        "0x1.b47f161139715p+30", "0x1.383a874db0377p-15"),
    (2, 5, 32767): ("0x1.6cf500a494de6p+27", "0x1.075f29e37d95ep-18",
        "0x1.4875f6a4107ffp+27", "0x1.d6e3e0b351dc2p-19"),
    (2, 5, 32768): ("0x1.6cfab49be1ab4p+27", "0x1.0763377f5d370p-18",
        "0x1.487b1897a32e5p+27", "0x1.d6eb2c6a3b6dap-19"),
    (2, 5, 32769): ("0x1.6d00689aa9b31p+27", "0x1.076745208e0b8p-18",
        "0x1.48803a98ad470p+27", "0x1.d6f2783449521p-19"),
    (2, 5, 99538): ("0x1.a50030880907bp+30", "0x1.2f35fa30cfaa7p-15",
        "0x1.7ae73fd3ee17bp+30", "0x1.0f4bb9a36908dp-15"),
    (3, 1, 32767): ("0x1.7a63311678b37p+24", "0x1.10ea86f207b58p-21",
        "0x1.7a627f0fcd688p+27", "0x1.0eed5fd6b23c0p-18"),
    (3, 1, 32768): ("0x1.7a691ac74b495p+24", "0x1.10eebabc5b0e9p-21",
        "0x1.7a6868bc47e83p+27", "0x1.0ef193a4b576bp-18"),
    (3, 1, 32769): ("0x1.7a6f0487b87f2p+24", "0x1.10f2eaebfed17p-21",
        "0x1.7a6e52748effbp+27", "0x1.0ef5c77b1b808p-18"),
    (3, 1, 99538): ("0x1.b47e5a9507b24p+27", "0x1.3a38bc9feb04ep-18",
        "0x1.b47eeeb267c40p+30", "0x1.383a6b526d339p-15"),
    (3, 5, 32767): ("0x1.9a93a0cd3a393p+26", "0x1.27cb11f846e0cp-19",
        "0x1.4875a03f389b9p+27", "0x1.d6e365e55cf1bp-19"),
    (3, 5, 32768): ("0x1.9a9a0b437c73fp+26", "0x1.27cfa147ac5e3p-19",
        "0x1.487ac2337d741p+27", "0x1.d6eab19d43c3bp-19"),
    (3, 5, 32769): ("0x1.9aa075c9c6bfcp+26", "0x1.27d42d98512a5p-19",
        "0x1.487fe43204e6cp+27", "0x1.d6f1fd63c02a3p-19"),
    (3, 5, 99538): ("0x1.d9a0369bc2082p+29", "0x1.549cbb06cd57ep-16",
        "0x1.7ae71f037ede3p+30", "0x1.0f4ba251046a4p-15"),
    (-1, 1, 32767): ("0x1.7a632c1c448aap+26", "0x1.10eddad41d3b4p-19",
        "0x1.7a6148f45e261p+27", "0x1.0eec83701db59p-18"),
    (-1, 1, 32768): ("0x1.7a6915cd8de09p+26", "0x1.10f20ea58b3f2p-19",
        "0x1.7a67329fd3861p+27", "0x1.0ef0b73d675a0p-18"),
    (-1, 1, 32769): ("0x1.7a6eff892a3b5p+26", "0x1.10f6427e4fb83p-19",
        "0x1.7a6d1c559beabp+27", "0x1.0ef4eb1207738p-18"),
    (-1, 1, 99538): ("0x1.b47e597a42efdp+29", "0x1.3a3a0144a7cb7p-16",
        "0x1.b47e78c1319dbp+30", "0x1.383a177f60802p-15"),
    (-1, 5, 32767): ("0x1.9a939c556ac39p+28", "0x1.27ce88e3d1199p-17",
        "0x1.48749daf71333p+27", "0x1.d6e1f65d26403p-19"),
    (-1, 5, 32768): ("0x1.9a9a06cbcd61bp+28", "0x1.27d3183a58045p-17",
        "0x1.4879bfa2f0aadp+27", "0x1.d6e94213f4821p-19"),
    (-1, 5, 32769): ("0x1.9aa0714d68d87p+28", "0x1.27d7a798d8bc5p-17",
        "0x1.487ee19f6a697p+27", "0x1.d6f08dd785a5fp-19"),
    (-1, 5, 99538): ("0x1.d9a035a137957p+31", "0x1.549e0cfff29dbp-14",
        "0x1.7ae6bcb34691cp+30", "0x1.0f4b5c7159f28p-15"),
    (-1, 12, 32767): ("0x1.a9af931e8f81ap+29", "0x1.328b973eaa337p-16",
        "0x1.1bca2cb8166a2p+27", "0x1.97647dcf7dcadp-19"),
    (-1, 12, 32768): ("0x1.a9b63a041db25p+29", "0x1.32905188edc14p-16",
        "0x1.1bce9bfba6628p+27", "0x1.976acb87a4786p-19"),
    (-1, 12, 32769): ("0x1.a9bce0f6f20ddp+29", "0x1.32950bdca0783p-16",
        "0x1.1bd30b480fccbp+27", "0x1.9771194c5f5c7p-19"),
    (-1, 12, 99538): ("0x1.eb0e2500357f7p+32", "0x1.610141aad5096p-13",
        "0x1.475f507ce50a9p+30", "0x1.d557caddc17c0p-16"),
    (-1, 30, 32767): ("0x1.cde61129b813ap+30", "0x1.4c485aea90f98p-15",
        "0x1.ecb0f17e0f7d7p+26", "0x1.602ae8312d5cep-19"),
    (-1, 30, 32768): ("0x1.cded48ecfefe5p+30", "0x1.4c4d7c2a8de71p-15",
        "0x1.ecb8a4704045bp+26", "0x1.603060fdcb890p-19"),
    (-1, 30, 32769): ("0x1.cdf480beb391fp+30", "0x1.4c529d74cc013p-15",
        "0x1.ecc05771d4f55p+26", "0x1.6035d9d559e48p-19"),
    (-1, 30, 99538): ("0x1.0a6a1e51b0ed7p+34", "0x1.82b1ced7630c6p-12",
        "0x1.1c2d6fd3725cdp+30", "0x1.97f19664c4835p-16"),
    (-5, 1, 32767): ("0x1.5058277c5686dp+23", "0x1.e618a1ddaedddp-23",
        "0x1.7a62177879d0bp+27", "0x1.0eed1636c4194p-18"),
    (-5, 1, 32768): ("0x1.505d68f64861bp+23", "0x1.e6201a6436e0ep-23",
        "0x1.7a680124b1e95p+27", "0x1.0ef14a0498225p-18"),
    (-5, 1, 32769): ("0x1.5062aa7a9b7bcp+23", "0x1.e62792f98007cp-23",
        "0x1.7a6deadbaff0bp+27", "0x1.0ef57dda144c9p-18"),
    (-5, 1, 99538): ("0x1.83fe887823125p+26", "0x1.17c1c8452c0c3p-19",
        "0x1.b47ec7550d2b6p+30", "0x1.383a4f5834c3fp-15"),
    (-5, 12, 32767): ("0x1.7a632d7c03726p+26", "0x1.10eddbce1bc1bp-19",
        "0x1.1bca942c2d7c0p+27", "0x1.976510dd43da8p-19"),
    (-5, 12, 32768): ("0x1.7a6917289a793p+26", "0x1.10f20f9c3342fp-19",
        "0x1.1bcf03702b673p+27", "0x1.976b5e9606d13p-19"),
    (-5, 12, 32769): ("0x1.7a6f00e41f34fp+26", "0x1.10f64374e6f24p-19",
        "0x1.1bd372bd65438p+27", "0x1.9771ac5bea00dp-19"),
    (-5, 12, 99538): ("0x1.b47e59cccb2c8p+29", "0x1.3a3a017f50258p-16",
        "0x1.475f77d1aba8ep+30", "0x1.d55802c600e32p-16"),
}


def test_A_and_frakS_bits_pinned_across_block_edges():
    for (m, q, size), pins in _BLOCK_EDGE_PINS.items():
        X = (size - 1.5) * q / (abs(m) + 1)
        assert int((abs(m) + 1) * X / q) + 2 == size  # L + 1
        Y = size - 1 + (0.375 if size > 2**15 + 1 else 0.0)
        a = A_exact(X, q, m)
        s = frakS_exact(Y, q, m)
        got = (a.value.hex(), a.abs_err.hex(), s.value.hex(), s.abs_err.hex())
        assert got == pins, (m, q, size)


def _exact_length(l: int, m: int, q: int, X: Fraction) -> Fraction:
    """|I(l)|, I(l) = {n in (0, X) : m n + l q in (0, X)}, in Fractions."""
    ends = sorted([Fraction(-l * q, m), (X - l * q) / m])
    return max(Fraction(0), min(X, ends[1]) - max(Fraction(0), ends[0]))


def test_exact_values_lie_inside_the_bars():
    # frakS, A, f_q(l, m) and f_q(0, m) summed in Fractions from the exact
    # rational parts and lengths, at both ends of C_2's and C(|m|q)'s
    # intervals, against the bars that ApproxReal arithmetic gives
    c2 = euler_constant("C2")
    c2_ends = (Fraction(c2.value) - Fraction(c2.abs_err),
               Fraction(c2.value) + Fraction(c2.abs_err))
    for (m, q) in [(1, 1), (1, 5), (1, 12), (1, 30), (2, 1), (2, 5), (3, 1),
                   (3, 5), (-1, 1), (-1, 5), (-1, 12), (-1, 30), (-5, 1),
                   (-5, 12)]:
        Y, X = 300.5 + q, 1000.3 * q / (abs(m) + 1)
        L = int((abs(m) + 1) * X / q) + 1
        rat = [None] + [f_q_rational_part(l, m, q)
                        for l in range(1, max(L, int(Y)) + 1)]
        mq = abs(m) * q
        c = euler_constant("C_of_q", arg=mq)
        c_ends = (Fraction(c.value) - Fraction(c.abs_err),
                  Fraction(c.value) + Fraction(c.abs_err))
        phi_ratio = Fraction(phi_of(mq), mq)
        Yx, Xx = Fraction(Y), Fraction(X)
        s_rat = sum(rat[l] * (Yx - l) for l in range(1, int(Y) + 1))
        a_rat = sum(rat[l] * (_exact_length(l, m, q, Xx)
                              + _exact_length(-l, m, q, Xx))
                    for l in range(1, L + 1))
        zero_len = _exact_length(0, m, q, Xx)
        s, a = frakS_exact(Y, q, m), A_exact(X, q, m)
        f0, f7 = f_q_zero(m, q), f_q_of(7 * q + 1, m, q)
        for k2, kc in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            C2, C = c2_ends[k2], c_ends[kc]
            assert s.contains(C2 * s_rat), (m, q)
            assert a.contains(C2 * a_rat + C * phi_ratio * zero_len), (m, q)
            assert f0.contains(C * phi_ratio), (m, q)
            assert f7.contains(C2 * rat[7 * q + 1]), (m, q)


def test_A_and_frakS_memory_does_not_grow_with_n():
    # only a few leaves of at most 2^15 float64 values are alive at once,
    # at n = 4,000,002 for A and 1,000,001 for frakS (one full-length
    # output of the products took 8 n bytes)
    for f, args in ((A_exact, (1e6, 1, 3)), (frakS_exact, (1e6, 1, 1))):
        f(*args)  # warm the cached constants and factorizations
        tracemalloc.start()
        try:
            f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * asymptotics._SUM_BLOCK, (f.__name__, peak)


@pytest.mark.parametrize("block", [2**15, 2**8])
def test_pairwise_sum_is_np_sum_bit_for_bit(monkeypatch, block):
    # terms of both signs over 40 binades, so that another order of
    # addition would change the last bits
    monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(400_002) * 2.0 ** rng.integers(-20, 20, 400_002)
    sizes = []

    def leaf(lo, hi):
        sizes.append(hi - lo)
        return x[lo:hi]

    for n in [*range(1, 301), 2**15 - 1, 2**15, 2**15 + 1, 2**16 + 7,
              400_002]:
        sizes.clear()
        got = asymptotics._pairwise_sum(leaf, 0, n)
        assert got.hex() == float(np.sum(x[:n])).hex(), n
        assert sum(sizes) == n and max(sizes) <= block, n


def test_two_large_square_factors_in_one_leaf(monkeypatch):
    # l = 17^2 19^2 = 104329 takes both factors from one np.multiply.at,
    # 17^2's first, at 2^8 values to a leaf as at 2^15; the values were
    # taken from the whole-array build, where they were the same at both
    # block sizes
    for block in (asymptotics._SUM_BLOCK, 2**8):
        monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
        s, a = frakS_exact(2e5, 1, 1), A_exact(1e5, 1, 1)
        assert (s.value.hex(), s.abs_err.hex()) == (
            "0x1.b89085d3b259fp+32", "0x1.3b1eb3ebd0247p-13"), block
        assert (a.value.hex(), a.abs_err.hex()) == (
            "0x1.b89173ace9ee3p+31", "0x1.3d1e13ce60784p-14"), block


# value.hex() and abs_err.hex(), taken while every p^2 <= 2^15 went in by
# its own strided multiply: each sum holds an l hit by two p^2 > 49 in one
# leaf (20449 = 11^2 13^2, 34969 = 11^2 17^2), whose factors must go in
# smaller p first, and both of them
_TWO_HIT_PINS = {
    (frakS_exact, 40000.0, 1, 1): ("0x1.19f3b9a4f3f9dp+28",
                                   "0x1.94c7c589c9338p-18"),
    (frakS_exact, 40000.0, 5, 3): ("0x1.e98175e717e93p+27",
                                   "0x1.5de752d5221cap-18"),
    (A_exact, 20000.0, 1, -1): ("0x1.19f6aed3ca515p+27",
                                "0x1.98cbf9d5bc70bp-19"),
    (A_exact, 13000.0, 1, 2): ("0x1.dc84c087be7b3p+25",
                               "0x1.56a8cecd55fa1p-20"),
}


def test_two_square_factors_above_the_wheel_pinned():
    for (f, x, q, m), pin in _TWO_HIT_PINS.items():
        got = f(x, q, m)
        assert (got.value.hex(), got.abs_err.hex()) == pin, (f.__name__, x)


def _f_by_strides(n: int, m: int, q: int) -> np.ndarray:
    """f_q(l, m)/C_2 for 0 <= l < n (0 at l = 0) from one strided multiply
    per factor over the whole array: the constant, the kappa slices, then
    every coprime p^2 in ascending p."""
    f = np.ones(n)
    for p in prime_factors(abs(m)):
        f *= (p * p - 1) / (p * p - 2)
    for p in prime_factors(q):
        f *= (p * p - p) / (p * p - 2)
    f[0] = 0.0
    for p in prime_factors(abs(m)):
        k1 = (p * p - p - 1) / (p * p - 1)
        f[::p] *= k1
        f[::p * p] *= (p * p - p) / (p * p - 1) / k1
    for p in primes_up_to(math.isqrt(n - 1)).tolist():
        if m % p and q % p:
            f[::p * p] *= (p * p - 1) / (p * p - 2)
    return f


@pytest.mark.parametrize("block", [2**15, 2**8])
def test_f_values_take_their_factors_in_ascending_p(monkeypatch, block):
    # the leaves' f values, bit for bit, against whole-array strides: an l
    # with two coprime p^2 > 49 (20449 = 11^2 13^2, 34969 = 11^2 17^2, ...)
    # takes both factors, smaller p first; in the other order 1 to 16 of
    # the l < 200001 change their last bit at these (m, q)
    monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
    leaves = []

    def keep_leaves(leaf, lo, k):
        leaves.extend(leaf(a, min(a + block, lo + k))
                      for a in range(lo, lo + k, block))
        return 0.0

    monkeypatch.setattr(asymptotics, "_pairwise_sum", keep_leaves)
    n = 200001
    for (m, q) in [(1, 1), (3, 5), (2, 1), (-6, 35), (1, 12)]:
        leaves.clear()
        asymptotics._f_weighted_sum(n, m, q, np.ones_like)
        got = np.concatenate(leaves)
        assert got.tobytes() == _f_by_strides(n, m, q).tobytes(), (m, q)


def _skip_cells(rng, count, x_max, qs):
    """(X, q, m) with m > 0: X uniform, or in turn X at a multiple k q / m
    (where l q = m X may hold exactly at l = k) and at the floats on either
    side of it."""
    cells = []
    while len(cells) < count:
        m, q = rng.choice([1, 2, 3, 5, 6, 10]), rng.choice(qs)
        if math.gcd(m, q) != 1:
            continue
        at = rng.randrange(m + 1, int(x_max * m / q)) * q / m
        X = (rng.uniform(q, x_max), at, math.nextafter(at, 0.0),
             math.nextafter(at, math.inf))[len(cells) % 4]
        cells.append((X, q, m))
    return cells


@pytest.mark.parametrize("block,count,x_max,qs", [
    (2**8, 40, 3e4, (1, 3, 7, 12, 13, 97)), (2**15, 4, 2e5, (1,))])
def test_A_exact_skips_only_zero_lengths(monkeypatch, block, count, x_max, qs):
    # at m > 0 the leaves from the first l with l q > m X on are not built:
    # every length there is +0.0, and the float is the unskipped build's
    monkeypatch.setattr(asymptotics, "_SUM_BLOCK", block)
    real = asymptotics._f_weighted_sum
    calls = []

    def recording(n, m, q, weight, end=None):
        calls.append((n, weight, end))
        return real(n, m, q, weight, end)

    def unskipped(n, m, q, weight, end=None):
        return real(n, m, q, weight)

    skipped = 0
    for X, q, m in _skip_cells(random.Random(36), count, x_max, qs):
        calls.clear()
        monkeypatch.setattr(asymptotics, "_f_weighted_sum", recording)
        got = A_exact(X, q, m)
        monkeypatch.setattr(asymptotics, "_f_weighted_sum", unskipped)
        want = A_exact(X, q, m)
        (n, weight, end), = calls
        assert (end - 1) * q <= m * Fraction(X) < end * q, (X, q, m)
        past = weight(np.arange(end, n, dtype=np.float64))
        assert not np.any(past) and not np.any(np.signbit(past)), (X, q, m)
        assert (got.value.hex(), got.abs_err.hex()) == \
            (want.value.hex(), want.abs_err.hex()), (X, q, m)
        skipped += n - end >= 2 * block  # then a whole leaf lies past end
    assert skipped >= count // 2


@st.composite
def _length_cells(draw):
    """(X, q, m) with (|m| + 1) X <= 8 10^15: X integral, non-integral, or
    within two floats of l q = k X for an integer l and one of the k that
    bound the regions, so that a region's bound falls on an l or between
    two floats of it."""
    q = draw(st.sampled_from([1, 2, 3, 7, 12, 97, 1009, 9973])
             | st.integers(1, 10 ** 4))
    m = draw(st.sampled_from([k * s for k in range(1, 8) for s in (1, -1)]))
    assume(math.gcd(abs(m), q) == 1)
    x_max = 10.0 ** draw(st.integers(4, 15))
    kind = draw(st.sampled_from(["integral", "float", "bound"]))
    if kind == "integral":
        X = float(draw(st.integers(q, int(x_max))))
    elif kind == "float":
        X = draw(st.floats(q, x_max))
    else:
        k = draw(st.sampled_from([1, abs(m) - 1 or 1, abs(m), abs(m) + 1]))
        X = draw(st.integers(1, int(x_max * k / q))) * q / k
        toward = math.inf if draw(st.booleans()) else 0.0
        for _ in range(draw(st.integers(0, 2))):
            X = math.nextafter(X, toward)
    assume(q <= X <= 10.0 ** 15)
    return X, q, m


@given(_length_cells(), st.integers(1, 40), st.integers(0, 40))
@example((511525566443312.25, 1009, -7), 3, 3)  # d > X at l q <= 8 X
@example((334866544461821.4, 9973, -4), 3, 3)  # d <= X at l q > 5 X
@example((683165938647798.5, 9973, 7), 3, 3)  # b > X at l q <= 6 X
@example((2000.0, 5, 2), 40, 40)
@settings(max_examples=300, deadline=None)
def test_lengths_are_the_clip_formulas_bit_for_bit(cell, before, after):
    # in windows across every region bound, end and both ends of 0 <= l < n:
    # the region-by-region lengths against the clip formula over every l,
    # as int64 views (so that -0.0 and +0.0 differ), and +0.0 from end on
    X, q, m = cell
    n = int(math.floor((abs(m) + 1) * X / q)) + 2  # A_exact's L + 1
    lengths, end = asymptotics._interval_lengths(X, q, m, n)
    Xx = Fraction(X)
    bounds = {0, n, end} | {math.floor(k * Xx / q) + 1
                            for k in (1, abs(m) - 1, abs(m), abs(m) + 1)}
    for b in sorted(bounds):
        lo, hi = max(0, b - before), min(n, b + after)
        if lo >= hi:
            continue
        l = np.arange(lo, hi, dtype=np.float64)
        want = A_lengths_clip(l, X, q, m)
        got = lengths(l.copy())
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            (X, q, m, lo, hi)
        assert not np.any(want.view(np.int64)[l >= end]), (X, q, m, lo, hi)


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
