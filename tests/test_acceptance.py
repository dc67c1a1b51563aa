"""Acceptance gate: ten criteria, one test each.  Every test is wrapped so
the terminal summary prints one PASS/FAIL line per criterion with a short
detail string (worst residuals, calibrated constants); the summary adds
each test's runtime after it."""

import math
import random
import time

import numpy as np

from conftest import criterion

from sqflab.arith import (mu_of, primes_up_to, squarefree_count,
                          squarefree_counts_by_residue, squarefree_window,
                          tau_of)
from sqflab.asymptotics import (A_decomposition, A_exact, A_formula,
                                G_main_term, G_of, frakS_exact, frakS_formula,
                                psi_mellin_integral, psi_mellin_limit)
from sqflab.cli import _envelope
from sqflab.counters import variance_M2
from sqflab.expsums import (crt_product, full_sum_S, s1_table, s2_table)
from sqflab.multiplicative import euler_constant, identity_suite

from oracles import (f_q_zero_local_factors, lattice_count_N,
                     lattice_count_brute, pair_enumeration_S, u_p_brute,
                     u_p_local)

_SEED = 20240917


@criterion(1, "dispersion identity, rel 1e-8 on the X/q/m grid")
def test_criterion_1_dispersion():
    t0 = time.time()
    worst = 0.0
    cells = 0
    for X in (10 ** 4, 10 ** 5, 10 ** 6):
        for q in (7, 97, 100, 1009, 9973):
            for m in (1, -1, 2, 3, -5):
                if math.gcd(abs(m), q) != 1:
                    continue  # identity defined for gcd(m,q)=1 only
                res = variance_M2(X, q, m, squarefree_counts_by_residue(X, q))
                worst = max(worst, res.decomposition_residual)
                cells += 1
    elapsed = time.time() - t0
    assert worst <= 1e-8, f"worst relative residual {worst:.3g} > 1e-8"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s >= 30s"
    return f"{cells} cells, worst residual {worst:.1e}"


@criterion(2, "exact multiplicative identities (kappa-mu, h-series, gq)")
def test_criterion_2_identities():
    records = identity_suite(m_max=100, r_max=100)
    bad = [r for r in records if not r.passed]
    assert not bad, f"{len(bad)} identity records failed, " \
                    f"first: {bad[0].as_dict() if bad else None}"
    kinds = {r.check_id for r in records}
    assert {"products.kmu_recip", "products.kmu_plain", "products.kmu_sqrt",
            "products.h_d2", "products.h_d4", "gq.exact"} <= kinds
    return f"{len(records)} records exact / within computed tails"


@criterion(3, "f_q(0,m) local factors exact for every p <= 1e4")
def test_criterion_3_f_q_zero_local_factors():
    ps = [int(p) for p in primes_up_to(10 ** 4)]
    pairs = [(m, q) for m in (1, -1, 2, -2, 3, -3, 6, 10)
             for q in (1, 5, 12) if math.gcd(abs(m), q) == 1]
    checked = 0
    for (m, q) in pairs:
        for p in ps:
            lit, closed = f_q_zero_local_factors(p, m, q)
            assert lit == closed, \
                f"local factor mismatch at p={p}, m={m}, q={q}"
            checked += 1
    return f"{checked} local factors over {len(pairs)} (m,q) pairs, exact"


@criterion(4, "exponential sums: zero/B/C/D planes, S1 bound, CRT product")
def test_criterion_4_expsums():
    t0 = time.time()
    rng = random.Random(_SEED)
    pool = [(1, 1), (2, 3), (5, -2), (12, 7), (4, -6)]

    zero_cells = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for (q, m2) in rng.sample(pool, 2):
            if (m2 * q) % p == 0:
                continue
            tab = s1_table(p, q, m2)
            worst = float(np.max(np.abs(tab[:, :, 0])))
            assert worst < 1e-9, f"zero plane p={p}: |S1|={worst:.2g}"
            zero_cells += 1

    def check_s2(r_pow, lead):
        for (q, m2) in [(1, 1), (2, 3), (5, -2)]:
            if math.gcd(r_pow, q) != 1:
                continue
            tab = s2_table(r_pow, q, m2)
            n = r_pow
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        g = math.gcd(n, math.gcd(b, math.gcd(c, d * m2)))
                        if lead is None:  # f = 1: constant exactly 2
                            bound = 2.0 * n * g
                        else:
                            bound = lead * n ** 1.5 * math.sqrt(g)
                        assert abs(tab[b, c, d]) <= bound + 1e-9, \
                            (r_pow, q, m2, b, c, d)

    for r in (3, 5, 7, 11):
        check_s2(r, None)
    for rf in (9, 25, 27, 49):
        check_s2(rf, 2.0)
    for rf in (4, 8, 16):
        check_s2(rf, 4.0)

    for p in (3, 5, 7, 11, 13):
        for (q, m2) in [(1, 1), (2, 3), (5, -2)]:
            if (m2 * q) % p == 0:
                continue
            worst = float(np.max(np.abs(s1_table(p, q, m2))))
            assert worst <= 2 * p ** 1.5 + 1e-9, (p, q, m2, worst)

    tuples = 0
    while tuples < 50:
        u = rng.randrange(1, 51)
        p1, p2 = rng.sample([3, 5, 7, 11, 13, 17, 19], 2)
        if p1 * p2 > 400:
            continue
        q = rng.randrange(1, 30)
        m2 = rng.choice([1, -1, 2, 3, 5, -2, 7])
        if (m2 * q) % p1 == 0 or (m2 * q) % p2 == 0:
            continue
        if math.gcd(u, p1 * p2 * q * abs(m2)) != 1:
            continue
        M = u * p1 * p2
        b, c, d = (rng.randrange(0, M) for _ in range(3))
        full = full_sum_S(u, p1, p2, q, m2, b, c, d)
        prod = crt_product(u, p1, p2, q, m2, b, c, d)
        assert abs(full - prod) <= 1e-6 * max(1.0, abs(full)), \
            f"CRT mismatch at {(u, p1, p2, q, m2, b, c, d)}"
        tuples += 1

    elapsed = time.time() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s >= 300s"
    return (f"{zero_cells} zero planes, B/C/D exhaustive, "
            f"{tuples} CRT tuples")


@criterion(5, "sawtooth Mellin integral within X^(-s/2) of its limit")
def test_criterion_5_psi_mellin():
    worst = 0.0
    for s in (0.5, 1.0, 1.5):
        lim = psi_mellin_limit(s)
        for X in (1e2, 1e4, 1e6):
            val = psi_mellin_integral(X, s)
            margin = abs(val.value - lim) / X ** (-s / 2)
            worst = max(worst, margin)
            assert margin <= 1.0, f"s={s}, X={X:g}: |diff| = " \
                f"{margin:.3g} X^(-s/2) > X^(-s/2)"
    return f"9 grid points, worst margin {worst:.2f} of the envelope"


@criterion(6, "calibrated remainder envelopes for frakS, G, and A")
def test_criterion_6_envelopes():
    mq = [{"m": m, "q": q} for m in (1, 2, 3, -1) for q in (1, 5, 12)
          if math.gcd(abs(m), q) == 1]
    records = _envelope(
        "frakS", "Y", mq, (100.0, 300.0, 1000.0), (1e4, 1e5, 1e6),
        lambda c, Y: abs(frakS_exact(Y, c["q"], c["m"]).value
                         - frakS_formula(c["q"], c["m"]).at(Y)),
        lambda c, Y: (tau_of(c["q"]), Y ** (1 / 3)))
    records += _envelope(
        "G", "Y", [{"r": r} for r in (1, 5, 12)], (100.0, 300.0, 1000.0),
        (1e4, 1e5, 1e6),
        lambda c, Y: abs(G_of(Y, c["r"]).value - G_main_term(Y, c["r"]).value),
        lambda c, Y: (tau_of(c["r"]), Y ** (1 / 3)))
    records += _envelope(
        "A", "X", mq, (1000.0, 10000.0), (1e5, 1e6),
        lambda c, X: abs(A_exact(X, c["q"], c["m"]).value
                         - A_formula(X, c["q"], c["m"]).value),
        lambda c, X: (tau_of(c["q"]), X ** (1 / 3), c["q"] ** (2 / 3)))
    for r in records:
        assert r.passed, f"{r.check_id} envelope broken at {r.params}"
    c = {r.check_id: r.params["c"] for r in records}
    return (f"c_frakS={c['frakS']:.3g}, c_G={c['G']:.3g}, c_A={c['A']:.3g}, "
            "all enforced")


@criterion(7, "A[m](X,q): both computation paths agree to rel 1e-9")
def test_criterion_7_A_decomposition():
    mq = [(m, q) for m in (1, 2, 3, -1) for q in (1, 5, 12)
          if math.gcd(abs(m), q) == 1]
    worst = 0.0
    for (m, q) in mq:
        for X in (1e5, 1e6):
            a = A_exact(X, q, m).value
            d = A_decomposition(X, q, m).value
            rel = abs(a - d) / abs(a)
            worst = max(worst, rel)
            assert rel <= 1e-9, f"m={m}, q={q}, X={X:g}: rel {rel:.2e}"
    return f"{2 * len(mq)} cells, worst relative gap {worst:.1e}"


@criterion(8, "desk-scale variance ratio against the derived constant")
def test_criterion_8_desk_scale():
    t0 = time.time()
    X = 10 ** 7
    qs = (63013, 249989, 999983)
    C = euler_constant("C").value
    printed = 0.167
    parts = []
    derived_hits = printed_hits = 0
    for q in qs:
        # sums over the coprime classes (63013 = 61 * 1033), not 1..q-1
        m2 = variance_M2(X, q, 1, squarefree_counts_by_residue(X, q)) \
            .M2_exact.value
        hall = euler_constant("hall_factor", arg=q).value
        scale = hall * math.sqrt(X * q)
        ratio = m2 / (C * scale)
        ratio_printed = m2 / (printed * scale)
        derived_hits += 0.5 <= ratio <= 1.5
        printed_hits += 0.5 <= ratio_printed <= 1.5
        assert 0.5 <= ratio <= 1.5, f"q={q}: ratio {ratio:.3f} outside [0.5, 1.5]"
        parts.append(f"q={q}: {ratio:.2f} (printed-constant ratio "
                     f"{ratio_printed:.2f})")
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s >= 120s"
    flag = (f"derived C matches {derived_hits}/3, "
            f"printed 0.167 matches {printed_hits}/3")
    return "; ".join(parts) + f"; {flag}"


@criterion(9, "brute-force oracle equivalence (S pairs, u_p, lattice)")
def test_criterion_9_brute_oracles():
    rng = random.Random(_SEED)
    pairs = 0
    while pairs < 20:
        X = rng.randrange(300, 2001)
        q = rng.randrange(2, 80)
        m = rng.choice([1, -1, 2, 3, -5, 7, 10])
        if math.gcd(abs(m), q) != 1:
            continue
        S = variance_M2(X, q, m, squarefree_counts_by_residue(X, q)).S_exact
        assert S == pair_enumeration_S(X, q, m), \
            f"S mismatch at X={X}, q={q}, m={m}"
        pairs += 1

    up_cells = 0
    for p in (2, 3, 5, 7):
        for m in (1, -1, 2, 3, 6, -5, 10, 2 * p, 3 * p * p):
            if m == 0 or mu_of(abs(m)) == 0:
                continue
            for q in (1, 11, 13):
                if q % p == 0:
                    continue
                for l in range(-2 * p * p, 2 * p * p + 1):
                    assert u_p_local(p, l, m, q) == u_p_brute(p, l, m, q), \
                        f"u_p mismatch at p={p}, l={l}, m={m}, q={q}"
                    up_cells += 1

    lat_cells = 0
    for (J, K) in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]:
        for (m1, m2) in [(1, 1), (1, 2), (2, -1), (-3, 1)]:
            for q in (1, 3, 7, 12):
                if math.gcd(abs(m1) * abs(m2), q) != 1:
                    continue
                for X in (50, 200, 500):
                    assert lattice_count_N(J, K, m1, m2, X, q) == \
                        lattice_count_brute(J, K, m1, m2, X, q), \
                        f"lattice mismatch at {(J, K, m1, m2, X, q)}"
                    lat_cells += 1
    return f"20 S pairs, {up_cells} u_p cells, {lat_cells} lattice cells"


@criterion(10, "segmented sieve vs mu^2 oracle at 1e8 + density envelope")
def test_criterion_10_sieve():
    X = 10 ** 8
    rng = np.random.default_rng(_SEED)
    samples = np.unique(rng.integers(1, X + 1, size=10 ** 5))
    p2 = primes_up_to(10 ** 4).astype(np.int64) ** 2
    oracle = np.ones(samples.size, dtype=bool)
    for pp in p2:
        oracle &= (samples % pp) != 0

    total = 0
    mismatches = 0
    lo = 1
    while lo <= X:
        hi = min(lo + (1 << 22), X + 1)
        flags = squarefree_window(lo, hi)
        total += int(np.count_nonzero(flags))
        i0, i1 = np.searchsorted(samples, [lo, hi])
        if i1 > i0:
            sel = samples[i0:i1]
            mismatches += int(np.count_nonzero(
                flags[sel - lo] != oracle[i0:i1]))
        lo = hi
    assert mismatches == 0, f"{mismatches} sieve/oracle disagreements"

    margins = []
    for Xc in (10 ** 4, 10 ** 6, 10 ** 8):
        Q = total if Xc == X else squarefree_count(Xc)
        err = abs(Q - 6 * Xc / math.pi ** 2)
        assert err <= 2 * math.sqrt(Xc), \
            f"density |Q({Xc:g}) - 6X/pi^2| = {err:.1f} > 2 sqrt(X)"
        margins.append(err / (2 * math.sqrt(Xc)))
    return (f"Q(1e8)={total}, {samples.size} sampled points agree, "
            f"density margins {', '.join(f'{m:.3f}' for m in margins)}")
