"""Batch front end: verification suites and scan reports with CSV/JSON
output and CI-friendly exit codes: 0 pass, 1 an asserted record failed,
2 bad input (argument errors, a computation that rejects its inputs, or
one too large to allocate).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys

import numpy as np

from . import asymptotics, counters, expsums, multiplicative
from .arith import tau_of
from .records import VerificationRecord

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_identities(seed: int, eps: float) -> list:
    records = multiplicative.identity_suite(m_max=80, r_max=40)
    X = 20000
    for q in (7, 97, 100, 1009):
        for m in (1, -1, 2, 3, -5):
            if math.gcd(abs(m), q) != 1:
                continue
            records.append(counters.dispersion_check(X, q, m, eps))
    return records


def _suite_expsums(seed: int, eps: float) -> list:
    rng = random.Random(seed)
    records = []
    qm_pool = [(1, 1), (2, 3), (5, -2), (12, 7), (4, -6)]

    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for (q, m2) in rng.sample(qm_pool, 2):
            if (m2 * q) % p == 0:
                continue
            table = expsums.s1_table(p, q, m2)
            records.append(VerificationRecord.checked(
                "expsums.s1_zero", {"p": p, "q": q, "m2": m2},
                float(np.max(np.abs(table[:, :, 0]))), 0.0, 1e-9 * p ** 3))
            if p <= 13:
                records.append(VerificationRecord.checked(
                    "expsums.s1_bound", {"p": p, "q": q, "m2": m2},
                    float(np.max(np.abs(table))), 0.0,
                    2 * p ** 1.5 + 1e-9 * p ** 3))

    for rf in (3, 5, 7, 11, 9, 25, 27, 49, 4, 8, 16):
        pool = [(q, m2) for (q, m2) in [(1, 1), (3, 2), (5, -2)]
                if math.gcd(rf, q) == 1]
        q, m2 = rng.choice(pool)
        table = expsums.s2_table(rf, q, m2)
        # one (c, d) plane per b: a whole-cube bound raised peak RSS by 1 MB
        grid = np.arange(rf)
        excess = 0.0
        for b in range(rf):
            bound = expsums.s2_gcd_bound(rf, m2, b, grid[:, None], grid[None, :])
            excess = max(excess, float(np.max(np.abs(table[b]) - bound)))
        records.append(VerificationRecord.checked(
            "expsums.s2_bound", {"r_pow": rf, "q": q, "m2": m2},
            excess, 0.0, 1e-9 * rf ** 3))

    for p in (3, 7, 11, 19, 31):
        t = rng.randrange(1, p)
        records.append(VerificationRecord.checked(
            "expsums.gauss_magnitude", {"p": p, "t": t},
            abs(expsums.gauss_sum(t, p)), math.sqrt(p), 1e-9 * p))
        records.append(VerificationRecord.checked(
            "expsums.gauss_zero", {"p": p},
            abs(expsums.gauss_sum(0, p)), 0.0, 1e-9 * p))

    for p in (3, 5, 7, 11, 13):
        q, m2 = rng.choice(qm_pool)
        if (m2 * q) % p == 0:
            continue
        b, c, d = (rng.randrange(p) for _ in range(3))
        lit = expsums.s1_literal(p, q, m2, b, c, d)
        fac = expsums.s1_sum(p, q, m2, b, c, d)
        records.append(VerificationRecord.checked(
            "expsums.s1_paths",
            {"p": p, "q": q, "m2": m2, "b": b, "c": c, "d": d},
            abs(lit - fac), 0.0, 1e-9 * p ** 3))

    for (u, p1, p2, q, m2) in [(1, 3, 5, 1, 1), (2, 3, 5, 1, 1), (6, 5, 7, 1, 1),
                               (9, 5, 11, 2, 1), (4, 3, 7, 5, 1), (30, 7, 11, 1, 1)]:
        M = u * p1 * p2
        lam, mu, nu = (rng.randrange(M) for _ in range(3))
        records.append(expsums.crt_factor_check(u, p1, p2, q, m2, lam, mu, nu))

    for p in (53, 101):
        records.append(expsums.kloosterman_weil_report(p))
    return records


def _suite_asymptotics(seed: int, eps: float) -> list:
    records = []
    for s in (0.5, 1.0, 1.5):
        lim = asymptotics.psi_mellin_limit(s)
        for X in (1e2, 1e3, 1e4):
            val = asymptotics.psi_mellin_integral(X, s)
            records.append(VerificationRecord.checked(
                "asymptotics.psi_mellin", {"s": s, "X": X},
                val.value, lim, X ** (-s / 2)))

    mq = [(m, q) for m in (1, 2, 3, -1) for q in (1, 5, 12)
          if math.gcd(abs(m), q) == 1]

    ratios = []
    for (m, q) in mq:
        bd = asymptotics.frakS_formula(1.0, q, m, eps)
        for Y in (100.0, 300.0, 1000.0):
            ex = asymptotics.frakS_exact(Y, q, m, eps).value
            ratios.append(abs(ex - bd.at(Y)) / (tau_of(q) * Y ** (1 / 3)))
    c_s = asymptotics.calibration_constant(ratios)
    for (m, q) in mq:
        bd = asymptotics.frakS_formula(1.0, q, m, eps)
        for Y in (1e4, 1e5):
            ex = asymptotics.frakS_exact(Y, q, m, eps).value
            records.append(VerificationRecord.checked(
                "asymptotics.frakS_envelope", {"m": m, "q": q, "Y": Y, "c": c_s},
                abs(ex - bd.at(Y)), 0.0, c_s * tau_of(q) * Y ** (1 / 3)))

    for (m, q) in mq:
        for X in (2000.0, 10000.0):
            a = asymptotics.A_exact(X, q, m, eps)
            d = asymptotics.A_decomposition(X, q, m, eps)
            records.append(VerificationRecord.checked(
                "asymptotics.A_decomposition", {"m": m, "q": q, "X": X},
                a.value, d.value, 1e-9 * abs(a.value)))

    ratios = []
    for (m, q) in mq:
        for X in (1000.0, 10000.0):
            a = asymptotics.A_exact(X, q, m, eps).value
            f = asymptotics.A_formula(X, q, m, eps).value
            ratios.append(abs(a - f) / (tau_of(q) * X ** (1 / 3) * q ** (2 / 3)))
    c_a = asymptotics.calibration_constant(ratios)
    for (m, q) in mq:
        X = 1e5
        a = asymptotics.A_exact(X, q, m, eps).value
        f = asymptotics.A_formula(X, q, m, eps).value
        records.append(VerificationRecord.checked(
            "asymptotics.A_envelope", {"m": m, "q": q, "X": X, "c": c_a},
            abs(a - f), 0.0, c_a * tau_of(q) * X ** (1 / 3) * q ** (2 / 3)))

    ratios = []
    for r in (1, 2, 6, 15):
        for Y in (100.0, 300.0, 1000.0):
            g = asymptotics.G_of(Y, r, eps)
            main = asymptotics.G_main_term(Y, r, eps)
            ratios.append(abs(g.value - main.value) / (tau_of(r) * Y ** (1 / 3)))
    c_g = asymptotics.calibration_constant(ratios)
    for r in (1, 2, 6, 15):
        for Y in (1e4, 1e5):
            g = asymptotics.G_of(Y, r, eps)
            main = asymptotics.G_main_term(Y, r, eps)
            records.append(VerificationRecord.checked(
                "asymptotics.G_envelope", {"r": r, "Y": Y, "c": c_g},
                abs(g.value - main.value), 0.0, c_g * tau_of(r) * Y ** (1 / 3)))
    return records


_SUITES = {
    "identities": _suite_identities,
    "expsums": _suite_expsums,
    "asymptotics": _suite_asymptotics,
}


def run_verify(suite: str, seed: int, eps: float) -> list:
    if suite == "all":
        names = list(_SUITES)
    else:
        names = [suite]
    records = []
    for name in names:
        records.extend(_SUITES[name](seed, eps))
    return records


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def _scan_rows(kind: str, X: int, q_list: list, m: int, eps: float) -> list:
    rows = []
    for q in sorted(q_list):
        if q > X:
            print(f"warning: skipping q={q} > X={X}", file=sys.stderr)
            continue
        if kind in ("variance", "correlation"):
            mm = 1 if kind == "variance" else m
            if math.gcd(abs(mm), q) != 1:
                print(f"warning: skipping q={q}, gcd(m,q)>1", file=sys.stderr)
                continue
            res = counters.variance_M2(X, q, mm, eps)
            main = asymptotics.theorem_main_terms(float(X), q, mm, eps)
            rows.append({
                "kind": kind, "X": X, "q": q, "m": mm,
                "exact": res.M2_exact.value, "abs_err": res.M2_exact.abs_err,
                "main_term": main.M2_main.value,
                "ratio": res.M2_exact.value / main.M2_main.value,
                "S_exact": res.S_exact,
                "dispersion_residual": res.decomposition_residual,
            })
        elif kind == "croft":
            v = counters.croft_variance(X, q, eps)
            scale = X * math.sqrt(q)
            rows.append({
                "kind": kind, "X": X, "q": q, "m": "",
                "exact": v.value, "abs_err": v.abs_err,
                "scale_X_sqrtq": scale, "ratio": v.value / scale,
            })
        elif kind == "hooley":
            rows.append({
                "kind": kind, "X": X, "q": q, "m": "",
                "max_error_over_envelope": counters.hooley_report(X, q, eps),
            })
        else:
            raise ValueError(f"unknown scan kind {kind!r}")
    return rows


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, float):
        return _FLOAT_FMT % v
    if isinstance(v, (int, str, bool)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    return str(v)


def _emit_rows(rows: list, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows, indent=1, default=_fmt))
        out.write("\n")
        return
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)
    writer = csv.DictWriter(out, fieldnames=keys, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqflab",
        description="verification suites and scans for squarefree counting")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=["identities", "expsums", "asymptotics", "all"],
                    default="all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--precision", type=float, default=1e-12)
    pv.add_argument("--format", choices=["csv", "json"], default="csv")
    pv.add_argument("--out", default=None)

    ps = sub.add_parser("scan", help="tabulate exact statistics vs main terms")
    ps.add_argument("--kind", choices=["variance", "correlation", "croft", "hooley"],
                    required=True)
    ps.add_argument("--x", type=int, required=True)
    ps.add_argument("--q", required=True,
                    help="comma-separated list of moduli")
    ps.add_argument("--m", type=int, default=1)
    ps.add_argument("--precision", type=float, default=1e-12)
    ps.add_argument("--format", choices=["csv", "json"], default="csv")
    ps.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if not (math.isfinite(args.precision) and args.precision > 0):
        parser.error("--precision must be a positive finite number")
    if args.command == "scan":
        if args.x < 1:
            parser.error("--x must be a positive integer")
        try:
            q_list = [int(tok) for tok in args.q.split(",") if tok.strip()]
        except ValueError:
            parser.error("--q must be a comma-separated list of integers")
        if not q_list:
            parser.error("--q must name at least one modulus")
        if any(q < 1 for q in q_list):
            parser.error("--q moduli must be positive")

    try:
        if args.command == "verify":
            records = run_verify(args.suite, args.seed, args.precision)
            rows = [r.as_dict() for r in records]
            failures = [r for r in records if r.mode == "assert" and not r.passed]
            status = 1 if failures else 0
            summary = (f"suite={args.suite} records={len(records)} "
                       f"failures={len(failures)}")
        else:
            rows = _scan_rows(args.kind, args.x, q_list, args.m, args.precision)
            status = 0
            summary = f"kind={args.kind} rows={len(rows)}"
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"sqflab: error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            print(f"sqflab: error: cannot write --out: {exc}", file=sys.stderr)
            return 2
        with fh:
            _emit_rows(rows, args.format, fh)
    else:
        _emit_rows(rows, args.format, sys.stdout)
    print(summary, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
