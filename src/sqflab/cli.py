"""Batch front end: `verify` runs the suites identities, expsums and
asymptotics (or all) and `scan` tabulates exact statistics, as CSV or JSON.
The asymptotics suite checks the frakS, A and G remainders by
calibrate-then-enforce envelopes (`_envelope`).

Exit codes: 0 pass; 1 an asserted record failed; 2 bad input (argument
errors, a computation that rejects its inputs, or one too large to
allocate) or output that cannot be written, with one line on stderr.  A
stderr that is missing, closed or gone loses its lines and nothing else:
stdout and the exit code stay those of a run that could write them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import random
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from . import asymptotics, counters, expsums, multiplicative
from .arith import mu_of, squarefree_counts_by_moduli, tau_of
from .records import VerificationRecord

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_identities(seed: int) -> list:
    records = multiplicative.identity_suite(m_max=80, r_max=40)
    X, qs = 20000, (7, 97, 100, 1009)
    for q, counts in zip(qs, squarefree_counts_by_moduli(X, qs)):
        for m in (1, -1, 2, 3, -5):
            if math.gcd(abs(m), q) == 1:
                records.append(counters.dispersion_check(X, q, m, counts))
    return records


def _suite_expsums(seed: int) -> list:
    rng = random.Random(seed)
    records = []
    qm_pool = [(1, 1), (2, 3), (5, -2), (12, 7), (4, -6)]

    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for (q, m2) in rng.sample(qm_pool, 2):
            if (m2 * q) % p == 0:
                continue
            if p <= 13:
                table = expsums.s1_table(p, q, m2)
                zero = table[:, :, 0]
            else:  # no s1_bound record past 13 reads the other planes
                zero = expsums.s1_zero_plane(p, q, m2)
            records.append(VerificationRecord.checked(
                "expsums.s1_zero", {"p": p, "q": q, "m2": m2},
                float(np.max(np.abs(zero))), 0.0, 1e-9 * p ** 3))
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
        excess = 0.0
        for b, bound in enumerate(_s2_bound_planes(rf, m2)):
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


def _s2_bound_planes(rf: int, m2: int):
    """The (c, d) planes of s2_gcd_bound(rf, m2, b, c, d) for b < rf, in
    order: one array per g = gcd(rf, b), which is all of b the bound reads.
    Planes, not the whole cube: a whole-cube bound raised peak RSS by 1 MB."""
    grid = np.arange(rf)
    planes = {}
    for b in range(rf):
        g = math.gcd(rf, b)
        if g not in planes:
            planes[g] = expsums.s2_gcd_bound(rf, m2, g, grid[:, None],
                                             grid[None, :])
        yield planes[g]


def _envelope(check_id, size_key, cells, calibrate, enforce, gap, scale):
    """Calibrate c = 2 max(gap / scale) over cells x `calibrate` sizes, then
    assert gap <= c scale over cells x `enforce` sizes.  A cell is a dict of
    record params; scale(cell, size) gives the O-term's factors, multiplied
    left to right after c in the tolerance."""
    c = asymptotics.calibration_constant(
        gap(cell, s) / math.prod(scale(cell, s))
        for cell in cells for s in calibrate)
    return [VerificationRecord.checked(
                check_id, {**cell, size_key: s, "c": c},
                gap(cell, s), 0.0, math.prod(scale(cell, s), start=c))
            for cell in cells for s in enforce]


def _suite_asymptotics(seed: int) -> list:
    records = []
    for s in (0.5, 1.0, 1.5):
        lim = asymptotics.psi_mellin_limit(s)
        for X in (1e2, 1e3, 1e4):
            val = asymptotics.psi_mellin_integral(X, s)
            records.append(VerificationRecord.checked(
                "asymptotics.psi_mellin", {"s": s, "X": X},
                val.value, lim, X ** (-s / 2)))

    mq = [{"m": m, "q": q} for m in (1, 2, 3, -1) for q in (1, 5, 12)
          if math.gcd(abs(m), q) == 1]
    formula = {(c["m"], c["q"]): asymptotics.frakS_formula(c["q"], c["m"])
               for c in mq}
    records += _envelope(
        "asymptotics.frakS_envelope", "Y", mq,
        (100.0, 300.0, 1000.0), (1e4, 1e5),
        lambda c, Y: abs(asymptotics.frakS_exact(Y, c["q"], c["m"]).value
                         - formula[c["m"], c["q"]].at(Y)),
        lambda c, Y: (tau_of(c["q"]), Y ** (1 / 3)))

    # the decomposition and the envelope both read A_exact at X = 10^4
    A_exact = functools.cache(asymptotics.A_exact)
    for c in mq:
        for X in (2000.0, 10000.0):
            a = A_exact(X, c["q"], c["m"])
            d = asymptotics.A_decomposition(X, c["q"], c["m"])
            records.append(VerificationRecord.checked(
                "asymptotics.A_decomposition", {**c, "X": X},
                a.value, d.value, 1e-9 * abs(a.value)))

    records += _envelope(
        "asymptotics.A_envelope", "X", mq, (1000.0, 10000.0), (1e5,),
        lambda c, X: abs(A_exact(X, c["q"], c["m"]).value
                         - asymptotics.A_formula(X, c["q"], c["m"]).value),
        lambda c, X: (tau_of(c["q"]), X ** (1 / 3), c["q"] ** (2 / 3)))

    records += _envelope(
        "asymptotics.G_envelope", "Y", [{"r": r} for r in (1, 2, 6, 15)],
        (100.0, 300.0, 1000.0), (1e4, 1e5),
        lambda c, Y: abs(asymptotics.G_of(Y, c["r"]).value
                         - asymptotics.G_main_term(Y, c["r"]).value),
        lambda c, Y: (tau_of(c["r"]), Y ** (1 / 3)))
    return records


_SUITES = {
    "identities": _suite_identities,
    "expsums": _suite_expsums,
    "asymptotics": _suite_asymptotics,
}


def run_verify(suite: str, seed: int) -> list:
    if suite == "all":
        names = list(_SUITES)
    else:
        names = [suite]
    records = []
    for name in names:
        records.extend(_SUITES[name](seed))
    return records


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

_held_counts = {}  # the latest scan's {(X, moduli): counts}; see _scan_counts


def _scan_counts(X: int, cells: tuple) -> dict:
    """{q: counts} for the moduli of cells: the latest scan's if it had this X
    and these moduli, else from one pass, which first drops the held ones."""
    if (X, cells) not in _held_counts:
        _held_counts.clear()
        _held_counts[X, cells] = squarefree_counts_by_moduli(X, cells)
    return dict(zip(cells, _held_counts[X, cells]))


def _skips(kind: str, m: int, q: int) -> bool:
    """The correlation skips q where gcd(m, q) > 1; no other kind skips."""
    return kind == "correlation" and math.gcd(abs(m), q) != 1


def _scan_rows(kind: str, X: int, qs: list, m: int, counts: dict) -> list:
    mm = 1 if kind == "variance" else m
    rows = []
    for q in qs:
        if _skips(kind, m, q):
            _diagnose(f"warning: skipping q={q}, gcd(m,q)>1")
            continue
        if kind in ("variance", "correlation"):
            res = counters.variance_M2(X, q, mm, counts[q])
            main = asymptotics.theorem_main_terms(float(X), q, mm)
            rows.append({
                "kind": kind, "X": X, "q": q, "m": mm,
                "exact": res.M2_exact.value, "abs_err": res.M2_exact.abs_err,
                "main_term": main.M2_main.value,
                "ratio": res.M2_exact.value / main.M2_main.value,
                "S_exact": res.S_exact,
                "dispersion_residual": res.decomposition_residual,
            })
        elif kind == "croft":
            v = counters.croft_variance(X, q, counts[q])
            scale = X * math.sqrt(q)
            rows.append({
                "kind": kind, "X": X, "q": q, "m": "",
                "exact": v.value, "abs_err": v.abs_err,
                "scale_X_sqrtq": scale, "ratio": v.value / scale,
            })
        else:  # hooley; _kind_list admits no other kind
            rows.append({
                "kind": kind, "X": X, "q": q, "m": "",
                "max_error_over_envelope": counters.hooley_report(X, q, counts[q]),
            })
    return rows


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _diagnose(line: str) -> None:
    """One line on stderr, dropped when stderr cannot take it: without fd 2
    sys.stderr is None (and print would fall back to stdout), and a closed
    or unwritable descriptor or a pipe without a reader raises OSError."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except (OSError, ValueError):  # ValueError: the file object is closed
        pass


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
    if not rows:  # every modulus was skipped: no header line either
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


def _exact_int(text: str) -> int:
    """An integer below 2^63, also in scientific notation (2e7, 2.5e9)."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        d = Decimal("NaN")
    if d.is_finite() and d.copy_abs() < 2 ** 63 and d == int(d):
        return int(d)
    raise argparse.ArgumentTypeError(f"not an integer below 2^63: {text!r}")


def _kind_list(text: str) -> list:
    """Scan kinds from a comma list (a repeated kind once), or all of them."""
    known = ["variance", "correlation", "croft", "hooley"]
    kinds = known if text == "all" else list(dict.fromkeys(text.split(",")))
    if not set(kinds) <= set(known):
        raise argparse.ArgumentTypeError(f"not in {', '.join(known)}: {text!r}")
    return kinds


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, no usage; subcommands inherit it
        self.exit(2, f"sqflab: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="sqflab",
        description="verification suites and scans for squarefree counting")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=["csv", "json"], default="csv")
    pv.add_argument("--out", default=None)

    ps = sub.add_parser("scan", help="tabulate exact statistics vs main terms")
    ps.add_argument("--kind", type=_kind_list, required=True,
                    help="comma-separated list of kinds, or all")
    ps.add_argument("--x", type=_exact_int, required=True)
    ps.add_argument("--q", required=True,
                    help="comma-separated list of moduli")
    ps.add_argument("--m", type=int, default=1)
    ps.add_argument("--format", choices=["csv", "json"], default="csv")
    ps.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "scan":
        if args.x < 1:
            parser.error("--x must be a positive integer")
        try:
            q_list = [_exact_int(t) for t in args.q.split(",") if t.strip()]
        except argparse.ArgumentTypeError:
            parser.error("--q must be a comma-separated list of integers")
        if not q_list:
            parser.error("--q must name at least one modulus")
        if any(q < 1 for q in q_list):
            parser.error("--q moduli must be positive")
        if "correlation" in args.kind and not (
                0 < abs(args.m) < 2 ** 63 and mu_of(abs(args.m)) != 0):
            parser.error("--m must be a nonzero squarefree integer below 2^63")

    try:
        if args.command == "verify":
            records = run_verify(args.suite, args.seed)
            rows = [r.as_dict() for r in records]
            failures = [r for r in records if r.mode == "assert" and not r.passed]
            status = 1 if failures else 0
            summary = (f"suite={args.suite} records={len(records)} "
                       f"failures={len(failures)}")
        else:
            for q in sorted({q for q in q_list if q > args.x}):
                _diagnose(f"warning: skipping q={q} > X={args.x}")
            qs = sorted({q for q in q_list if q <= args.x})  # a repeat once
            counts = _scan_counts(args.x, tuple(q for q in qs if not all(
                _skips(kind, args.m, q) for kind in args.kind)))
            rows = [row for kind in args.kind
                    for row in _scan_rows(kind, args.x, qs, args.m, counts)]
            status = 0
            summary = f"kind={','.join(args.kind)} rows={len(rows)}"
    except (ValueError, ArithmeticError, MemoryError) as exc:
        _diagnose(f"sqflab: error: {exc}")
        return 2

    try:
        if args.out:
            with open(args.out, "w", newline="") as fh:
                _emit_rows(rows, args.format, fh)
        else:
            _emit_rows(rows, args.format, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:
            # the interpreter flushes stdout again at exit: let it hit devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _diagnose(f"sqflab: error: cannot write output: {exc}")
        return 2
    _diagnose(summary)
    return status


if __name__ == "__main__":
    sys.exit(main())
