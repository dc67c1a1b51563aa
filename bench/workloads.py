"""Workload plans and passes for the sqflab benchmark.

A plan is built from the seed alone, so the same seed gives the same
inputs.  A pass runs one plan against the package and returns its output
text plus the operation counts of the correctness checks.  The package is
driven only through ``sqflab.cli.main`` argv and the public functions of
``sqflab.expsums``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random

WORKLOADS = ("verify_all", "scan_x", "scan_q", "expsums_crt")

SCAN_X = 2 * 10**8
# Three small moduli, one per band: the sieve over [1, X] is the cost.
SCAN_X_BANDS = ((50, 150), (300, 500), (800, 1100))

SCAN_Q = 2 * 10**7
# Seven moduli from 10^3 to 10^6: five seeded from narrow bands (so the
# per-residue work, which grows with sum q, moves little across seeds) and
# two fixed highly composite ones with many gcd classes.
SCAN_Q_BANDS = ((1000, 2000), (5000, 10000), (100000, 130000),
                (250000, 300000), (950000, 1000000))
SCAN_Q_COMPOSITES = (30030, 510510)
SCAN_Q_KINDS = (("variance", 1), ("correlation", -1), ("croft", None),
                ("hooley", None))

# Sum of M^2 over the CRT tuples of one pass, M = u p1 p2.  The literal
# full_sum_S costs about 25 us per alpha plus 30-45 ns per term, so a fixed
# budget fixes the work across seeds.  M is held to a band: over the whole
# criterion-4 range (15 to 16150) a seed may draw a few large tuples or many
# small ones, and the pass time then moved by about 20% across seeds.
CRT_BUDGET = 12 * 10**7
CRT_M_BAND = (1000, 3500)
CRT_FILL = 0.995            # stop once this share of the budget is drawn
CRT_MAX_DRAWS = 100000
CRT_PRIMES = (3, 5, 7, 11, 13, 17, 19)
CRT_M2 = (1, -1, 2, 3, 5, -2, 7)

DISPERSION_TOL = 1e-8
CRT_REL_TOL = 1e-6


def crt_tuples(seed: int) -> list:
    """Criterion-4 style tuples (u, p1, p2, q, m2, lam, mu, nu) with M in
    the band, whose M^2 add up to the budget.  nu is drawn prime to p1 p2:
    otherwise the Jacobi transform vanishes and full_sum_S returns before
    its O(M^2) loop, so the tuple would count toward the budget without
    doing the work."""
    rng = random.Random(seed)
    out = []
    total = 0
    for _ in range(CRT_MAX_DRAWS):
        if total >= CRT_FILL * CRT_BUDGET:
            break
        u = rng.randrange(1, 51)
        p1, p2 = rng.sample(CRT_PRIMES, 2)
        q = rng.randrange(1, 30)
        m2 = rng.choice(CRT_M2)
        if (m2 * q) % p1 == 0 or (m2 * q) % p2 == 0:
            continue
        if math.gcd(u, p1 * p2 * q * abs(m2)) != 1:
            continue
        M = u * p1 * p2
        if not CRT_M_BAND[0] <= M <= CRT_M_BAND[1]:
            continue
        if total + M * M > CRT_BUDGET:
            continue
        lam, mu = rng.randrange(M), rng.randrange(M)
        nu = rng.randrange(M)
        while math.gcd(nu, p1 * p2) != 1:
            nu = rng.randrange(M)
        out.append((u, p1, p2, q, m2, lam, mu, nu))
        total += M * M
    return out


def plan(workload: str, seed: int):
    """The inputs of one workload: CLI argv lists, or CRT tuples."""
    rng = random.Random(seed)
    if workload == "verify_all":
        return [["verify", "--suite", "all", "--seed", str(seed),
                 "--format", "csv"]]
    if workload == "scan_x":
        qs = [rng.randrange(lo, hi) for lo, hi in SCAN_X_BANDS]
        return [["scan", "--kind", "variance", "--x", str(SCAN_X),
                 "--q", ",".join(map(str, qs)), "--format", "csv"]]
    if workload == "scan_q":
        qs = [rng.randrange(lo, hi) for lo, hi in SCAN_Q_BANDS]
        qs = sorted(qs + list(SCAN_Q_COMPOSITES))
        argvs = []
        for kind, m in SCAN_Q_KINDS:
            argv = ["scan", "--kind", kind, "--x", str(SCAN_Q),
                    "--q", ",".join(map(str, qs)), "--format", "csv"]
            if m is not None:
                argv.append(f"--m={m}")
            argvs.append(argv)
        return argvs
    if workload == "expsums_crt":
        return crt_tuples(seed)
    raise ValueError(f"unknown workload {workload!r}")


# sqflab is imported inside the passes: run.py imports this module without
# src on its path.
def _run_cli(argv: list) -> str:
    from sqflab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"sqflab {' '.join(argv)} exited {status}: "
                         f"{err.getvalue().strip()}")
    return out.getvalue()


def _check_verify(text: str) -> tuple:
    attempted = failed = 0
    for row in csv.DictReader(io.StringIO(text)):
        if row["mode"] == "assert":
            attempted += 1
            failed += row["pass"] != "True"
    return attempted, failed


def _check_scan(text: str, argv: list) -> tuple:
    n_moduli = len(argv[argv.index("--q") + 1].split(","))
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = max(0, n_moduli - len(rows))
    for row in rows:
        if row["kind"] in ("variance", "correlation"):
            ok = float(row["dispersion_residual"]) <= DISPERSION_TOL
        elif row["kind"] == "croft":
            ok = math.isfinite(float(row["ratio"])) and float(row["exact"]) > 0
        else:
            ok = math.isfinite(float(row["max_error_over_envelope"]))
        failed += not ok
    return max(n_moduli, len(rows)), failed


def run_pass(workload: str, inputs) -> tuple:
    """One pass over a plan: (output text, ops attempted, ops failed)."""
    if workload == "expsums_crt":
        from sqflab import expsums

        lines = []
        failed = 0
        for t in inputs:
            full = expsums.full_sum_S(*t)
            prod = expsums.crt_product(*t)
            failed += not abs(full - prod) <= CRT_REL_TOL * max(1.0, abs(full))
            lines.append(" ".join(map(str, t)) + f" {full!r} {prod!r}\n")
        return "".join(lines), len(inputs), failed

    texts = []
    attempted = failed = 0
    for argv in inputs:
        text = _run_cli(argv)
        if workload == "verify_all":
            a, f = _check_verify(text)
        else:
            a, f = _check_scan(text, argv)
        texts.append(text)
        attempted += a
        failed += f
    return "".join(texts), attempted, failed


def mismatched_lines(a: str, b: str) -> int:
    """Lines that differ between two outputs of the same plan."""
    la, lb = a.splitlines(), b.splitlines()
    return sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
