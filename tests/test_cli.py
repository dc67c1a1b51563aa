"""Command-line surface: exit codes, output formats, determinism, and the
scan guard rails.  Everything goes through main(argv) so the argparse wiring
is exercised end to end."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from sqflab import arith, asymptotics, cli, counters, expsums, multiplicative
from sqflab.cli import _emit_rows, main, run_verify
from sqflab.records import VerificationRecord

# sha256 of the bytes of `sqflab verify --suite all --seed 0 --format csv`
VERIFY_ALL_SHA256 = \
    "a5a6edd0c27a3374adb16d23a5028382614dabf2859889ab84a114d2612538f4"
# the same for `--suite expsums`, so that a byte change in S1 or S2 is
# named by its own suite
VERIFY_EXPSUMS_SHA256 = \
    "4d893169124460410ba993ff834bf0693ccceba83127d6d5193c1d2fe5f1ab20"


def test_verify_identities_exits_clean(tmp_path, capsys):
    out = tmp_path / "records.csv"
    rc = main(["verify", "--suite", "identities", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "failures=0" in err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["pass"] == "True" for row in rows)
    assert any(row["check_id"] == "counters.dispersion" for row in rows)
    # floats are emitted in round-trippable %.17g form
    lhs = [row["lhs"] for row in rows if row["check_id"] == "counters.dispersion"]
    assert all(float(s) == float(repr(float(s))) for s in lhs)


def test_verify_json_round_trips(tmp_path):
    out = tmp_path / "records.json"
    rc = main(["verify", "--suite", "asymptotics", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert isinstance(data, list) and data
    sample = data[0]
    for key in ("check_id", "lhs", "rhs", "tol", "mode", "pass"):
        assert key in sample
    assert all(r["pass"] in (True, "True") for r in data if r["mode"] == "assert")


def test_verify_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["verify", "--suite", "expsums", "--seed", "3",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_sampled_cells(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["verify", "--suite", "expsums", "--seed", "1",
                 "--out", str(a)]) == 0
    assert main(["verify", "--suite", "expsums", "--seed", "2",
                 "--out", str(b)]) == 0
    # sampled (q, m2) cells may differ in count; the fixed cells must agree
    def fixed_counts(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["pass"] == "True" for r in rows if r["mode"] == "assert")
        fixed = ("expsums.gauss_magnitude", "expsums.gauss_zero",
                 "expsums.crt", "expsums.weil")
        return {k: sum(r["check_id"] == k for r in rows) for k in fixed}

    assert fixed_counts(a) == fixed_counts(b)


def test_bad_arguments_exit_2(capsys):
    # argparse errors, the subcommands' included, print one line, no usage
    for argv in (["verify", "--suite", "nope"],
                 ["scan", "--kind", "variance", "--x", "1000", "--q", "7,ab"],
                 ["scan", "--kind", "croft", "--x", "100", "--q", "abc"],
                 ["scan", "--kind", "croft", "--x", "100", "--q", "1.5"],
                 ["scan", "--kind", "hooley", "--x", "1.5", "--q", "7"],
                 ["scan", "--kind", "hooley", "--x", "1e-3", "--q", "7"],
                 ["scan", "--kind", "hooley", "--x", "abc", "--q", "7"],
                 ["scan", "--kind", "variance,nope", "--x", "100", "--q", "7"],
                 ["scan", "--kind", "variance,", "--x", "100", "--q", "7"],
                 ["scan", "--kind", "all,croft", "--x", "100", "--q", "7"],
                 [],
                 ["verify", "--precision", "1e-12"]):  # the removed option
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, argv
        assert err.startswith("sqflab: error: "), argv


@pytest.mark.parametrize("extra", [
    ["--q", "0"],
    ["--q=-7"],
    ["--q", ","],
    ["--q", "7", "--x=-5"],
    ["--q", "7", "--precision", "0"],
    ["--q", "7", "--precision", "1e-30"],
    ["--q", "7", "--precision", "nan"],
    ["--q", "7", "--precision", "1e-12"],
    ["--q", "7", "--out", "/nonexistent-dir/x.csv"],
    # opens, but every write fails with ENOSPC
    pytest.param(["--q", "7", "--out", "/dev/full"],
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs the /dev/full device")),
    # even as uint8, 10^17 counts take 10^17 bytes (86.7 PiB), more than
    # any host's memory and swap, so the allocation is refused before any
    # sieving
    ["--x", "100000000000000000", "--q", "100000000000000000"],
    ["--x", "1e17", "--q", "100000000000000000"],
    ["--q", "7", "--x", "1e1000000000"],
    # the correlation main term needs a squarefree m that numpy can hold
    ["--q", "7", "--kind", "correlation", "--m", "0"],
    ["--q", "7", "--kind", "correlation", "--m", "4"],
    ["--q", "7", "--kind", "correlation", "--m", "1000000000000000000000"],
], ids=["q-zero", "q-negative", "q-empty", "x-negative", "precision-zero",
        "precision-unreachable", "precision-nan", "precision-removed",
        "out-unwritable", "out-full-device",
        "q-unallocatable", "q-unallocatable-sci", "x-past-int64",
        "m-zero", "m-not-squarefree", "m-past-int64"])
def test_bad_input_exits_2_without_traceback(extra, capsys):
    argv = ["scan", "--kind", "variance", "--x", "1000"] + extra
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("sqflab: error: ")


def test_bad_m_rejected_before_sieving(monkeypatch, capsys):
    def no_sieve(X, qs):
        raise AssertionError("sieved before --m was checked")

    monkeypatch.setattr("sqflab.cli.squarefree_counts_by_moduli", no_sieve)
    for kind in ("correlation", "croft,correlation", "all"):
        for m in ("0", "4", "-12", "1000000000000000000000"):
            with pytest.raises(SystemExit) as exc:
                main(["scan", "--kind", kind, "--x", "1000000",
                      "--q", "7,97", "--m", m])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("sqflab: error: --m "), (kind, m)


@pytest.mark.parametrize("x, X", [("2e4", 20000), ("1E4", 10000),
                                  ("2.5e3", 2500)])
def test_scan_x_in_scientific_notation(x, X, capsys):
    assert main(["scan", "--kind", "hooley", "--x", x, "--q", "97"]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", "--kind", "hooley", "--x", str(X), "--q", "97"]) == 0
    assert capsys.readouterr().out == plain
    assert f"hooley,{X},97," in plain


def test_scan_q_in_scientific_notation(capsys):
    # --q reads each modulus with --x's grammar
    argv = ["scan", "--kind", "croft", "--x", "2e4", "--q"]
    assert main(argv + ["1e3,2.5e3"]) == 0
    sci = capsys.readouterr().out
    assert main(argv + ["1000,2500"]) == 0
    assert capsys.readouterr().out == sci
    assert "croft,20000,1000," in sci and "croft,20000,2500," in sci


def test_scan_counts_a_repeated_modulus_once(monkeypatch, capsys):
    argv = ["scan", "--kind", "croft", "--x", "1000", "--q"]
    assert main(argv + ["7,97"]) == 0
    once = capsys.readouterr().out
    seen = []
    real = cli.squarefree_counts_by_moduli

    def recording(X, qs):
        seen.append(list(qs))
        return real(X, qs)

    monkeypatch.setattr(cli, "squarefree_counts_by_moduli", recording)
    cli._held_counts.clear()
    assert main(argv + ["7,97,7"]) == 0
    assert capsys.readouterr().out == once
    assert seen == [[7, 97]]


@pytest.mark.parametrize("fmt, empty", [("csv", ""), ("json", "[]\n")])
def test_scan_with_every_modulus_skipped(fmt, empty, monkeypatch, capsys):
    # no rows: an empty CSV (no header line), exit 0, one warning per q,
    # and nothing sieved
    def no_sieve(lo, hi):
        raise AssertionError("sieved for a scan without cells")

    monkeypatch.setattr(arith, "squarefree_window", no_sieve)
    assert list(arith.squarefree_counts_by_moduli(100, [])) == []
    for argv in (["--kind", "croft", "--x", "10", "--q", "20,30"],
                 ["--kind", "correlation", "--x", "100", "--q", "4,6",
                  "--m", "2"]):
        assert main(["scan", *argv, "--format", fmt]) == 0
        got = capsys.readouterr()
        assert got.out == empty, argv
        assert got.err.count("warning: skipping") == 2, argv


def test_scan_variance_table(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--kind", "variance", "--x", "20000",
               "--q", "97,7,1009", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["q"]) for r in rows] == [7, 97, 1009]  # sorted
    for row in rows:
        assert int(row["m"]) == 1
        assert float(row["dispersion_residual"]) < 1e-8
        assert float(row["main_term"]) > 0
        assert float(row["ratio"]) == pytest.approx(
            float(row["exact"]) / float(row["main_term"]), rel=1e-12)


def test_scan_correlation_negative_m(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--kind", "correlation", "--x", "20000",
               "--q", "97", "--m", "-1", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and int(rows[0]["m"]) == -1
    assert float(rows[0]["main_term"]) < 0  # Gamma_an(-1) < 0


def test_scan_skips_bad_moduli(tmp_path, monkeypatch, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--kind", "variance", "--x", "100",
               "--q", "7,500", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "skipping q=500" in err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["q"]) for r in rows] == [7]
    # gcd(m, q) > 1 cells are skipped too
    rc = main(["scan", "--kind", "correlation", "--x", "1000",
               "--q", "9", "--m", "3", "--out", str(out)])
    assert rc == 0
    assert "gcd(m,q)>1" in capsys.readouterr().err
    # and left out of the count pass
    passes, real = [], cli.squarefree_counts_by_moduli
    monkeypatch.setattr(cli, "squarefree_counts_by_moduli",
                        lambda X, qs: passes.append(list(qs)) or real(X, qs))
    cli._held_counts.clear()
    assert main(["scan", "--kind", "correlation", "--x", "1000",
                 "--q", "4,7", "--m", "2", "--out", str(out)]) == 0
    assert passes == [[7]]
    assert capsys.readouterr().err.count("skipping q=4, gcd(m,q)>1") == 1


def test_scan_croft_and_hooley(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--kind", "croft", "--x", "4000",
                 "--q", "12,30", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["ratio"]) > 0 for r in rows)
    assert main(["scan", "--kind", "hooley", "--x", "20000",
                 "--q", "13,101", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(0 < float(r["max_error_over_envelope"]) < 1.0 for r in rows)


# sha256 of the scan CSV bytes, plus one JSON output.  The hooley digest dates
# from before the residue counts moved to q-aligned column sums; the other
# four were re-taken when M2 and Croft's variance came to be evaluated from
# integer moments (their exact and abs_err columns moved, each new bar
# containing the old value).  X spans four sieve segments and the moduli
# include q = 1 and one above the 2^20 segment length.
_SCAN_PIN_X = 3 * 2 ** 20 + 5
_SCAN_PIN_Q = "1,1000,30030,1048579"


_SCAN_PINS = [
    ("variance", [],
     "bce8c8b7dca1947d7ef1002a739925885fd2c0b7524cf5871d5ec2efbe590718"),
    ("correlation", ["--m", "-1"],
     "db4ffc6a0ee26fc0b029f618408b26964d88f8ee5e30e3075c1525888e400a4e"),
    ("croft", [],
     "4d69e060e7f92a43dc04f97e2173ed46886e181ae5e36b93b648f4f7b8ea9b36"),
    ("hooley", [],
     "f9b5cc3bf3d85d43ef397fd1fa5eaf789821a627277b8cb86807998e4cd26cbc"),
    ("variance", ["--format", "json"],
     "4099a8ac60b92bde60a6c6f9d4cc4fb504da03bab96fbd0ff32087f905f2d2b7"),
]


@pytest.mark.parametrize("kind, extra, digest", _SCAN_PINS)
def test_scan_bytes_pinned(tmp_path, kind, extra, digest):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--kind", kind, "--x", str(_SCAN_PIN_X),
                 "--q", _SCAN_PIN_Q, "--out", str(out)] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kind, extra, digest", _SCAN_PINS)
def test_scan_bytes_pinned_cold_and_from_another_kinds_counts(
        monkeypatch, tmp_path, kind, extra, digest):
    # the same bytes from a fresh count pass, and from the counts that a
    # scan of another kind left at the same X and moduli, with no sieving
    out = tmp_path / "scan.csv"
    argv = ["scan", "--x", str(_SCAN_PIN_X), "--q", _SCAN_PIN_Q,
            "--out", str(out)]
    cli._held_counts.clear()
    assert main(argv + ["--kind", kind] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    cli._held_counts.clear()
    assert main(argv + ["--kind", "croft" if kind == "hooley" else "hooley"]) == 0

    def no_sieve(lo, hi):
        raise AssertionError("sieved counts that were already held")

    monkeypatch.setattr(arith, "squarefree_window", no_sieve)
    assert main(argv + ["--kind", kind] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the residue statistics read a modulus's counts through a histogram when
# their range is narrow: here a general m, in pair bins, and Croft's class
# totals at moduli of six and seven primes; both digests were taken before
# the histograms and the divisor sums
_HISTOGRAM_PINS = [
    (["--kind", "correlation", "--x", "3145733", "--q", "999983,1048579",
      "--m", "3"],
     "7781ed7c85d7b06efead3558b426df39884959453876ab4c1edbc1f50dad5a2a"),
    (["--kind", "croft", "--x", "20000000", "--q", "30030,510510"],
     "28e780b41fbf4b86262476bbd0de21bbbed0f28b4b69df575b30b6c43cfd5662"),
]


@pytest.mark.parametrize("argv, digest", _HISTOGRAM_PINS)
def test_scan_bytes_pinned_through_the_histograms(tmp_path, argv, digest):
    out = tmp_path / "scan.csv"
    assert main(["scan", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _scan_csv(argv, capsys):
    assert main(argv + ["--format", "csv"]) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def test_scan_kind_lists_equal_the_single_kind_runs(monkeypatch, capsys):
    # m = 3 skips q = 9 in the correlation only, so the kinds have
    # different row counts. In the list, q = 30000 > X is warned about
    # once, not once per kind, and 9 is counted for the other kinds in
    # the one count pass that serves all four
    base = ["scan", "--x", "20000", "--q", "30000,97,9,7", "--m", "3"]
    kinds = ["variance", "correlation", "croft", "hooley"]
    single = {}
    for kind in kinds:
        assert main(base + ["--kind", kind, "--format", "json"]) == 0
        single[kind] = json.loads(capsys.readouterr().out)
    cli._held_counts.clear()
    passes, real = [], cli.squarefree_counts_by_moduli
    monkeypatch.setattr(cli, "squarefree_counts_by_moduli",
                        lambda X, qs: passes.append(list(qs)) or real(X, qs))
    assert main(base + ["--kind", "all", "--format", "json"]) == 0
    got = capsys.readouterr()
    assert json.loads(got.out) == [row for kind in kinds for row in single[kind]]
    assert got.err.splitlines() == [
        "warning: skipping q=30000 > X=20000",
        "warning: skipping q=9, gcd(m,q)>1",
        "kind=variance,correlation,croft,hooley rows=11"]
    assert passes == [[7, 9, 97]]
    for arg, listed in (("all", kinds), ("croft,variance,croft",
                                         ["croft", "variance"])):
        want = [row for kind in listed
                for row in _scan_csv(base + ["--kind", kind], capsys)]
        got = _scan_csv(base + ["--kind", arg], capsys)
        assert [r["kind"] for r in got] == [r["kind"] for r in want]
        for g, w in zip(got, want):  # field for field; the other kinds' empty
            assert {k: g[k] for k in w} == w
            assert all(v == "" for k, v in g.items() if k not in w)


def test_scan_holds_only_the_latest_scans_counts(monkeypatch, capsys):
    # a scan at the X and moduli of the scan before it, of any kind, reads
    # that scan's counts; another X or other moduli count once, and the
    # held counts are gone before that pass starts
    calls, held, real = [], [], cli.squarefree_counts_by_moduli

    def recording(X, qs):
        calls.append((X, list(qs), [h() is None for h in held]))
        return real(X, qs)

    monkeypatch.setattr(cli, "squarefree_counts_by_moduli", recording)
    cli._held_counts.clear()
    assert main(["scan", "--kind", "croft", "--x", "20000", "--q", "7,97"]) == 0
    for kind in ("croft", "hooley", "variance", "correlation", "all"):
        assert main(["scan", "--kind", kind, "--x", "2e4", "--q", "97,7"]) == 0
    assert calls == [(20000, [7, 97], [])]
    for x, q in (("30000", "7,97"), ("30000", "7,101")):
        held = [weakref.ref(c) for c in next(iter(cli._held_counts.values()))]
        assert main(["scan", "--kind", "hooley", "--x", x, "--q", q]) == 0
    assert calls[1:] == [(30000, [7, 97], [True, True]),
                         (30000, [7, 101], [True, True])]


def test_run_verify_all_suites_green():
    records = run_verify("all", 0)
    assert len(records) > 300
    bad = [r for r in records if r.mode == "assert" and not r.passed]
    assert not bad, [r.as_dict() for r in bad[:3]]
    suites = {r.check_id.split(".")[0] for r in records}
    assert {"products", "gq", "counters", "expsums", "asymptotics"} <= suites
    out = io.StringIO()
    _emit_rows([r.as_dict() for r in records], "csv", out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        VERIFY_ALL_SHA256


def test_verify_expsums_bytes_pinned(tmp_path):
    out = tmp_path / "expsums.csv"
    assert main(["verify", "--suite", "expsums", "--seed", "0",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        VERIFY_EXPSUMS_SHA256


def test_s2_bound_planes_equal_the_per_b_bound():
    # one plane per gcd(r^f, b) class, elementwise equal to the bound of
    # each b, at every r^f and m2 the expsums suite draws
    for rf in (3, 5, 7, 11, 9, 25, 27, 49, 4, 8, 16):
        grid = np.arange(rf)
        for m2 in (1, 2, -2):
            planes = list(cli._s2_bound_planes(rf, m2))
            assert len(planes) == rf
            for b, plane in enumerate(planes):
                want = expsums.s2_gcd_bound(rf, m2, b, grid[:, None],
                                            grid[None, :])
                assert np.array_equal(plane, want), (rf, m2, b)


def test_verify_runs_without_mpmath():
    # mpmath is a test-only oracle: a fresh interpreter that cannot import
    # it still writes the pinned verify bytes
    code = ("import sys; sys.modules['mpmath'] = None; "
            "from sqflab import cli; "
            "sys.exit(cli.main(['verify', '--suite', 'all', '--seed', '0', "
            "'--format', 'csv']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True).stdout
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_SHA256


def test_verify_identities_counts_in_one_pass(monkeypatch):
    # the dispersion grid reads all four moduli from one sieve pass, and
    # nothing reaches the one-modulus counter
    passes = []
    real = cli.squarefree_counts_by_moduli
    by_residue = arith.squarefree_counts_by_residue

    def recording(X, qs):
        passes.append((X, tuple(qs)))
        return real(X, qs)

    def refuse(X, q):
        raise AssertionError("squarefree_counts_by_residue was called")

    monkeypatch.setattr(cli, "squarefree_counts_by_moduli", recording)
    for mod in (arith, counters, multiplicative):
        for name, value in list(vars(mod).items()):
            if value is by_residue:
                monkeypatch.setattr(mod, name, refuse)
    run_verify("identities", 0)
    assert passes == [(20000, (7, 97, 100, 1009))]


def test_verify_all_builds_no_product(monkeypatch):
    # C, C2, zeta(2), zeta(3/2) and zeta at the psi-Mellin limits' s = -3/4,
    # -1/2, -1/4 are literals: with the memoised constants cleared, zeta_em
    # runs at no s, neither there nor at 2 to 8, where the products'
    # derivation calls it
    seen = []
    real = multiplicative.zeta_em

    def recording(s):
        seen.append(s)
        return real(s)

    for mod in (multiplicative, asymptotics):
        monkeypatch.setattr(mod, "zeta_em", recording)
    multiplicative._euler_decimal.cache_clear()
    run_verify("all", 0)
    assert seen == []


def test_stdout_default(capsys):
    rc = main(["scan", "--kind", "hooley", "--x", "5000", "--q", "11"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "max_error_over_envelope" in captured.out
    assert "rows=1" in captured.err


def test_verify_asymptotics_builds_each_frakS_formula_once(monkeypatch):
    # one frakS main term per (m, q) cell serves calibration and enforcement
    calls = []
    real = asymptotics.frakS_formula

    def counting(q, m):
        calls.append((m, q))
        return real(q, m)

    monkeypatch.setattr(asymptotics, "frakS_formula", counting)
    run_verify("asymptotics", 0)
    assert len(calls) == len(set(calls)) == 10


@pytest.mark.parametrize("mode, exit_code", [("assert", 1), ("report_only", 0)])
def test_failed_record_sets_exit_1_only_when_asserted(monkeypatch, tmp_path,
                                                      capsys, mode, exit_code):
    failing = VerificationRecord("fake.fail", {"k": 1}, 1.0, 0.0, 0.0, mode,
                                 False)
    passing = VerificationRecord.checked("fake.pass", {"k": 2}, 0.0, 0.0, 0.0)
    monkeypatch.setattr(cli, "_SUITES", {
        "identities": lambda seed: [passing, failing],
        "expsums": lambda seed: [passing]})
    out = tmp_path / "records.csv"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == exit_code
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check_id"] for r in rows] == ["fake.pass", "fake.fail",
                                             "fake.pass"]
    failures = 1 if mode == "assert" else 0
    assert f"records=3 failures={failures}" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_2():
    # the reader is gone before the first row is written: exit 2 with one
    # line, and nothing raised again when the interpreter flushes at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    code = ("import sys; from sqflab import cli; "
            "sys.exit(cli.main(['scan', '--kind', 'hooley', '--x', '5000', "
            "'--q', '11']))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("sqflab: error: "), err


# a scan that warns (q = 2000 > X) and a verify run with its summary line:
# a stderr that cannot take those lines must change neither stdout's bytes
# nor the exit code, which a run with a working stderr gives
_DIAGNOSING = {
    "scan": ["scan", "--kind", "hooley", "--x", "1000", "--q", "1000,2000"],
    "verify": ["verify", "--suite", "identities"],
}


def _sqflab(argv, prefix=("-m", "sqflab.cli"), **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *prefix, *argv], env=env,
                          stdout=subprocess.PIPE, **kwargs)


@pytest.fixture(scope="module")
def working_stderr_runs():
    return {name: _sqflab(argv, stderr=subprocess.PIPE)
            for name, argv in _DIAGNOSING.items()}


def _same_as_working_stderr(name, proc, working_stderr_runs):
    ref = working_stderr_runs[name]
    assert ref.returncode == 0 and ref.stderr  # it did write diagnostics
    assert (proc.returncode, proc.stdout) == (ref.returncode, ref.stdout)


@pytest.mark.parametrize("name", list(_DIAGNOSING))
def test_unwritable_stderr_is_skipped(name, working_stderr_runs):
    # fd 2 open read-only: every write raises EBADF, as under `2>&-` when
    # the interpreter's start-up reuses the closed descriptor
    with open(os.devnull, "rb") as read_only:
        proc = _sqflab(_DIAGNOSING[name], stderr=read_only)
    _same_as_working_stderr(name, proc, working_stderr_runs)


@pytest.mark.parametrize("name", list(_DIAGNOSING))
def test_stderr_pipe_without_reader_is_skipped(name, working_stderr_runs):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _sqflab(_DIAGNOSING[name], stderr=write_end)
    finally:
        os.close(write_end)
    _same_as_working_stderr(name, proc, working_stderr_runs)


@pytest.mark.parametrize("name", list(_DIAGNOSING))
def test_missing_stderr_stays_out_of_stdout(name, working_stderr_runs):
    # started without fd 2, the interpreter sets sys.stderr to None
    launch = ("import os, sys; os.close(2); os.execv(sys.executable, "
              "[sys.executable, '-m', 'sqflab.cli', *sys.argv[1:]])")
    proc = _sqflab(_DIAGNOSING[name], prefix=("-c", launch))
    _same_as_working_stderr(name, proc, working_stderr_runs)
