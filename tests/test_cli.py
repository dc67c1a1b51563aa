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

import pytest

from sqflab import arith, cli, counters, multiplicative
from sqflab.cli import _emit_rows, main, run_verify

# sha256 of the bytes of `sqflab verify --suite all --seed 0 --format csv`
VERIFY_ALL_SHA256 = \
    "a5a6edd0c27a3374adb16d23a5028382614dabf2859889ab84a114d2612538f4"


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
                 ["scan", "--kind", "hooley", "--x", "1.5", "--q", "7"],
                 ["scan", "--kind", "hooley", "--x", "1e-3", "--q", "7"],
                 ["scan", "--kind", "hooley", "--x", "abc", "--q", "7"],
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
        "out-unwritable",
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
    assert err.strip().splitlines()[-1].startswith("sqflab: error: ")


def test_bad_m_rejected_before_sieving(monkeypatch, capsys):
    def no_sieve(X, qs):
        raise AssertionError("sieved before --m was checked")

    monkeypatch.setattr("sqflab.cli.squarefree_counts_by_moduli", no_sieve)
    for m in ("0", "4", "-12", "1000000000000000000000"):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--kind", "correlation", "--x", "1000000",
                  "--q", "7,97", "--m", m])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("sqflab: error: --m "), m


@pytest.mark.parametrize("x, X", [("2e4", 20000), ("1E4", 10000),
                                  ("2.5e3", 2500)])
def test_scan_x_in_scientific_notation(x, X, capsys):
    assert main(["scan", "--kind", "hooley", "--x", x, "--q", "97"]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", "--kind", "hooley", "--x", str(X), "--q", "97"]) == 0
    assert capsys.readouterr().out == plain
    assert f"hooley,{X},97," in plain


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


def test_scan_skips_bad_moduli(tmp_path, capsys):
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


# sha256 of the scan CSV bytes as written before the residue counts moved to
# q-aligned column sums, plus one JSON output; X spans four sieve segments and
# the moduli include q = 1 and one above the 2^20 segment length.
_SCAN_PIN_X = 3 * 2 ** 20 + 5
_SCAN_PIN_Q = "1,1000,30030,1048579"


@pytest.mark.parametrize("kind, extra, digest", [
    ("variance", [],
     "dc321c5ebbeb5c9fe5632f92d59d1035615547a77689e87c3e5fdf6c0414d044"),
    ("correlation", ["--m", "-1"],
     "c123ae1e2576adbd55f4a18bc979281298c14fe029330f85e289d6e34a52ba7c"),
    ("croft", [],
     "3199f0077b3cce96bba21114cede4dfc41ab6cd9c8b8097935c20a75d081c3ae"),
    ("hooley", [],
     "f9b5cc3bf3d85d43ef397fd1fa5eaf789821a627277b8cb86807998e4cd26cbc"),
    ("variance", ["--format", "json"],
     "d55aa58a9ae8eba2e50c54455df9f38e07334686d8f6c133b7d6545ac385f657"),
])
def test_scan_bytes_pinned(tmp_path, kind, extra, digest):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--kind", kind, "--x", str(_SCAN_PIN_X),
                 "--q", _SCAN_PIN_Q, "--out", str(out)] + extra) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_verify_all_builds_each_product_once():
    # two accelerated products (C and C2), every other constant derived
    multiplicative._accelerated_product.cache_clear()
    run_verify("all", 0)
    assert multiplicative._accelerated_product.cache_info().misses == 2


def test_stdout_default(capsys):
    rc = main(["scan", "--kind", "hooley", "--x", "5000", "--q", "11"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "max_error_over_envelope" in captured.out
    assert "rows=1" in captured.err
