"""sqflab benchmark: end-to-end and per-layer figures for one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src`` as is.
Workloads: verify_all, scan_x, scan_q, expsums_crt (see bench/README.md);
scan_x is not in BENCHMARK.json and is run by hand.

Untraced (``--trace 0``) the run times interpreter start plus import
(``setup_s``) before and after fresh interpreters that it starts one
after another until S seconds have passed (at least two).  Each runs the
workload's pass cold (``wall_s``), then again in the same process
(``warm_wall_s``), and reports its peak RSS after the cold pass.

Traced (``--trace 1``) the run alternates an untraced cold pass with a
traced one and reports the per-layer metrics of the traced passes plus the
tracing overhead.  Spans of the first traced pass are written to
``bench/out/spans-WORKLOAD.npz``.

Every pass is checked; any failure makes the run exit 1.  The last line of
stdout is a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
CHILD = Path(__file__).resolve().parent / "child.py"

SETUP_PER_ROUND = 3
# Workers per untraced run, at least: a single pass of verify_all (about
# 10 s) reads the machine's speed at one moment, and that speed drifts by
# up to 20% over a minute on a shared host.
MIN_WORKERS = 2
CHILD_TIMEOUT_S = 150
SETUP_CODE = "import sqflab, sqflab.cli"


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One thread per process: numpy's BLAS pool would otherwise start
    # threads at import.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(env: dict, workload: str, seed: int, mode: str,
              spans: Path = None) -> dict:
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise ChildFailed(f"{mode} pass of {workload} exited "
                          f"{proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_setup(env: dict) -> float:
    # No timeout: with one, wait() polls and rounds the time up to 50 ms.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def summary(samples: list) -> dict:
    """Count, median, maximum and the samples in the order taken, plus the
    highest percentile with at least ten samples beyond it once that
    percentile is above the median (twenty samples or more)."""
    s = sorted(samples)
    n = len(s)
    out = {"n": n, "median": statistics.median(s), "max": s[-1],
           "samples": samples}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = s[n - 11]
    return out


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(versions: dict) -> dict:
    src_loc = sum(len(p.read_text().splitlines())
                  for p in sorted(SRC.rglob("*.py")))
    return {"python": sys.version.split()[0], **versions,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "git_sha": git_sha(), "src_loc": src_loc}


class Tally:
    """Operations attempted and failed, with every output compared to the
    first one (the same plan must give the same bytes)."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reference = None

    def add(self, res: dict) -> None:
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        if self.reference is None:
            self.reference = res["output"]
        else:
            self.failed += workloads.mismatched_lines(self.reference,
                                                      res["output"])


def measure(env, args) -> tuple:
    # Set-up is timed before the first worker and after each one, so that
    # its median spans the same stretch of the machine's load as the passes.
    time_setup(env)  # discarded: fills the bytecode cache
    setup = [time_setup(env) for _ in range(SETUP_PER_ROUND)]
    tally = Tally()
    cold, warm, rss = [], [], []
    t0 = time.perf_counter()
    while (len(cold) < MIN_WORKERS
           or time.perf_counter() - t0 < args.seconds):
        res = run_child(env, args.workload, args.seed, "cold_warm")
        tally.add(res)
        cold.append(res["cold_s"])
        warm.append(res["warm_s"])
        rss.append(res["rss_mb"])
        setup += [time_setup(env) for _ in range(SETUP_PER_ROUND)]
    metrics = {
        "wall_s": (statistics.median(cold), "s"),
        "warm_wall_s": (statistics.median(warm), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    detail = {"wall_s": summary(cold), "warm_wall_s": summary(warm),
              "setup_s": summary(setup), "peak_rss_mb": summary(rss)}
    return metrics, detail, tally, res["versions"]


def measure_traced(env, args) -> tuple:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.npz"
    tally = Tally()
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < args.seconds:
        res = run_child(env, args.workload, args.seed, "cold")
        tally.add(res)
        plain.append(res["cold_s"])
        res = run_child(env, args.workload, args.seed, "traced",
                        spans if not traced else None)
        tally.add(res)
        traced.append(res["cold_s"])
        layers.append(res["layers"])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name, unit in tracer.metric_units().items():
        metrics[name] = (statistics.median(l[name] for l in layers), unit)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / statistics.median(plain),
                                      "ratio")
    detail = {"wall_s_untraced": summary(plain),
              "wall_s_traced": summary(traced),
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, detail, tally, res["versions"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqflab" / "__init__.py").is_file():
        print(f"error: no sqflab package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # worker that is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = child_env()
    try:
        if args.trace:
            metrics, detail, tally, versions = measure_traced(env, args)
        else:
            metrics, detail, tally, versions = measure(env, args)
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": manifest(versions), "timings": detail,
              "ops_failed_frac": tally.failed / max(1, tally.attempted)}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**report, "result": result},
                                       indent=1) + "\n")
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
