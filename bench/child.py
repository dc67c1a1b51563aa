"""One fresh interpreter of the benchmark: the cold pass of a workload, then,
depending on the mode, a warm repeat in the same process or a traced pass.

    python3 bench/child.py WORKLOAD SEED {cold_warm,cold,traced} [SPANS_FILE]

Run with ``src`` on PYTHONPATH.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import mpmath
import numpy
import sqflab.cli  # noqa: F401  (imports every module before the timing)

import workloads
from tracer import Recorder


def main(argv: list) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    inputs = workloads.plan(workload, seed)
    recorder = None
    if mode == "traced":
        recorder = Recorder()
        recorder.install()

    t0 = time.perf_counter()
    text, attempted, failed = workloads.run_pass(workload, inputs)
    cold_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"cold_s": cold_s, "rss_mb": rss_mb, "output": text,
              "attempted": attempted, "failed": failed,
              "versions": {"numpy": numpy.__version__,
                           "mpmath": mpmath.__version__,
                           "mpmath_backend": mpmath.libmp.BACKEND}}
    if mode == "cold_warm":
        t0 = time.perf_counter()
        warm_text, a, f = workloads.run_pass(workload, inputs)
        result["warm_s"] = time.perf_counter() - t0
        result["attempted"] += a
        result["failed"] += f + workloads.mismatched_lines(text, warm_text)
    elif mode == "traced":
        result["layers"] = recorder.metrics()
        if len(argv) > 3:
            recorder.save(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
