"""Span recorder for the traced benchmark run.

Each call to a wrapped public function records one span: name, start, end
and the index of the span that was open when it started (its parent).
Spans are kept in flat arrays while the pass runs and turned into per-layer
metrics (calls, total time, self time) afterwards.  A span's self time is
its duration minus the durations of its direct children.

Sub-modules import each other's functions by name (``counters`` binds
``squarefree_counts_by_residue``, ``asymptotics`` binds ``euler_constant``),
so every module attribute that is the original function object is replaced,
not only the one in the defining module.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

MODULES = ("records", "arith", "multiplicative", "counters", "asymptotics",
           "expsums", "cli")

# Public functions whose calls, total and self time are reported.
TRACED = {
    "arith": ("squarefree_counts_by_residue", "squarefree_count",
              "squarefree_window", "factorize", "primes_up_to", "is_prime"),
    "multiplicative": ("euler_constant", "euler_product_mp", "zeta_em",
                       "h_series_partials", "identity_suite", "gq_sum",
                       "gq_product", "h_of"),
    "counters": ("error_vector", "variance_M2", "dispersion_check",
                 "croft_variance", "hooley_report"),
    "asymptotics": ("G_of", "frakS_exact", "frakS_formula", "A_exact",
                    "A_decomposition", "A_formula", "theorem_main_terms"),
    "expsums": ("full_sum_S", "crt_product", "s1_table", "s2_table",
                "s2_gcd_bound"),
    "cli": ("main", "run_verify"),
}
# VerificationRecord methods: they count records and give records its
# self time, but get no per-function metrics of their own.
RECORD_METHODS = ("__init__", "as_dict")

COUNTS = ("arith.residue_integers", "arith.sieve_passes_per_x",
          "expsums.full_sum_S.terms", "records.records_emitted",
          "multiplicative.euler_constant.first_call_s")


def metric_units() -> dict:
    """Every per-layer metric a traced pass reports, in output order, with
    its unit."""
    names = []
    for mod, fns in TRACED.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.total_s",
                      f"{mod}.{fn}.self_s"]
    names += [f"{mod}.self_s" for mod in MODULES] + list(COUNTS)
    return {n: "s" if n.endswith("_s") else
            "ratio" if n == "arith.sieve_passes_per_x" else "count"
            for n in names}


class Recorder:
    """Flat span store; one open-span stack, so single-threaded use only."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.residue_x = []      # X of each squarefree_counts_by_residue call
        self.terms = 0           # sum of M^2 over full_sum_S calls

    def wrap(self, name: str, fn, on_call=None):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, stack = self.name_id, self.parent, self._stack
        start, end = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions in the package."""
        mods = {m: importlib.import_module(f"sqflab.{m}") for m in MODULES}
        hooks = {"arith.squarefree_counts_by_residue": self._on_residue,
                 "expsums.full_sum_S": self._on_full_sum}
        for mod, fns in TRACED.items():
            for fn in fns:
                orig = getattr(mods[mod], fn)
                name = f"{mod}.{fn}"
                wrapped = self.wrap(name, orig, hooks.get(name))
                for m in mods.values():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        rec = mods["records"].VerificationRecord
        for meth in RECORD_METHODS:
            setattr(rec, meth,
                    self.wrap(f"records.{meth}", getattr(rec, meth)))

    def _on_residue(self, X, q):
        self.residue_x.append(X)

    def _on_full_sum(self, u, p1, p2, *rest):
        self.terms += (u * p1 * p2) ** 2

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans."""
        # numpy is imported here, not at the top: run.py imports this module
        # for the metric names and should start no BLAS threads.
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_t = np.bincount(nid, weights=self_ns, minlength=k)
        by_name = {n: i for i, n in enumerate(self.names)}

        out = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                i = by_name[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.calls"] = int(calls[i])
                out[f"{mod}.{fn}.total_s"] = total[i] / 1e9
                out[f"{mod}.{fn}.self_s"] = self_t[i] / 1e9
        for mod in MODULES:
            ids = [i for n, i in by_name.items() if n.split(".")[0] == mod]
            out[f"{mod}.self_s"] = float(self_t[ids].sum()) / 1e9
        passes = len(self.residue_x)
        distinct = len(set(self.residue_x))
        out["arith.residue_integers"] = int(sum(self.residue_x))
        out["arith.sieve_passes_per_x"] = passes / distinct if distinct else 0.0
        out["expsums.full_sum_S.terms"] = self.terms
        out["records.records_emitted"] = int(calls[by_name["records.__init__"]])
        first = np.flatnonzero(nid == by_name["multiplicative.euler_constant"])
        out["multiplicative.euler_constant.first_call_s"] = \
            dur[first[0]] / 1e9 if len(first) else 0.0
        return out

    def save(self, path) -> None:
        """Write the spans as arrays: names, name_id, parent, start_ns, end_ns."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64))
