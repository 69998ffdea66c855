"""Spans around the calls into each layer's public functions.

The tracer wraps functions from outside the program: it replaces each
target in every loaded ``cvrep`` namespace that holds it.  ``from x import
f`` binds a second name for ``f``, so wrapping the defining module alone
would silently miss calls such as ``cvrep.circuits.recovery.run``.
Methods are wrapped on their class.  Spans stay in memory while the pass
runs; self times and counts are worked out from them afterwards.

A span's self time is its duration minus the time its child spans cover.
Flop counts are computed from matrix shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _n2(matrix) -> int:
    return np.shape(matrix)[0]


def _svd_flops(args, kwargs) -> float:
    """Golub & Van Loan operation counts for the three SVD variants."""
    m, n = np.shape(args[0])[-2:]
    long, short = max(m, n), min(m, n)
    if not kwargs.get("compute_uv", True):
        return 4.0 * long * short**2 - 4.0 * short**3 / 3.0
    if kwargs.get("full_matrices", True):
        return 4.0 * long**2 * short + 8.0 * long * short**2 + 9.0 * short**3
    return 6.0 * long * short**2 + 11.0 * short**3


# Work done per call, from its arguments: name -> (counter, f(args, kwargs)).
_NOTES = {
    # __init__ checks S Omega S^T = Omega: two n2 x n2 products.
    "gaussian.SymplecticMap.init": ("gaussian.dense_flops", lambda a, k: 4.0 * _n2(a[1] if len(a) > 1 else k["matrix"]) ** 3),
    # S @ mean and S @ cov @ S^T.
    "gaussian.SymplecticMap.apply": ("gaussian.dense_flops", lambda a, k: 4.0 * _n2(a[0].matrix) ** 3 + 2.0 * _n2(a[0].matrix) ** 2),
    # S1 @ S2 and S1 @ d2.
    "gaussian.SymplecticMap.after": ("gaussian.dense_flops", lambda a, k: 2.0 * _n2(a[0].matrix) ** 3 + 2.0 * _n2(a[0].matrix) ** 2),
    "circuits.symplectic_of": ("circuits.symplectic_of.ops", lambda a, k: len(a[0].ops)),
    "numpy.linalg.svd": ("numpy.linalg.svd.flops", _svd_flops),
}
# Work a call returned: name -> (counter, f(result)).
_RESULT_NOTES = {"circuits.synthesize": ("circuits.synthesize.ops_emitted", lambda r: len(r.ops))}

# (span name, module, attribute path) of every traced call.
TARGETS = (
    ("gaussian.SymplecticMap.init", "cvrep.gaussian", "SymplecticMap.__init__"),
    ("gaussian.SymplecticMap.apply", "cvrep.gaussian", "SymplecticMap.apply"),
    ("gaussian.SymplecticMap.after", "cvrep.gaussian", "SymplecticMap.after"),
    ("gaussian.homodyne", "cvrep.gaussian", "homodyne"),
    ("gaussian.discard", "cvrep.gaussian", "discard"),
    ("gaussian.tensor", "cvrep.gaussian", "tensor"),
    ("gaussian.fidelity_with_coherent", "cvrep.gaussian", "fidelity_with_coherent"),
    ("circuits.run", "cvrep.circuits.interpreter", "run"),
    ("circuits.op_map", "cvrep.circuits.interpreter", "op_map"),
    ("circuits.symplectic_of", "cvrep.circuits.interpreter", "symplectic_of"),
    ("circuits.recovery_fidelity", "cvrep.circuits.recovery", "recovery_fidelity"),
    ("circuits.optical_encoded_state", "cvrep.circuits.recovery", "optical_encoded_state"),
    ("circuits.fidelity_sweep", "cvrep.circuits.recovery", "fidelity_sweep"),
    ("circuits.threshold_squeezing", "cvrep.circuits.recovery", "threshold_squeezing"),
    ("circuits.synthesize", "cvrep.circuits.synthesis", "synthesize"),
    ("circuits.serialize", "cvrep.circuits.ir", "serialize"),
    ("codes.StabilizerCode.init", "cvrep.codes", "StabilizerCode.__init__"),
    ("codes.build_general_code", "cvrep.codes", "build_general_code"),
    ("codes.check_correctable", "cvrep.codes", "check_correctable"),
    ("homology.chain_complex", "cvrep.homology", "chain_complex"),
    ("homology.build_homological_code", "cvrep.homology", "build_homological_code"),
    ("homology.rowspaces_equal", "cvrep.homology", "rowspaces_equal"),
    ("replication.validate", "cvrep.replication", "validate"),
    ("replication.find_chain", "cvrep.replication", "find_chain"),
    ("replication.select_code", "cvrep.replication", "select_code"),
    ("cli.main", "cvrep.cli", "main"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
)
# Called too often and too cheaply for a span: counted only.
COUNTED = (("replication.causal_leq", "cvrep.replication", "causal_leq"),)

DERIVED = (
    "gaussian.dense_flops",
    "circuits.symplectic_of.ops",
    "circuits.encodes_per_fidelity",
    "circuits.threshold_squeezing.fidelity_evals",
    "circuits.synthesize.ops_emitted",
    "circuits.synthesize.self_checks_per_call",
    "numpy.linalg.svd.flops",
    "codes.rank_warnings",
    "replication.causal_leq.calls",
    "tracing_overhead_s",
)


def metric_names() -> list[str]:
    names = [f"{name}.{kind}" for name, _, _ in TARGETS for kind in ("calls", "self_s")]
    return names + list(DERIVED)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, request)
        self._stack: list[int] = []
        self.request = -1  # one request per root span (a cli.main call)
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        note, result_note = _NOTES.get(name), _RESULT_NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note:
                counts[note[0]] += note[1](args, kwargs)
            idx = len(spans)
            spans.append(None)
            if not stack:
                self.request += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request)
            if result_note:
                counts[result_note[0]] += result_note[1](result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for make, targets in ((self._span, TARGETS), (self._counter, COUNTED)):
            for name, module_name, attr in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, method, make(name, cls.__dict__[method]))
                    continue
                original = getattr(module, attr)
                wrapper = make(name, original)
                holders = [m for key, m in list(sys.modules.items()) if key == "cvrep" or key.startswith("cvrep.")]
                for holder in {id(m): m for m in [module, *holders]}.values():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def _count_inside(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` that have an ancestor named ``outer``."""
        count = 0
        for name, _, _, parent, _ in self.spans:
            while name == inner and parent >= 0:
                if self.spans[parent][0] == outer:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def metrics(self, rank_warnings: int, overhead_s: float, scale: float = 1.0) -> dict:
        """Per-layer numbers; span times are multiplied by ``scale``."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        checks = self._count_inside("circuits.symplectic_of", "circuits.synthesize")
        evals = self._count_inside("circuits.recovery_fidelity", "circuits.threshold_squeezing")
        out: dict = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name] * scale, "s")

        def ratio(a, b):
            return a / b if b else 0.0

        out.update(
            {
                "gaussian.dense_flops": (self.counts["gaussian.dense_flops"], "flop"),
                "circuits.symplectic_of.ops": (self.counts["circuits.symplectic_of.ops"], "count"),
                "circuits.encodes_per_fidelity": (
                    ratio(calls["circuits.optical_encoded_state"], calls["circuits.recovery_fidelity"]),
                    "ratio",
                ),
                "circuits.threshold_squeezing.fidelity_evals": (evals, "count"),
                "circuits.synthesize.ops_emitted": (self.counts["circuits.synthesize.ops_emitted"], "count"),
                "circuits.synthesize.self_checks_per_call": (ratio(checks, calls["circuits.synthesize"]), "ratio"),
                "numpy.linalg.svd.flops": (self.counts["numpy.linalg.svd.flops"], "flop"),
                "codes.rank_warnings": (rank_warnings, "count"),
                "replication.causal_leq.calls": (self.counts["replication.causal_leq.calls"], "count"),
                "tracing_overhead_s": (overhead_s, "s"),
            }
        )
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "request": request}) + "\n")
