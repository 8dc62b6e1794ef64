"""Outside-in span tracer for anonqnet, kept entirely in the benchmark.

While installed, the tracer replaces each traced function by a wrapper that
records a span (name, parent, start, end) and a few work counters.  A
function imported by name into several modules has one binding per module;
every binding that refers to the original object is replaced, so a call is
traced whichever module it goes through.  Uninstalling restores them all.

Spans are kept in memory in flat arrays; self time is a span's duration minus
the time of its child spans, computed once the run ends, when the spans are
written out.  Recursive helpers such as ``subroutines.serialize_view`` are
not wrapped: their spans would nest in themselves and swamp the record.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

import anonqnet

# (span name, module, attribute); several attributes may share a span name
TARGETS = (
    ("runtime.run_classical", "runtime", "run_classical"),
    ("subroutines.run_cached", "subroutines", "run_cached"),
    ("subroutines.views", "subroutines", "distinct_truncated_views"),
    ("qsim.coherent", "qsim", "apply_coherent_subroutine"),
    ("qsim.coherent", "qsim", "uncompute_subroutine"),
    ("qsim.apply_all_parties", "qsim", "apply_all_parties"),
    ("qsim.phase_kick_where", "qsim", "phase_kick_where"),
    ("qsim.branches", "qsim", "branches"),
    ("qsim.reshape", "qsim", "drop_registers"),
    ("qsim.reshape", "qsim", "tensor"),
    ("qsim.reshape", "qsim", "rename_register"),
    ("qsim.binop", "qsim", "binary_op_all_parties"),
    ("amplify.exact_amplify", "amplify", "exact_amplify"),
    ("amplify.run_steps", "amplify", "run_steps"),
    ("election.elect", "election", "elect"),
    ("election.elect_with_bound", "election", "elect_with_bound"),
    ("election.unique_one", "election", "ExactlyOneProcedure.apply"),
    # the one private boundary: a guess bank has no public entry point
    ("election.bank", "election", "ExactlyOneProcedure._run_bank"),
    ("ghz.ghz_share", "ghz", "ghz_share"),
    ("ghz.phase1", "ghz", "phase1"),
    ("ghz.phase2", "ghz", "phase2"),
    ("postelect.compute_function", "postelect", "compute_function"),
    ("postelect.spanning_tree", "postelect", "spanning_tree"),
    ("postelect.recognize_graph", "postelect", "recognize_graph"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _m, _a in TARGETS))
ROOT = "bench.call"   # one span per workload call; its index identifies the call


def _support(obj) -> int:
    if isinstance(obj, tuple) and obj:
        obj = obj[0]
    amps = getattr(obj, "amps", None)
    return len(amps) if amps is not None else 0


class Tracer:
    def __init__(self):
        self.names = [ROOT, *SPAN_NAMES]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._saved = []
        self.counts = dict.fromkeys(
            ("runtime.rounds", "runtime.symbols", "qsim.coherent.components",
             "qsim.apply_all_parties.components", "qsim.branches.emitted",
             "election.branches_out", "ghz.branches_out"), 0)
        self.peak_support = 0

    # -- recording ----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, fn):
        """Run one workload call under a root span."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        first = args[0] if args else None
        if name.startswith("qsim."):
            self.peak_support = max(self.peak_support, _support(first), _support(result))
        if name == "runtime.run_classical":
            c["runtime.rounds"] += result[1].rounds
            c["runtime.symbols"] += result[1].qubits_sent
        elif name in ("qsim.coherent", "qsim.apply_all_parties"):
            c[name + ".components"] += _support(first)
        elif name == "qsim.branches":
            c["qsim.branches.emitted"] += len(result)
        elif name in ("election.elect", "election.elect_with_bound"):
            c["election.branches_out"] += len(result.branches)
        elif name == "ghz.ghz_share":
            c["ghz.branches_out"] += len(result.branches)

    def _wrap(self, name: str, fn):
        name_id = self._name_id[name]

        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ---------------------------------------------------------

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "anonqnet" or key.startswith("anonqnet.")]
        for name, mod_name, attr in TARGETS:
            owner = getattr(anonqnet, mod_name)
            if "." in attr:   # a method: the class holds the only binding
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds; plus run-cache hits."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        incl_s = np.bincount(a["name"], weights=dur, minlength=k)
        # a run_cached span without a run_classical child was served from the cache
        cached = a["name"] == self._name_id["subroutines.run_cached"]
        ran = np.zeros(len(dur), dtype=bool)
        runs = a["name"] == self._name_id["runtime.run_classical"]
        ran[a["parent"][runs & has_parent]] = True
        spans = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                        "inclusive_s": float(incl_s[i])}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "run_cached_hits": int(np.sum(cached & ~ran)),
                "counts": dict(self.counts), "peak_support": self.peak_support}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
