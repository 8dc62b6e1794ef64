"""One benchmark run: set up, warm up, measure closed-loop calls, check each.

One caller makes every call, one at a time, on one thread.  Each call is timed
from its start to its return; checking a result happens after the clock stops.

The call times are reported in units of a fixed reference kernel, timed just
before and just after each call.  The host is shared, and its speed drifts
by a quarter or more between runs minutes apart; the kernel slows with it,
so the ratio keeps the program's cost and drops most of the host's drift.
"""
from __future__ import annotations

import os
import math
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
from anonqnet import subroutines

import checks
import tracer as tracing
from workloads import PASS_SECONDS, Workload

SETUPS = 3          # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # call_tail_ref: the highest percentile with this many calls beyond it
KERNEL_KEYS = 6000  # one reference kernel takes about 3 ms on the reference host

END_TO_END = {
    "call_p50_ref": "ref", "call_tail_ref": "ref", "calls_per_kref": "1/kref", "setup_s": "s",
    "peak_rss_mb": "MB", "metered_qubits": "qubits", "metered_rounds": "rounds",
}

COUNTERS = {
    "runtime.rounds": "rounds", "runtime.symbols": "symbols",
    "runtime.s_per_round": "s/round", "subroutines.run_cached.hit_ratio": "ratio",
    "subroutines.view_cache_entries": "count", "qsim.coherent.components": "count",
    "qsim.apply_all_parties.components": "count", "qsim.peak_support": "count",
    "qsim.branches.emitted": "count", "election.branches_out": "count",
    "ghz.branches_out": "count", "postelect.elections_per_call": "count",
    "trace_overhead": "ratio",
}
PER_LAYER = {**{f"{span}.{field}": unit for span in tracing.SPAN_NAMES
                for field, unit in (("calls", "count"), ("self_s", "s"))},
             **COUNTERS}

# the layer predicted to dominate each workload: by self time, or, for the
# compute pipeline, by time including its children below the entry point
PREDICTED = {
    "elect": ("self_s", "qsim.coherent", ()),
    "branch_enum": ("self_s", "election.elect_with_bound", ()),
    "ghz_views": ("self_s", "subroutines.views", ()),
    "compute": ("inclusive_s", "election.elect", ("postelect.compute_function",)),
}


class Tally:
    """Calls attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []        # failed calls, first few kept
        self.run_problems = []    # checks on the run as a whole

    def fail(self, label: str, problems: list) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append({"call": label, "problems": problems[:5]})


def reference_kernel() -> float:
    """Seconds a fixed pure-Python kernel takes, timed now.

    It builds and reads a dict keyed by small tuples, the kind of work that
    dominates anonqnet's own time, and it does not touch anonqnet, so no
    change to the program changes it.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(KERNEL_KEYS):
        key = (i & 31, (i >> 5) & 7, i % 3)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - t0


def run_pass(calls, tally: Tally, wrap=None, identity: bool = False):
    """Time every call of one pass and check its result.

    Returns ``((item, seconds, ratio) of each correct call, time of all
    calls, (metered qubits, metered rounds))``.  The ratio is the call's time
    over the mean of the reference kernel's times just before and just after
    it.  The metered cost is summed over the calls that ran.
    """
    times, elapsed, qubits, rounds = [], 0.0, 0, 0
    for call in calls:
        tally.attempted += 1
        before = reference_kernel()
        t0 = time.perf_counter()
        try:
            result = wrap(call.fn) if wrap else call.fn()
        except Exception:
            elapsed += time.perf_counter() - t0
            tally.fail(call.label, [traceback.format_exc(limit=3)])
            continue
        dt = time.perf_counter() - t0
        after = reference_kernel()
        elapsed += dt
        problems = call.check(result)
        if identity and call.identity_topology is not None:
            problems += checks.election_identity(call.identity_topology, result.cost)
        if problems:
            tally.fail(call.label, problems)
        else:
            times.append((call.item, dt, 2 * dt / (before + after)))
        qubits += result.cost.qubits_sent
        rounds += result.cost.rounds
        del result
    return times, elapsed, (qubits, rounds)


def setup(name: str, seed: int, tally: Tally, mix=None):
    """Build and warm up the workload SETUPS times; the last one is measured.

    The earlier set-ups use port numberings drawn from seeds derived from
    ``seed``, so comparing their metered totals checks that metering does not
    depend on the port numbering.  The warm-up also fills the module-global
    view intern caches, which persist across calls; each set-up starts with
    them empty, so every one is equally cold and only the measured seed's
    views stay behind.
    """
    seeds = [f"{seed}.alt{i}" for i in range(1, SETUPS)] + [seed]
    samples, metered = [], []
    # the caches are module-global today; a later design may drop them
    clear = getattr(subroutines, "clear_view_caches", lambda: None)
    for s in seeds:
        clear()
        t0 = time.perf_counter()
        workload = Workload(name, s, mix)
        calls = workload.pass_calls(0)
        build = time.perf_counter() - t0
        _times, elapsed, meter = run_pass(calls, tally, identity=s == seed)
        samples.append(build + elapsed)
        metered.append(meter)
    if len(set(metered)) != 1:
        tally.run_problems.append(f"metered (qubits, rounds) differ across seeds: {metered}")
    return workload, samples, metered[-1]


def _check_meter(tally, index, meter, expected):
    if meter != expected:
        tally.run_problems.append(f"pass {index} metered {meter}, warm-up metered {expected}")


def measure(workload, passes: int, tally: Tally, expected) -> list:
    """(item, seconds, ratio) of the correct calls in ``passes`` passes of the mix."""
    times = []
    for index in range(1, passes + 1):
        t, _elapsed, meter = run_pass(workload.pass_calls(index), tally)
        _check_meter(tally, index, meter, expected)
        times += t
    return times


def trace(workload, pairs: int, tally: Tally, expected):
    """Each pass untraced, then the same pass traced; returns the tracer and overhead."""
    tr = tracing.Tracer()
    plain = traced = 0.0
    for index in range(1, pairs + 1):
        _t, elapsed, meter = run_pass(workload.pass_calls(index), tally)
        plain += elapsed
        _check_meter(tally, index, meter, expected)
        with tr:
            _t, elapsed, meter = run_pass(workload.pass_calls(index), tally, wrap=tr.call)
        traced += elapsed
        _check_meter(tally, index, meter, expected)
    return tr, traced / plain


def typical(times, field: int) -> list:
    """Each call's ``times[field]`` replaced by its item's median over the passes.

    The host's CPU speed swings by up to 1.6x over seconds, and the inputs of
    a mix differ in cost by up to 15x.  Order statistics of the raw times then
    jump between inputs from run to run; those of the per-item medians do not.
    """
    by_item = {}
    for t in times:
        by_item.setdefault(t[0], []).append(t[field])
    medians = {item: statistics.median(v) for item, v in by_item.items()}
    return [medians[t[0]] for t in times]


def tail(times):
    """The highest percentile with TAIL_BEYOND calls beyond it: (value, percentile, beyond)."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def seconds_view(times) -> dict:
    """The timing metrics in plain seconds, for the record: they carry the host's drift."""
    if not times:
        return {}
    smooth = typical(times, 1)
    return {"call_p50_s": statistics.median(smooth), "call_tail_s": tail(smooth)[0],
            "calls_per_s": len(times) / sum(dt for _item, dt, _r in times),
            "reference_kernel_s": statistics.median(dt / r for _item, dt, r in times)}


def per_layer(tr, overhead: float) -> tuple:
    """Per-layer metrics (per workload call), their bases, and the span totals."""
    s = tr.summary()
    spans, counts = s["spans"], s["counts"]
    calls = max(1, spans[tracing.ROOT]["calls"])
    values = {}
    for span in tracing.SPAN_NAMES:
        values[f"{span}.calls"] = spans[span]["calls"] / calls
        values[f"{span}.self_s"] = spans[span]["self_s"] / calls
    for key, count in counts.items():
        values[key] = count / calls
    cached = spans["subroutines.run_cached"]["calls"]
    runs = spans["runtime.run_classical"]
    values["runtime.s_per_round"] = runs["self_s"] / max(1, counts["runtime.rounds"])
    values["subroutines.run_cached.hit_ratio"] = s["run_cached_hits"] / max(1, cached)
    # the intern table is module-global today; report 0 if it goes away
    values["subroutines.view_cache_entries"] = len(getattr(subroutines, "_INTERN", ()))
    values["qsim.peak_support"] = s["peak_support"]
    pipelines = spans["postelect.compute_function"]["calls"]
    values["postelect.elections_per_call"] = (
        spans["election.elect"]["calls"] / pipelines if pipelines else 0.0)
    values["trace_overhead"] = overhead
    bases = {"per": f"{spans[tracing.ROOT]['calls']} traced workload calls",
             "subroutines.run_cached.hit_ratio": f"{s['run_cached_hits']} hits of {cached} calls",
             "runtime.s_per_round": f"run_classical self time over {counts['runtime.rounds']} rounds"}
    return values, bases, spans


def dominance(name: str, spans: dict) -> dict:
    field, predicted, exclude = PREDICTED[name]
    ranked = sorted((n for n in tracing.SPAN_NAMES if n not in exclude),
                    key=lambda n: spans[n][field], reverse=True)
    total = spans[tracing.ROOT]["inclusive_s"] or 1.0
    return {
        "by": field, "predicted": predicted, "holds": ranked[0] == predicted,
        "top": [{"span": n, "share_of_call_time": spans[n][field] / total} for n in ranked[:5]],
    }


def host(root: Path, seed) -> dict:
    head = root / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit, "seed": seed,
            "machine": platform.machine()}


def run(name: str, seed: int, seconds: float, traced: bool, mix=None, spans_path=None):
    """One run; returns ``(result line, record)``."""
    tally = Tally()
    passes = max(1, math.ceil(seconds / PASS_SECONDS[name]))
    workload, setup_samples, expected = setup(name, seed, tally, mix)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "passes": passes, "setup_samples_s": setup_samples,
              "metered": {"qubits": expected[0], "rounds": expected[1]}}
    if traced:
        tr, overhead = trace(workload, math.ceil(passes / 2), tally, expected)
        values, bases, spans = per_layer(tr, overhead)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        record.update(bases=bases, dominance=dominance(name, spans), spans=spans)
        if spans_path is not None:
            tr.write(spans_path)
            record["spans_file"] = str(spans_path)
    else:
        times = measure(workload, passes, tally, expected)
        smooth = typical(times, 2)
        ratios = [r for _item, _dt, r in times]
        tail_ref, pct, beyond = tail(smooth) if times else (0.0, 0.0, 0)
        values = {
            "call_p50_ref": statistics.median(smooth) if times else 0.0,
            "call_tail_ref": tail_ref,
            "calls_per_kref": 1000.0 * len(ratios) / sum(ratios) if times else 0.0,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "metered_qubits": expected[0],
            "metered_rounds": expected[1],
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        record.update(
            call_tail={"percentile": pct, "calls": len(times), "calls_beyond": beyond},
            in_seconds=seconds_view(times))
    record.update(attempted=tally.attempted, failed=tally.failed,
                  error_rate=tally.failed / max(1, tally.attempted),
                  failures=tally.problems, run_problems=tally.run_problems,
                  metrics=metrics)
    result = {"correct": tally.failed == 0 and not tally.run_problems,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, record
