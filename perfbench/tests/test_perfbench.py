"""Tests of the benchmark itself: smoke runs, the checker, the tracer, the CLI.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from anonqnet import election, ghz, postelect, topology  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# one or two small calls of every kind each workload makes
SMOKE = {
    "elect": [("elect", "ring", 3, None), ("elect", "star", 4, None)],
    "branch_enum": [("bound", "path", 3, 4), ("ghz", "ring", 3, 3)],
    "ghz_views": [("ghz", "path", 3, 2), ("ghz", "complete", 3, 2)],
    "compute": [("compute", "ring", 3, 2), ("compute", "star", 4, 2)],
}


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.MIXES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    for name, mix in SMOKE.items():
        assert {kind for kind, *_ in mix} == {kind for kind, *_ in workloads.MIXES[name]}


@pytest.mark.parametrize("traced", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run(name, traced):
    result, record = bench.run(name, 7, 0, traced, mix=SMOKE[name])
    assert result["correct"], record
    assert result["attempted"] >= bench.SETUPS * len(SMOKE[name])
    assert result["failed"] == 0
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert all(v > 0 for v in record["in_seconds"].values())


def test_same_seed_same_inputs():
    a, b = workloads.Workload("compute", 3), workloads.Workload("compute", 3)
    assert [t.ports for t in a.graphs] == [t.ports for t in b.graphs]
    assert [c.label for c in a.pass_calls(2)] == [c.label for c in b.pass_calls(2)]


# ---------------------------------------------------------------------------
# the checker flags doctored results


def _election(n=3):
    result = election.elect(topology.catalog("ring", n), all_branches=True)
    assert checks.check_election(result, n) == []
    return result


def test_checker_flags_a_branch_with_two_leaders():
    result = _election()
    b = result.branches[0]
    result.branches[0] = dataclasses.replace(b, outcomes=(1, 1, 0))
    assert checks.check_election(result, 3)
    result.branches[0] = dataclasses.replace(b, outcomes=(1, 1, 0), leaders=(0, 1))
    assert checks.check_election(result, 3)


def test_checker_flags_a_probability_off_by_1e6():
    result = _election()
    b = result.branches[0]
    result.branches[0] = dataclasses.replace(b, probability=b.probability + 1e-6)
    problems = checks.check_election(result, 3)
    assert any("total probability" in p for p in problems)


def test_checker_flags_a_wrong_compute_value():
    topo = topology.catalog("star", 4)
    inputs = (1, 0, 1, 1)
    run = postelect.compute_function(topo, inputs, postelect.BUILTIN_FUNCTIONS["majority"], seed=0)
    assert checks.check_compute(run, topo, inputs, "majority") == []
    run.values = (0,) * 4
    assert checks.check_compute(run, topo, inputs, "majority")


def test_checker_flags_a_wrong_cat_state():
    result = ghz.ghz_share(topology.catalog("ring", 3), 2, all_branches=True)
    assert checks.check_ghz(result, 2, 3) == []
    result.branches[0] = dataclasses.replace(result.branches[0], state=ghz.cat_state(2, 1, 3))
    assert checks.check_ghz(result, 2, 3)


def test_checker_flags_a_broken_cost_identity():
    topo = topology.catalog("path", 4)
    cost = election.elect(topo, all_branches=True).cost
    assert checks.election_identity(topo, cost) == []
    assert checks.election_identity(topo, dataclasses.replace(cost, qubits_sent=cost.qubits_sent + 1,
                                                              bits_sent=cost.bits_sent + 1,
                                                              per_round=()))


@pytest.mark.parametrize("family", ["ring", "star", "complete", "path"])
def test_oracles_agree_with_the_builtins_on_the_identity_labeling(family):
    import numpy as np
    topo = topology.catalog(family, 4)
    adj = np.zeros((4, 4), dtype=int)
    for u, v in (tuple(e) for e in topo.edges):
        adj[u, v] = adj[v, u] = 1
    for bits in range(16):
        x = tuple((bits >> i) & 1 for i in range(4))
        for name, oracle in checks.ORACLES.items():
            assert oracle(topo, x) == postelect.BUILTIN_FUNCTIONS[name](adj, list(x)), (name, x)


# ---------------------------------------------------------------------------
# the tracer


def _bindings():
    """(owner, attribute, object) for every traced name, wherever it is bound."""
    modules = [m for k, m in sys.modules.items() if k == "anonqnet" or k.startswith("anonqnet.")]
    import anonqnet
    out = []
    for _span, mod_name, attr in tracer.TARGETS:
        owner = getattr(anonqnet, mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            out.append((cls, meth, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        out += [(m, attr, original) for m in modules if m.__dict__.get(attr) is original]
    return out


def test_tracer_rebinds_every_binding_and_restores_them():
    before = _bindings()
    # names imported by name into other modules are bound more than once
    assert len({(id(o), a) for o, a, _f in before}) > len(tracer.TARGETS)
    with tracer.Tracer():
        for owner, attr, original in before:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_tracer_records_nested_spans_and_counters():
    topo = topology.catalog("ring", 3)
    tr = tracer.Tracer()
    with tr:
        tr.call(lambda: election.elect(topo, all_branches=True))
    s = tr.summary()
    spans = s["spans"]
    assert spans[tracer.ROOT]["calls"] == 1
    assert spans["election.elect"]["calls"] == 1
    assert spans["election.unique_one"]["calls"] == 2   # computing and uncomputing the flag
    assert spans["election.bank"]["calls"] > 0
    assert spans["subroutines.views"]["calls"] == 0
    assert 0 < s["run_cached_hits"] < spans["subroutines.run_cached"]["calls"]
    assert s["counts"]["election.branches_out"] == 3
    self_total = sum(v["self_s"] for v in spans.values())
    assert self_total == pytest.approx(spans[tracer.ROOT]["inclusive_s"], rel=1e-6)


# ---------------------------------------------------------------------------
# the command line


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "elect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
