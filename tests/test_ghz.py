import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from anonqnet.errors import ExactnessError
from anonqnet.ghz import cat_state, fourier_gate, ghz_share, phase1, phase2
from anonqnet.qsim import (SparseState, apply_all_parties, fidelity, gate, layout,
                           rename_register, tensor)
from anonqnet.runtime import run_classical
from anonqnet.subroutines import modular_sum_views
from anonqnet.topology import build_graph, catalog

from conftest import shuffled_ports


def test_fourier_k2_is_hadamard():
    gate = fourier_gate(2)
    expect = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(gate - expect)) < 1e-12


def test_fourier_entry_formula():
    gate = fourier_gate(3)
    omega = cmath.exp(2j * math.pi / 3)
    assert abs(gate[1, 2] - omega ** 2 / math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 5])
def test_fourier_unitary(k):
    gate = fourier_gate(k)
    assert np.max(np.abs(gate @ gate.conj().T - np.eye(k))) < 1e-12


def test_fourier_rejects_k1():
    with pytest.raises(ValueError):
        fourier_gate(1)


def test_ghz_branch_amplitudes_are_python_complex():
    result = ghz_share(catalog("ring", 3), 3, all_branches=True)
    amps = [a for b in result.branches for a in b.state.amps.values()]
    assert amps and all(type(a) is complex for a in amps)


def test_cat_state_examples():
    st = cat_state(2, 0, 3)
    amp = 1 / math.sqrt(2)
    assert abs(st.amplitude((0, 0, 0)) - amp) < 1e-12
    assert abs(st.amplitude((1, 1, 1)) - amp) < 1e-12
    minus = cat_state(2, 1, 2)
    assert abs(minus.amplitude((1, 1)) + amp) < 1e-12
    single = cat_state(3, 0, 1)
    assert all(abs(single.amplitude((x,)) - 1 / math.sqrt(3)) < 1e-12 for x in range(3))
    with pytest.raises(ValueError):
        cat_state(2, 2, 2)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fourier_on_cat_states(k, n):
    """Componentwise Fourier turns cat(k,t) into the zero-sum-shifted slice."""
    fourier = gate(fourier_gate(k))
    for t in range(k):
        state = apply_all_parties(cat_state(k, t, n), "share", fourier)
        support = [y for y in itertools.product(range(k), repeat=n)
                   if (t + sum(y)) % k == 0]
        amp = 1 / math.sqrt(len(support))
        reference = SparseState(layout(n, [("share", k)]),
                                {tuple(y): amp for y in support})
        assert fidelity(state, reference) > 1 - 1e-10


def test_phase1_k2_n2_branches():
    topo = catalog("complete", 2)
    attempts, cost = phase1(topo, 2)
    assert len(attempts) == 2
    branches = attempts[0]
    by_outcome = {b.outcome: b for b in branches}
    amp = 1 / math.sqrt(2)
    plus = by_outcome[0].state
    assert abs(plus.amplitude((0, 0)) - amp) < 1e-10
    assert abs(plus.amplitude((1, 1)) - amp) < 1e-10
    minus = by_outcome[1].state
    ratio = minus.amplitude((1, 1)) / minus.amplitude((0, 0))
    assert abs(ratio + 1.0) < 1e-10
    assert all(abs(b.probability - 0.5) < 1e-10 for b in branches)


def test_phase1_outcome_sets_phase_index():
    topo = catalog("ring", 3)
    attempts, _cost = phase1(topo, 3)
    for branch in attempts[0]:
        expect = cat_state(3, (-branch.outcome) % 3, 3)
        assert fidelity(branch.state, expect) > 1 - 1e-9
        assert abs(branch.probability - 1 / 3) < 1e-10


def test_phase2_distills_plus_cat():
    # two index-1 cats for k=2: one xor and one measurement leave index 0
    for n in (2, 4):
        a = rename_register(cat_state(2, 1, n), "share", "keep")
        b = rename_register(cat_state(2, 1, n), "share", "aux")
        for branch in phase2(tensor(a, b), 2, "keep", "aux"):
            target = cat_state(2, 0, n, register="keep")
            assert fidelity(branch.state, target) > 1 - 1e-9


def test_phase2_all_branches_k3():
    a = rename_register(cat_state(3, 1, 3), "share", "keep")
    b = rename_register(cat_state(3, 1, 3), "share", "aux")
    branches = phase2(tensor(a, b), 3, "keep", "aux")
    assert {br.outcome for br in branches} == {0, 1, 2}
    for br in branches:
        assert fidelity(br.state, cat_state(3, 0, 3, register="keep")) > 1 - 1e-9


def test_phase2_mismatched_indices_fail_fidelity():
    a = rename_register(cat_state(3, 1, 3), "share", "keep")
    b = rename_register(cat_state(3, 2, 3), "share", "aux")
    fids = [fidelity(br.state, cat_state(3, 0, 3, register="keep"))
            for br in phase2(tensor(a, b), 3, "keep", "aux")]
    assert min(fids) < 0.9


def test_phase2_rejects_an_outcome_the_parties_do_not_share():
    # keep = (0, 1) and aux = (0, 0): adding keep into aux leaves aux = (0, 1)
    state = SparseState(layout(2, [("keep", 2), ("aux", 2)]), {(0, 0, 1, 0): 1.0})
    with pytest.raises(ExactnessError, match="distillation outcome disagrees across parties"):
        phase2(state, 2, "keep", "aux")


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 3)])
def test_ghz_share_every_branch_is_target(k, n):
    topo = catalog("ring", n) if n > 2 else catalog("complete", 2)
    result = ghz_share(topo, k, all_branches=True)
    target = cat_state(k, 0, n)
    combos = {b.attempt_outcomes for b in result.branches}
    assert len(combos) == k ** k
    for branch in result.branches:
        assert fidelity(branch.state, target) > 1 - 1e-9
    assert abs(result.total_probability() - 1.0) < 1e-9


def test_ghz_share_distills_each_phase_index_once(monkeypatch):
    import anonqnet.ghz
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return phase2(*args, **kwargs)

    monkeypatch.setattr(anonqnet.ghz, "phase2", counting)
    topo = catalog("ring", 3)
    attempts, _cost = phase1(topo, 4)
    nonzero = {br.outcome for br in attempts[0]} - {0}
    result = ghz_share(topo, 4, all_branches=True)
    assert len(calls) == len(nonzero) == 3
    assert abs(result.total_probability() - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(shuffled_ports(max_n=4))
def test_random_port_numberings_share_cat(topo):
    result = ghz_share(topo, 2, all_branches=True)
    assert abs(sum(b.probability for b in result.branches) - 1.0) < 1e-9
    target = cat_state(2, 0, topo.n)
    assert all(fidelity(b.state, target) > 1 - 1e-9 for b in result.branches)


def test_ghz_share_single_party():
    topo = build_graph(1, [])
    result = ghz_share(topo, 3, all_branches=True)
    target = cat_state(3, 0, 1)
    for branch in result.branches:
        assert fidelity(branch.state, target) > 1 - 1e-9
    assert result.cost.qubits_sent == 0


def test_ghz_gate_inventory_and_cost():
    topo = catalog("ring", 3)
    k = 2
    result = ghz_share(topo, k, all_branches=True)
    allowed = {f"fourier[{k}]", f"fourier_dag[{k}]", f"add_mod_{k}",
               f"sum_mod_{k}_blackbox", "measure"}
    assert set(result.gates_used) <= allowed
    sub = modular_sum_views(k, topo.n)
    _o, fk_cost, _t = run_classical(topo, sub.program, [[0, 0, 0]])
    assert result.cost.qubits_sent == k * fk_cost.qubits_sent
    assert result.cost.rounds == fk_cost.rounds


def test_ghz_pair_selection_is_first_match():
    topo = catalog("ring", 3)
    result = ghz_share(topo, 3, all_branches=True)
    for branch in result.branches:
        if branch.pair is None:
            assert 0 in branch.attempt_outcomes
            assert branch.attempt_outcomes[branch.source_attempt] == 0
            assert all(s != 0 for s in branch.attempt_outcomes[:branch.source_attempt])
        else:
            outcomes = branch.attempt_outcomes
            l, m = branch.pair
            assert outcomes[l] == outcomes[m] != 0
            earlier = [(a, b) for a in range(len(outcomes)) for b in range(a + 1, len(outcomes))
                       if outcomes[a] == outcomes[b]]
            assert earlier[0] == (l, m)


def test_ghz_sampled_mode():
    topo = catalog("ring", 3)
    first = ghz_share(topo, 2, seed=4)
    second = ghz_share(topo, 2, seed=4)
    assert first.sampled.attempt_outcomes == second.sampled.attempt_outcomes
    assert fidelity(first.sampled.state, cat_state(2, 0, 3)) > 1 - 1e-9
