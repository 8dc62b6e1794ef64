import math

import numpy as np
import pytest
from hypothesis import given, settings

from anonqnet.postelect import (BUILTIN_FUNCTIONS, all_equal, compute_function,
                                gather_scatter_state, labeled_cycle_exists,
                                majority, parity, recognize_graph,
                                spanning_tree, unitary_from_first_column)
from anonqnet.election import ElectionBranch
from anonqnet.ghz import cat_state
from anonqnet.runtime import CostReport
from anonqnet.qsim import SparseState, fidelity, init_state, layout
from anonqnet.topology import catalog

from conftest import all_bit_vectors, catalog_cases, case_ids, shuffled_ports


def test_star_tree_from_center():
    topo = catalog("star", 4)
    tree, cost = spanning_tree(topo, 0)
    assert tree.parent == (None, 0, 0, 0)
    assert tree.ids == (1, 2, 3, 4)  # port order
    assert cost.rounds <= 6 * 4


def test_ring_tree_is_path_shaped():
    topo = catalog("ring", 4)
    tree, _cost = spanning_tree(topo, 0)
    # port 1 goes clockwise, so the walk winds all the way round
    assert tree.parent == (None, 0, 1, 2)
    assert tree.preorder == (0, 1, 2, 3)


def test_k3_tree_spans():
    topo = catalog("complete", 3)
    tree, _cost = spanning_tree(topo, 1)
    assert sorted(tree.ids) == [1, 2, 3]
    assert tree.ids[1] == 1
    assert sum(1 for p in tree.parent if p is None) == 1


def test_ids_are_a_bijection_everywhere():
    for _name, n, topo in catalog_cases(2, 6):
        for leader in range(n):
            tree, _ = spanning_tree(topo, leader)
            assert sorted(tree.ids) == list(range(1, n + 1))
            assert tree.ids[leader] == 1


@settings(max_examples=40, deadline=None)
@given(shuffled_ports(max_n=7))
def test_random_port_trees_record_depths_and_cost(topo):
    n, m = topo.n, topo.m
    for leader in range(n):
        tree, cost = spanning_tree(topo, leader)
        assert tree.depths[leader] == 0
        for v in range(n):
            if v != leader:
                assert tree.depths[v] == tree.depths[tree.parent[v]] + 1
        assert tree.height == max(tree.depths)
        assert (cost.rounds, cost.qubits_sent) == (6 * n - 4, 4 * (n - 1) + 4 * m)


@pytest.mark.parametrize("leader", [-1, 3])
def test_leader_outside_the_parties_is_refused(leader):
    topo = catalog("path", 3)
    state = init_state(layout(3, [("q", 2)]), 0)
    with pytest.raises(ValueError, match=r"leader .* outside 0\.\.2"):
        spanning_tree(topo, leader)
    with pytest.raises(ValueError, match=r"leader .* outside 0\.\.2"):
        gather_scatter_state(topo, leader, state, "q", np.eye(8))


@pytest.mark.parametrize("name,n,topo", catalog_cases(2, 6),
                         ids=case_ids(catalog_cases(2, 6)))
def test_recognized_graph_matches_ground_truth(name, n, topo):
    tree, _tc = spanning_tree(topo, 0)
    adj, cost = recognize_graph(topo, tree)
    for u in range(n):
        for v in range(n):
            expect = 1 if frozenset((u, v)) in topo.edges else 0
            assert adj[tree.ids[u] - 1][tree.ids[v] - 1] == expect
    assert cost.rounds <= 2 * n + 1


def test_recognize_k4_is_all_ones_off_diagonal():
    topo = catalog("complete", 4)
    tree, _ = spanning_tree(topo, 2)
    adj, _ = recognize_graph(topo, tree)
    assert (adj == 1 - np.eye(4, dtype=int)).all()


def test_recognize_p3_degree_sequence():
    topo = catalog("path", 3)
    tree, _ = spanning_tree(topo, 1)
    adj, _ = recognize_graph(topo, tree)
    assert sorted(adj.sum(axis=0)) == [1, 2, 1] or sorted(adj.sum(axis=0)) == [1, 1, 2]


def test_builtin_function_values():
    adj = np.zeros((5, 5), dtype=int)
    assert majority(adj, [1, 1, 1, 0, 0]) == 1
    assert majority(adj, [1, 1, 0, 0, 0]) == 0
    assert parity(adj, [1, 1, 1, 0, 0]) == 1
    assert all_equal(adj, [1, 1, 1]) == 1
    assert all_equal(adj, [1, 1, 0]) == 0
    ring = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    assert labeled_cycle_exists(ring, [1, 1, 1, 1]) == 1
    assert labeled_cycle_exists(ring, [1, 1, 1, 0]) == 0


def test_majority_pipeline_on_ring5():
    topo = catalog("ring", 5)
    run = compute_function(topo, [1, 1, 1, 0, 0], majority, seed=0)
    assert run.values == (1,) * 5


def test_all_equal_pipeline_on_k3():
    topo = catalog("complete", 3)
    run = compute_function(topo, [1, 1, 0], all_equal, seed=0)
    assert run.values == (0,) * 3


def test_labeled_cycle_pipeline_on_c4():
    topo = catalog("ring", 4)
    run = compute_function(topo, [1, 1, 1, 1], labeled_cycle_exists, seed=0)
    assert run.values == (1,) * 4


@pytest.mark.parametrize("inputs", [[2, 3, 0], [1, -1, 0], [0, 1, True + 1]])
def test_pipeline_rejects_non_bit_inputs(inputs):
    with pytest.raises(ValueError, match="bits"):
        compute_function(catalog("ring", 3), inputs, parity, seed=0)


def test_pipeline_value_is_seed_independent(election_runs):
    # the sampled leader, and with it the tree cost, depends on the seed: a
    # run on a fresh topology is the reference for the cost of each seed
    fresh = [compute_function(catalog("star", 4), [1, 0, 1, 1], majority, seed=s).cost
             for s in range(5)]
    election_runs.clear()
    topo = catalog("star", 4)
    runs = [compute_function(topo, [1, 0, 1, 1], majority, seed=s) for s in range(5)]
    assert len({run.value for run in runs}) == 1
    assert [run.cost for run in runs] == fresh
    assert len(election_runs) == 1
    # what the calls after the first read holds only Python numbers: a numpy
    # scalar there would slow every later sample and lookup
    kept, cost = topo.memo["elect"]
    assert type(kept) is tuple and type(cost) is CostReport
    for branch in kept:
        assert type(branch) is ElectionBranch
        assert type(branch.probability) is float
        for field in (branch.outcomes, branch.leaders):
            assert type(field) is tuple and all(type(v) is int for v in field)
    assert all(type(end) is int for v in range(topo.n) for port in range(1, topo.degree(v) + 1)
               for end in topo.link(v, port))
    state = SparseState(layout(2, [("q", 2)]), {(0, 1): 0.6, (1, 0): 0.8j})
    assert all(type(amp) is complex for amp in state.amps.values())


@pytest.mark.parametrize("fn_name", sorted(BUILTIN_FUNCTIONS))
def test_pipeline_matches_direct_evaluation_small(fn_name):
    fn = BUILTIN_FUNCTIONS[fn_name]
    topo = catalog("ring", 3)
    for x in all_bit_vectors(3):
        run = compute_function(topo, list(x), fn, seed=2)
        if fn_name == "majority":
            expect = 1 if 2 * sum(x) > 3 else 0
        elif fn_name == "parity":
            expect = sum(x) % 2
        elif fn_name == "all-equal":
            expect = 1 if len(set(x)) == 1 else 0
        else:
            expect = 1 if sum(x) == 3 else 0  # only the full triangle is a cycle
        assert run.values == (expect,) * 3


def test_gather_scatter_identity():
    topo = catalog("path", 3)
    lay = layout(3, [("q", 2)])
    amp = 1 / math.sqrt(2)
    state = SparseState(lay, {(0, 0, 0): amp, (1, 1, 1): amp})
    tree, tree_cost = spanning_tree(topo, 0)
    final, cost = gather_scatter_state(topo, 0, state, "q", np.eye(8))
    assert fidelity(final, state) > 1 - 1e-12
    hops = sum(tree.depths)
    # the tree walk is metered too: 14 rounds and 16 qubits, then the hops
    assert cost.rounds == tree_cost.rounds + 8
    assert cost.qubits_sent == tree_cost.qubits_sent + 2 * hops
    assert (cost.rounds, cost.qubits_sent) == (22, 22)


def test_gather_scatter_swap_two_parties():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2)])
    state = SparseState(lay, {(1, 0): 1.0})
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    final, _cost = gather_scatter_state(topo, 0, state, "q", swap)
    assert final.amps == {(0, 1): 1.0}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gather_scatter_prepares_cat(n):
    topo = catalog("ring", n) if n > 2 else catalog("complete", 2)
    lay = layout(n, [("q", 2)])
    state = init_state(lay, 0)
    target = cat_state(2, 0, n, register="q")
    vec = np.zeros(2 ** n, dtype=complex)
    for key, amp in target.amps.items():
        idx = 0
        for sym in key:
            idx = idx * 2 + sym
        vec[idx] = amp
    final, _cost = gather_scatter_state(topo, 0, state, "q",
                                        unitary_from_first_column(vec))
    assert fidelity(final, target) > 1 - 1e-9


def test_gather_scatter_rejects_non_unitary():
    topo = catalog("complete", 2)
    state = init_state(layout(2, [("q", 2)]), 0)
    with pytest.raises(ValueError):
        gather_scatter_state(topo, 0, state, "q", np.ones((4, 4)))


def test_gather_scatter_refuses_a_nan_transform():
    topo = catalog("complete", 2)
    state = init_state(layout(2, [("q", 2)]), 0)
    transform = np.eye(4, dtype=complex)
    transform[3, 3] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        gather_scatter_state(topo, 0, state, "q", transform)


def test_gather_scatter_amplitudes_are_python_complex():
    topo = catalog("path", 2)
    state = init_state(layout(2, [("q", 2)]), 0)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    final, _cost = gather_scatter_state(topo, 0, state, "q", np.kron(h, h))
    assert len(final) == 4
    assert all(type(amp) is complex for amp in final.amps.values())


def test_gather_scatter_qutrits_match_a_dense_reference():
    # leader 1 holds identifier 1, so its qutrit is the most significant digit
    rng = np.random.default_rng(7)
    transform, _r = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    topo = catalog("complete", 2)
    tree, _ = spanning_tree(topo, 1)
    assert tree.preorder == (1, 0)
    lay = layout(2, [("q", 3)])
    state = SparseState(lay, {(0, 2): 0.6, (2, 1): -0.8j})
    final, _cost = gather_scatter_state(topo, 1, state, "q", transform)
    vec = np.zeros(9, dtype=complex)
    for (a, b), amp in state.amps.items():
        vec[3 * b + a] = amp
    reference = transform @ vec
    assert set(final.amps) == {(j % 3, j // 3) for j in range(9)}
    for j in range(9):
        assert abs(final.amps[(j % 3, j // 3)] - reference[j]) < 1e-12


def test_unitary_completion():
    vec = np.array([1, 1j, -1, 0], dtype=complex) / math.sqrt(3)
    gate = unitary_from_first_column(vec)
    assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) < 1e-10
    assert np.max(np.abs(gate[:, 0] - vec)) < 1e-10
    with pytest.raises(ValueError):
        unitary_from_first_column(np.array([1.0, 1.0]))
