import cmath
import dataclasses
import math

import pytest
from hypothesis import given, settings

from anonqnet import election, qsim, subroutines
from anonqnet.election import (cost_breakdown, elect, elect_with_bound,
                               exactly_one_algorithm, guess_success_probability,
                               rotation_matrix, success_probability,
                               unique_one_state)
from anonqnet.errors import ExactnessError, SimulationError
from anonqnet.runtime import CostReport, run_classical, sequential
from anonqnet.subroutines import FALSE, TRUE, all_zeros_flooding
from anonqnet.topology import automorphisms, build_graph, catalog

from conftest import (all_bit_vectors, catalog_cases, case_ids, in_two_threads,
                      oracle_weight_is_one, shuffled_ports)


def test_probability_formulas():
    assert success_probability(2) == 0.5
    assert abs(success_probability(3) - 4 / 9) < 1e-15
    assert guess_success_probability(2) == 0.5
    assert abs(guess_success_probability(3) - 0.75) < 1e-15
    for n in range(2, 65):
        assert success_probability(n) > 1 / math.e > 0.25
    with pytest.raises(ValueError):
        success_probability(1)
    with pytest.raises(ValueError):
        guess_success_probability(1)


def test_rotation_matrix_prepares_correct_coin():
    import numpy as np
    for n in (2, 3, 5):
        gate = rotation_matrix(n)
        col = gate @ np.array([1.0, 0.0])
        assert abs(col[0] - math.sqrt(1 - 1 / n)) < 1e-12
        assert abs(col[1] - math.sqrt(1 / n)) < 1e-12
        assert np.max(np.abs(gate @ gate - np.eye(2))) < 1e-12  # involution


# ---------------------------------------------------------------------------
# the unique-one procedure


def run_unique_one(topo, x, n_known=None):
    proc = exactly_one_algorithm(topo, n_known)
    out, cost = proc.apply(unique_one_state({x: 1.0 + 0j}), "bit", "res")
    ((key, amp),) = out.amps.items()
    values = set(out.symbols(key, "res"))
    assert len(values) == 1
    return values.pop(), amp, cost, proc.evaluate_many([x])[0]


def test_weight_one_input_accepted():
    value, amp, _c, _d = run_unique_one(catalog("ring", 3), (1, 0, 0))
    assert value == 1
    assert abs(amp - 1.0) < 1e-10


def test_weight_two_input_rejected_exactly():
    value, amp, _c, report = run_unique_one(catalog("ring", 3), (1, 1, 0))
    assert value == 0
    assert abs(amp - 1.0) < 1e-10
    # the decisive guess bank holds no consistent amplitude at all
    bank = next(b for b in report.banks if b.guess == 2)
    assert bank.max_consistent_amp < 1e-10
    assert bank.purely_inconsistent


def test_all_zero_input_rejected_by_first_test():
    value, _amp, _c, report = run_unique_one(catalog("ring", 4), (0, 0, 0, 0))
    assert value == 0
    assert report.zeros_flag == TRUE
    assert all(b.purely_consistent for b in report.banks)


@pytest.mark.parametrize("name,n,topo", catalog_cases(2, 4),
                         ids=case_ids(catalog_cases(2, 4)))
def test_unique_one_matches_oracle_everywhere(name, n, topo):
    proc = exactly_one_algorithm(topo)
    for x in all_bit_vectors(n):
        out, _cost = proc.apply(unique_one_state({x: 1.0 + 0j}), "bit", "res")
        ((key, amp),) = out.amps.items()
        assert set(out.symbols(key, "res")) == {oracle_weight_is_one(x)}
        assert abs(amp - 1.0) < 1e-10


def test_unique_one_ancillas_restored_tightly():
    topo = catalog("star", 4)
    for x in all_bit_vectors(4):
        _v, _a, _c, report = run_unique_one(topo, x)
        for bank in report.banks:
            assert bank.inversion_residual < 1e-10
            assert bank.inversion_phase_error < 1e-10


def test_unique_one_superposition_preserves_amplitudes():
    topo = catalog("ring", 3)
    proc = exactly_one_algorithm(topo)
    total = sum((i + 1) ** 2 for i in range(8))
    weights = {x: (i + 1) / math.sqrt(total) for i, x in enumerate(all_bit_vectors(3))}
    out, _cost = proc.apply(unique_one_state(weights), "bit", "res")
    for key, amp in out.amps.items():
        x = out.symbols(key, "bit")
        assert set(out.symbols(key, "res")) == {oracle_weight_is_one(x)}
        assert abs(amp - weights[x]) < 1e-12


def test_evaluate_record_matches_apply_on_every_basis_input():
    topo = catalog("ring", 3)
    proc = exactly_one_algorithm(topo)
    for x in all_bit_vectors(3):
        report = proc.evaluate_many([x])[0]
        assert proc.evaluate_many([x])[0] is report
        out, cost = proc.apply(unique_one_state({x: 1.0 + 0j}), "bit", "res")
        ((key, amp),) = out.amps.items()
        assert report.cost == cost
        # "res" starts at TRUE and is flipped exactly when the value is FALSE
        assert set(out.symbols(key, "res")) == {report.value}
        assert report.value == (TRUE if sum(x) == 1 else FALSE)
        assert amp == report.phase
        assert report.phase == math.prod((b.restored_amp for b in report.banks), start=1.0 + 0j)
        assert [b.guess for b in report.banks] == [2, 3]


def test_unique_one_is_involution():
    topo = catalog("ring", 3)
    proc = exactly_one_algorithm(topo)
    state = unique_one_state({(1, 1, 0): 1.0 + 0j})
    once, _ = proc.apply(state, "bit", "res")
    twice, _ = proc.apply(once, "bit", "res")
    assert set(twice.amps) == set(state.amps)


# ---------------------------------------------------------------------------
# the election


@pytest.mark.parametrize("name,n,topo", catalog_cases(2, 5),
                         ids=case_ids(catalog_cases(2, 5)))
def test_every_branch_elects_exactly_one_leader(name, n, topo):
    result = elect(topo, all_branches=True)
    assert len(result.branches) == n
    for branch in result.branches:
        assert branch.leader_count == 1
        assert abs(branch.probability - 1 / n) < 1e-9
    assert abs(result.total_probability() - 1.0) < 1e-9


def test_k2_branches():
    result = elect(catalog("complete", 2), all_branches=True)
    outcomes = {b.outcomes: b.probability for b in result.branches}
    assert set(outcomes) == {(0, 1), (1, 0)}
    assert all(abs(p - 0.5) < 1e-10 for p in outcomes.values())


def test_c5_support_is_weight_one_only():
    result = elect(catalog("ring", 5), all_branches=True)
    assert {sum(b.outcomes) for b in result.branches} == {1}


def test_sampling_is_deterministic():
    topo = catalog("ring", 4)
    picks = {elect(topo, seed=9).sampled.leaders for _ in range(3)}
    assert len(picks) == 1
    assert elect(topo, all_branches=True).sampled_index is None


def test_single_party_network():
    topo = build_graph(1, [])
    result = elect(topo)
    assert result.branches[0].leaders == (0,)
    assert result.cost.qubits_sent == 0
    assert elect(topo, all_branches=True).sampled_index is None
    assert elect_with_bound(topo, 3, all_branches=True).sampled_index is None
    # the exact bound is the true party count
    assert elect_with_bound(topo, 1).branches[0].leaders == (0,)
    # no guess, so no bank: the all-zeros flood alone decides
    assert exactly_one_algorithm(topo).evaluate_many([(0,)])[0].banks == ()
    assert cost_breakdown(topo)["qle"].qubits_sent == 0


def test_elect_simulates_once_per_topology(election_runs):
    topo = catalog("ring", 4)
    edges = sorted(tuple(sorted(e)) for e in topo.edges)
    seeds = [0, 1, 2, 3, 4, None]
    expected = [elect(build_graph(4, edges, topo.ports), seed=s, all_branches=s is None)
                for s in seeds]

    election_runs.clear()
    results = [elect(topo, seed=s, all_branches=s is None) for s in seeds]
    assert len(election_runs) == 1
    for result, fresh in zip(results, expected):
        assert result.branches == fresh.branches
        assert result.cost == fresh.cost
        assert result.sampled_index == fresh.sampled_index

    # a caller mutating its result cannot reach the memo
    results[0].branches.clear()
    assert elect(topo, seed=0).branches == expected[0].branches

    # the same graph under another port numbering is another topology
    renumbered = [{e: topo.degree(v) + 1 - p for e, p in topo.ports[v].items()}
                  for v in range(4)]
    elect(build_graph(4, edges, renumbered), seed=0)
    elect(topo, seed=0)
    assert len(election_runs) == 2


def test_cost_identity_against_standalone_runs():
    for _name, n, topo in catalog_cases(2, 4, names=("ring", "star")):
        zeros = all_zeros_flooding(n)
        _o, h0_cost, _t = run_classical(topo, zeros.program, [[0] * n])
        proc = exactly_one_algorithm(topo)
        _s, h1_cost = proc.apply(unique_one_state({(0,) * n: 1.0 + 0j}), "bit", "res")
        result = elect(topo, all_branches=True)
        assert result.cost.qubits_sent == 2 * h0_cost.qubits_sent + 2 * h1_cost.qubits_sent
        assert result.cost.rounds == 2 * h0_cost.rounds + 2 * h1_cost.rounds
        assert result.cost.bits_sent == 2 * h0_cost.bits_sent + 2 * h1_cost.bits_sent


def test_election_distribution_is_automorphism_invariant():
    topo = catalog("ring", 4)
    result = elect(topo, all_branches=True)
    dist = {b.outcomes: b.probability for b in result.branches}
    for aut in automorphisms(topo):
        for outcome, p in dist.items():
            moved = [None] * 4
            for v, sym in enumerate(outcome):
                moved[aut[v]] = sym
            assert abs(dist[tuple(moved)] - p) < 1e-10


@settings(max_examples=25, deadline=None)
@given(shuffled_ports(max_n=4))
def test_random_port_numberings_elect_one_leader(topo):
    n = topo.n
    result = elect(topo, all_branches=True)
    assert all(b.leader_count == 1 for b in result.branches)
    assert abs(result.total_probability() - 1.0) < 1e-9
    marginal = [0.0] * n
    for b in result.branches:
        marginal[b.leaders[0]] += b.probability
    assert all(abs(p - 1 / n) < 1e-9 for p in marginal)


# ---------------------------------------------------------------------------
# knowing only an upper bound


@pytest.mark.parametrize("name,n", [("complete", 2), ("ring", 3), ("path", 3)])
def test_upper_bound_unique_leader(name, n):
    topo = catalog(name, n)
    for bound in range(max(n, 2), 5):
        result = elect_with_bound(topo, bound, all_branches=True)
        assert all(b.leader_count == 1 for b in result.branches)
        assert abs(result.total_probability() - 1.0) < 1e-9
        assert all(b.winner_guess in range(2, bound + 1) for b in result.branches)


@settings(max_examples=25, deadline=None)
@given(shuffled_ports(max_n=4))
def test_random_port_numberings_upper_bound(topo):
    result = elect_with_bound(topo, topo.n + 1, all_branches=True)
    assert all(b.leader_count == 1 for b in result.branches)
    guess_outcomes = [b.guess_outcomes for b in result.branches]
    assert guess_outcomes == sorted(guess_outcomes)
    assert abs(result.total_probability() - 1.0) < 1e-9


def test_upper_bound_verification_flags():
    result = elect_with_bound(catalog("ring", 3), 3, all_branches=True)
    for branch in result.branches:
        assert branch.winner_guess == min(branch.verified)
        # the winning guess's own outcome is the leader pattern
        picked = dict(branch.guess_outcomes)[branch.winner_guess]
        assert picked == branch.outcomes
        assert sum(picked) == 1


def test_upper_bound_verifies_exactly_the_outcomes_evaluated_true():
    topo = catalog("ring", 3)
    result = elect_with_bound(topo, 4, all_branches=True)
    proc = exactly_one_algorithm(topo, n_known=4)
    for branch in result.branches:
        expected = tuple(guess for guess, outcome in branch.guess_outcomes
                         if proc.evaluate_many([outcome])[0].value == TRUE)
        assert branch.verified == expected
        assert expected and branch.winner_guess == expected[0]


def test_upper_bound_refuses_a_verification_cost_that_varies(monkeypatch):
    # every guess bank's cost grows with the weight of its input
    run_bank = election.ExactlyOneProcedure._run_bank

    def varying(self, xs):
        return [tuple(dataclasses.replace(r, cost=sequential(r.cost, CostReport(sum(x), 0, 0)))
                      for r in reports)
                for x, reports in zip(xs, run_bank(self, xs))]

    monkeypatch.setattr(election.ExactlyOneProcedure, "_run_bank", varying)
    with pytest.raises(SimulationError, match="unique-one cost varied with the input"):
        elect_with_bound(catalog("ring", 3), 4, all_branches=True)
    # two inputs evaluated one at a time are compared too
    procedure = exactly_one_algorithm(catalog("ring", 3))
    procedure.evaluate_many([(0, 0, 0)])
    with pytest.raises(SimulationError, match="unique-one cost varied with the input"):
        procedure.evaluate_many([(1, 0, 0)])


def test_a_bank_that_leaves_its_verdict_open_is_an_error(monkeypatch):
    # a weight-one input whose banks keep some inconsistent amplitude but are
    # not purely inconsistent either: the procedure cannot decide
    run_bank = election.ExactlyOneProcedure._run_bank

    def undecided(self, xs):
        return [tuple(dataclasses.replace(r, max_inconsistent_amp=1e-6) for r in reports)
                for reports in run_bank(self, xs)]

    monkeypatch.setattr(election.ExactlyOneProcedure, "_run_bank", undecided)
    with pytest.raises(ExactnessError, match="outcome undetermined .* 1.000e-06"):
        exactly_one_algorithm(catalog("ring", 3)).evaluate_many([(1, 0, 0)])


def test_upper_bound_refuses_a_branch_no_guess_verifies(monkeypatch):
    # the verification rejects every outcome, so no guess supplies a leader
    evaluate_many = election.ExactlyOneProcedure.evaluate_many

    def rejecting(self, xs):
        return [dataclasses.replace(report, value=FALSE) for report in evaluate_many(self, xs)]

    monkeypatch.setattr(election.ExactlyOneProcedure, "evaluate_many", rejecting)
    with pytest.raises(ExactnessError, match="no guess verified a unique leader"):
        elect_with_bound(catalog("ring", 3), 3, all_branches=True)


def override_verification(monkeypatch, accept):
    """Make ``elect_with_bound`` verify by ``accept(guess, position, count)``.

    The verification of each guess is the evaluation that follows its
    amplified coins; it then verifies the measured outcome at ``position`` of
    ``count`` iff ``accept`` says so.  The amplification itself is untouched.
    """
    amplified_coins = election._amplified_coins
    evaluate_many = election.ExactlyOneProcedure.evaluate_many
    pending = []

    def coins(procedure, guess, **kwargs):
        out = amplified_coins(procedure, guess, **kwargs)
        pending.append(guess)
        return out

    def evaluate(self, xs):
        reports = evaluate_many(self, xs)
        if not pending:
            return reports
        guess = pending.pop()
        return [dataclasses.replace(r, value=TRUE if accept(guess, i, len(xs)) else FALSE)
                for i, r in enumerate(reports)]

    monkeypatch.setattr(election, "_amplified_coins", coins)
    monkeypatch.setattr(election.ExactlyOneProcedure, "evaluate_many", evaluate)


def test_upper_bound_refuses_when_only_the_last_branch_has_no_verified_guess(monkeypatch):
    # every guess rejects only its last outcome, so of all joint branches
    # only the last in enumeration order verifies no guess
    override_verification(monkeypatch, lambda guess, i, count: i < count - 1)
    with pytest.raises(ExactnessError, match="no guess verified a unique leader"):
        elect_with_bound(catalog("ring", 3), 4, all_branches=True)
    # with the last guess accepting everything, every branch has a winner
    monkeypatch.undo()
    override_verification(monkeypatch, lambda guess, i, count: i < count - 1 or guess == 4)
    assert len(elect_with_bound(catalog("ring", 3), 4, all_branches=True).branches) == 192


def test_upper_bound_decides_each_verification_pattern_on_its_own(monkeypatch):
    # guess 2 rejects everything and guess 4 accepts everything, so the
    # patterns (F, T, T) and (F, F, T) share their first mark but not their
    # first verified guess
    def accept(guess, i, count):
        return guess == 4 or (guess == 3 and i % 2 == 0)

    override_verification(monkeypatch, accept)
    result = elect_with_bound(catalog("ring", 3), 4, seed=5)
    # each guess's measured outcomes, in the order its verification saw them
    measured = {guess: sorted({dict(b.guess_outcomes)[guess] for b in result.branches})
                for guess in (2, 3, 4)}
    winners = set()
    for b in result.branches:
        verified = tuple(guess for guess, outcome in b.guess_outcomes
                         if accept(guess, measured[guess].index(outcome), len(measured[guess])))
        assert (b.verified, b.winner_guess) == (verified, verified[0])
        assert b.outcomes == dict(b.guess_outcomes)[verified[0]]
        assert b.leaders == tuple(p for p, bit in enumerate(b.outcomes) if bit)
        winners.add(b.winner_guess)
    assert winners == {3, 4}


def test_upper_bound_equals_exact_when_bound_is_tight_n2():
    topo = catalog("complete", 2)
    bounded = elect_with_bound(topo, 2, all_branches=True)
    exact = elect(topo, all_branches=True)
    bd = {b.outcomes: b.probability for b in bounded.branches}
    ed = {b.outcomes: b.probability for b in exact.branches}
    assert set(bd) == set(ed)
    for key in bd:
        assert abs(bd[key] - ed[key]) < 1e-10


def test_upper_bound_tight_on_all_catalog_graphs():
    for _name, n, topo in catalog_cases(2, 4):
        result = elect_with_bound(topo, max(n, 2), all_branches=True)
        assert all(b.leader_count == 1 for b in result.branches)
        assert abs(result.total_probability() - 1.0) < 1e-9


def test_bank_restoration_is_checked_at_the_residue_tolerance(monkeypatch):
    # a bank restored only up to a phase of 1e-8 is far above RESIDUE_TOL
    run_steps = election.run_steps

    def off_by_a_phase(state, tape, backward=False):
        state, cost = run_steps(state, tape, backward=backward)
        return (qsim.scale(state, cmath.exp(1e-8j)) if backward else state), cost

    monkeypatch.setattr(election, "run_steps", off_by_a_phase)
    with pytest.raises(ExactnessError, match="phase error 1.000e-08"):
        election.ExactlyOneProcedure(catalog("ring", 3)).evaluate_many([(1, 0, 0)])


def test_a_light_branch_with_two_leaders_is_an_error(monkeypatch):
    # a two-leader component of probability 1e-13 among the amplified coins
    # becomes a branch of its own, which elect refuses
    amplified_coins = election._amplified_coins

    def with_two_leaders(*args, **kwargs):
        state, cost = amplified_coins(*args, **kwargs)
        key = list(next(iter(state.amps)))
        coins = state.layout.slots("coin")
        for party, slot in enumerate(coins):
            key[slot] = 1 if party < 2 else 0
        amps = dict(state.amps)
        amps[tuple(key)] = math.sqrt(1e-13)
        return qsim.SparseState(state.layout, amps), cost

    monkeypatch.setattr(election, "_amplified_coins", with_two_leaders)
    with pytest.raises(ExactnessError, match="has 2 leaders"):
        elect(catalog("ring", 4), all_branches=True)


def test_upper_bound_argument_validation():
    topo = catalog("ring", 3)
    with pytest.raises(ValueError):
        elect_with_bound(topo, 1)
    with pytest.raises(ValueError):
        elect_with_bound(topo, 2)  # below the true count


def test_two_threads_share_one_topology():
    serial = elect(catalog("ring", 5), all_branches=True)
    shared = catalog("ring", 5)
    for result in in_two_threads(lambda: elect(shared, all_branches=True)):
        assert result.branches == serial.branches
        assert result.cost == serial.cost


def test_an_election_runs_the_engine_only_for_floods(monkeypatch):
    # consistency tables are answered from the flood's memo, so an election
    # runs the engine on one flood row per bit vector: 2^n, where running the
    # consistency program for each distinct (coin, mark) vector would add 3^n
    runs = []   # (program name, rows) per engine run
    real = subroutines.run_classical

    def counting(topology, program, inputs):
        runs.append((program.name, len(inputs)))
        return real(topology, program, inputs)

    monkeypatch.setattr(subroutines, "run_classical", counting)
    for name in ("ring", "complete"):
        for n in (3, 4, 5):
            runs.clear()
            elect(catalog(name, n), all_branches=True)
            assert {program for program, _rows in runs} == {f"all_zeros_flooding[{n}]"}
            assert sum(rows for _program, rows in runs) == 2 ** n, f"{name}-{n}"
    # a second application on the same state finds every run memoized
    procedure = exactly_one_algorithm(catalog("ring", 4))
    state = unique_one_state(dict.fromkeys(all_bit_vectors(4), 0.25))
    procedure.apply(state, "bit", "res")
    runs.clear()
    procedure.apply(state, "bit", "res")
    assert runs == []
