import itertools

import pytest

from anonqnet.errors import SimulationError
from anonqnet.runtime import (CostReport, PartyProgram, SizedMessage, parallel,
                              run_classical, sequential, verify_anonymity)
from anonqnet.subroutines import (all_zeros_flooding, consistency_from_all_zeros,
                                  modular_sum_views, run_cached)
from anonqnet.topology import catalog

from conftest import all_bit_vectors


def echo_program(rounds=1):
    return PartyProgram(
        rounds=rounds, symbol_dim=2,
        init=lambda x, deg: (x, deg),
        send=lambda s, r: {p: (s[0],) for p in range(1, s[1] + 1)},
        recv=lambda s, inbox, r: s,
        finish=lambda s: s[0],
        name="echo",
    )


def test_k2_echo_two_messages():
    topo = catalog("complete", 2)
    out, cost, events = run_classical(topo, echo_program(), [1, 0])
    assert out == [1, 0]
    assert cost.rounds == 1 and cost.qubits_sent == 2 and cost.bits_sent == 2
    assert len(events) == 2


def test_flooding_cost_is_two_m_delta():
    topo = catalog("ring", 4)
    sub = all_zeros_flooding(4)
    for x in ([0, 0, 0, 0], [1, 0, 1, 1]):
        _out, cost, _tr = run_classical(topo, sub.program, x)
        assert cost.rounds == 4
        assert cost.qubits_sent == 2 * topo.m * 4 == 32
        assert cost.per_round == (8, 8, 8, 8)


def test_zero_round_program():
    topo = catalog("ring", 4)
    prog = PartyProgram(rounds=0, symbol_dim=2,
                        init=lambda x, d: x,
                        send=lambda s, r: {},
                        recv=lambda s, i, r: s,
                        finish=lambda s: s)
    out, cost, events = run_classical(topo, prog, [1, 2, 3, 4])
    assert out == [1, 2, 3, 4]
    assert cost == CostReport.zero()
    assert events == ()


def test_determinism():
    topo = catalog("star", 4)
    sub = all_zeros_flooding(4)
    runs = [run_classical(topo, sub.program, [0, 1, 0, 0]) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]


def test_bad_port_rejected():
    topo = catalog("path", 3)
    prog = PartyProgram(rounds=1, symbol_dim=2,
                        init=lambda x, d: d,
                        send=lambda s, r: {s + 1: (0,)},  # one past the last port
                        recv=lambda s, i, r: s,
                        finish=lambda s: s)
    with pytest.raises(ValueError, match="node 0 has no port 2"):
        run_classical(topo, prog, [0, 0, 0])


def test_symbol_out_of_alphabet_rejected():
    topo = catalog("complete", 2)
    prog = PartyProgram(rounds=1, symbol_dim=2,
                        init=lambda x, d: x,
                        send=lambda s, r: {1: (7,)},
                        recv=lambda s, i, r: s,
                        finish=lambda s: s)
    with pytest.raises(SimulationError):
        run_classical(topo, prog, [0, 0])


def one_message_program(message, symbol_dim=4):
    return PartyProgram(rounds=1, symbol_dim=symbol_dim,
                        init=lambda x, d: x,
                        send=lambda s, r: {1: message},
                        recv=lambda s, inbox, r: inbox[1],
                        finish=lambda s: s)


@pytest.mark.parametrize("message,payload,size", [
    ((3, 0), (3, 0), 2), ([1, 2, 3], (1, 2, 3), 3), (2, (2,), 1), ((), (), 0),
    (SizedMessage("anything", 5), "anything", 5)])
def test_message_shapes(message, payload, size):
    out, cost, events = run_classical(catalog("complete", 2), one_message_program(message),
                                      [0, 0])
    assert out == [payload, payload]
    assert cost.qubits_sent == 2 * size
    assert [ev[3:] for ev in events] == [(size, payload)] * 2


@pytest.mark.parametrize("message", [(4,), [0, -1], 9])
def test_every_message_shape_checks_its_alphabet(message):
    with pytest.raises(SimulationError, match="outside alphabet 0..3 on port 1"):
        run_classical(catalog("complete", 2), one_message_program(message), [0, 0])


def test_negative_declared_size_rejected():
    with pytest.raises(SimulationError, match="negative message size"):
        run_classical(catalog("complete", 2), one_message_program(SizedMessage((), -1)),
                      [0, 0])


def test_anonymity_constant_inputs():
    topo = catalog("ring", 4)
    sub = all_zeros_flooding(4)
    assert verify_anonymity(topo, sub.program, [1, 1, 1, 1], (1, 2, 3, 0))


def test_anonymity_rotated_inputs():
    topo = catalog("ring", 4)
    sub = all_zeros_flooding(4)
    for aut in ((1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)):
        assert verify_anonymity(topo, sub.program, [1, 0, 0, 0], aut)


def test_anonymity_detects_payload_asymmetry():
    # every party sends the index a shared counter hands it, so the outputs,
    # costs and message pattern are symmetric but the payloads are not
    counter = itertools.count()
    prog = PartyProgram(rounds=1, symbol_dim=4,
                        init=lambda x, d: (next(counter) % 4, d),
                        send=lambda s, r: {p: (s[0],) for p in range(1, s[1] + 1)},
                        recv=lambda s, i, r: s,
                        finish=lambda s: 0)
    assert not verify_anonymity(catalog("ring", 4), prog, [0, 0, 0, 0], (1, 2, 3, 0))


def test_anonymity_detects_output_asymmetry():
    # no messages at all, but every party outputs the index a shared counter
    # hands it, so the second run's outputs differ from the first's
    counter = itertools.count()
    prog = PartyProgram(rounds=0, symbol_dim=2,
                        init=lambda x, d: next(counter),
                        send=lambda s, r: {}, recv=lambda s, i, r: s,
                        finish=lambda s: s)
    assert not verify_anonymity(catalog("ring", 4), prog, [0, 0, 0, 0], (1, 2, 3, 0))


def test_anonymity_rejects_non_automorphism():
    topo = catalog("ring", 4)
    sub = all_zeros_flooding(4)
    with pytest.raises(ValueError):
        verify_anonymity(topo, sub.program, [0, 0, 0, 0], (0, 2, 1, 3))


def pattern(events):
    """The input-oblivious part of a run: (round, sender, receiver, symbols)."""
    return tuple(ev[:4] for ev in events)


@pytest.mark.parametrize("name,n", [("ring", 3), ("ring", 4), ("path", 4), ("star", 4)])
def test_oblivious_patterns(name, n):
    """Per-round (sender, receiver, size) patterns never depend on inputs."""
    topo = catalog(name, n)
    zeros = all_zeros_flooding(n)
    cons = consistency_from_all_zeros(zeros)
    sums = modular_sum_views(2, n)
    patterns = {
        pattern(run_classical(topo, zeros.program, list(x))[2])
        for x in all_bit_vectors(n)
    }
    assert len(patterns) == 1
    # a consistency run is two flood runs, each checked against the flood's
    # one pattern; it records no pattern of its own
    costs = {
        run_cached(cons, topo, rz)[1]
        for rz in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n)
    }
    assert len(costs) == 1
    assert set(zeros.patterns.values()) == patterns and not cons.patterns
    patterns = {
        pattern(run_classical(topo, sums.program, list(x))[2])
        for x in all_bit_vectors(n)
    }
    assert len(patterns) == 1


def test_equivariance_all_catalog_graphs():
    """Every automorphism of every catalog graph fixes every subroutine run."""
    from conftest import cached_run_equivariant, catalog_cases
    from anonqnet.topology import automorphisms
    for _name, n, topo in catalog_cases(2, 4):
        zeros = all_zeros_flooding(n)
        cons = consistency_from_all_zeros(zeros)
        sums = modular_sum_views(2, n)
        for aut in automorphisms(topo):
            for x in all_bit_vectors(n):
                assert verify_anonymity(topo, zeros.program, list(x), aut)
                assert verify_anonymity(topo, sums.program, list(x), aut)
            for rz in itertools.product(((0, 1), (1, 1)), repeat=n):
                assert cached_run_equivariant(cons, topo, rz, aut)


def test_cost_composition():
    a = CostReport(2, 10, 10, (4, 6))
    b = CostReport(3, 6, 12, (2, 2, 2))
    seq = sequential(a, b)
    assert (seq.rounds, seq.qubits_sent, seq.bits_sent) == (5, 16, 22)
    assert seq.per_round == (4, 6, 2, 2, 2)
    par = parallel(a, b)
    assert (par.rounds, par.qubits_sent) == (3, 16)
    assert par.per_round == (6, 8, 2)
    # detail is dropped, not faked, when one side lacks it
    c = CostReport(1, 5, 5, ())
    assert sequential(a, c).per_round == ()
    assert sequential(a, c).qubits_sent == 15


def test_compositions_equal_pairwise_folds():
    costs = [CostReport.zero(), CostReport(2, 10, 10, (4, 6)), CostReport(3, 6, 12, (2, 2, 2)),
             CostReport(1, 5, 5, ()), CostReport(1, 0, 0, (0,)), CostReport(4, 0, 0, ())]
    for size in range(4):
        for picked in itertools.product(costs, repeat=size):
            seq, par = CostReport.zero(), CostReport.zero()
            for c in picked:
                seq, par = sequential(seq, c), parallel(par, c)
            assert sequential(*picked) == seq
            assert parallel(*picked) == par


def test_cost_report_validation():
    with pytest.raises(ValueError):
        CostReport(2, 5, 5, (1, 1))
    with pytest.raises(ValueError):
        CostReport(1, 5, 5, (5, 0))


def test_message_events_shape():
    topo = catalog("complete", 2)
    _out, _cost, events = run_classical(topo, echo_program(), [1, 0])
    assert {(sender, receiver) for _r, sender, receiver, _n, _p in events} == {(0, 1), (1, 0)}
    assert all(r == 1 and symbols == 1 for r, _s, _t, symbols, _p in events)
