import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.errors import SimulationError
from anonqnet.runtime import PartyProgram, parallel, run_classical, verify_anonymity
from anonqnet.subroutines import (ClassicalSubroutine, ViewTable,
                                  all_zeros_flooding, consistency_from_all_zeros,
                                  distinct_truncated_views, modular_sum_views,
                                  run_cached, serialize_view, view)
from anonqnet.topology import automorphisms, build_graph, catalog

from conftest import (all_bit_vectors, cached_run_equivariant, catalog_cases,
                      case_ids, connected_graphs, in_two_threads,
                      oracle_all_zeros, oracle_consistency, oracle_modular_sum,
                      shuffled_ports)

CASES_4 = catalog_cases(2, 4)
CASES_5 = catalog_cases(2, 5)


def test_flooding_trivial_cases():
    topo = catalog("ring", 4)
    sub = all_zeros_flooding(4)
    out, _c, _t = run_classical(topo, sub.program, [0, 0, 0, 0])
    assert out == [1, 1, 1, 1]
    out, _c, _t = run_classical(topo, sub.program, [0, 1, 0, 0])
    assert out == [0, 0, 0, 0]


def test_flooding_reaches_far_end_in_diameter_rounds():
    topo = catalog("path", 5)
    sub = all_zeros_flooding(4)  # exactly the diameter
    out, cost, _t = run_classical(topo, sub.program, [1, 0, 0, 0, 0])
    assert out == [0, 0, 0, 0, 0]
    assert cost.rounds == 4
    # one round fewer and the far end still thinks everything is zero
    short = all_zeros_flooding(3)
    out, _c, _t = run_classical(topo, short.program, [1, 0, 0, 0, 0])
    assert out[4] == 1 and out[0] == 0


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_flooding_matches_oracle(name, n, topo):
    sub = all_zeros_flooding(n)
    for x in all_bit_vectors(n):
        out, _c, _t = run_classical(topo, sub.program, list(x))
        assert out == [oracle_all_zeros(x)] * n


def test_consistency_examples():
    topo = catalog("ring", 3)
    sub = consistency_from_all_zeros(all_zeros_flooding(3))
    out, _c = run_cached(sub, topo, ((1, 1), (1, 1), (1, 1)))
    assert out == (1, 1, 1)
    out, _c = run_cached(sub, topo, ((1, 1), (0, 1), (1, 1)))
    assert out == (0, 0, 0)
    # nobody marked: vacuously consistent whatever the bits
    out, _c = run_cached(sub, topo, ((1, 0), (0, 0), (1, 0)))
    assert out == (1, 1, 1)
    assert sub.name == "consistency[3]" and sub.program is None


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_consistency_matches_oracle(name, n, topo):
    sub = consistency_from_all_zeros(all_zeros_flooding(n))
    for rz in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
        out, _c = run_cached(sub, topo, rz)
        assert out == (oracle_consistency(rz),) * n


def test_consistency_cost_exactly_doubles_flooding():
    for _name, n, topo in CASES_4:
        zeros = all_zeros_flooding(n)
        cons = consistency_from_all_zeros(zeros)
        _o, zc, _t = run_classical(topo, zeros.program, [0] * n)
        _o, cc = run_cached(cons, topo, ((0, 1),) * n)
        assert cc.rounds == zc.rounds
        assert cc.qubits_sent == 2 * zc.qubits_sent
        assert cc.bits_sent == 2 * zc.bits_sent
        assert cc.per_round == tuple(2 * q for q in zc.per_round)


MARKED_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def assert_answered_by_flood_runs(cons, topo, rz):
    n = topo.n
    _o, h0, _events = run_classical(topo, cons.zeros.program, [0] * n)
    # equal CostReports carry equal rounds, qubits, bits and per_round
    assert run_cached(cons, topo, rz) == ((oracle_consistency(rz),) * n, parallel(h0, h0))


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_derived_consistency_matches_its_program(name, n, topo):
    """The consistency test's program is two floods run side by side."""
    cons = consistency_from_all_zeros(all_zeros_flooding(n))
    for rz in itertools.product(MARKED_PAIRS, repeat=n):
        assert_answered_by_flood_runs(cons, topo, rz)
    # each half is a flood run: 2^n of them, and no engine run of its own
    assert len(cons.zeros.runs) == 2 ** n
    assert not cons.patterns


@settings(max_examples=30, deadline=None)
@given(shuffled_ports(max_n=4), st.data())
def test_derived_consistency_matches_its_program_on_random_ports(topo, data):
    cons = consistency_from_all_zeros(all_zeros_flooding(topo.n))
    inputs = st.tuples(*[st.sampled_from(MARKED_PAIRS)] * topo.n)
    for _ in range(6):
        assert_answered_by_flood_runs(cons, topo, data.draw(inputs))


def test_derived_consistency_keeps_the_flood_pattern_check():
    # a flood whose message length is its bit plus one
    def send(state, _r):
        bit, deg = state
        return {p: (bit,) * (bit + 1) for p in range(1, deg + 1)}

    prog = all_zeros_flooding(3).program
    leaky = ClassicalSubroutine(PartyProgram(
        rounds=prog.rounds, symbol_dim=prog.symbol_dim, init=prog.init,
        send=send, recv=prog.recv, finish=prog.finish, name="leaky_flood"))
    cons = consistency_from_all_zeros(leaky)
    topo = catalog("ring", 3)
    run_cached(cons, topo, ((0, 0), (1, 0), (0, 0)))
    with pytest.raises(SimulationError, match="input-dependent communication pattern"):
        run_cached(cons, topo, ((1, 1), (0, 0), (0, 0)))


def test_modular_sum_examples():
    out, _c, _t = run_classical(catalog("ring", 3), modular_sum_views(3, 3).program,
                                [1, 2, 0])
    assert out == [0, 0, 0]
    out, _c, _t = run_classical(catalog("ring", 4), modular_sum_views(2, 4).program,
                                [1, 1, 0, 0])
    assert out == [0, 0, 0, 0]
    out, _c, _t = run_classical(catalog("complete", 4), modular_sum_views(5, 4).program,
                                [4, 4, 4, 4])
    assert out == [1, 1, 1, 1]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_modular_sum_matches_oracle(k, name, n, topo):
    sub = modular_sum_views(k, n)
    for x in itertools.product(range(k), repeat=n):
        out, _c, _t = run_classical(topo, sub.program, list(x))
        assert out == [oracle_modular_sum(x, k)] * n


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=5), st.integers(min_value=2, max_value=3), st.data())
def test_modular_sum_random_graphs(topo, k, data):
    x = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           min_size=topo.n, max_size=topo.n))
    sub = modular_sum_views(k, topo.n)
    out, _c, _t = run_classical(topo, sub.program, x)
    assert out == [sum(x) % k] * topo.n


@settings(max_examples=60, deadline=None)
@given(shuffled_ports(max_n=4), st.integers(min_value=2, max_value=3), st.data())
def test_random_port_numberings(topo, k, data):
    n = topo.n
    x = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           min_size=n, max_size=n))
    marks = data.draw(st.lists(st.integers(min_value=0, max_value=1),
                               min_size=n, max_size=n))
    sums = modular_sum_views(k, n)
    out, _c, _t = run_classical(topo, sums.program, x)
    assert out == [oracle_modular_sum(x, k)] * n
    bits = [s % 2 for s in x]
    zeros = all_zeros_flooding(n)
    cons = consistency_from_all_zeros(zeros)
    rz = tuple(zip(bits, marks))
    assert run_cached(cons, topo, rz)[0] == (oracle_consistency(rz),) * n
    for aut in automorphisms(topo):
        assert verify_anonymity(topo, zeros.program, bits, aut)
        assert cached_run_equivariant(cons, topo, rz, aut)
        assert verify_anonymity(topo, sums.program, x, aut)


def test_modular_sum_single_party():
    topo = build_graph(1, [])
    sub = modular_sum_views(3, 1)
    out, cost, _t = run_classical(topo, sub.program, [2])
    assert out == [2]
    assert cost.rounds == 0 and cost.qubits_sent == 0


def test_modular_sum_needs_a_party():
    with pytest.raises(ValueError, match="party count"):
        modular_sum_views(2, 0)


def test_view_depth_zero():
    topo = catalog("ring", 4)
    v = view(topo, 1, 0, inputs=[5, 6, 7, 8])
    assert v.label == 6 and v.degree == 2 and v.children == ()


def test_views_of_symmetric_ring_coincide():
    topo = catalog("ring", 4)
    table = ViewTable(topo.n)
    views = [view(topo, p, 3, inputs=[1, 1, 1, 1], table=table) for p in range(4)]
    assert len({id(v) for v in views}) == 1  # interning makes equality identity


def test_view_k2_alternates():
    topo = catalog("complete", 2)
    v = view(topo, 0, 2, inputs=[3, 4])
    assert serialize_view(v) == (3, 1, 1, 4, 1, 1, 3, 1)
    assert v.depth == 2


def test_view_labels_break_symmetry():
    topo = catalog("ring", 4)
    table = ViewTable(topo.n)
    views = [view(topo, p, 3, inputs=[1, 0, 0, 0], table=table) for p in range(4)]
    assert len({id(v) for v in views}) == 4


def test_distinct_truncated_views_counts_classes():
    topo = catalog("ring", 4)
    table = ViewTable(topo.n)
    root = view(topo, 0, 6, inputs=[1, 0, 1, 0], table=table)
    classes = distinct_truncated_views(root, 3)
    assert len(classes) == 2  # opposite nodes are indistinguishable
    root = view(topo, 0, 6, inputs=[1, 0, 0, 0], table=table)
    assert len(distinct_truncated_views(root, 3)) == 4


def _check_truncations(topo, inputs):
    """``shorter`` and ``depth`` against views built level by level, and the
    class count against serializations built each in a fresh table."""
    n = topo.n
    table = ViewTable(n)
    for p in range(n):
        for d in range(1, 2 * (n - 1) + 1):
            v = view(topo, p, d, inputs, table=table)
            assert v.depth == d
            assert v.shorter is view(topo, p, d - 1, inputs, table=table)
    reference = {serialize_view(view(topo, p, n - 1, inputs)) for p in range(n)}
    for p in range(n):
        classes = distinct_truncated_views(view(topo, p, 2 * (n - 1), inputs, table=table), n - 1)
        assert len(classes) == len(reference)
        assert {serialize_view(w) for w in classes} == reference


@settings(max_examples=40, deadline=None)
@given(st.one_of(connected_graphs(max_n=5), shuffled_ports(max_n=5)), st.data())
def test_truncation_pointers_match_a_reference_on_random_graphs(topo, data):
    inputs = data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                min_size=topo.n, max_size=topo.n))
    _check_truncations(topo, inputs)


@pytest.mark.parametrize("name,n,topo", CASES_5, ids=case_ids(CASES_5))
def test_truncation_pointers_match_a_reference_on_catalog_graphs(name, n, topo):
    for inputs in ([0] * n, [1] + [0] * (n - 1), [p % 2 for p in range(n)]):
        _check_truncations(topo, inputs)


def test_view_children_of_unequal_depths_raise():
    table = ViewTable(3)
    leaf = table.node(0, 1, ())
    stem = table.node(0, 1, ((1, leaf),))
    with pytest.raises(ValueError, match="equal depths"):
        table.node(0, 2, ((1, leaf), (1, stem)))


def test_two_threads_share_one_modular_sum():
    topo = catalog("ring", 4)
    inputs = all_bit_vectors(4)
    serial = [run_cached(modular_sum_views(2, 4), topo, x) for x in inputs]
    shared = modular_sum_views(2, 4)
    for outputs in in_two_threads(
            lambda: [run_cached(shared, topo, x) for x in inputs]):
        assert outputs == serial


def _payload_views(events):
    return [payload[1] for *_pattern, payload in events]   # payloads are (port, view)


def test_view_tables_are_per_subroutine():
    topo = catalog("ring", 4)
    x = [1, 0, 0, 1]
    one, two = modular_sum_views(2, 4), modular_sum_views(2, 4)
    _o, _c, events_one = run_classical(topo, one.program, x)
    _o, _c, events_two = run_classical(topo, two.program, x)
    views_one, views_two = _payload_views(events_one), _payload_views(events_two)
    assert views_one and views_two
    assert not {id(v) for v in views_one} & {id(v) for v in views_two}
    # a second run of one subroutine reuses its table: equal views are one
    # object, which is what lets verify_anonymity compare payloads
    _o, _c, events_again = run_classical(topo, one.program, x)
    assert [id(v) for v in _payload_views(events_again)] == [id(v) for v in views_one]


def test_view_message_sizes_are_label_independent():
    topo = catalog("star", 4)
    sub = modular_sum_views(2, 4)
    sizes = set()
    for x in all_bit_vectors(4):
        _o, cost, _t = run_classical(topo, sub.program, list(x))
        sizes.add(cost.qubits_sent)
    assert len(sizes) == 1


def drive_by_hand(topo, program, inputs):
    """Run a program's hooks round by round without the engine or its checks."""
    states = [program.init(x, topo.degree(v)) for v, x in enumerate(inputs)]
    for r in range(program.rounds):
        inboxes = [{} for _ in states]
        for v, state in enumerate(states):
            for port, msg in program.send(state, r).items():
                u, q = topo.link(v, port)
                inboxes[u][q] = msg.payload
        states = [program.recv(state, inbox, r) for state, inbox in zip(states, inboxes)]
    return [program.finish(state) for state in states]


def test_class_count_divides_party_count_guard():
    # the engine refuses a sum built for another party count
    topo = catalog("ring", 4)
    sub = modular_sum_views(2, 3)
    with pytest.raises(ValueError, match=r"modular_sum\[2,3\] was built for 3 parties, not 4"):
        run_classical(topo, sub.program, [1, 0, 0, 0])
    # no graph of the right size can fail the divisibility check, so reach it
    # by running the hooks of the 3-party sum on four parties by hand
    with pytest.raises(SimulationError, match="view classes do not divide the party count"):
        drive_by_hand(topo, sub.program, [1, 0, 0, 0])


def test_run_memo_keys_on_topology_and_program():
    flood = all_zeros_flooding(3)
    path = catalog("path", 3)
    _o, path_cost = run_cached(flood, path, (0, 0, 0))
    assert path_cost.qubits_sent == 12
    # one instance on a second topology runs again instead of reusing path-3
    _o, complete_cost = run_cached(flood, catalog("complete", 3), (0, 0, 0))
    assert complete_cost.qubits_sent == 18
    _o, again = run_cached(flood, path, (0, 0, 0))
    assert again is path_cost
    # programs that share a name but not a finish keep separate memos
    prog = flood.program
    negated = PartyProgram(rounds=prog.rounds, symbol_dim=prog.symbol_dim,
                           init=prog.init, send=prog.send, recv=prog.recv,
                           finish=lambda state: 1 - prog.finish(state),
                           name=prog.name)
    other = ClassicalSubroutine(negated)
    assert other.name == flood.name
    assert run_cached(flood, path, (0, 0, 0))[0] == (1, 1, 1)
    assert run_cached(other, path, (0, 0, 0))[0] == (0, 0, 0)
