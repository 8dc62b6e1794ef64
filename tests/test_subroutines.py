import gc
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet import subroutines
from anonqnet.errors import SimulationError
from anonqnet.runtime import (PartyProgram, SizedMessage, parallel, run_classical,
                              verify_anonymity)
from anonqnet.subroutines import (ClassicalSubroutine, View, ViewTable,
                                  all_zeros_flooding, consistency_from_all_zeros,
                                  distinct_truncated_views, modular_sum_views,
                                  run_cached, run_row, serialize_view, view)
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
    out, _c, _t = run_classical(topo, sub.program, [[0, 0, 0, 0]])
    assert out.tolist() == [[1, 1, 1, 1]]
    out, _c, _t = run_classical(topo, sub.program, [[0, 1, 0, 0]])
    assert out.tolist() == [[0, 0, 0, 0]]


def test_flooding_reaches_far_end_in_diameter_rounds():
    topo = catalog("path", 5)
    sub = all_zeros_flooding(4)  # exactly the diameter
    out, cost, _t = run_classical(topo, sub.program, [[1, 0, 0, 0, 0]])
    assert out.tolist() == [[0, 0, 0, 0, 0]]
    assert cost.rounds == 4
    # one round fewer and the far end still thinks everything is zero
    short = all_zeros_flooding(3)
    out, _c, _t = run_classical(topo, short.program, [[1, 0, 0, 0, 0]])
    assert out[0, 4] == 1 and out[0, 0] == 0


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_flooding_matches_oracle(name, n, topo):
    sub = all_zeros_flooding(n)
    xs = all_bit_vectors(n)
    out, _c, _t = run_classical(topo, sub.program, xs)
    assert out.tolist() == [[oracle_all_zeros(x)] * n for x in xs]


def test_consistency_examples():
    topo = catalog("ring", 3)
    sub = consistency_from_all_zeros(all_zeros_flooding(3))
    out, _c = run_row(sub, topo, ((1, 1), (1, 1), (1, 1)))
    assert out == (1, 1, 1)
    out, _c = run_row(sub, topo, ((1, 1), (0, 1), (1, 1)))
    assert out == (0, 0, 0)
    # nobody marked: vacuously consistent whatever the bits
    out, _c = run_row(sub, topo, ((1, 0), (0, 0), (1, 0)))
    assert out == (1, 1, 1)
    assert sub.name == "consistency[3]" and sub.program is None


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_consistency_matches_oracle(name, n, topo):
    sub = consistency_from_all_zeros(all_zeros_flooding(n))
    for rz in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=n):
        out, _c = run_row(sub, topo, rz)
        assert out == (oracle_consistency(rz),) * n


def test_consistency_cost_exactly_doubles_flooding():
    for _name, n, topo in CASES_4:
        zeros = all_zeros_flooding(n)
        cons = consistency_from_all_zeros(zeros)
        _o, zc, _t = run_classical(topo, zeros.program, [[0] * n])
        _o, cc = run_row(cons, topo, ((0, 1),) * n)
        assert cc.rounds == zc.rounds
        assert cc.qubits_sent == 2 * zc.qubits_sent
        assert cc.bits_sent == 2 * zc.bits_sent
        assert cc.per_round == tuple(2 * q for q in zc.per_round)


MARKED_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def assert_answered_by_flood_runs(cons, topo, rz):
    n = topo.n
    _o, h0, _events = run_classical(topo, cons.zeros.program, [[0] * n])
    # equal CostReports carry equal rounds, qubits, bits and per_round
    assert run_row(cons, topo, rz) == ((oracle_consistency(rz),) * n, parallel(h0, h0))


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_derived_consistency_matches_its_program(name, n, topo):
    """The consistency test's program is two floods run side by side."""
    cons = consistency_from_all_zeros(all_zeros_flooding(n))
    for rz in itertools.product(MARKED_PAIRS, repeat=n):
        assert_answered_by_flood_runs(cons, topo, rz)
    # each half is a flood run: 2^n rows in the flood's table, and no rows
    # or pattern of its own
    ((_topo, codes, outputs),) = cons.zeros.runs.values()
    assert len(codes) == len(outputs) == 2 ** n
    assert not cons.runs and not cons.patterns


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
        bits, ports = state
        return {p: SizedMessage(bits[rows], bits[rows, 0] + 1) for p, rows in enumerate(ports, 1)}

    prog = all_zeros_flooding(3).program
    leaky = ClassicalSubroutine(PartyProgram(
        rounds=prog.rounds, symbol_dim=prog.symbol_dim, init=prog.init,
        send=send, recv=prog.recv, finish=prog.finish, name="leaky_flood"))
    cons = consistency_from_all_zeros(leaky)
    topo = catalog("ring", 3)
    run_row(cons, topo, ((0, 0), (1, 0), (0, 0)))
    with pytest.raises(SimulationError, match="input-dependent communication pattern"):
        run_row(cons, topo, ((1, 1), (0, 0), (0, 0)))


@settings(max_examples=25, deadline=None)
@given(shuffled_ports(max_n=4), st.data())
def test_a_table_is_answered_as_its_rows_run_alone(topo, data):
    """Shuffled, repeated rows, half of them memoized by an earlier table."""
    n = topo.n
    for sub in (all_zeros_flooding(n), modular_sum_views(3, n)):
        row = st.tuples(*[st.integers(0, sub.input_dims[0] - 1)] * n)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        rows = rows + data.draw(st.permutations(rows))
        run_cached(sub, topo, rows[:len(rows) // 2])
        outputs, cost = run_cached(sub, topo, rows)
        assert outputs.shape == (len(rows), n)
        for x, out in zip(rows, outputs.tolist()):
            expected, expected_cost, _events = run_classical(topo, sub.program, [x])
            assert out == expected[0].tolist() and cost == expected_cost


@pytest.mark.parametrize("sub,inputs", [
    (all_zeros_flooding(3), (0, 0, 2)),
    (all_zeros_flooding(3), (0, -1, 0)),
    (modular_sum_views(3, 3), (0, 3, 0)),
    (consistency_from_all_zeros(all_zeros_flooding(3)), ((0, 1), (1, 2), (0, 0))),
], ids=["flood-two", "flood-negative", "sum-modulus", "consistency-mark"])
def test_an_input_outside_the_alphabet_is_refused(sub, inputs):
    with pytest.raises(ValueError, match="outside"):
        run_row(sub, catalog("ring", 3), inputs)
    assert not sub.runs and not sub.patterns


@pytest.mark.parametrize("sub,inputs,value", [
    (all_zeros_flooding(3), (0.5, 0, 0), "0.5"),
    (modular_sum_views(3, 3), (1.7, 0, 0), "1.7"),
    (modular_sum_views(3, 3), (0, 1, "2"), "2"),
], ids=["flood-half", "sum-fraction", "sum-string"])
def test_a_non_integer_input_is_refused_not_truncated(sub, inputs, value):
    # a cast to int64 would read 0.5 as 0 and 1.7 as 1
    topo = catalog("ring", 3)
    message = f"^input {value} is not an integer$"
    with pytest.raises(ValueError, match=message):
        run_row(sub, topo, inputs)
    with pytest.raises(ValueError, match=message):
        run_cached(sub, topo, [(0, 0, 0), inputs])
    with pytest.raises(ValueError, match=message):
        run_classical(topo, sub.program, [inputs])
    assert not sub.runs and not sub.patterns


def test_modular_sum_examples():
    out, _c, _t = run_classical(catalog("ring", 3), modular_sum_views(3, 3).program,
                                [[1, 2, 0]])
    assert out.tolist() == [[0, 0, 0]]
    out, _c, _t = run_classical(catalog("ring", 4), modular_sum_views(2, 4).program,
                                [[1, 1, 0, 0]])
    assert out.tolist() == [[0, 0, 0, 0]]
    out, _c, _t = run_classical(catalog("complete", 4), modular_sum_views(5, 4).program,
                                [[4, 4, 4, 4]])
    assert out.tolist() == [[1, 1, 1, 1]]


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_modular_sum_matches_oracle(k, name, n, topo):
    sub = modular_sum_views(k, n)
    xs = list(itertools.product(range(k), repeat=n))
    out, _c, _t = run_classical(topo, sub.program, xs)
    assert out.tolist() == [[oracle_modular_sum(x, k)] * n for x in xs]


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=5), st.integers(min_value=2, max_value=3), st.data())
def test_modular_sum_random_graphs(topo, k, data):
    x = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           min_size=topo.n, max_size=topo.n))
    sub = modular_sum_views(k, topo.n)
    out, _c, _t = run_classical(topo, sub.program, [x])
    assert out.tolist() == [[sum(x) % k] * topo.n]


@settings(max_examples=60, deadline=None)
@given(shuffled_ports(max_n=4), st.integers(min_value=2, max_value=3), st.data())
def test_random_port_numberings(topo, k, data):
    n = topo.n
    x = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                           min_size=n, max_size=n))
    marks = data.draw(st.lists(st.integers(min_value=0, max_value=1),
                               min_size=n, max_size=n))
    sums = modular_sum_views(k, n)
    out, _c, _t = run_classical(topo, sums.program, [x])
    assert out.tolist() == [[oracle_modular_sum(x, k)] * n]
    bits = [s % 2 for s in x]
    zeros = all_zeros_flooding(n)
    cons = consistency_from_all_zeros(zeros)
    rz = tuple(zip(bits, marks))
    assert run_row(cons, topo, rz)[0] == (oracle_consistency(rz),) * n
    for aut in automorphisms(topo):
        assert verify_anonymity(topo, zeros.program, [bits], aut)
        assert cached_run_equivariant(cons, topo, [rz], aut)
        assert verify_anonymity(topo, sums.program, [x], aut)


def test_modular_sum_single_party():
    topo = build_graph(1, [])
    sub = modular_sum_views(3, 1)
    out, cost, _t = run_classical(topo, sub.program, [[2]])
    assert out.tolist() == [[2]]
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
    assert len({v.id for v in views}) == 1  # interning gives equal views one id


def test_view_k2_alternates():
    topo = catalog("complete", 2)
    v = view(topo, 0, 2, inputs=[3, 4])
    assert serialize_view(v) == (3, 1, 1, 4, 1, 1, 3, 1)
    assert v.depth == 2


def test_view_labels_break_symmetry():
    topo = catalog("ring", 4)
    table = ViewTable(topo.n)
    views = [view(topo, p, 3, inputs=[1, 0, 0, 0], table=table) for p in range(4)]
    assert len({v.id for v in views}) == 4


def test_distinct_truncated_views_counts_classes():
    topo = catalog("ring", 4)
    table = ViewTable(topo.n)
    root = view(topo, 0, 6, inputs=[1, 0, 1, 0], table=table)
    rows, classes = distinct_truncated_views(table, [root.id], 3)
    assert len(classes) == 2  # opposite nodes are indistinguishable
    other = view(topo, 0, 6, inputs=[1, 0, 0, 0], table=table)
    rows, classes = distinct_truncated_views(table, [other.id, root.id], 3)
    assert rows.tolist() == [0, 0, 0, 0, 1, 1]
    # a root shallower than the radius: the walk stops at the leaves
    shallow = view(topo, 0, 1, inputs=[1, 0, 1, 0], table=table)
    rows, classes = distinct_truncated_views(table, [shallow.id], 3)
    assert sorted(classes.tolist()) == sorted({shallow.id, shallow.children[0][1].id})


def one_root_classes(root, radius):
    """Serializations of the nodes within ``radius`` steps of one root, cut to depth ``radius``."""
    found, level = set(), {root}
    for _j in range(radius + 1):
        for node in level:
            while node.depth > radius:
                node = node.shorter
            found.add(serialize_view(node))
        level = {c for node in level for _q, c in node.children}
    return found


@settings(max_examples=30, deadline=None)
@given(st.one_of(connected_graphs(max_n=5), shuffled_ports(max_n=5)), st.data())
def test_the_column_class_walk_matches_one_root_walks(topo, data):
    """Per row: the class set and label sum of the column walk, against one walk per root."""
    n = topo.n
    labels = st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    label_rows = data.draw(st.lists(labels, min_size=1, max_size=3))
    table = ViewTable(n)
    roots = [(x, p) for x in label_rows for p in range(n)]
    rows, classes = distinct_truncated_views(
        table, [view(topo, p, 2 * (n - 1), x, table=table).id for x, p in roots], n - 1)
    assert (np.diff(rows) >= 0).all()
    for r, (x, p) in enumerate(roots):
        mine = classes[rows == r].tolist()
        # each root walked alone, in a table of its own
        expected = one_root_classes(view(topo, p, 2 * (n - 1), x), n - 1)
        assert {serialize_view(View(table, i)) for i in mine} == expected
        assert len(mine) == len(expected)
        assert int(table.label[mine].sum()) == sum(w[0] for w in expected)


def _check_truncations(topo, inputs):
    """``shorter`` and ``depth`` against views built level by level, and the
    class count against serializations built each in a fresh table."""
    n = topo.n
    table = ViewTable(n)
    for p in range(n):
        for d in range(1, 2 * (n - 1) + 1):
            v = view(topo, p, d, inputs, table=table)
            assert v.depth == d
            # one table gives a view and its truncation one id each
            assert v.shorter.id == view(topo, p, d - 1, inputs, table=table).id
    reference = {serialize_view(view(topo, p, n - 1, inputs)) for p in range(n)}
    rows, classes = distinct_truncated_views(
        table, [view(topo, p, 2 * (n - 1), inputs, table=table).id for p in range(n)], n - 1)
    for p in range(n):
        mine = classes[rows == p].tolist()
        assert len(mine) == len(reference)
        assert {serialize_view(View(table, i)) for i in mine} == reference


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


def test_a_view_with_children_other_than_its_degree_raises():
    table = ViewTable(3)
    leaf = table.node(0, 1, ())
    two = table.node(0, 2, ())
    message = "^a view of degree 2 needs 2 children, not 1$"
    with pytest.raises(ValueError, match=message):
        table.node(0, 2, ((1, leaf),))
    with pytest.raises(ValueError, match=message):
        table.intern([0], 2, [np.array([[1, leaf.id]])], [two.id])
    with pytest.raises(ValueError, match="^a view of degree 1 needs 1 children, not 2$"):
        table.intern([0], 1, [np.array([[1, leaf.id]])] * 2, [leaf.id])
    assert table.count == 2


def test_a_forged_previous_view_raises():
    """A view's truncation is checked against the row, whether the row is new or interned."""
    topo = catalog("ring", 4)
    x = [1, 0, 0, 0]
    table = ViewTable(4)
    honest = view(topo, 1, 2, x, table=table)
    pairs = [np.array([[q, c.id]]) for q, c in honest.children]
    assert table.intern([0], 2, pairs, [honest.shorter.id]).tolist() == [honest.id]
    forged = {
        "another label": view(topo, 0, 1, x, table=table),
        "another depth": view(topo, 1, 0, x, table=table),
        "other children": view(topo, 2, 1, x, table=table),   # label 0, degree 2, depth 1
        "the view itself": honest,
    }
    for prev in forged.values():
        with pytest.raises(ValueError, match="is not the view of row 0 cut one level shorter"):
            table.intern([0], 2, pairs, [prev.id])
    # an honest row, then a new one: the same children with the ports swapped
    swapped = [np.array([[q, c.id]]) for q, c in reversed(honest.children)]
    with pytest.raises(ValueError, match="is not the view of row 1 cut one level shorter"):
        table.intern([0, 0], 2, [np.concatenate(p) for p in zip(pairs, swapped)],
                     [honest.shorter.id, honest.shorter.id])
    with pytest.raises(ValueError, match="an id outside the"):
        table.intern([0], 2, pairs, [table.count])


def test_two_threads_share_one_modular_sum():
    topo = catalog("ring", 4)
    inputs = all_bit_vectors(4)
    serial = [run_row(modular_sum_views(2, 4), topo, x) for x in inputs]
    shared = modular_sum_views(2, 4)
    for outputs in in_two_threads(
            lambda: [run_row(shared, topo, x) for x in inputs]):
        assert outputs == serial
    # a lost or doubled intern would leave another number of views behind
    alone = modular_sum_views(2, 4)
    for x in inputs:
        run_row(alone, topo, x)
    assert shared.views.count == alone.views.count


def test_two_threads_share_one_modular_sum_on_a_star():
    # a star's views have two degrees, so every round interns a mixed batch
    topo = catalog("star", 5)
    inputs = all_bit_vectors(5)
    serial = [run_row(modular_sum_views(2, 5), topo, x) for x in inputs]
    shared = modular_sum_views(2, 5)
    for outputs in in_two_threads(
            lambda: [run_row(shared, topo, x) for x in inputs]):
        assert outputs == serial
    alone = modular_sum_views(2, 5)
    for x in inputs:
        run_row(alone, topo, x)
    assert shared.views.count == alone.views.count


def test_a_refused_intern_leaves_the_table_as_it_was():
    table = ViewTable(4)
    leaves = table.intern([0, 1], 2)
    pairs = [np.array([[1, leaves[0]], [1, leaves[0]]]), np.array([[2, leaves[0]]] * 2)]
    message = ("^rows of unequal counts: 2 labels, 2 children on port 1, "
               "2 children on port 2, 1 previous views$")
    with pytest.raises(ValueError, match=message):
        table.intern([0, 0], 2, pairs, [leaves[0]])
    with pytest.raises(ValueError, match="^rows of unequal counts: 2 labels, 3 degrees$"):
        table.intern([0, 1], [2, 2, 2])
    assert table.count == len(table._ids) == 2
    # the next new view takes the next id, with its entries written
    (one,) = table.intern([0], 2, [p[:1] for p in pairs], [leaves[0]]).tolist()
    assert one == 2 and table.count == len(table._ids) == 3
    assert serialize_view(View(table, one)) == (0, 2, 1, 0, 2, 2, 0, 2)
    assert View(table, one).shorter == View(table, leaves[0])


def test_rows_of_several_degrees_intern_in_one_batch():
    """A degree column: each row as its own call would intern it; padding must be zeros."""
    table, alone = ViewTable(4), ViewTable(4)
    leaves = table.intern([0, 1], [1, 3])
    assert alone.intern([0], 1).tolist() + alone.intern([1], 3).tolist() == leaves.tolist()
    a, b = leaves.tolist()
    pairs = [np.array([[1, b], [1, a]]), np.array([[0, 0], [2, a]]), np.array([[0, 0], [3, a]])]
    ids = table.intern([0, 1], [1, 3], pairs, leaves)
    assert alone.intern([0], 1, [np.array([[1, b]])], [a]).tolist() == ids[:1].tolist()
    assert alone.intern([1], 3, [p[1:] for p in pairs], [b]).tolist() == ids[1:].tolist()
    assert table.node(0, 1, ((1, View(table, b)),)).id == ids[0]
    assert [tuple(v.shape.widths) for v in (View(table, i) for i in ids)] == [(1, 1), (1, 3)]
    for padding in ([[0, 0], [0, 1]], [[-1, 0], [0, 0]]):
        padded = [pairs[0]] + [np.array([pad, [p, a]]) for pad, p in zip(padding, (2, 3))]
        with pytest.raises(ValueError, match="^a view of degree 1 needs 1 children, not 2$"):
            table.intern([0, 1], [1, 3], padded, leaves)
    portless = [np.array([[0, b], [1, a]])] + pairs[1:]
    with pytest.raises(ValueError, match="^a view of degree 1 needs 1 children, not 0$"):
        table.intern([0, 1], [1, 3], portless, leaves)
    with pytest.raises(ValueError, match="^a view of degree 3 needs 3 children, not 2$"):
        table.intern([0, 1], [1, 3], pairs[:2], leaves)
    assert table.count == 4


def party_by_party(topo, k, rows, table):
    """``(payloads, outputs)`` of a mod-k view sum whose parties each intern their own rows.

    A reference run in ``table`` without the engine: one ``intern`` per
    party and round, in party order, and one class walk per party; the
    payloads are listed in the engine's send order.
    """
    n, x = topo.n, np.asarray(rows)
    ids = [table.intern(x[:, v], topo.degree(v)) for v in range(n)]
    payloads = []
    for _r in range(2 * (n - 1)):
        inboxes = [{} for _ in range(n)]
        for v in range(n):
            for p in range(1, topo.degree(v) + 1):
                u, q = topo.link(v, p)
                inboxes[u][q] = np.column_stack((np.full(len(x), p), ids[v]))
                payloads.append(inboxes[u][q].tolist())
        ids = [table.intern(x[:, v], topo.degree(v),
                            [inboxes[v][p] for p in range(1, topo.degree(v) + 1)], ids[v])
               for v in range(n)]
    outputs = []
    for v in range(n):
        found, classes = distinct_truncated_views(table, ids[v], n - 1)
        c = np.bincount(found, minlength=len(x))
        outputs.append((n // c) * np.add.reduceat(table.label[classes], np.cumsum(c) - c) % k)
    return payloads, np.array(outputs).T


def seeded_graph(seed):
    """A connected graph of 3 to 6 parties and shuffled ports, from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    topo = build_graph(n, sorted(edges))
    ports = []
    for table in topo.ports:
        perm = rng.sample(range(1, len(table) + 1), len(table))
        ports.append({e: perm[p - 1] for e, p in table.items()})
    return build_graph(n, sorted(edges), ports)


@pytest.mark.parametrize("topo", [catalog("star", 5), catalog("path", 6), catalog("ring", 5)]
                         + [seeded_graph(seed) for seed in range(6)],
                         ids=["star-5", "path-6", "ring-5"] + [f"seed-{s}" for s in range(6)])
def test_view_ids_match_party_by_party_interning(topo):
    n, k = topo.n, 3
    rng = random.Random(n)
    rows = [[rng.randrange(k) for _ in range(n)] for _ in range(5)] + [[1] * n, [1] * n]
    sub, reference = modular_sum_views(k, n), ViewTable(n)
    for table in (rows, rows[:2], rows[3:]):   # the second and third runs meet known views
        expected_payloads, expected_outputs = party_by_party(topo, k, table, reference)
        outputs, _cost, events = run_classical(topo, sub.program, table)
        assert [payload.tolist() for *_pattern, payload in events] == expected_payloads
        assert outputs.tolist() == expected_outputs.tolist()
        assert outputs.tolist() == [[sum(x) % k] * n for x in table]
        assert sub.views.count == reference.count


@pytest.mark.parametrize("name,n", [("ring", 4), ("star", 5), ("path", 6), ("complete", 4)])
def test_a_run_interns_once_per_round_and_walks_once(monkeypatch, name, n):
    calls = {"intern": 0, "walk": 0}
    intern, walk = ViewTable.intern, subroutines.distinct_truncated_views

    def counted_intern(*args, **kwargs):
        calls["intern"] += 1
        return intern(*args, **kwargs)

    def counted_walk(*args, **kwargs):
        calls["walk"] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(ViewTable, "intern", counted_intern)
    monkeypatch.setattr(subroutines, "distinct_truncated_views", counted_walk)
    outputs, _cost = run_row(modular_sum_views(2, n), catalog(name, n), (1,) + (0,) * (n - 1))
    assert outputs == (1,) * n
    # the leaves, then one batch per round, of every party's rows
    assert calls == {"intern": 2 * (n - 1) + 1, "walk": 1}


def test_a_view_sum_run_leaves_no_garbage_cycles():
    topo = catalog("star", 5)
    sub = modular_sum_views(3, 5)
    run_classical(topo, sub.program, [[1, 0, 2, 0, 1]])
    gc.collect()
    gc.disable()
    try:
        run_classical(topo, sub.program, [[1, 0, 2, 0, 1], [0, 0, 0, 0, 1]])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_refused_view_row_leaves_no_garbage_cycles():
    table = ViewTable(4)
    leaves = table.intern([0, 1], 2).tolist()
    pairs = [np.array([[1, leaves[0]]]), np.array([[2, leaves[0]]])]
    gc.collect()
    gc.disable()
    try:
        # the second row's previous view has another label
        for _ in range(2):
            with pytest.raises(ValueError, match="is not the view of row 1 cut one level shorter"):
                table.intern([0, 0], 2, [np.concatenate((p, p)) for p in pairs], leaves)
        assert table.intern([0], 2, pairs, [leaves[0]]).tolist() == [2]
        assert gc.collect() == 0
    finally:
        gc.enable()


def _payload_views(events):
    # one row, whose payloads are (port, view id)
    return [payload[0, 1] for *_pattern, payload in events]


def test_view_tables_are_per_subroutine():
    topo = catalog("ring", 4)
    x = [[1, 0, 0, 1]]
    one, two = modular_sum_views(2, 4), modular_sum_views(2, 4)
    _o, _c, events_one = run_classical(topo, one.program, x)
    size = one.views.count
    _o, _c, events_two = run_classical(topo, two.program, x)
    views_one, views_two = _payload_views(events_one), _payload_views(events_two)
    assert views_one and views_two
    # each subroutine interns in its own table: running one leaves the other's as it was
    assert one.views is not two.views and one.views.count == size == two.views.count
    # a second run of one subroutine reuses its table: equal views keep one
    # id, which is what lets verify_anonymity compare payloads
    _o, _c, events_again = run_classical(topo, one.program, x)
    assert _payload_views(events_again) == views_one
    assert one.views.count == size


def test_view_message_sizes_are_label_independent():
    topo = catalog("star", 4)
    sub = modular_sum_views(2, 4)
    sizes = set()
    for x in all_bit_vectors(4):
        _o, cost, _t = run_classical(topo, sub.program, [x])
        sizes.add(cost.qubits_sent)
    assert len(sizes) == 1


def drive_by_hand(topo, program, table, order=None):
    """Run a program's hooks on a stacked table, delivering by hand, without the engine.

    The parties' blocks of rows are stacked in ``order`` (party order by
    default), and so is the degree column; every round sends on every port.  Returns ``(sent, outputs)``:
    ``sent`` maps each (round, sender, port) to the sender's rows of the
    message, as a list, and ``outputs`` is the (rows, parties) output table.
    """
    table = np.asarray(table)
    rows, n = table.shape
    order = list(range(n)) if order is None else list(order)
    block = {v: b for b, v in enumerate(order)}
    degrees = np.repeat([topo.degree(v) for v in order], rows)
    state = program.init(table[:, order].T.reshape(-1), degrees)
    sent = {}
    for r in range(program.rounds):
        outbox = program.send(state, r)
        for p, msg in outbox.items():
            holders = [v for v in order if topo.degree(v) >= p]
            payload = msg.payload if isinstance(msg, SizedMessage) else msg
            for i, v in enumerate(holders):
                sent[r, v, p] = payload[i * rows:(i + 1) * rows].tolist()
        inbox = {}
        for q in outbox:
            # each party's block on port q is what its neighbour sent across the link
            holders = [u for u in order if topo.degree(u) >= q]
            inbox[q] = np.array([row for u in holders for row in sent[(r, *topo.link(u, q))]])
        state = program.recv(state, inbox, r)
    outputs = np.asarray(program.finish(state)).reshape(n, rows)
    return sent, outputs[[block[v] for v in range(n)]].T


@pytest.mark.parametrize("name,n,topo", CASES_4, ids=case_ids(CASES_4))
def test_hooks_see_no_party_index(name, n, topo):
    """Party blocks and the degree column stacked in another order give the
    same payloads and outputs, moved along with their parties."""
    order = random.Random(n).sample(range(n), n)
    port = {(v, topo.link(v, p)[0]): p for v in range(n) for p in range(1, topo.degree(v) + 1)}
    for sub in (all_zeros_flooding(n), modular_sum_views(2, n), modular_sum_views(3, n)):
        table = list(itertools.product(range(sub.input_dims[0]), repeat=n))
        # the engine's run comes first, so the view ids the others send are interned
        outputs, _cost, events = run_classical(topo, sub.program, table)
        sent, by_hand = drive_by_hand(topo, sub.program, table)
        assert sent == {(r - 1, v, port[v, u]): payload.tolist()
                        for r, v, u, _size, payload in events}
        assert by_hand.tolist() == outputs.tolist()
        moved_sent, moved = drive_by_hand(topo, sub.program, table, order)
        assert moved_sent == sent and moved.tolist() == by_hand.tolist()


def test_class_count_divides_party_count_guard():
    # the engine refuses a sum built for another party count
    topo = catalog("ring", 4)
    sub = modular_sum_views(2, 3)
    with pytest.raises(ValueError, match=r"modular_sum\[2,3\] was built for 3 parties, not 4"):
        run_classical(topo, sub.program, [[1, 0, 0, 0]])
    # no graph of the right size can fail the divisibility check, so reach it
    # by running the hooks of the 3-party sum on four parties by hand
    with pytest.raises(SimulationError, match="view classes do not divide the party count"):
        drive_by_hand(topo, sub.program, [[1, 0, 0, 0]])


def test_run_memo_keys_on_topology_and_program():
    flood = all_zeros_flooding(3)
    path = catalog("path", 3)
    _o, path_cost = run_row(flood, path, (0, 0, 0))
    assert path_cost.qubits_sent == 12
    # one instance on a second topology runs again instead of reusing path-3
    _o, complete_cost = run_row(flood, catalog("complete", 3), (0, 0, 0))
    assert complete_cost.qubits_sent == 18
    _o, again = run_row(flood, path, (0, 0, 0))
    assert again is path_cost
    # programs that share a name but not a finish keep separate memos
    prog = flood.program
    negated = PartyProgram(rounds=prog.rounds, symbol_dim=prog.symbol_dim,
                           init=prog.init, send=prog.send, recv=prog.recv,
                           finish=lambda state: 1 - prog.finish(state),
                           name=prog.name)
    other = ClassicalSubroutine(negated)
    assert other.name == flood.name
    assert run_row(flood, path, (0, 0, 0))[0] == (1, 1, 1)
    assert run_row(other, path, (0, 0, 0))[0] == (0, 0, 0)
