"""The view-exchange message format: tree serialization or folded view.

Every message of a mod-k sum is re-encoded here from its payload, checked
against the size the sender declared, and decoded again the way a receiver
would, knowing only the symbols, the party count and the sender's view of
the round before.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonqnet.ghz import ghz_share
from anonqnet.runtime import run_classical
from anonqnet.subroutines import (View, ViewTable, fold_view, modular_sum_views,
                                  run_row, serialize_view, view)
from anonqnet.topology import catalog

from conftest import catalog_cases, case_ids, connected_graphs, shuffled_ports

CASES_6 = catalog_cases(2, 6)

# serializations are compared literally up to this length, beyond it by id
# in a shared hash-consing table
SERIALIZE_LIMIT = 20_000


def tree_widths(v, extra_level=False):
    """Tree nodes per level of ``v``, counted by walking its DAG.

    With ``extra_level`` the list gains the width of the view one level
    deeper, which the degrees on the last level fix.
    """
    counts, widths = {v: 1}, []
    while True:
        widths.append(sum(counts.values()))
        below = {}
        for node, c in counts.items():
            for _q, child in node.children:
                below[child] = below.get(child, 0) + c
        if not below:
            break
        counts = below
    if extra_level:
        widths.append(sum(node.degree * c for node, c in counts.items()))
    return widths


def encode(port, v, n):
    """The symbols of one message: entry port, then the shorter encoding."""
    tree_length = 3 * sum(tree_widths(v)) - 1
    folded = fold_view(v, n)
    if len(folded) < tree_length:
        return (port, *folded), True
    return (port, *serialize_view(v)), False


def decode(symbols, prev, n, table):
    """``(port, view)`` from a message's symbols, built in ``table``.

    ``prev`` is the sender's view of the round before (``None`` in the first
    round); its shape fixes the shape of the view sent, hence both lengths,
    so the format needs no header.
    """
    widths = [1] if prev is None else tree_widths(prev, extra_level=True)
    depth = len(widths) - 1
    tree_length = 3 * sum(widths) - 1
    folded_length = 2 * n * sum(min(n, w) for w in widths)
    port, body = symbols[0], symbols[1:]
    if folded_length < tree_length:
        assert len(body) == folded_length
        slots, pos = [], 0
        for w in widths:
            level = []
            for _ in range(min(n, w)):
                level.append(body[pos:pos + 2 * n])
                pos += 2 * n
            slots.append(level)
        built = {}

        def build(j, i):
            if (j, i) not in built:
                label, degree, *pairs = slots[j][i]
                used = 0 if j == depth else 2 * degree
                assert not any(pairs[used:]), "padding must be zeros"
                children = tuple((pairs[2 * p], build(j + 1, pairs[2 * p + 1]))
                                 for p in range(used // 2))
                built[j, i] = table.node(label, degree, children)
            return built[j, i]

        return port, build(0, 0)
    assert len(body) == tree_length
    it = iter(body)

    def parse(d):
        label, degree = next(it), next(it)
        children = () if d == depth else tuple((next(it), parse(d + 1))
                                               for _ in range(degree))
        return table.node(label, degree, children)

    v = parse(0)
    assert next(it, None) is None
    return port, v


def copy_into(v, table, memo):
    """``v`` rebuilt in ``table``; equal views land on one id there."""
    hit = memo.get(v)
    if hit is None:
        hit = memo[v] = table.node(v.label, v.degree, tuple(
            (q, copy_into(c, table, memo)) for q, c in v.children))
    return hit


def check_messages(topo, k, inputs):
    """Every message of one mod-k run: declared size, encoding, decoding.

    Returns the run's pattern and how many messages went folded.
    """
    n = topo.n
    sub = modular_sum_views(k, n)
    _out, _cost, events = run_classical(topo, sub.program, [inputs])
    table, memo = ViewTable(n), {}
    prev = {}
    folded_count = 0
    for r, sender, receiver, size, payload in events:
        # one row, whose payload is (entry port, view id in the sender's table)
        ((port, sent),) = payload.tolist()
        v = View(sub.views, sent)
        symbols, folded = encode(port, v, n)
        folded_count += folded
        assert len(symbols) == size
        if folded:
            assert len(fold_view(v, n)) == size - 1
        assert max(symbols) < max(k, n)
        got_port, got = decode(symbols, prev.get((sender, receiver)), n, table)
        assert got_port == port
        assert got == copy_into(v, table, memo)
        if 3 * sum(v.shape.widths) - 1 <= SERIALIZE_LIMIT:
            assert serialize_view(got) == serialize_view(v)
        prev[sender, receiver] = v
        assert v.depth == r - 1
    return tuple(ev[:4] for ev in events), folded_count


@pytest.mark.parametrize("name,n,topo", CASES_6, ids=case_ids(CASES_6))
def test_messages_round_trip_on_catalog_graphs(name, n, topo):
    label_vectors = ([0] * n, [1] + [0] * (n - 1), [p % 3 for p in range(n)],
                     [2 - p % 3 for p in range(n)])
    patterns = {check_messages(topo, 3, x) for x in label_vectors}
    assert len(patterns) == 1, "message sizes depend on the labels"
    ((_pattern, folded),) = patterns
    # folding pays from n = 4 on (paths: n = 5), never on three parties
    assert (folded > 0) == (n >= (5 if name == "path" else 4))
    sub = modular_sum_views(3, n)
    for x in label_vectors:
        run_row(sub, topo, tuple(x))


@settings(max_examples=40, deadline=None)
@given(st.one_of(connected_graphs(max_n=5), shuffled_ports(max_n=5)), st.data())
def test_messages_round_trip_on_random_graphs(topo, data):
    n = topo.n
    labels = st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)
    one, two = data.draw(labels), data.draw(labels)
    assert check_messages(topo, 3, one) == check_messages(topo, 3, two)
    sub = modular_sum_views(3, n)
    run_row(sub, topo, tuple(one))
    run_row(sub, topo, tuple(two))


def test_fold_view_lists_each_distinct_node_once():
    # on a symmetric ring with equal labels every level is one distinct node
    topo = catalog("ring", 5)
    v = view(topo, 0, 4, inputs=[1] * 5)
    symbols = fold_view(v, 5)
    assert v.shape.widths == (1, 2, 4, 8, 16)
    assert len(symbols) == 10 * (1 + 2 + 4 + 5 + 5)
    # root: label 1, degree 2, ports 1 and 2 lead to child 0 through its
    # ports 2 and 1, then two empty pairs; then one padding slot of zeros
    assert symbols[:10] == (1, 2, 2, 0, 1, 0, 0, 0, 0, 0)
    assert symbols[10:20] == (1, 2, 2, 0, 1, 0, 0, 0, 0, 0)
    assert not any(symbols[20:30])


def test_fold_view_refuses_a_party_count_too_small():
    # three steps from a node of ring-7 lie four parties
    v = view(catalog("ring", 7), 0, 3, inputs=list(range(7)))
    assert len(fold_view(v, 7)) == 2 * 7 * (1 + 2 + 4 + 7)
    with pytest.raises(ValueError, match="more than 3 distinct nodes"):
        fold_view(v, 3)
    with pytest.raises(ValueError, match="degree 3 above"):
        fold_view(view(catalog("star", 4), 0, 1), 3)


def test_ghz_metered_qubits():
    # k=2 on rings n=3..6 and on complete-5; the tree metering gave 936,
    # 5,760, 30,120, 146,592 and 3,494,880 qubits.  Symbols take
    # ceil(log2 max(k, n)) bits: 2 for n = 3, 4 and 3 for n = 5, 6
    costs = [ghz_share(catalog("ring", n), 2, all_branches=True).cost for n in (3, 4, 5, 6)]
    assert [c.qubits_sent for c in costs] == [936, 5_184, 19_040, 54_816]
    assert [c.bits_sent for c in costs] == [1_872, 10_368, 57_120, 164_448]
    cost = ghz_share(catalog("complete", 5), 2, all_branches=True).cost
    assert (cost.qubits_sent, cost.bits_sent) == (53_440, 160_320)
