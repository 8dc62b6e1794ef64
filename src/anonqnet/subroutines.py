"""Reversible classical distributed subroutines used coherently.

All three subroutines here are deterministic, measurement-free, and have
input-oblivious communication patterns, which is what allows the quantum
layer to run them once per basis component of a superposed input.

Output encoding is integer symbols: predicates return 1 for "yes"
(all-zeros / consistent) and 0 for "no".

Each subroutine instance memoizes its own runs per topology object and
input vector (:func:`run_cached`); the memo lives as long as the instance
and is never shared with another.  A consistency test is answered from the
runs of its all-zeros flood, through the flood's own memo.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .errors import SimulationError
from .runtime import PartyProgram, SizedMessage, parallel, run_classical
from .topology import Topology

TRUE, FALSE = 1, 0


@dataclass(frozen=True)
class ClassicalSubroutine:
    """A party program plus the memo of its runs.

    ``runs`` and ``patterns`` belong to this instance and live as long as it
    does; see :func:`run_cached`.  ``zeros`` is set on a consistency test
    only: the all-zeros flood whose cached runs answer it.
    """

    program: PartyProgram
    runs: dict = field(default_factory=dict, compare=False, repr=False)
    patterns: dict = field(default_factory=dict, compare=False, repr=False)
    zeros: Optional["ClassicalSubroutine"] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.program.name


def run_cached(sub: ClassicalSubroutine, topology: Topology, inputs: tuple):
    """Run a subroutine, memoizing ``(outputs, cost)`` in ``sub.runs``.

    Coherent application needs a communication pattern (the ``(round, sender,
    receiver, symbols)`` part of each message event) that does not depend on
    the input, so a new run whose pattern differs from the first run's on the
    same topology, kept in ``sub.patterns``, raises ``SimulationError``;
    equal patterns give equal costs.  Results depend on the port numbering,
    so the keys hold the topology's identity; each ``runs`` entry keeps the
    topology alive, so its id is not reused.

    A consistency test (``sub.zeros`` set) is answered from its two flood
    runs, each cached and pattern-checked by the flood itself: a party
    reports consistent where either flood reports all-zeros, at the cost of
    both floods in parallel, which is what its own program computes and
    meters.
    """
    key = (id(topology), inputs)
    entry = sub.runs.get(key)
    if entry is None:
        if sub.zeros is not None:
            a, b = zip(*map(_flood_inputs, inputs))
            out_a, cost_a = run_cached(sub.zeros, topology, a)
            out_b, cost_b = run_cached(sub.zeros, topology, b)
            outputs = [TRUE if TRUE in pair else FALSE for pair in zip(out_a, out_b)]
            cost = parallel(cost_a, cost_b)
        else:
            outputs, cost, events = run_classical(topology, sub.program, inputs)
            pattern = tuple(ev[:4] for ev in events)
            # setdefault keeps one entry per key if two threads miss together
            if sub.patterns.setdefault(id(topology), pattern) != pattern:
                raise SimulationError(
                    f"subroutine {sub.name} has an input-dependent communication pattern"
                )
        entry = sub.runs.setdefault(key, (topology, (tuple(outputs), cost)))
    return entry[1]


# ---------------------------------------------------------------------------
# all-zeros test by OR-flooding


def all_zeros_flooding(delta: int) -> ClassicalSubroutine:
    """Every party ends up knowing whether every input bit is 0.

    Each round every party sends its accumulated OR on all ports and folds in
    whatever it receives; after ``delta`` rounds (``delta`` at least the graph
    diameter) the OR of all bits has reached everyone.  Exactly one bit per
    port per direction per round, so the pattern is trivially oblivious.
    """
    if delta < 0:
        raise ValueError("round bound must be nonnegative")

    def init(x, deg):
        return [1 if x else 0, deg]

    def send(state, _r):
        bit, deg = state
        return {p: (bit,) for p in range(1, deg + 1)}

    def recv(state, inbox, _r):
        bit, deg = state
        for msg in inbox.values():
            bit |= msg[0]
        return [bit, deg]

    def finish(state):
        return TRUE if state[0] == 0 else FALSE

    program = PartyProgram(
        rounds=delta, symbol_dim=2,
        init=init, send=send, recv=recv, finish=finish,
        name=f"all_zeros_flooding[{delta}]",
    )
    return ClassicalSubroutine(program)


# ---------------------------------------------------------------------------
# consistency of the marked parties, from two parallel all-zeros runs


def _flood_inputs(rz) -> tuple:
    """One party's bits for the two floods of a consistency test.

    ``(r, marked)`` becomes ``(r, 1 - r)`` on a marked party and ``(0, 0)``
    elsewhere.
    """
    r, marked = rz
    return (r, 1 - r) if marked else (0, 0)


def consistency_from_all_zeros(zeros: ClassicalSubroutine) -> ClassicalSubroutine:
    """All marked parties hold the same bit?  Two all-zeros floods in parallel.

    Each party holds ``(r, marked)``.  Run A floods ``r if marked else 0`` and
    decides "no marked party holds 1"; run B floods ``1-r if marked else 0``
    and decides "no marked party holds 0".  The input is consistent over the
    marked set iff A or B holds; an empty marked set is vacuously consistent.
    Cost is exactly twice the flooding cost in the same number of rounds.

    The returned subroutine keeps ``zeros``, so :func:`run_cached` answers it
    from the flood's runs; its pair-message program serves direct runs.
    """
    delta = zeros.program.rounds

    def init(rz, deg):
        a, b = _flood_inputs(rz)
        return [a, b, deg]

    def send(state, _r):
        a, b, deg = state
        return {p: (a, b) for p in range(1, deg + 1)}

    def recv(state, inbox, _r):
        a, b, deg = state
        for msg in inbox.values():
            a |= msg[0]
            b |= msg[1]
        return [a, b, deg]

    def finish(state):
        a, b, _deg = state
        return TRUE if (a == 0 or b == 0) else FALSE

    program = PartyProgram(
        rounds=delta, symbol_dim=2,
        init=init, send=send, recv=recv, finish=finish,
        name=f"consistency[{delta}]",
    )
    return ClassicalSubroutine(program, zeros=zeros)


# ---------------------------------------------------------------------------
# view trees


class ViewShape(NamedTuple):
    """What a view's labels leave open, shared by every view of that shape."""

    widths: tuple   # widths[j] counts the tree nodes j levels below the root
    size: int       # symbols that transmitting the view is metered as


class View:
    """A truncated universal-cover tree node, hash-consed by a :class:`ViewTable`.

    ``children`` is ordered by the exit port at this node (1..degree) and each
    entry is ``(entry_port_at_child, child_view)``.  Within one table equal
    views are one object, so equality is an identity check and repeated
    subtrees share storage; views from different tables are compared by
    serialization.  ``depth`` is the height of the tree (0 for a leaf), and
    ``shorter`` is the same view cut one level shorter, in the same table
    (``None`` for a leaf), so truncating is following pointers.
    ``shape.widths`` fixes the length of both encodings (:func:`serialize_view`,
    :func:`fold_view`) and ``shape.size`` is the shorter one (:func:`view_size`).
    Both sit in one shared object rather than two slots per view: a seventh
    slot moves views into a larger allocator size class, which raised the
    peak memory of a 20-second ``branch_enum`` benchmark run from 52.3 to
    53.1 MB.
    """

    __slots__ = ("label", "degree", "children", "depth", "shorter", "shape")

    def __init__(self, label, degree, children, depth, shorter, shape):
        self.label = label
        self.degree = degree
        self.children = children
        self.depth = depth
        self.shorter = shorter
        self.shape = shape

    def __repr__(self):
        return f"View(label={self.label}, degree={self.degree}, depth={self.depth})"


def view_size(widths: tuple, n: int) -> int:
    """Symbols that sending a view of these level widths costs among n parties.

    The tree serialization takes two symbols per node and one per edge; the
    folded form takes min(n, width) slots of 2n symbols per level.  A view is
    sent folded only when that is strictly shorter.  Both lengths depend on
    the unlabeled shape alone, and a receiver knows the shape from the
    sender's view of the round before, so no header announces the choice.
    """
    tree = 3 * sum(widths) - 1
    folded = 2 * n * sum(min(n, w) for w in widths)
    return folded if folded < tree else tree


class ViewTable:
    """Hash-consing table of the views exchanged among ``n`` parties.

    Each modular-sum subroutine owns one, shared by all its parties and all
    its runs, so equal views stay one object across runs (the
    equivariance check compares message payloads by identity) and nothing
    outlives the subroutine.  Keys hold the child objects themselves
    (identity-hashed), so entries keep their children alive and ids are never
    reused.  A new node also gets its one-level truncation from the table; in
    the view exchange that is the party's own view from the round before,
    already present.  Views of one shape share one :class:`ViewShape`.
    """

    __slots__ = ("n", "_nodes", "_shapes")

    def __init__(self, n: int):
        self.n = n
        self._nodes: dict = {}
        self._shapes: dict = {}

    def node(self, label: int, degree: int, children: tuple) -> View:
        key = (label, degree, children)
        hit = self._nodes.get(key)
        if hit is None:
            depth, shorter, widths = 0, None, (1,)
            if children:
                depth = 1 + children[0][1].depth
                below, last = [], 0
                for q, c in children:
                    if c.depth != depth - 1:
                        raise ValueError("children of a view must have equal depths")
                    below.append((q, c.shorter))
                    last += c.shape.widths[-1]
                shorter = self.node(label, degree, tuple(below) if depth > 1 else ())
                # the view one level shorter has the same upper levels
                widths = shorter.shape.widths + (last,)
            shape = self._shapes.get(widths)
            if shape is None:
                shape = self._shapes.setdefault(
                    widths, ViewShape(widths, view_size(widths, self.n)))
            # setdefault keeps one node per key if two threads miss together
            hit = self._nodes.setdefault(
                key, View(label, degree, children, depth, shorter, shape))
        return hit


def serialize_view(v: View) -> tuple:
    """Flat preorder encoding: label, degree, then per child port and subtree."""
    out = [v.label, v.degree]
    for q, c in v.children:
        out.append(q)
        out.extend(serialize_view(c))
    return tuple(out)


def fold_view(v: View, n: int) -> tuple:
    """Folded encoding of ``v`` among ``n`` parties (Tani, IEEE TPDS 23(2), 2012).

    Level j lists the distinct nodes j steps below the root, in the order
    they are first referenced, in ``min(n, v.shape.widths[j])`` slots of 2n
    symbols: label, degree, then n-1 pairs of (entry port, index of the child
    in level j+1), one per port.  Unused pairs and slots are zeros, so the
    length depends on n and the shape only.  A level never holds more than n
    distinct nodes, since they are views of at most n parties.
    """
    out = []
    level = [v]
    for width in v.shape.widths:
        if len(level) > n:
            raise ValueError(f"a level of the view holds more than {n} distinct nodes")
        below: dict = {}
        for node in level:
            if node.degree > n - 1:
                raise ValueError(f"degree {node.degree} above n - 1 = {n - 1}")
            out += (node.label, node.degree)
            for q, c in node.children:
                out += (q, below.setdefault(c, len(below)))
            out += [0] * (2 * (n - 1 - len(node.children)))
        out += [0] * (2 * n * (min(n, width) - len(level)))
        level = list(below)
    return tuple(out)


def view(topology: Topology, node: int, depth: int, inputs=None,
         table: Optional[ViewTable] = None) -> View:
    """Harness-side reference constructor for the view of ``node``.

    Builds the labeled universal-cover tree of (topology, ports, inputs)
    rooted at ``node``, truncated at ``depth``, in ``table`` (a fresh one if
    omitted; pass one table to compare views by identity).  Tests use this
    as the independent counterpart of the distributed exchange below.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if inputs is None:
        inputs = [0] * topology.n
    if table is None:
        table = ViewTable(topology.n)
    memo = {}

    def build(v: int, d: int) -> View:
        key = (v, d)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if d == 0:
            node_ = table.node(inputs[v], topology.degree(v), ())
        else:
            children = []
            for port in range(1, topology.degree(v) + 1):
                u, q = topology.link(v, port)
                children.append((q, build(u, d - 1)))
            node_ = table.node(inputs[v], topology.degree(v), tuple(children))
        memo[key] = node_
        return node_

    return build(node, depth)


def distinct_truncated_views(root: View, radius: int) -> list:
    """Distinct depth-``radius`` views rooted within ``radius`` steps of ``root``.

    In a connected n-party network every party sits within n-1 steps of the
    root, so with ``radius = n-1`` this enumerates every party's truncated
    view exactly once per equivalence class, in no particular order.  The
    nodes j steps below the root are the ones of depth ``root.depth - j``,
    so the walk goes one level at a time, visits each node once and cuts it
    down to ``radius`` through ``View.shorter``.
    """
    found = {}
    level = {root: None}   # distinct nodes j steps below the root
    for j in range(radius + 1):
        for node in level:
            while node.depth > radius:
                node = node.shorter
            found[node] = None
        if j < radius:
            level = dict.fromkeys(c for node in level for _q, c in node.children)
    return list(found)


# ---------------------------------------------------------------------------
# sum of inputs modulo k, via view exchange


def modular_sum_views(k: int, n: int) -> ClassicalSubroutine:
    """Every one of ``n`` parties computes the sum of all inputs mod k from its view.

    Parties exchange their labeled views for 2(n-1) rounds.  A party then
    enumerates the distinct depth-(n-1) views occurring in the network inside
    its own tree; views of depth n-1 already decide the view classes (Norris,
    Discrete Appl. Math. 56(1), 1995), and the c distinct classes all have
    the same cardinality n/c, so the total input sum is (n/c) times the sum
    over one representative per class.  A message is the sender's entry port
    plus its view, serialized or folded (:func:`view_size`), so its size
    depends on n, the round and the topology but never on the input labels.
    """
    if k < 2:
        raise ValueError("modulus must be at least 2")
    if n < 1:
        raise ValueError("party count must be at least 1")

    # shared by every party and every run; see ViewTable
    table = ViewTable(n)

    def init(x, deg):
        if not (0 <= x < k):
            raise ValueError(f"input {x} outside 0..{k - 1}")
        return [x, deg, table.node(x, deg, ())]

    def send(state, _r):
        _x, deg, v = state
        size = 1 + v.shape.size
        return {p: SizedMessage((p, v), size) for p in range(1, deg + 1)}

    def recv(state, inbox, _r):
        x, deg, _v = state
        # each payload is the (entry port, view) pair of one child
        children = tuple(map(inbox.__getitem__, range(1, deg + 1)))
        return [x, deg, table.node(x, deg, children)]

    def finish(state):
        _x, _deg, v = state
        classes = distinct_truncated_views(v, n - 1)
        c = len(classes)
        if n % c != 0:
            raise SimulationError(
                f"view classes do not divide the party count (n={n}, classes={c})"
            )
        total = (n // c) * sum(w.label for w in classes)
        return total % k

    # transmitted symbols are labels (< k) plus ports, degrees and child
    # indices, which stay below the party count
    program = PartyProgram(
        rounds=2 * (n - 1), symbol_dim=max(k, n),
        init=init, send=send, recv=recv, finish=finish,
        name=f"modular_sum[{k},{n}]", parties=n,
    )
    return ClassicalSubroutine(program)
