"""Reversible classical distributed subroutines used coherently.

All three subroutines here are deterministic, measurement-free, and have
input-oblivious communication patterns, which is what allows the quantum
layer to run them once per basis component of a superposed input.

Output encoding is integer symbols: predicates return 1 for "yes"
(all-zeros / consistent) and 0 for "no".

A coherent application asks for the outputs of a whole table of inputs at
once (:func:`run_cached`).  Each subroutine instance keeps one columnar memo
per topology object: the sorted int64 codes of the input rows it has run and
an int64 table of their outputs, searched with numpy, so only inputs it has
not seen reach the engine, all of them in one run: the party programs act
on columns and step every row in lockstep.  The memo lives as long as the
instance and is never shared with another.  A direct run of one input vector
is a table of one row (:func:`run_row`).  A consistency test keeps no memo of
its own: its table is split into two flood tables, answered by the flood's
memo.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import SimulationError
from .runtime import PartyProgram, SizedMessage, as_int64, parallel, run_classical
from .topology import Topology

TRUE, FALSE = 1, 0


@dataclass(frozen=True)
class ClassicalSubroutine:
    """A party program plus the memo of its runs.

    A party's input is one symbol below each entry of ``input_dims`` (a bit
    by default): a bare symbol for one entry, a tuple for several.
    ``runs`` and ``patterns`` belong to this instance and live as long as
    it does; see :func:`run_cached`.  A consistency test has no program
    of its own: ``zeros`` is the all-zeros flood whose memo answers it.
    """

    program: Optional[PartyProgram] = None
    input_dims: tuple = (2,)
    runs: dict = field(default_factory=dict, compare=False, repr=False)
    patterns: dict = field(default_factory=dict, compare=False, repr=False)
    zeros: Optional["ClassicalSubroutine"] = field(default=None, repr=False)
    lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False)

    @property
    def name(self) -> str:
        if self.zeros is not None:
            return f"consistency[{self.zeros.program.rounds}]"
        return self.program.name


def _input_table(sub: ClassicalSubroutine, topology: Topology, table) -> np.ndarray:
    """``table`` as int64 of shape (rows, parties, symbols per input), checked."""
    table = as_int64(table)
    dims = sub.input_dims
    if table.ndim == 2:
        table = table[:, :, None]
    if table.ndim != 3 or table.shape[2] != len(dims):
        raise ValueError(f"{sub.name} takes {len(dims)} symbols per party input, "
                         f"not a table of shape {table.shape}")
    if table.shape[1] != topology.n:
        raise ValueError(f"expected {topology.n} inputs, got {table.shape[1]}")
    if len(table) == 0:
        raise ValueError(f"{sub.name} was given a table of no rows")
    outside = (table < 0) | (table >= np.array(dims))
    if outside.any():
        row, party, j = np.argwhere(outside)[0]
        raise ValueError(f"input {table[row, party, j]} outside 0..{dims[j] - 1} "
                         f"of {sub.name}")
    return table


def _row_codes(sub: ClassicalSubroutine, table: np.ndarray) -> np.ndarray:
    """One int64 per row of a checked input table, equal only for equal rows.

    A party's symbols are read in the mixed radix of ``input_dims``, and the
    parties, first party most significant, in the radix of all its inputs.
    """
    dims = sub.input_dims
    symbols = table[:, :, 0]
    for j in range(1, len(dims)):
        symbols = symbols * dims[j] + table[:, :, j]
    radix, n = math.prod(dims), table.shape[1]
    if radix ** n > 2 ** 63:
        raise ValueError(f"{n} parties of {radix} inputs each make {radix}**{n} input rows, "
                         f"too many for int64 codes (2**63 at most)")
    return symbols @ np.array([radix ** p for p in range(n - 1, -1, -1)], dtype=np.int64)


def run_cached(sub: ClassicalSubroutine, topology: Topology, table) -> tuple:
    """Run a subroutine on every row of an input table: ``(outputs, cost)``.

    ``table`` holds one input per party per row, as an int array of shape
    (rows, parties), or (rows, parties, symbols) when a party's input is a
    tuple; ``outputs`` is an int64 array of shape (rows, parties).  An input
    that is not an integer, or a symbol outside ``sub.input_dims``, raises
    ``ValueError``.

    ``sub.runs`` maps each topology's id to ``(topology, codes, outputs)``:
    the sorted codes (:func:`_row_codes`) of the rows run so far and their
    outputs.  Rows are looked up with ``np.searchsorted``; only distinct new
    rows reach the engine, as one table in order of first occurrence, and
    the tuple is then replaced in one assignment, so a reader never pairs
    old codes with new outputs.  A call that raises memoizes none of its
    runs.

    Coherent application needs a communication pattern (the ``(round,
    sender, receiver, symbols)`` part of each message event) that does not
    depend on the input.  The engine refuses a table whose rows send
    different patterns, and a new table whose pattern differs from the first
    run's on the same topology raises ``SimulationError``.  Equal patterns
    give equal costs, so ``sub.patterns`` keeps ``(topology, pattern, cost)``
    of the first run per topology, and that cost is every run's.  Results
    depend on the port numbering, so every entry is keyed by the topology's
    identity and holds the topology itself, so its id is not reused.

    A consistency test (``sub.zeros`` set) is answered from two flood
    tables, through the flood's memo: a party reports consistent where
    either flood reports all-zeros, at the cost of both floods in parallel.
    It keeps no rows and no pattern of its own.
    """
    table = _input_table(sub, topology, table)
    if sub.zeros is not None:
        return _consistency(sub, topology, table)
    key = id(topology)
    codes = _row_codes(sub, table)
    memo = sub.runs.get(key)
    if memo is not None:
        known, outputs = memo[1], memo[2]
        at = np.searchsorted(known, codes)
        hit = known[np.minimum(at, len(known) - 1)] == codes
        if hit.all():
            return outputs[at], sub.patterns[key][2]
        rows = np.flatnonzero(~hit)
    else:
        rows = np.arange(len(codes))
    # the first row of each distinct missing code, in row order
    rows = rows[np.sort(np.unique(codes[rows], return_index=True)[1])]
    missing = table[rows, :, 0] if len(sub.input_dims) == 1 else table[rows]
    ran, cost, events = run_classical(topology, sub.program, missing)
    pattern = tuple(ev[:4] for ev in events)
    # setdefault keeps one entry per key if two threads miss together
    if sub.patterns.setdefault(key, (topology, pattern, cost))[1] != pattern:
        raise SimulationError(
            f"subroutine {sub.name} has an input-dependent communication pattern"
        )
    with sub.lock:
        memo = sub.runs.get(key)
        new_codes, new_outputs = codes[rows], ran
        if memo is not None:
            new_codes = np.concatenate((memo[1], new_codes))
            new_outputs = np.concatenate((memo[2], new_outputs))
        # rows another thread memoized meanwhile keep their first entry
        known, firsts = np.unique(new_codes, return_index=True)
        memo = (topology, known, new_outputs[firsts])
        sub.runs[key] = memo
    return memo[2][np.searchsorted(known, codes)], sub.patterns[key][2]


def run_row(sub: ClassicalSubroutine, topology: Topology, inputs: tuple) -> tuple:
    """:func:`run_cached` on a table of one row: ``(outputs, cost)``, outputs a tuple."""
    outputs, cost = run_cached(sub, topology, [inputs])
    return tuple(outputs[0].tolist()), cost


# ---------------------------------------------------------------------------
# all-zeros test by OR-flooding


def all_zeros_flooding(delta: int) -> ClassicalSubroutine:
    """Every party ends up knowing whether every input bit is 0.

    Each round every party sends its accumulated OR on all ports and folds in
    whatever it receives; after ``delta`` rounds (``delta`` at least the graph
    diameter) the OR of all bits has reached everyone.  Exactly one bit per
    port per direction per round, so the pattern is trivially oblivious.
    A party's state is its accumulated bits, one message column of one
    symbol per row, sent as it is on every port.
    """
    if delta < 0:
        raise ValueError("round bound must be nonnegative")

    def init(x, deg):
        return [(x != 0).astype(np.int64)[:, None], deg]

    def send(state, _r):
        bits, deg = state
        return dict.fromkeys(range(1, deg + 1), bits)

    def recv(state, inbox, _r):
        bits, deg = state
        for msg in inbox.values():
            bits = bits | msg
        return [bits, deg]

    def finish(state):
        # TRUE is 1 and FALSE is 0
        return (state[0][:, 0] == 0).astype(np.int64)

    program = PartyProgram(
        rounds=delta, symbol_dim=2,
        init=init, send=send, recv=recv, finish=finish,
        name=f"all_zeros_flooding[{delta}]",
    )
    return ClassicalSubroutine(program)


# ---------------------------------------------------------------------------
# consistency of the marked parties, from two parallel all-zeros runs


def _flood_tables(table: np.ndarray) -> tuple:
    """The two flood input tables of a table of ``(r, marked)`` inputs.

    A marked party floods ``r`` in the first and ``1 - r`` in the second; an
    unmarked party floods 0 in both.
    """
    r, marked = table[:, :, 0], table[:, :, 1]
    return r & marked, (1 - r) & marked


def _consistency(sub: ClassicalSubroutine, topology: Topology, table: np.ndarray) -> tuple:
    """``run_cached`` of a consistency test on a checked input table."""
    first, second = _flood_tables(table)
    floods, h0 = run_cached(sub.zeros, topology, np.concatenate((first, second)))
    rows = len(table)
    # TRUE is 1 and FALSE is 0
    return floods[:rows] | floods[rows:], parallel(h0, h0)


def consistency_from_all_zeros(zeros: ClassicalSubroutine) -> ClassicalSubroutine:
    """All marked parties hold the same bit?  Two all-zeros floods in parallel.

    Each party holds ``(r, marked)``.  Run A floods ``r if marked else 0`` and
    decides "no marked party holds 1"; run B floods ``1-r if marked else 0``
    and decides "no marked party holds 0".  The input is consistent over the
    marked set iff A or B holds; an empty marked set is vacuously consistent.
    Cost is exactly twice the flooding cost in the same number of rounds.

    The returned subroutine has no program of its own: :func:`run_cached`
    answers it from the memo of ``zeros``.
    """
    return ClassicalSubroutine(input_dims=(2, 2), zeros=zeros)


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

    # a party's state: its input labels, its degree and its view, per row
    def init(x, deg):
        outside = (x < 0) | (x >= k)
        if outside.any():
            raise ValueError(f"input {x[outside][0]} outside 0..{k - 1}")
        labels = x.tolist()
        return [labels, deg, [table.node(label, deg, ()) for label in labels]]

    def send(state, _r):
        _labels, deg, views = state
        sizes = [1 + v.shape.size for v in views]
        return {p: SizedMessage([(p, v) for v in views], sizes) for p in range(1, deg + 1)}

    def recv(state, inbox, _r):
        labels, deg, _views = state
        # each payload holds the (entry port, view) pair of one child per row
        children = zip(*map(inbox.__getitem__, range(1, deg + 1)))
        return [labels, deg, list(map(table.node, labels, repeat(deg), children))]

    def finish(state):
        return [total_mod_k(v) for v in state[2]]

    def total_mod_k(v):
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
    return ClassicalSubroutine(program, input_dims=(k,))
