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

import copy
import math
import numbers
import threading
import weakref
from dataclasses import dataclass, field
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
    of its own: ``zeros`` is the all-zeros flood whose memo answers it.  A
    view exchange keeps its views in ``views``, the :class:`ViewTable` whose
    ids its messages carry.
    """

    program: Optional[PartyProgram] = None
    input_dims: tuple = (2,)
    runs: dict = field(default_factory=dict, compare=False, repr=False)
    patterns: dict = field(default_factory=dict, compare=False, repr=False)
    zeros: Optional["ClassicalSubroutine"] = field(default=None, repr=False)
    views: Optional["ViewTable"] = field(default=None, compare=False, repr=False)
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
    """Hash-consing store of the views exchanged among ``n`` parties, as int64 columns.

    A view is an id, an index into the columns ``label``, ``degree``,
    ``depth`` (the height of its tree, 0 for a leaf), ``shorter`` (the id of
    the view cut one level shorter, -1 for a leaf), ``shape`` (an index into
    ``shapes``) and ``pairs``: one (entry port at the child, child id) pair
    per exit port 1..degree, padded with zeros to n - 1 pairs.  ``sizes``
    holds each shape's metered size, for numpy lookups.  One dict interns
    each view's row (label, degree, then its pairs), keyed by the row's
    bytes, so equal views get one id and repeated subtrees share storage.
    Views of one shape share one :class:`ViewShape`, whose widths are
    Python ints, so no width wraps around.

    Each modular-sum subroutine owns one, shared by all its parties and all
    its runs, so equal views keep one id across runs (the equivariance check
    compares message payloads of ids) and nothing outlives the subroutine.
    A party hands its rows of a round over with :meth:`defer` and keeps the
    :class:`Pending` handle; the first read of any handle's ``ids`` interns
    the rows of every pending handle in one :meth:`intern` batch, in the
    order they were handed over, which in a run is party order.  Ids are
    never reused.  Writers hold ``lock``.  A view's entries are written
    once, before its id is handed out, and a full column is replaced by a
    longer copy, so the ids a reader holds stay readable without it.
    """

    _COLUMNS = ("label", "degree", "depth", "shorter", "shape", "pairs")

    def __init__(self, n: int):
        self.n = n
        self.count = 0
        self.lock = threading.Lock()
        self._flushing = threading.Lock()   # held by one flush at a time
        self._pending: list = []   # handles not interned yet, in order
        self._ids: dict = {}       # row bytes -> id; one key per id
        self._deeper: dict = {}    # bytes of (truncation shape, child shapes) -> shape
        self._shape_ids = {(1,): 0}   # widths -> shape; shape 0 is a leaf's
        for name in self._COLUMNS:
            setattr(self, name, np.zeros((0, max(n - 1, 0), 2) if name == "pairs" else 0,
                                         dtype=np.int64))
        self.shapes = [ViewShape((1,), view_size((1,), n))]
        self.sizes = np.array([self.shapes[0].size], dtype=np.int64)

    def intern(self, labels, degree, pairs=(), prev=None) -> np.ndarray:
        """The ids of one view per row, as an int64 array; new views are added.

        Row r is the view of label ``labels[r]`` and degree ``degree`` (one
        for every row, or a column of one per row) whose children are row r
        of ``pairs``, one int array of shape (rows, 2) per exit port, of
        (entry port at the child, child id).  A row of degree d takes the
        first d of them, each with an entry port of at least 1; its pairs on
        higher ports are padding and must be zeros, so rows of several
        degrees share one batch.  Without ``pairs`` the views are leaves.
        Otherwise ``prev`` holds the ids of the same rows' views one level
        shorter (in the exchange, the party's views of the round before), and
        each must be its row's view cut short: equal label, degree and depth
        less one, and beyond depth 1 the same ports to the children's own
        truncations.  Row counts that differ between ``labels``, a degree
        column, ``pairs`` and ``prev``, a ``prev`` that is not the view cut
        short, children of unequal depths, a child count other than the
        degree or an id outside the table raise ``ValueError`` and leave the
        table as it was, as they are found before ``lock`` is taken.  The rows
        are interned in one batch: one dict lookup per row, under ``lock``.
        The view sum calls it once per round, not once per party: the first
        read of a :meth:`defer` handle interns every pending party's rows at
        once, in party order.
        """
        labels, rows_in = as_int64(labels), len(labels)
        per_row = not isinstance(degree, numbers.Integral)   # else one for every row
        degrees = as_int64(degree) if per_row else np.full(rows_in, degree, dtype=np.int64)
        counts = [len(column) for column in pairs]
        if pairs:
            prev = as_int64(prev)
            counts.append(len(prev))
        if any(c != rows_in for c in counts + [len(degrees)]):
            raise ValueError(
                f"rows of unequal counts: {rows_in} labels"
                + (f", {len(degrees)} degrees" if per_row else "")
                + "".join(f", {len(column)} children on port {p}"
                          for p, column in enumerate(pairs, 1))
                + (f", {len(prev)} previous views" if pairs else ""))
        width = len(pairs)
        rows = np.empty((rows_in, 2 + 2 * width), dtype=np.int64)
        rows[:, 0], rows[:, 1] = labels, degrees
        if pairs:
            if width > self.n - 1:
                raise ValueError(f"degree {width} above n - 1 = {self.n - 1}")
            for p, column in enumerate(pairs):
                rows[:, 2 + 2 * p:4 + 2 * p] = as_int64(column)
            given = rows[:, 2:].reshape(rows_in, width, 2)
            ports, kids = given[:, :, 0], given[:, :, 1]
            exits = np.arange(width) < degrees[:, None]   # each row's real ports
            # an exit needs a port of at least 1, and padding is (0, 0)
            bad = ports < exits
            if not bad.any() and np.count_nonzero(ports | kids) != np.count_nonzero(exits):
                bad = ~exits & ((ports | kids) != 0)
            bad[:, 0] |= (degrees > width) | (degrees < 1)
            if bad.any():
                r = np.flatnonzero(bad.any(axis=1))[0]
                # a child has an entry port, and padding that is not zeros counts as one
                found = (ports[r] >= 1) | (~exits[r] & ((ports[r] | kids[r]) != 0))
                raise ValueError(f"a view of degree {degrees[r]} needs {degrees[r]} children, "
                                 f"not {np.count_nonzero(found)}")
            self._known(kids)
            self._known(prev)
            below = self.depth[kids]
            if ((below != below[:, :1]) & exits).any():
                raise ValueError("children of a view must have equal depths")
            depth = below[:, 0] + 1
            wrong = ((self.label[prev] != labels) | (self.degree[prev] != degrees)
                     | (self.depth[prev] != depth - 1))
            deep = depth > 1
            if deep.any():
                cut = self.pairs[prev, :width]
                wrong |= deep & (((cut[:, :, 0] != ports) | (cut[:, :, 1] != self.shorter[kids]))
                                 & exits).any(axis=1)
            if wrong.any():
                r = np.flatnonzero(wrong)[0]
                raise ValueError(f"view {prev[r]} is not the view of row {r} cut one level "
                                 f"shorter")
        # a row of degree d keys on its label, degree and first d pairs, as
        # it would in a batch of its own degree; a batch holds one run of
        # rows per party, each of one degree
        change = np.ones(rows_in, dtype=bool)
        change[1:] = degrees[1:] != degrees[:-1]
        starts = np.flatnonzero(change).tolist()
        keys = []
        for a, b in zip(starts, starts[1:] + [rows_in]):
            keys += _row_keys(rows[a:b, :2 + 2 * int(degrees[a])])
        with self.lock:
            # columns grow before the dict does, so a failed allocation
            # leaves no id without its entries
            self._reserve(len(rows))
            start, known = self.count, self._ids
            setdefault = known.setdefault
            # one key per id, so len(known) is the next id
            ids = np.array([setdefault(key, len(known)) for key in keys], dtype=np.int64)
            stop = len(known)
            if stop > start:
                firsts = np.flatnonzero(ids >= start)
                if len(firsts) > stop - start:
                    # a new view repeats in the batch: new ids go out in row
                    # order, so a view's first row is where they reach a new high
                    new = ids[firsts]
                    firsts = firsts[np.concatenate(
                        ([True], new[1:] > np.maximum.accumulate(new)[:-1]))]
                self.label[start:stop] = labels[firsts]
                self.degree[start:stop] = degrees[firsts]
                if pairs:
                    self.depth[start:stop] = depth[firsts]
                    self.shorter[start:stop] = prev[firsts]
                    self.pairs[start:stop, :width] = given[firsts]
                    self.shape[start:stop] = self._deeper_shapes(
                        self.shape[prev[firsts]],
                        np.where(exits[firsts], self.shape[kids[firsts]], -1))
                else:
                    self.depth[start:stop] = 0
                    self.shorter[start:stop] = -1
                    self.shape[start:stop] = 0
                self.count = stop
        return ids

    def defer(self, labels, degree, pairs=(), prev=None) -> "Pending":
        """The rows of :meth:`intern`, held until the first read of any pending handle.

        That read interns every pending handle of this table in one batch
        (:meth:`flush`).
        """
        handle = Pending(self, (labels, degree, pairs, prev))
        with self.lock:
            self._pending.append(handle)
        return handle

    def flush(self) -> None:
        """Intern the rows of every pending handle in one :meth:`intern` batch.

        Rows go in the order they were deferred.  A batch that fails, or
        that mixes leaves with views that have children, is interned again
        handle by handle, in the same order, so each handle gets its own ids
        or the error its own rows raise.  A flush may resolve handles of
        another run on this table; a reader that finds its handle taken
        waits for that flush to end.  Should the flush itself be cut short,
        the handles it left without a result go back to the head of the
        pending list, and interning them again gives the same ids.
        """
        with self._flushing:
            with self.lock:
                batch, self._pending = self._pending, []
            try:
                ids = None
                if len(batch) > 1:
                    try:
                        ids = self.intern(*_stacked([h.rows for h in batch]))
                    except Exception:
                        pass   # interned again below, handle by handle
                if ids is None:
                    for handle in batch:
                        try:
                            handle.result = self.intern(*handle.rows)
                        except Exception as error:   # raised in the handle's own run
                            # no traceback: its frames would hold the handle
                            handle.result = error.with_traceback(None)
                else:
                    stop = 0
                    for handle in batch:
                        start, stop = stop, stop + len(handle.rows[0])
                        handle.result = ids[start:stop]
            finally:
                done = [h for h in batch if h.result is not None]
                if len(done) < len(batch):
                    with self.lock:
                        self._pending[:0] = [h for h in batch if h.result is None]
                # weak references: a handle that held its batch would be a
                # cycle, freed only by the garbage collector
                refs = [weakref.ref(handle) for handle in done]
                for handle in done:
                    handle.batch = refs
                    handle.rows = None

    def _known(self, ids: np.ndarray) -> None:
        # one pass: a negative id reads as a large unsigned one
        if ids.size and ids.view(np.uint64).max() >= self.count:
            raise ValueError(f"an id outside the {self.count} views of this table")

    def _reserve(self, extra: int) -> None:
        """Room for ``extra`` more ids, every column grown by copy."""
        need, have = self.count + extra, len(self.label)
        if need > have:
            grown = max(need, have + have // 2, 64)
            for name in self._COLUMNS:
                old = getattr(self, name)
                column = np.zeros((grown, *old.shape[1:]), dtype=np.int64)
                column[:self.count] = old[:self.count]
                setattr(self, name, column)

    def _deeper_shapes(self, shorter: np.ndarray, children: np.ndarray) -> list:
        """Shape ids of new views, from their truncations' shapes and their children's.

        A view's widths are its truncation's, then the sum of its children's
        last widths; a child shape of -1 pads a port above the view's degree.
        Each distinct row of shape ids is worked out once.
        """
        keys = _row_keys(np.column_stack((shorter, children)))
        for key in dict.fromkeys(keys):
            if key not in self._deeper:
                first, *below = np.frombuffer(key, dtype=np.int64).tolist()
                widths = self.shapes[first].widths + (
                    sum(self.shapes[c].widths[-1] for c in below if c >= 0),)
                s = self._shape_ids.setdefault(widths, len(self.shapes))
                if s == len(self.shapes):
                    self.shapes.append(ViewShape(widths, view_size(widths, self.n)))
                    self.sizes = np.append(self.sizes, self.shapes[s].size)
                self._deeper[key] = s
        return list(map(self._deeper.__getitem__, keys))

    def node(self, label: int, degree: int, children: tuple = ()) -> "View":
        """The view of ``label`` and ``degree`` above ``children``, one row of :meth:`intern`.

        ``children`` holds one ``(entry port at the child, child view)`` per
        exit port, views of this table.  Its truncation is found, or made,
        from the children's, and checked as :meth:`intern` checks a row.
        """
        key = _row_keys(as_int64([[label, degree, *(x for q, c in children
                                                 for x in (q, c.id))]]))[0]
        with self.lock:
            hit = self._ids.get(key)
        if hit is not None:
            return View(self, hit)
        if not children:
            return View(self, int(self.intern([label], degree)[0]))
        if all(c.depth for _q, c in children):
            shorter = self.node(label, degree, tuple((q, c.shorter) for q, c in children))
        else:
            shorter = self.node(label, degree)
        pairs = [np.array([[q, c.id]], dtype=np.int64) for q, c in children]
        return View(self, int(self.intern([label], degree, pairs, [shorter.id])[0]))


def _row_keys(rows: np.ndarray) -> list:
    """One dict key per row of an int64 table: its bytes, equal only for equal rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()


def _stacked(rows: list) -> tuple:
    """The :meth:`ViewTable.intern` arguments of several handles' rows, as one batch.

    Each handle has one degree, repeated into a column of one per row, and a
    handle with fewer exit ports than the widest has its missing ports
    padded with zero pairs.  Leaves mixed with views that have children, or
    a handle whose own columns differ in length, raise ``ValueError``, which
    the flush meets by interning handle by handle.
    """
    sizes = [len(r[0]) for r in rows]
    labels = np.concatenate([r[0] for r in rows])
    degrees = np.repeat([r[1] for r in rows], sizes)
    if not any(r[2] for r in rows):
        return labels, degrees
    if not all(r[2] for r in rows):
        raise ValueError("leaves and views with children go in separate batches")
    if any(len(c) != s for r, s in zip(rows, sizes) for c in (*r[2], r[3])):
        raise ValueError("a handle's rows have unequal counts")
    blank = np.zeros((max(sizes), 2), dtype=np.int64)
    pairs = [np.concatenate([r[2][p] if p < len(r[2]) else blank[:s]
                             for r, s in zip(rows, sizes)])
             for p in range(max(len(r[2]) for r in rows))]
    return labels, degrees, pairs, np.concatenate([r[3] for r in rows])


class Pending:
    """One party's rows of one round, handed to a :class:`ViewTable` and not yet read.

    The first read of ``ids`` on any pending handle of the table interns
    every pending handle at once (:meth:`ViewTable.flush`).  ``ids`` then
    returns this handle's ids, or raises the error its own rows caused.
    ``batch`` holds weak references to the handles interned together, and
    ``outputs`` what a reader works out once for the whole batch (the
    modular sum's outputs of every party).  An error is kept without a
    traceback and raised as a copy, so that neither its frames nor the
    reader's lead back to the handle.
    """

    __slots__ = ("table", "rows", "result", "batch", "outputs", "__weakref__")

    def __init__(self, table: ViewTable, rows: tuple):
        self.table = table
        self.rows = rows        # the intern arguments; None once interned
        self.result = None      # the ids, or the error of interning them
        self.batch = None
        self.outputs = None

    @property
    def ids(self) -> np.ndarray:
        if self.rows is not None:
            self.table.flush()
        if isinstance(self.result, Exception):
            raise copy.copy(self.result)
        return self.result


class View:
    """A handle on one view of a :class:`ViewTable`, read from its columns.

    ``children`` is ordered by the exit port at this node (1..degree) and each
    entry is ``(entry_port_at_child, child_view)``.  Two handles are equal
    when they name one id of one table, so within a table equality is an id
    check; views from different tables are compared by serialization.
    ``depth`` is the height of the tree (0 for a leaf), and ``shorter`` is
    the same view cut one level shorter (``None`` for a leaf).
    ``shape.widths`` fixes the length of both encodings (:func:`serialize_view`,
    :func:`fold_view`) and ``shape.size`` is the shorter one (:func:`view_size`).
    """

    __slots__ = ("table", "id")

    def __init__(self, table: ViewTable, id_: int):
        self.table = table
        self.id = id_

    def __eq__(self, other):
        return isinstance(other, View) and other.table is self.table and other.id == self.id

    def __hash__(self):
        return hash(self.id)

    @property
    def label(self) -> int:
        return int(self.table.label[self.id])

    @property
    def degree(self) -> int:
        return int(self.table.degree[self.id])

    @property
    def depth(self) -> int:
        return int(self.table.depth[self.id])

    @property
    def shorter(self) -> Optional["View"]:
        s = int(self.table.shorter[self.id])
        return None if s < 0 else View(self.table, s)

    @property
    def children(self) -> tuple:
        table, i = self.table, self.id
        if not table.depth[i]:
            return ()
        return tuple((q, View(table, c)) for q, c in table.pairs[i, :table.degree[i]].tolist())

    @property
    def shape(self) -> ViewShape:
        return self.table.shapes[self.table.shape[self.id]]

    def __repr__(self):
        return f"View(label={self.label}, degree={self.degree}, depth={self.depth})"


def serialize_view(v: View) -> tuple:
    """Flat preorder encoding: label, degree, then per child port and subtree."""
    table, done = v.table, {}

    def walk(i: int) -> tuple:
        out = done.get(i)
        if out is None:
            degree = int(table.degree[i])
            out = [int(table.label[i]), degree]
            if table.depth[i]:
                for q, c in table.pairs[i, :degree].tolist():
                    out.append(q)
                    out.extend(walk(c))
            out = done[i] = tuple(out)
        return out

    return walk(v.id)


def fold_view(v: View, n: int) -> tuple:
    """Folded encoding of ``v`` among ``n`` parties (Tani, IEEE TPDS 23(2), 2012).

    Level j lists the distinct nodes j steps below the root, in the order
    they are first referenced, in ``min(n, v.shape.widths[j])`` slots of 2n
    symbols: label, degree, then n-1 pairs of (entry port, index of the child
    in level j+1), one per port.  Unused pairs and slots are zeros, so the
    length depends on n and the shape only.  A level never holds more than n
    distinct nodes, since they are views of at most n parties.
    """
    table = v.table
    out = []
    level = [v.id]
    for width in v.shape.widths:
        if len(level) > n:
            raise ValueError(f"a level of the view holds more than {n} distinct nodes")
        below: dict = {}
        for label, degree, depth, pairs in zip(*(column[level].tolist() for column in (
                table.label, table.degree, table.depth, table.pairs))):
            if degree > n - 1:
                raise ValueError(f"degree {degree} above n - 1 = {n - 1}")
            out += (label, degree)
            children = pairs[:degree] if depth else ()
            for q, c in children:
                out += (q, below.setdefault(c, len(below)))
            out += [0] * (2 * (n - 1 - len(children)))
        out += [0] * (2 * n * (min(n, width) - len(level)))
        level = list(below)
    return tuple(out)


def view(topology: Topology, node: int, depth: int, inputs=None,
         table: Optional[ViewTable] = None) -> View:
    """Harness-side reference constructor for the view of ``node``.

    Builds the labeled universal-cover tree of (topology, ports, inputs)
    rooted at ``node``, truncated at ``depth``, in ``table`` (a fresh one if
    omitted; pass one table to compare views by id).  ``inputs`` holds one
    label per party.  Tests use this as the independent counterpart of the
    distributed exchange below.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if inputs is None:
        inputs = [0] * topology.n
    if len(inputs) != topology.n:
        raise ValueError(f"expected {topology.n} inputs, got {len(inputs)}")
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


def distinct_truncated_views(table: ViewTable, roots, radius: int) -> tuple:
    """The distinct depth-``radius`` views within ``radius`` steps of each root.

    ``roots`` is a column of view ids of ``table``.  Returns ``(rows, ids)``,
    int64 arrays with one entry per distinct (row, view) pair, sorted by row:
    the views found below ``roots[row]``.  In a connected n-party network
    every party sits within n-1 steps of the root, so with ``radius = n-1``
    a row lists every party's truncated view exactly once per equivalence
    class.  The nodes j steps below a root are of its depth less j, so the
    walk goes one level at a time for every row at once, keeps each (row,
    node) pair of a level once, and then cuts every node it met down to
    ``radius`` through the ``shorter`` column.
    """
    roots = np.asarray(roots, dtype=np.int64)
    span = table.count   # every id reached is below it: row * span + id names a pair
    rows, nodes = np.arange(len(roots)), roots
    met_rows, met = [rows], [nodes]
    for _ in range(radius):
        has = np.arange(table.pairs.shape[1]) < table.degree[nodes][:, None]
        has &= (table.depth[nodes] > 0)[:, None]
        codes = _distinct(np.broadcast_to(rows[:, None], has.shape)[has] * span
                          + table.pairs[nodes, :, 1][has])
        rows, nodes = np.divmod(codes, span)
        met_rows.append(rows)
        met.append(nodes)
    rows, nodes = np.concatenate(met_rows), np.concatenate(met)
    for _ in range(int(table.depth[nodes].max()) - radius):
        nodes = np.where(table.depth[nodes] > radius, table.shorter[nodes], nodes)
    return np.divmod(_distinct(rows * span + nodes), span)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, sorted.

    A sort and one comparison: on the few thousand codes of a class walk
    this is about ten times faster than ``np.unique``, whose hashing path
    also maps about a megabyte more of memory on its first call.
    """
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


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

    Views are ids of the subroutine's :class:`ViewTable` (``sub.views``): a
    party holds one id per row, and a message's payload is an int64 array of
    one (entry port, id) pair per row.  ``init`` and ``recv`` hand a party's
    rows to the table (:meth:`ViewTable.defer`) and keep the pending handle;
    the first read, the next round's ``send`` or ``finish``, interns every
    pending party's rows at once, in party order, so ids are numbered as if
    each party had interned its own.  The first ``finish`` of a run walks
    the view classes of every party of the flush in one
    :func:`distinct_truncated_views` call and leaves each party its outputs.
    """
    if k < 2:
        raise ValueError("modulus must be at least 2")
    if n < 1:
        raise ValueError("party count must be at least 1")

    # shared by every party and every run; see ViewTable
    table = ViewTable(n)

    # a party's state: its input labels, its degree and its pending view ids, per row
    def init(x, deg):
        outside = (x < 0) | (x >= k)
        if outside.any():
            raise ValueError(f"input {x[outside][0]} outside 0..{k - 1}")
        return [x, deg, table.defer(x, deg)]

    def send(state, _r):
        _labels, deg, views = state
        ids = views.ids
        sizes = 1 + table.sizes[table.shape[ids]]
        outbox = {}
        for p in range(1, deg + 1):
            payload = np.empty((len(ids), 2), dtype=np.int64)
            payload[:, 0], payload[:, 1] = p, ids
            outbox[p] = SizedMessage(payload, sizes)
        return outbox

    def recv(state, inbox, _r):
        labels, deg, views = state
        # each payload holds the (entry port, view id) pair of one child per row
        children = [inbox[p] for p in range(1, deg + 1)]
        return [labels, deg, table.defer(labels, deg, children, views.ids)]

    def finish(state):
        views = state[2]
        if views.outputs is None:
            class_sums(views)
        if isinstance(views.outputs, Exception):
            raise copy.copy(views.outputs)
        return views.outputs

    def class_sums(views: Pending) -> None:
        """Set the outputs of every handle of the flush at ``views``'s depth, from one walk."""
        ids = views.ids   # read first: a flush may replace the columns
        depth = table.depth[ids[0]]
        group = [h for h in (ref() for ref in views.batch) if h is not None
                 and not isinstance(h.result, Exception) and table.depth[h.result[0]] == depth]
        roots = np.concatenate([h.result for h in group])
        rows, classes = distinct_truncated_views(table, roots, n - 1)
        c = np.bincount(rows, minlength=len(roots))
        # rows are sorted and every row finds at least its own class
        totals = (n // c) * np.add.reduceat(table.label[classes], np.cumsum(c) - c) % k
        stop = 0
        for h in group:
            start, stop = stop, stop + len(h.result)
            uneven = n % c[start:stop] != 0
            h.outputs = totals[start:stop] if not uneven.any() else SimulationError(
                f"view classes do not divide the party count "
                f"(n={n}, classes={c[start:stop][uneven][0]})")

    # transmitted symbols are labels (< k) plus ports, degrees and child
    # indices, which stay below the party count
    program = PartyProgram(
        rounds=2 * (n - 1), symbol_dim=max(k, n),
        init=init, send=send, recv=recv, finish=finish,
        name=f"modular_sum[{k},{n}]", parties=n,
    )
    return ClassicalSubroutine(program, input_dims=(k,), views=table)
