"""Synchronous anonymous execution of classical distributed programs.

Every party runs identical code; a party's hooks see only its local input,
its degree, and whatever arrives on its ports; what every party knows in
advance, such as the party count, is built into the program.
The engine runs a table of input rows in lockstep: a party's hooks act on
columns, one entry per row, and rows never interact, so a coherent lookup of
many inputs, or a table stacked on its relabeled copy, is one run.  It
meters communication exactly: one unit per transmitted symbol per link per
direction per round, with d-level symbols charged ceil(log2 d) bits, and
every row of a table must send the same number of symbols.  A run yields an
output table, the cost of one row, and one ``(round, sender, receiver,
symbols, payload)`` event per message, its payload a column of every row.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import SimulationError
from .topology import Topology, is_automorphism


@dataclass(frozen=True)
class PartyProgram:
    """One synchronous distributed program, identical at every party.

    The hooks act on columns: one entry per input row, all rows in lockstep.
    ``init(column, degree)`` builds the local state from the party's input in
    every row, an int64 array of shape (rows,), or (rows, symbols) when an
    input is a tuple.  Each round the engine calls ``send(state, r)`` for a
    ``{port: message}`` outbox, delivers all messages, then calls
    ``recv(state, inbox, r)``; the inbox maps the receiving port to what was
    delivered there.  After exactly ``rounds`` rounds, ``finish(state)``
    returns one output per row.

    A message is an int array of shape (rows, symbols), each symbol drawn
    from ``range(symbol_dim)`` and delivered as that array, or a
    :class:`SizedMessage`, whose payload (one entry per row) is delivered as
    it is.  Every row must send the same number of symbols on a port in a
    round, so the (port, size) pattern of a table never depends on which row
    is read; for the program to be usable coherently that pattern must not
    depend on the inputs at all, which the quantum layer checks across
    tables.

    ``parties``, when set, is the party count the program was built for; the
    engine refuses to run it on a network of another size.
    """

    rounds: int
    symbol_dim: int
    init: Callable[[np.ndarray, int], Any]
    send: Callable[[Any, int], dict]
    recv: Callable[[Any, dict, int], Any]
    finish: Callable[[Any], Sequence]
    name: str = "program"
    parties: Optional[int] = None

    def __post_init__(self):
        if not (isinstance(self.rounds, numbers.Integral) and self.rounds >= 0):
            raise ValueError(f"{self.name} needs a nonnegative round count, not {self.rounds!r}")

    @property
    def bits_per_symbol(self) -> int:
        return max(1, (self.symbol_dim - 1).bit_length())


class SizedMessage(NamedTuple):
    """A structured message whose transmitted size is declared explicitly.

    ``payload`` holds one entry per row.  ``symbols`` is the length each
    row's payload would have in a flat symbol encoding: one count for every
    row, or a sequence of one count per row, which must all be equal.  It
    must not depend on input values, only on topology.
    """

    payload: Sequence
    symbols: Any


def as_int64(values) -> np.ndarray:
    """``values`` as an int64 array; an entry that is not an integer raises ``ValueError``.

    A cast alone would read 1.5 as 1, so when numpy does not find an integer
    dtype, every entry is checked, in order, as the caller wrote it.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "biu":
        array = np.asarray(values, dtype=object)
        for x in array.flat:
            if not isinstance(x, numbers.Integral):
                raise ValueError(f"input {x} is not an integer")
            if not -2 ** 63 <= x < 2 ** 63:
                raise ValueError(f"input {x} does not fit in int64")
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True)
class CostReport:
    """Exact communication cost: rounds and symbols (qubits) transmitted.

    ``per_round`` optionally details the symbols per round; the compositions
    ``sequential`` and ``parallel`` keep it only when every operand carries it.
    """

    rounds: int
    qubits_sent: int
    bits_sent: int
    per_round: tuple = ()

    def __post_init__(self):
        if self.per_round:
            if len(self.per_round) != self.rounds:
                raise ValueError("per_round must have one entry per round")
            if sum(self.per_round) != self.qubits_sent:
                raise ValueError("per_round entries must sum to qubits_sent")

    @property
    def detailed(self) -> bool:
        return bool(self.per_round) or (self.rounds == 0 and self.qubits_sent == 0)

    @staticmethod
    def zero() -> "CostReport":
        return CostReport(0, 0, 0, ())


def sequential(*costs: CostReport) -> CostReport:
    """Sequential composition of ``costs``: rounds and traffic add.

    ``per_round`` is the concatenation when every operand is detailed.
    """
    detailed = all(c.detailed for c in costs)
    return CostReport(
        sum(c.rounds for c in costs),
        sum(c.qubits_sent for c in costs),
        sum(c.bits_sent for c in costs),
        tuple(chain.from_iterable(c.per_round for c in costs)) if detailed else (),
    )


def parallel(*costs: CostReport) -> CostReport:
    """Parallel composition of ``costs``: traffic adds, rounds overlap.

    ``per_round`` is the column sum, shorter operands padded with zeros,
    when every operand is detailed.
    """
    rounds = max((c.rounds for c in costs), default=0)
    detail = ()
    if all(c.detailed for c in costs):
        detail = tuple(sum(col) for col in zip_longest(*(c.per_round for c in costs),
                                                       fillvalue=0))
    return CostReport(
        rounds,
        sum(c.qubits_sent for c in costs),
        sum(c.bits_sent for c in costs),
        detail,
    )


def run_classical(
    topology: Topology,
    program: PartyProgram,
    inputs: Sequence[Any],
) -> tuple:
    """Run ``program`` at every party for exactly ``program.rounds`` rounds.

    ``inputs`` is a table of input rows, an int array of shape (rows,
    parties), or (rows, parties, symbols) when an input is a tuple, and all
    rows run in lockstep.  One vector of ``parties`` integers is read as a
    table of one row.  An entry that is not an integer, or a table of no
    rows, raises ``ValueError``.

    Returns ``(outputs, cost, events)``: ``outputs`` is an int64 array of
    shape (rows, parties), and ``cost`` is the cost of one row, which every
    row shares.  ``events`` is a tuple with one
    ``(round, sender, receiver, symbols, payload)`` tuple per message, in
    send order, with 1-based rounds; its first four fields are the
    input-oblivious pattern, and ``payload`` is what was delivered, a column
    of every row: an int64 array of shape (rows, symbols), or the payload of
    a :class:`SizedMessage` as it was sent.

    A round sends first and then delivers: messages emitted in round r are
    absorbed by ``recv`` in the same engine round, so information travels
    one hop per round.  A symbol outside the alphabet, a declared size that
    is negative or not an integer, or a size that differs between rows
    raises ``SimulationError``.
    """
    n = topology.n
    if program.parties is not None and program.parties != n:
        raise ValueError(f"{program.name} was built for {program.parties} parties, not {n}")
    table = np.atleast_2d(as_int64(inputs))   # one vector is a table of one row
    if table.shape[1] != n:
        raise ValueError(f"expected {n} inputs, got {table.shape[1]}")
    rows = len(table)
    if rows == 0:
        raise ValueError(f"{program.name} was given a table of no rows")
    states = [program.init(table[:, v], topology.degree(v)) for v in range(n)]
    send, recv, link = program.send, program.recv, topology.link
    events = []
    per_round = []
    for r in range(program.rounds):
        inboxes = [{} for _ in range(n)]
        symbols_this_round = 0
        for v in range(n):
            outbox = send(states[v], r) or {}
            # a party often sends one column, or one list of sizes, on every
            # port: check it once
            columns, sizes = {}, {}
            for port in sorted(outbox):
                u, q = link(v, port)
                msg = outbox[port]
                if type(msg) is SizedMessage:
                    payload, symbols = msg
                    if len(payload) != rows:
                        raise SimulationError(f"party {v} sent a payload of {len(payload)} "
                                              f"rows, not {rows}, on port {port}")
                    size = sizes.get(id(symbols))
                    if size is None:
                        size = sizes[id(symbols)] = _declared_size(program, symbols, rows,
                                                                   v, port, r)
                else:
                    payload = columns.get(id(msg))
                    if payload is None:
                        payload = columns[id(msg)] = _symbol_column(program, msg, rows, v, port)
                    size = payload.shape[1]
                inboxes[u][q] = payload
                symbols_this_round += size
                events.append((r + 1, v, u, size, payload))
        per_round.append(symbols_this_round)
        for v in range(n):
            states[v] = recv(states[v], inboxes[v], r)
    finished = [program.finish(states[v]) for v in range(n)]
    for column in finished:
        if len(column) != rows:
            raise SimulationError(f"{program.name} finished with {len(column)} outputs "
                                  f"for {rows} rows")
    total = sum(per_round)
    cost = CostReport(program.rounds, total, total * program.bits_per_symbol, tuple(per_round))
    return np.ascontiguousarray(as_int64(finished).T), cost, tuple(events)


def _declared_size(program: PartyProgram, symbols, rows: int, v: int, port: int,
                   r: int) -> int:
    """The one symbol count of a :class:`SizedMessage` in every row, checked."""
    sizes = np.asarray(symbols)
    if sizes.ndim == 1 and len(sizes) != rows:
        raise SimulationError(f"party {v} declared {len(sizes)} sizes for {rows} rows "
                              f"on port {port}")
    if sizes.ndim > 1 or sizes.dtype.kind not in "biu":
        raise SimulationError(f"party {v} declared a message size that is not an integer "
                              f"on port {port}")
    low, high = int(sizes.min()), int(sizes.max())
    if low < 0:
        raise SimulationError(f"party {v} declared a negative message size")
    if low != high:
        raise SimulationError(
            f"program {program.name} has an input-dependent communication pattern: "
            f"party {v} sends {low} and {high} symbols on port {port} in round {r + 1}")
    return low


def _symbol_column(program: PartyProgram, msg, rows: int, v: int, port: int) -> np.ndarray:
    """A message of symbols as an int64 array of shape (rows, symbols), checked."""
    column = np.asarray(msg)
    if column.ndim != 2 or len(column) != rows:
        raise SimulationError(f"party {v} sent a message of shape {column.shape}, not "
                              f"({rows} rows, symbols), on port {port}")
    if column.size:
        if column.dtype.kind not in "biu":
            raise SimulationError(f"party {v} sent {column.dtype} symbols on port {port}")
        column = column.astype(np.int64, copy=False)
        # one pass over the column: a negative symbol reads as a large unsigned one
        if column.view(np.uint64).max() >= program.symbol_dim:
            s = column[(column < 0) | (column >= program.symbol_dim)][0]
            raise SimulationError(
                f"party {v} sent symbol {s} outside alphabet "
                f"0..{program.symbol_dim - 1} on port {port}")
    return column


def verify_anonymity(
    topology: Topology,
    program: PartyProgram,
    table: Sequence[Any],
    aut: Sequence[int],
) -> bool:
    """Check equivariance of a table's runs under a port-preserving automorphism.

    Runs ``table`` stacked on its copy with party ``v``'s input moved to
    ``aut[v]``.  Each row's outputs, relabeled, must be its copy's, the message
    pattern must map onto itself, and each message's payload in a row must be
    its image's in the copy.  ``table`` has the shape (rows, parties), or
    (rows, parties, symbols) when an input is a tuple; any other shape
    raises ``ValueError``.
    """
    if not is_automorphism(topology, aut):
        raise ValueError("permutation is not a port-preserving automorphism")
    table, perm = as_int64(table), np.asarray(aut)
    if table.ndim not in (2, 3):
        raise ValueError(f"verify_anonymity takes a table of shape (rows, parties), "
                         f"not shape {table.shape}")
    rows = len(table)
    outputs, _cost, events = run_classical(
        topology, program, np.concatenate((table, table[:, np.argsort(perm)])))
    if not np.array_equal(outputs[rows:, perm], outputs[:rows]):
        return False
    # a simple graph has one edge per (sender, receiver) pair, so a round and
    # a link name one message
    sent = {(r, s, t): (size, payload) for r, s, t, size, payload in events}
    for r, s, t, size, payload in events:
        image = sent.get((r, aut[s], aut[t]))
        if (image is None or image[0] != size
                or _rows(payload, 0, rows) != _rows(image[1], rows, 2 * rows)):
            return False
    return True


def _rows(payload, start: int, stop: int) -> list:
    """Rows ``start`` to ``stop`` of a message payload, as a list comparable with ``==``."""
    part = payload[start:stop]
    return part.tolist() if isinstance(part, np.ndarray) else list(part)
