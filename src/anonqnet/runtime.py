"""Synchronous anonymous execution of classical distributed programs.

Every party runs identical code and knows its input, its degree and its
port numbers, nothing else; what every party knows in advance, such as the
party count, is built into the program.  The engine runs a table of input
rows in lockstep with the parties stacked into the row axis: each hook is
called once per round for every party and row, and a row carries no party
index.  Rows never interact, so a coherent lookup of many inputs, or a
table stacked on its relabeled copy, is one run.  It meters communication
exactly: one unit per transmitted symbol per link per direction per round,
with d-level symbols charged ceil(log2 d) bits, and every row of a party
must send the same number of symbols.  A run yields an output table, the
cost of one row, and one ``(round, sender, receiver, symbols, payload)``
event per message, its payload the sender's rows.
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

    The hooks act on the parties stacked party-major: row ``v * R + i`` is
    party v on input row i of a table of R rows.  ``init(inputs, degrees)``
    builds the state from the stacked inputs, an int64 array of shape
    (parties * R,), or (parties * R, symbols) when an input is a tuple, and
    from each row's degree.  Each round the engine calls ``send(state, r)``
    for a ``{port: message}`` outbox, on every port or none, delivers the
    messages, then calls ``recv(state, inbox, r)``.  The message on port p
    holds the rows whose degree is at least p, in stacked order
    (:func:`port_rows`), and so does the inbox on port p, each party's rows
    what its neighbour sent across the link.  After exactly ``rounds``
    rounds, ``finish(state)`` returns one output per stacked row.

    A message is an integer or bool array of shape (rows, symbols), each
    symbol drawn from ``range(symbol_dim)`` and delivered in its dtype (a
    signed one as int64), or a :class:`SizedMessage`, whose payload (one
    entry per row) is delivered as it is.  Every row of a party must send
    the same number of symbols on a port in a round, so the (port, size)
    pattern of a table never depends on which row is read; for the program
    to be usable coherently that pattern must not depend on the inputs at
    all, which the quantum layer checks across tables.

    ``parties``, when set, is the party count the program was built for; the
    engine refuses to run it on a network of another size.
    """

    rounds: int
    symbol_dim: int
    init: Callable[[np.ndarray, np.ndarray], Any]
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
    row, or a sequence of one count per row, equal within each party's rows.
    It must not depend on input values, only on topology.
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


def port_rows(degrees) -> tuple:
    """The stacked rows that port p's messages hold, for p in 1..max of ``init``'s degrees.

    They are the rows of degree at least p: a slice when they are one run,
    every row for one, so that picking them copies nothing, else an index.
    """
    degrees = np.asarray(degrees)
    entries = []
    for p in range(1, int(degrees.max(initial=0)) + 1):
        rows = np.flatnonzero(degrees >= p)
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        entries.append(rows)
    return tuple(entries)


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
    rows run in lockstep, stacked as :class:`PartyProgram` says.  One vector
    of ``parties`` integers is read as a table of one row.  An entry that is
    not an integer, or a table of no rows, raises ``ValueError``.

    Returns ``(outputs, cost, events)``: ``outputs`` is an int64 array of
    shape (rows, parties), and ``cost`` is the cost of one row, which every
    row shares.  ``events`` holds one ``(round, sender, receiver, symbols,
    payload)`` tuple per message, by sender and then port, with 1-based
    rounds; its first four fields are the input-oblivious pattern, and
    ``payload`` is the sender's rows of what was delivered.

    A round sends first and then delivers: messages emitted in round r are
    absorbed by ``recv`` in the same engine round, so information travels
    one hop per round.  A port no party has raises ``ValueError``, and a
    malformed message, or one sent on some ports only, ``SimulationError``.
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
    holders, messages, blocks, spans = _links(topology)
    state = program.init(table.swapaxes(0, 1).reshape(n * rows, *table.shape[2:]),
                         np.repeat([topology.degree(v) for v in range(n)], rows))
    events, per_round = [], []
    for r in range(program.rounds):
        outbox = program.send(state, r) or {}
        inbox, sizes = {}, []
        if outbox:
            if outbox.keys() != holders.keys():
                port = next((p for p in outbox if p not in holders), None)
                if port is not None:
                    raise ValueError(f"party 0 sends on port {port} in round {r + 1}, "
                                     f"but node 0 has no port {port}")
                port = min(holders.keys() - outbox.keys())
                raise SimulationError(f"party {holders[port][0]} sends nothing on port {port} "
                                      f"in round {r + 1}: a round sends on every port or none")
            payloads = []
            for p, parties in holders.items():
                payload, symbols = _checked(program, outbox[p], parties, rows, p, r)
                payloads.append(payload)
                sizes += symbols
            stacked, inbox = _delivered(payloads, blocks, spans, rows)
            events.extend((r + 1, v, u, sizes[b], stacked[b * rows:(b + 1) * rows])
                          for v, u, b in messages)
        per_round.append(sum(sizes))
        state = program.recv(state, inbox, r)
    outputs = program.finish(state)
    if len(outputs) != n * rows:
        raise SimulationError(f"{program.name} finished with {len(outputs)} outputs for "
                              f"{n} parties of {rows} rows")
    total = sum(per_round)
    cost = CostReport(program.rounds, total, total * program.bits_per_symbol, tuple(per_round))
    return np.ascontiguousarray(as_int64(outputs).reshape(n, rows).T), cost, tuple(events)


def _links(topology: Topology) -> tuple:
    """``(holders, messages, blocks, spans)``: a round's messages stacked in port order.

    The message on port p holds a block of rows per party in ``holders[p]``.
    ``messages`` lists (sender, receiver, block) by sender and then port;
    ``blocks`` lists the blocks the inboxes gather, and ``spans`` holds each
    port's ``(port, first, end)`` among the blocks of either.
    """
    n, degree = topology.n, topology.degree
    holders = {p: tuple(v for v in range(n) if degree(v) >= p)
               for p in range(1, max(map(degree, range(n))) + 1)}
    order = [(v, p) for p, parties in holders.items() for v in parties]
    block = dict(zip(order, range(len(order))))
    messages = tuple((v, topology.link(v, p)[0], block[v, p])
                     for v in range(n) for p in range(1, degree(v) + 1))
    blocks = np.array([block[topology.link(u, q)] for u, q in order], dtype=np.intp)
    starts = np.cumsum([0] + [len(parties) for parties in holders.values()]).tolist()
    return holders, messages, blocks, tuple(zip(holders, starts, starts[1:]))


def _delivered(payloads: list, blocks: np.ndarray, spans: tuple, rows: int) -> tuple:
    """A round's payloads stacked in port order, and the inboxes gathered from them as copies."""
    if any(type(payload) is not np.ndarray for payload in payloads):
        stacked = list(chain.from_iterable(payloads))
        return stacked, {q: [x for b in blocks[start:stop].tolist()
                             for x in stacked[b * rows:(b + 1) * rows]]
                         for q, start, stop in spans}
    stacked = np.concatenate(payloads)
    tail = stacked.shape[1:]
    gathered = stacked.reshape(len(stacked) // rows, rows, *tail)[blocks]
    return stacked, {q: gathered[start:stop].reshape((stop - start) * rows, *tail)
                     for q, start, stop in spans}


def _checked(program: PartyProgram, msg, parties: tuple, rows: int, port: int,
             r: int) -> tuple:
    """A message's payload, a signed array as int64, and each party's symbol count, checked."""
    sized = type(msg) is SizedMessage
    payload = msg.payload if sized else np.asarray(msg)
    if not sized and payload.ndim != 2:
        raise SimulationError(f"party {parties[0]} sent a message of shape {payload.shape}, "
                              f"not (rows, symbols), on port {port} in round {r + 1}")
    if len(payload) != len(parties) * rows:
        raise SimulationError(
            f"the message on port {port} in round {r + 1} has {len(payload)} rows, not "
            f"{rows} for each of the {len(parties)} parties with that port, from party "
            f"{parties[min(len(payload) // rows, len(parties) - 1)]} on")
    if not sized:
        if payload.size and payload.dtype.kind not in "biu":
            raise SimulationError(f"party {parties[0]} sent {payload.dtype} symbols on port "
                                  f"{port}")
        if payload.dtype.kind == "i":
            payload = payload.astype(np.int64, copy=False)
        # one pass: a negative symbol reads as a large unsigned one; a bool is 0 or 1
        if (payload.size and (payload.dtype.kind != "b" or program.symbol_dim < 2)
                and payload.view(f"u{payload.itemsize}").max() >= program.symbol_dim):
            outside = (payload < 0) | (payload >= program.symbol_dim)
            i = int(np.argmax(outside.any(axis=1)))
            raise SimulationError(
                f"party {parties[i // rows]} sent symbol {payload[i][outside[i]][0]} outside "
                f"alphabet 0..{program.symbol_dim - 1} on port {port}")
        return payload, [payload.shape[1]] * len(parties)
    sizes = np.asarray(msg.symbols)
    if sizes.ndim > 1 or sizes.dtype.kind not in "biu":
        raise SimulationError(f"party {parties[0]} declared a message size that is not an "
                              f"integer on port {port}")
    if sizes.ndim == 1 and len(sizes) != len(parties) * rows:
        raise SimulationError(f"party {parties[min(len(sizes) // rows, len(parties) - 1)]} "
                              f"declared {len(sizes)} sizes for {len(parties) * rows} rows "
                              f"on port {port} in round {r + 1}")
    per_party = np.broadcast_to(sizes, (len(parties) * rows,)).reshape(len(parties), rows)
    low, high = per_party.min(axis=1), per_party.max(axis=1)
    if low.min() < 0:
        raise SimulationError(f"party {parties[int(np.argmax(low < 0))]} declared a negative "
                              f"message size")
    if (low != high).any():
        b = int(np.argmax(low != high))
        raise SimulationError(
            f"program {program.name} has an input-dependent communication pattern: "
            f"party {parties[b]} sends {low[b]} and {high[b]} symbols on port {port} "
            f"in round {r + 1}")
    return payload, low.tolist()


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
