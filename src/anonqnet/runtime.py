"""Synchronous anonymous execution of classical distributed programs.

Every party runs identical code; a party's hooks see only its local input,
its degree, and whatever arrives on its ports; what every party knows in
advance, such as the party count, is built into the program.
The engine meters communication exactly: one unit per transmitted symbol per
link per direction per round, with d-level symbols charged ceil(log2 d) bits.
A run yields the parties' outputs, its cost, and one plain
``(round, sender, receiver, symbols, payload)`` event per message.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .errors import SimulationError
from .topology import Topology, is_automorphism, relabel


@dataclass(frozen=True)
class PartyProgram:
    """One synchronous distributed program, identical at every party.

    ``init(local_input, degree)`` builds the local state.
    Each round the engine calls ``send(state, r)`` for a ``{port: message}``
    outbox, delivers all messages, then calls ``recv(state, inbox, r)``.
    After exactly ``rounds`` rounds, ``finish(state)`` yields the output.

    Messages are tuples of symbols drawn from ``range(symbol_dim)``, or
    :class:`SizedMessage` values carrying an explicit symbol count.  For the
    program to be usable coherently its (port, size) pattern per round must
    not depend on the inputs; the quantum layer enforces this.

    ``parties``, when set, is the party count the program was built for; the
    engine refuses to run it on a network of another size.
    """

    rounds: int
    symbol_dim: int
    init: Callable[[Any, int], Any]
    send: Callable[[Any, int], dict]
    recv: Callable[[Any, dict, int], Any]
    finish: Callable[[Any], Any]
    name: str = "program"
    parties: Optional[int] = None

    @property
    def bits_per_symbol(self) -> int:
        return max(1, (self.symbol_dim - 1).bit_length())


class SizedMessage(NamedTuple):
    """A structured message whose transmitted size is declared explicitly.

    ``symbols`` must equal the length the payload would have in a flat symbol
    encoding and must not depend on input values, only on topology.
    """

    payload: Any
    symbols: int


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

    Returns ``(outputs, cost, events)``.  ``events`` is a tuple with one
    ``(round, sender, receiver, symbols, payload)`` tuple per message, in
    send order, with 1-based rounds; its first four fields are the
    input-oblivious pattern.  A round sends first and then delivers:
    messages emitted in round r are absorbed by ``recv`` in the same engine
    round, so information travels one hop per round.
    """
    n = topology.n
    if program.parties is not None and program.parties != n:
        raise ValueError(f"{program.name} was built for {program.parties} parties, not {n}")
    if len(inputs) != n:
        raise ValueError(f"expected {n} inputs, got {len(inputs)}")
    states = [program.init(inputs[v], topology.degree(v)) for v in range(n)]
    send, recv, link, dim = program.send, program.recv, topology.link, program.symbol_dim
    events = []
    per_round = []
    for r in range(program.rounds):
        inboxes = [{} for _ in range(n)]
        symbols_this_round = 0
        for v in range(n):
            outbox = send(states[v], r) or {}
            for port in sorted(outbox):
                msg = outbox[port]
                if type(msg) is SizedMessage:
                    payload, size = msg
                    if size < 0:
                        raise SimulationError(f"party {v} declared a negative message size")
                else:
                    payload = (msg,) if isinstance(msg, int) else tuple(msg)
                    for s in payload:
                        if not (0 <= s < dim):
                            raise SimulationError(
                                f"party {v} sent symbol {s} outside alphabet "
                                f"0..{dim - 1} on port {port}")
                    size = len(payload)
                u, q = link(v, port)
                inboxes[u][q] = payload
                symbols_this_round += size
                events.append((r + 1, v, u, size, payload))
        per_round.append(symbols_this_round)
        for v in range(n):
            states[v] = recv(states[v], inboxes[v], r)
    outputs = [program.finish(states[v]) for v in range(n)]
    total = sum(per_round)
    cost = CostReport(program.rounds, total, total * program.bits_per_symbol, tuple(per_round))
    return outputs, cost, tuple(events)


def verify_anonymity(
    topology: Topology,
    program: PartyProgram,
    inputs: Sequence[Any],
    aut: Sequence[int],
) -> bool:
    """Check equivariance of a run under a port-preserving automorphism.

    Runs the program on ``inputs`` and on the permuted inputs, and compares
    outputs, costs, and message events modulo the node relabeling.
    """
    if not is_automorphism(topology, aut):
        raise ValueError("permutation is not a port-preserving automorphism")
    out1, cost1, events1 = run_classical(topology, program, inputs)
    out2, cost2, events2 = run_classical(topology, program, relabel(inputs, aut))
    if cost1 != cost2 or relabel(out1, aut) != out2:
        return False
    # a simple graph has one edge per (sender, receiver) pair, so sorting
    # never reaches the payloads: they are only compared for equality
    moved_events = sorted((r, aut[s], aut[t], size, payload)
                          for r, s, t, size, payload in events1)
    return moved_events == sorted(events2)
