"""Argument refusals that no protocol run reaches, one case per message."""
import re

import numpy as np
import pytest

from anonqnet.election import elect, exactly_one_algorithm, rotation_matrix, unique_one_state
from anonqnet.errors import SimulationError
from anonqnet.ghz import ghz_share
from anonqnet.postelect import compute_function, gather_scatter_state, majority
from anonqnet.qsim import (SparseState, apply_all_parties, apply_coherent_subroutine,
                           binary_op_all_parties, branches, drop_registers, fidelity, gate,
                           init_state, layout, tensor)
from anonqnet.runtime import PartyProgram, SizedMessage, run_classical, verify_anonymity
from anonqnet.subroutines import (all_zeros_flooding, consistency_from_all_zeros,
                                  modular_sum_views, run_cached, run_row, view)
from anonqnet.topology import build_graph, catalog, load_graph


def coherent_flood(parties, fiducial=0):
    state = init_state(layout(parties, [("x", 2), ("y", 2)]))
    return apply_coherent_subroutine(state, all_zeros_flooding(3), catalog("ring", 3),
                                     "x", "y", fiducial=fiducial)


def qubits(parties, name="q"):
    return init_state(layout(parties, [(name, 2)]))


def lanes():
    return SparseState(layout(1, [("m", 2), ("q", 2)]), {(0, 0): (1.0, 1.0)})


def blocks():
    # one party, each value of "m" its own normalized block
    return SparseState(layout(1, [("m", 2), ("q", 2)], blocks="m"),
                       dict.fromkeys(((0, 0), (1, 0)), 1.0 + 0j))


def run_sized(symbols):
    """A two-row run on complete-2 where every party sends an empty payload
    declared as ``symbols`` symbols."""
    program = PartyProgram(rounds=1, symbol_dim=2, init=lambda x, d: len(x),
                           send=lambda rows, r: {1: SizedMessage([()] * rows, symbols)},
                           recv=lambda rows, inbox, r: rows,
                           finish=lambda rows: np.zeros(rows, dtype=np.int64))
    return run_classical(catalog("complete", 2), program, [[0, 0], [0, 0]])


def gather_scatter(parties, transform_dim):
    return gather_scatter_state(catalog("ring", 2), 0, qubits(parties), "q",
                                np.eye(transform_dim))


REFUSALS = [
    ("engine-input-count",
     lambda: run_classical(catalog("ring", 3), all_zeros_flooding(3).program, [[0, 0]]),
     ValueError, "expected 3 inputs, got 2"),
    ("engine-non-integer-input",
     lambda: run_classical(catalog("ring", 3), modular_sum_views(3, 3).program, [[1.5, 0, 0]]),
     ValueError, "input 1.5 is not an integer"),
    ("engine-no-rows",
     lambda: run_classical(catalog("ring", 3), all_zeros_flooding(3).program,
                           np.zeros((0, 3), dtype=np.int64)),
     ValueError, "all_zeros_flooding[3] was given a table of no rows"),
    # a size is a symbol count: a fraction is neither truncated nor metered
    ("engine-fractional-size-array", lambda: run_sized(np.full(2, 1.5)),
     SimulationError, "party 0 declared a message size that is not an integer on port 1"),
    ("engine-fractional-size-list", lambda: run_sized([1.5, 1.5]),
     SimulationError, "party 0 declared a message size that is not an integer on port 1"),
    ("engine-fractional-size", lambda: run_sized(1.5),
     SimulationError, "party 0 declared a message size that is not an integer on port 1"),
    ("program-negative-rounds",
     lambda: PartyProgram(rounds=-2, symbol_dim=2, init=None, send=None, recv=None,
                          finish=None),
     ValueError, "program needs a nonnegative round count, not -2"),
    ("coherent-party-count", lambda: coherent_flood(2),
     ValueError, "topology and layout disagree on the party count"),
    ("coherent-fiducial", lambda: coherent_flood(3, fiducial=2),
     ValueError, "fiducial out of range"),
    ("state-without-support", lambda: SparseState(layout(1, [("q", 2)]), {(0,): 0j}),
     SimulationError, "state has no support left"),
    ("state-key-outside-layout", lambda: SparseState(layout(1, [("q", 2)]), {(2,): 1.0}),
     ValueError, "basis key (2,) does not fit the layout"),
    ("bound-below-party-count", lambda: exactly_one_algorithm(catalog("ring", 4), 3),
     ValueError, "known bound below the true party count"),
    ("function-input-count", lambda: compute_function(catalog("ring", 3), [0, 1], majority),
     ValueError, "expected 3 inputs"),
    ("sum-modulus", lambda: modular_sum_views(1, 3),
     ValueError, "modulus must be at least 2"),
    ("sum-party-count",
     lambda: run_classical(catalog("complete", 2), modular_sum_views(5, 4).program, [[1, 1]]),
     ValueError, "modular_sum[5,4] was built for 4 parties, not 2"),
    ("sum-input-range",
     lambda: run_classical(catalog("ring", 3), modular_sum_views(2, 3).program, [[0, 2, 0]]),
     ValueError, "input 2 outside 0..1"),
    ("flood-input-alphabet",
     lambda: run_row(all_zeros_flooding(3), catalog("ring", 3), (0, 2, 0)),
     ValueError, "input 2 outside 0..1 of all_zeros_flooding[3]"),
    ("consistency-input-alphabet",
     lambda: run_row(consistency_from_all_zeros(all_zeros_flooding(3)), catalog("ring", 3),
                     ((0, 1), (2, 1), (0, 0))),
     ValueError, "input 2 outside 0..1 of consistency[3]"),
    ("run-row-non-integer-input",
     lambda: run_row(all_zeros_flooding(3), catalog("ring", 3), (0.5, 0, 0)),
     ValueError, "input 0.5 is not an integer"),
    ("run-cached-no-rows",
     lambda: run_cached(all_zeros_flooding(3), catalog("ring", 3),
                        np.zeros((0, 3), dtype=np.int64)),
     ValueError, "all_zeros_flooding[3] was given a table of no rows"),
    ("run-row-code-space",
     lambda: run_row(all_zeros_flooding(64), catalog("ring", 64), (0,) * 64),
     ValueError, "64 parties of 2 inputs each make 2**64 input rows, "
                 "too many for int64 codes (2**63 at most)"),
    ("flood-negative-rounds", lambda: all_zeros_flooding(-1),
     ValueError, "round bound must be nonnegative"),
    ("unique-one-entry-above-one",
     lambda: exactly_one_algorithm(catalog("ring", 3)).evaluate_many([(2, 0, 0)]),
     ValueError, "input entry 2 is not a bit"),
    ("unique-one-negative-entry",
     lambda: exactly_one_algorithm(catalog("ring", 3)).evaluate_many([(-1, 0, 0)]),
     ValueError, "input entry -1 is not a bit"),
    ("unique-one-input-length",
     lambda: exactly_one_algorithm(catalog("ring", 3)).evaluate_many([(0, 1)]),
     ValueError, "input (0, 1) has 2 entries for 3 parties"),
    ("unique-one-state-party-count",
     lambda: exactly_one_algorithm(catalog("ring", 3)).apply(
         unique_one_state({(0, 1): 1.0}), "bit", "res"),
     ValueError, "input (0, 1) has 2 entries for 3 parties"),
    ("layout-duplicate-register", lambda: layout(1, [("q", 2), ("q", 2)]),
     ValueError, "duplicate register name"),
    ("layout-dimension-one", lambda: layout(1, [("q", 1)]),
     ValueError, "register 'q' needs dimension >= 2"),
    # the guess banks of ring-30 would need 8**30 keys; the election refuses
    # them when it builds their layout, before any simulation
    ("layout-key-space", lambda: elect(catalog("ring", 30)),
     ValueError, "30 parties of 8 basis states each make 8**30 = 1.238e+27 keys, "
                 "too many for int64 keys (2**63 at most)"),
    ("drop-every-register", lambda: drop_registers(qubits(2), ["q"]),
     ValueError, "cannot drop every register"),
    ("tensor-party-count", lambda: tensor(qubits(1, "a"), qubits(2, "b")),
     ValueError, "party counts differ"),
    ("fidelity-layout", lambda: fidelity(qubits(1, "a"), qubits(1, "b")),
     ValueError, "layout mismatch"),
    ("branches-lanes", lambda: branches(lanes(), "q"),
     ValueError, "branches takes a scalar state, not lanes or blocks"),
    ("branches-blocks", lambda: branches(blocks(), "q"),
     ValueError, "branches takes a scalar state, not lanes or blocks"),
    ("drop-lanes", lambda: drop_registers(lanes(), ["m"]),
     ValueError, "drop_registers takes a scalar state, not lanes or blocks"),
    ("drop-blocks", lambda: drop_registers(blocks(), ["q"]),
     ValueError, "drop_registers takes a scalar state, not lanes or blocks"),
    ("fidelity-lanes", lambda: fidelity(lanes(), lanes()),
     ValueError, "fidelity takes a scalar state, not lanes or blocks"),
    ("fidelity-blocks", lambda: fidelity(blocks(), blocks()),
     ValueError, "fidelity takes a scalar state, not lanes or blocks"),
    ("blocks-unknown-register", lambda: layout(1, [("q", 2)], blocks="m"),
     ValueError, "no register named 'm'"),
    ("blocks-gate", lambda: apply_all_parties(blocks(), "m", gate(np.eye(2))),
     ValueError, "register 'm' names the blocks and cannot be written"),
    ("blocks-modular-addition", lambda: binary_op_all_parties(blocks(), "q", "m"),
     ValueError, "register 'm' names the blocks and cannot be written"),
    ("graph-no-party", lambda: build_graph(0, []),
     ValueError, "party count must be at least 1"),
    ("graph-port-cover",
     lambda: build_graph(2, [(0, 1)], ports=[{}, {(0, 1): 1}]),
     ValueError, "port table of node 0 does not cover its incident edges"),
    ("catalog-ring-one", lambda: catalog("ring", 1), ValueError, "ring needs n >= 2"),
    ("catalog-path-one", lambda: catalog("path", 1), ValueError, "path needs n >= 2"),
    ("catalog-complete-one", lambda: catalog("complete", 1),
     ValueError, "complete graph needs n >= 2"),
    ("catalog-star-one", lambda: catalog("star", 1), ValueError, "star needs n >= 2"),
    ("catalog-name", lambda: catalog("wheel", 5), ValueError, "unknown catalog graph 'wheel'"),
    ("graph-file-port-endpoint", lambda: load_graph("n 3\ne 0 1\np 2 0 1\n"),
     ValueError, "port override: node 2 is not an endpoint of edge 0"),
    ("graph-file-repeated-port",
     lambda: load_graph("n 3\ne 0 1\ne 0 2\np 0 0 2\np 0 0 1\n"),
     ValueError, "line 5: second 'p' record for node 0 on edge 0"),
    ("gather-scatter-party-count", lambda: gather_scatter(3, 8),
     ValueError, "state and topology disagree on the party count"),
    ("gather-scatter-transform-size", lambda: gather_scatter(2, 2),
     ValueError, "transform must be 4x4"),
    ("ghz-dimension-one", lambda: ghz_share(catalog("ring", 3), 1),
     ValueError, "qudit dimension must be at least 2"),
    ("rotation-one-party", lambda: rotation_matrix(1),
     ValueError, "need at least two parties"),
    ("view-negative-depth", lambda: view(catalog("ring", 3), 0, -1),
     ValueError, "depth must be nonnegative"),
    ("view-short-inputs", lambda: view(catalog("ring", 4), 0, 1, inputs=[0, 0, 0]),
     ValueError, "expected 4 inputs, got 3"),
    ("view-long-inputs", lambda: view(catalog("ring", 4), 0, 1, inputs=[0, 0, 0, 0, 1]),
     ValueError, "expected 4 inputs, got 5"),
    ("anonymity-vector",
     lambda: verify_anonymity(catalog("ring", 4), all_zeros_flooding(4).program,
                              [1, 0, 0, 0], (1, 2, 3, 0)),
     ValueError, "verify_anonymity takes a table of shape (rows, parties), not shape (4,)"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
