import itertools
import math
import random
from collections import namedtuple

import numpy as np
import pytest

from anonqnet import qsim
from anonqnet.cli import dump_state, load_state
from anonqnet.election import elect
from anonqnet.errors import ExactnessError, SimulationError
from anonqnet.qsim import (Gate, SparseState, agreed, apply_all_parties,
                           apply_coherent_subroutine, binary_op_all_parties,
                           branches, drop_registers, fidelity, gate,
                           init_state, joint_branches, layout, phase_kick_where,
                           rename_register, sample_index, scale, tensor,
                           uncompute_subroutine)
from anonqnet.runtime import PartyProgram, SizedMessage
from anonqnet.subroutines import ClassicalSubroutine, all_zeros_flooding, run_row
from anonqnet.topology import build_graph, catalog

from conftest import all_bit_vectors

H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def test_init_state_examples():
    st = init_state(layout(2, [("q", 2)]), 0)
    assert st.amps == {(0, 0): 1.0 + 0j}
    st = init_state(layout(1, [("a", 2), ("b", 3)]), {"a": 0, "b": 2})
    assert st.amps == {(0, 2): 1.0 + 0j}
    with pytest.raises(ValueError):
        init_state(layout(1, [("a", 2)]), 5)
    with pytest.raises(ValueError, match="no register named 'coinn'"):
        init_state(layout(2, [("coin", 2), ("mark", 2)]), {"coinn": 1})
    scalar = init_state(layout(3, []), 0)
    assert scalar.amps == {(): 1.0 + 0j}


def test_rotation_on_two_parties_gives_uniform():
    # the coin rotation at n=2 is the Hadamard, so two parties give 1/2 each
    from anonqnet.election import rotation_matrix
    st = init_state(layout(2, [("q", 2)]), 0)
    st = apply_all_parties(st, "q", gate(rotation_matrix(2)))
    for key in all_bit_vectors(2):
        assert abs(st.amplitude(key) - 0.5) < 1e-12


def test_identity_leaves_state_alone():
    st = init_state(layout(3, [("q", 2)]), 0)
    st2 = apply_all_parties(st, "q", gate(np.eye(2)))
    assert st2.amps == st.amps


def test_hadamard_three_parties():
    st = init_state(layout(3, [("q", 2)]), 0)
    st = apply_all_parties(st, "q", gate(H))
    assert len(st) == 8
    amp = 1 / math.sqrt(8)
    assert all(abs(a - amp) < 1e-12 for a in st.amps.values())


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        gate(np.array([[1, 1], [0, 1]], dtype=complex))


def test_gate_refuses_a_matrix_that_is_not_unitary_or_not_square():
    with pytest.raises(ValueError, match="not unitary"):
        gate(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        gate(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="not square"):
        gate(np.ones((2, 3)) / math.sqrt(3))
    with pytest.raises(ValueError, match="not square"):
        gate(np.ones(2))


def test_gate_keeps_nonzero_coefficients_as_python_complex():
    hadamard = gate(H)
    assert isinstance(hadamard, Gate) and hadamard.dim == 2
    assert [[j for j, _c in col] for col in hadamard.columns] == [[0, 1], [0, 1]]
    assert all(type(c) is complex for col in hadamard.columns for _j, c in col)
    assert gate(np.eye(3)).columns == (((0, 1 + 0j),), ((1, 1 + 0j),), ((2, 1 + 0j),))


def test_apply_refuses_a_gate_of_another_dimension():
    st = init_state(layout(2, [("q", 2)]), 0)
    with pytest.raises(ValueError, match=r"matrix shape \(3, 3\) does not match register "
                                         r"dimension 2"):
        apply_all_parties(st, "q", gate(np.eye(3)))


def test_election_checks_each_gate_once_where_it_is_built(monkeypatch):
    calls = []
    check = qsim._check_unitary

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(qsim, "_check_unitary", counted)
    elect(catalog("ring", 5), all_branches=True)
    assert 1 <= len(calls) <= 2


def test_coherent_flooding_on_bell_state():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2), ("flag", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 1, 0, 1): amp, (1, 1, 1, 1): amp})
    sub = all_zeros_flooding(2)
    st2, cost = apply_coherent_subroutine(st, sub, topo, ("q",), "flag", fiducial=1)
    assert abs(st2.amplitude((0, 1, 0, 1)) - amp) < 1e-12   # 00 stays flagged true
    assert abs(st2.amplitude((1, 0, 1, 0)) - amp) < 1e-12   # 11 flagged false
    assert cost.qubits_sent == 2 * topo.m * 2


def test_apply_then_uncompute_is_identity():
    topo = catalog("ring", 4)
    lay = layout(4, [("q", 2), ("flag", 2)])
    amps = {}
    vectors = all_bit_vectors(4)
    for i, x in enumerate(vectors):
        key = []
        for v in range(4):
            key.extend((x[v], 1))
        amps[tuple(key)] = (i + 1) / math.sqrt(sum((j + 1) ** 2 for j in range(16)))
    st = SparseState(lay, amps)
    sub = all_zeros_flooding(4)
    mid, c1 = apply_coherent_subroutine(st, sub, topo, ("q",), "flag", fiducial=1)
    back, c2 = uncompute_subroutine(mid, sub, topo, ("q",), "flag", fiducial=1)
    assert set(back.amps) == set(st.amps)
    assert all(abs(back.amps[k] - st.amps[k]) < 1e-12 for k in st.amps)
    assert c1 == c2


def test_uncompute_mismatch_raises():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2), ("flag", 2)])
    st = SparseState(lay, {(0, 0, 0, 0): 1.0})  # flag says false but input is 00
    sub = all_zeros_flooding(2)
    with pytest.raises(ExactnessError):
        uncompute_subroutine(st, sub, topo, ("q",), "flag", fiducial=1)


def test_coherent_precondition_violation():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2), ("flag", 2)])
    st = SparseState(lay, {(0, 0, 0, 1): 1.0})  # flags disagree with fiducial at party 0
    sub = all_zeros_flooding(2)
    with pytest.raises(SimulationError):
        apply_coherent_subroutine(st, sub, topo, ("q",), "flag", fiducial=1)


def test_phase_kick():
    lay = layout(3, [("f", 2)])
    st = SparseState(lay, {(1, 1, 1): 1.0})
    theta = 0.7
    st2 = phase_kick_where(st, (("f", 1),), theta / 3)
    assert abs(st2.amplitude((1, 1, 1)) - np.exp(1j * theta)) < 1e-12
    st3 = phase_kick_where(SparseState(lay, {(0, 0, 0): 1.0}), (("f", 1),), theta / 3)
    assert abs(st3.amplitude((0, 0, 0)) - 1.0) < 1e-15
    assert phase_kick_where(st, (("f", 1),), 0.0).amps == st.amps


def test_measurement_branches():
    lay = layout(1, [("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0,): amp, (1,): amp})
    brs = branches(st, "q")
    assert len(brs) == 2
    assert all(abs(b.probability - 0.5) < 1e-12 for b in brs)
    assert abs(sum(b.probability for b in brs) - 1.0) < 1e-10


def test_entangled_pair_never_shows_agreement():
    lay = layout(2, [("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 1): amp, (1, 0): amp})
    outcomes = {b.outcome for b in branches(st, "q")}
    assert outcomes == {(0, 1), (1, 0)}


def test_fidelity_basics():
    lay = layout(1, [("q", 2)])
    zero = SparseState(lay, {(0,): 1.0})
    one = SparseState(lay, {(1,): 1.0})
    plus = SparseState(lay, {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)})
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12
    assert fidelity(zero, one) == 0.0
    assert abs(fidelity(plus, zero) - 0.5) < 1e-12


def test_binary_op_all_parties():
    # each party adds its "a" into its "b" mod 3: (2, 2) -> (2, 1), (1, 2) -> (1, 0)
    lay = layout(2, [("a", 3), ("b", 3)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(2, 2, 1, 2): amp, (0, 1, 2, 0): amp})
    st = binary_op_all_parties(st, "a", "b")
    assert st.amps == {(2, 1, 1, 0): amp, (0, 1, 2, 2): amp}
    mixed = SparseState(layout(2, [("a", 2), ("b", 3)]), {(0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        binary_op_all_parties(mixed, "a", "b")


def test_add_and_drop_register():
    lay = layout(2, [("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 1): amp, (1, 0): amp})
    st2 = SparseState(layout(2, [("q", 2), ("anc", 3)]), {(0, 2, 1, 2): amp, (1, 2, 0, 2): amp})
    st3 = drop_registers(st2, ["anc"])
    assert set(st3.amps) == set(st.amps)


def test_drop_entangled_register_raises():
    lay = layout(2, [("q", 2), ("anc", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 0, 1, 1): amp, (1, 1, 0, 0): amp})
    with pytest.raises(ExactnessError):
        drop_registers(st, ["anc"])


def test_drop_superposed_product_register():
    # the dropped register may be superposed as long as it factors out
    lay = layout(1, [("a", 2), ("b", 2)])
    st = SparseState(lay, {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.5})
    st2 = drop_registers(st, ["b"])
    assert abs(fidelity(st2, SparseState(layout(1, [("a", 2)]),
                                         {(0,): 1 / math.sqrt(2),
                                          (1,): 1 / math.sqrt(2)})) - 1) < 1e-10


def test_scale_and_norm_guard():
    lay = layout(1, [("q", 2)])
    st = SparseState(lay, {(0,): 1.0})
    st2 = scale(st, -1)
    assert st2.amplitude((0,)) == -1.0
    with pytest.raises(ValueError):
        scale(st, 2.0)
    with pytest.raises(SimulationError):
        SparseState(lay, {(0,): 0.5})


def rescaled(lay, amps):
    """``qsim._rescaled`` on the columns of a dict of scalar amplitudes."""
    values = np.array(list(amps.values()), dtype=complex).reshape(-1, 1)
    return qsim._rescaled(lay, lay.encode(list(amps)), values.real, values.imag)[0]


def test_sparse_state_refuses_nan_and_infinite_amplitudes():
    lay = layout(1, [("q", 2)])
    for amps in ({(0,): 1, (1,): math.nan}, {(0,): math.inf}):
        # as given, and rescaled as a measurement branch or a dropped register is
        for make in (SparseState, rescaled):
            with pytest.raises(SimulationError, match="norm"):
                make(lay, amps)
    # rescaling nothing, or only dust, divides by no zero norm
    for amps in ({}, {(0,): 1e-15, (1,): -1e-16j}):
        with pytest.raises(SimulationError, match="^state has no support left$"):
            rescaled(lay, amps)


def test_lanes_are_pruned_and_normed_lane_by_lane():
    lay = layout(1, [("q", 3)])
    amp = 1 / math.sqrt(2)
    # a dust lane becomes an exact 0j; a key goes only when every lane is dust
    st = SparseState(lay, {(0,): (amp, 1.0), (1,): (amp, 1e-15), (2,): (1e-15, -1e-16)})
    assert st.amps == {(0,): (amp, 1.0), (1,): (amp, 0j)}
    assert st.block_norms() == {None: (amp * amp + amp * amp, 1.0)}
    # a dust lane is an exact zero: no sign is left on either part
    assert [math.copysign(1.0, x) for x in (st.re[1, 1], st.im[1, 1])] == [1.0, 1.0]
    # each lane's norm is checked on its own, a NaN in one lane included
    for amps, match in (({(0,): (amp, 1.0), (1,): (amp, 0.5)}, "drifted to 1.25"),
                        ({(0,): (1.0, math.nan)}, "norm is nan"),
                        ({(0,): (1.0, 1e-15)}, "drifted to 0.0")):
        with pytest.raises(SimulationError, match=match):
            SparseState(lay, amps)
    with pytest.raises(ValueError):
        SparseState(lay, {(0,): (1.0, 1.0), (1,): (1.0,)})


def test_lanes_evolve_exactly_as_states_run_alone():
    lay = layout(2, [("m", 2), ("q", 2)])
    alone = [{(0, 0, 1, 1): 0.6, (1, 0, 0, 1): 0.48j, (1, 1, 1, 0): -0.64},
             {(0, 0, 1, 1): -0.8j, (1, 0, 0, 1): 0.36, (1, 1, 1, 0): 0.48}]
    phases = (0.37, -1.1)

    def evolve(state, phase):
        state = apply_all_parties(state, "q", gate(H), control=("m", 1))
        state = phase_kick_where(state, (("q", 1),), phase)
        return scale(apply_all_parties(state, "m", gate(H)), -1)

    runs = [evolve(SparseState(lay, amps), phase) for amps, phase in zip(alone, phases)]
    lanes = evolve(SparseState(lay, {k: tuple(a[k] for a in alone) for k in alone[0]}),
                   phases)
    assert set(lanes.amps) == set(runs[0].amps) | set(runs[1].amps)
    for key, amps in lanes.amps.items():
        assert amps == tuple(run.amplitude(key) for run in runs)


def test_each_block_is_normed_on_its_own():
    lay = layout(1, [("m", 2), ("q", 2)], blocks="m")
    st = SparseState(lay, {(0, 0): 0.6, (1, 1): -1.0, (0, 1): 0.8j})
    assert st.block_norms() == {(0,): (0.6 * 0.6 + 0.8 * 0.8,), (1,): (1.0,)}
    assert st.amplitude((1, 0)) == 0j
    # block (1,) drifted while block (0,) is fine; the two blocks of the
    # second state would pass a check of the whole state
    for amps, match in (({(0, 0): 0.6, (0, 1): 0.8j, (1, 1): 0.5}, "drifted to 0.25"),
                        ({(0, 0): 0.6, (1, 0): 0.8}, "drifted to 0.36"),
                        ({(0, 0): (1.0, 1.0), (1, 0): (1.0, 0.5)}, "drifted to 0.25")):
        with pytest.raises(SimulationError, match=match):
            SparseState(lay, amps)


def test_a_lane_state_reads_a_missing_key_as_zero_lanes():
    st = SparseState(layout(1, [("q", 2)]), {(0,): (1.0, 1j, -1.0)})
    assert st.amplitude((1,)) == (0j, 0j, 0j)
    assert st.amplitude((0,)) == (1.0, 1j, -1.0)


def test_a_controlled_gate_leaves_each_block_as_it_leaves_the_block_alone():
    # block (0, 0) is unmarked at both parties and block (1, 0) at party 1,
    # where block (1, 1) is marked; a signed zero shows any arithmetic done
    # on an amplitude that the block's own run carries through untouched
    lay = layout(2, [("m", 2), ("q", 2)], blocks="m")
    alone = {(0, 0): {(0, 0, 0, 1): complex(-0.0, 0.6), (0, 1, 0, 0): complex(-0.0, -0.8)},
             (1, 0): {(1, 0, 0, 1): complex(-0.0, 1.0)},
             (1, 1): {(1, 1, 1, 0): complex(0.6, -0.0), (1, 0, 1, 1): 0.8j}}
    joint = {key: amp for amps in alone.values() for key, amp in amps.items()}
    blocked = apply_all_parties(SparseState(lay, joint), "q", gate(H), control=("m", 1))
    block_of = lay.reader("m")
    for block, amps in alone.items():
        run = apply_all_parties(SparseState(lay, amps), "q", gate(H), control=("m", 1))
        mine = {key: amp for key, amp in blocked.amps.items() if block_of(key) == block}
        assert list(mine) == list(run.amps)
        assert [repr(amp) for amp in mine.values()] == [repr(amp) for amp in run.amps.values()]


def test_tensor_and_rename():
    a = SparseState(layout(2, [("x", 2)]), {(0, 1): 1.0})
    b = SparseState(layout(2, [("y", 2)]), {(1, 0): 1.0})
    joint = tensor(a, b)
    assert joint.amps == {(0, 1, 1, 0): 1.0}
    renamed = rename_register(joint, "y", "z")
    assert renamed.layout.dim("z") == 2


def test_json_round_trip():
    lay = layout(2, [("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 1): amp, (1, 0): amp * 1j})
    dumped = dump_state(st)
    assert dumped["amplitudes"][0]["basis"] == "01"
    again = load_state(dumped)
    assert abs(fidelity(st, again) - 1.0) < 1e-12
    assert again.amps == st.amps


def test_coherent_oracle_agreement_on_uniform_superposition():
    """Measured flag always equals the classical predicate of the measured input."""
    from conftest import oracle_all_zeros
    for name, n in (("ring", 3), ("star", 4)):
        topo = catalog(name, n)
        lay = layout(n, [("q", 2), ("flag", 2)])
        amps = {}
        for x in all_bit_vectors(n):
            key = []
            for v in range(n):
                key.extend((x[v], 1))
            amps[tuple(key)] = 2 ** (-n / 2)
        st = SparseState(lay, amps)
        st, _cost = apply_coherent_subroutine(st, all_zeros_flooding(n), topo,
                                              ("q",), "flag", fiducial=1)
        for br in branches(st, "q"):
            for key in br.post_state.amps:
                assert set(br.post_state.symbols(key, "flag")) == {oracle_all_zeros(br.outcome)}


def test_branch_probabilities_sum_to_one_after_ops():
    lay = layout(3, [("q", 2)])
    st = init_state(lay, 0)
    st = apply_all_parties(st, "q", gate(H))
    st = phase_kick_where(st, (("q", 1),), 0.3)
    brs = branches(st, "q")
    assert abs(sum(b.probability for b in brs) - 1.0) < 1e-10
    assert all(b.probability >= 0 for b in brs)


def local_program(fn, *, rounds=0, size=None, input_dims=(2,)):
    """Each party outputs ``fn(own input)``; ``size(input)`` symbols per port per round.

    The state is the party's inputs, one per row: a symbol, or a tuple of them.
    """
    def init(column, _deg):
        return [tuple(x) if isinstance(x, list) else x for x in column.tolist()]

    def send(xs, _r):
        if size is None:
            return {}
        sizes = [size(x) for x in xs]
        return {1: SizedMessage([(0,) * s for s in sizes], sizes)}

    return ClassicalSubroutine(PartyProgram(
        rounds=rounds, symbol_dim=2,
        init=init, send=send, recv=lambda xs, _inbox, _r: xs,
        finish=lambda xs: [fn(x) for x in xs], name="local"), input_dims)


def test_layout_tables():
    lay = layout(3, [("a", 2), ("b", 3)])
    assert lay.slots("b") == (1, 3, 5)
    assert lay.slots("a") == (0, 2, 4)
    assert lay.dim("b") == 3 and lay.reg_index("b") == 1
    assert lay.reader("b")((0, 1, 1, 2, 0, 0)) == (1, 2, 0)
    # one party: still a tuple, not a bare symbol
    assert layout(1, [("a", 2), ("b", 3)]).reader("b")((0, 2)) == (2,)
    for lookup in (lay.reg_index, lay.dim, lay.slots, lay.reader):
        with pytest.raises(KeyError):
            lookup("c")


def test_control_symbol_out_of_range_raises():
    st = init_state(layout(2, [("m", 2), ("q", 2)]), 0)
    # a register controlling a gate on itself is no unitary either
    for control, match in ((("m", 7), "out of range"), (("m", 2), "out of range"),
                           (("m", -1), "out of range"), (("q", 1), "control a gate on itself")):
        with pytest.raises(ValueError, match=match):
            apply_all_parties(st, "q", gate(H), control=control)


def test_phase_kick_condition_out_of_range_raises():
    st = init_state(layout(2, [("m", 2), ("f", 3)]), 0)
    with pytest.raises(ValueError, match="out of range"):
        phase_kick_where(st, (("m", 1), ("f", 3)), 0.5)
    with pytest.raises(ValueError, match="out of range"):
        phase_kick_where(st, (("m", -1),), 0.5)
    with pytest.raises(ValueError, match="out of range"):
        phase_kick_where(st, (("m", 2),), 0.0)


def test_controlled_gate_with_no_active_party_keeps_amplitudes():
    lay = layout(3, [("mark", 2), ("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 0, 0, 1, 0, 0): amp, (0, 1, 0, 0, 0, 1): -amp})
    out = apply_all_parties(st, "q", gate(H), control=("mark", 1))
    assert out.amps == st.amps
    # party 2 holds the control symbol in no key: the gate leaves the keys in
    # the order, and the amplitudes with the bits, of the state without party 2
    pair = layout(2, [("mark", 2), ("q", 2)])
    two = {(1, 1, 0, 0): complex(-0.0, 0.6), (0, 1, 1, 0): 0.48, (1, 0, 0, 1): complex(-0.64, -0.0)}
    run = apply_all_parties(SparseState(pair, two), "q", gate(H), control=("mark", 1))
    out = apply_all_parties(SparseState(lay, {key + (0, 1): v for key, v in two.items()}),
                            "q", gate(H), control=("mark", 1))
    assert list(out.amps) == [key + (0, 1) for key in run.amps]
    assert [repr(v) for v in out.amps.values()] == [repr(v) for v in run.amps.values()]


def test_controlled_gate_acts_only_where_marked():
    lay = layout(2, [("mark", 2), ("q", 2)])
    st = SparseState(lay, {(0, 0, 1, 0): 1.0})
    out = apply_all_parties(st, "q", gate(H), control=("mark", 1))
    amp = 1 / math.sqrt(2)
    assert set(out.amps) == {(0, 0, 1, 0), (0, 0, 1, 1)}
    assert all(abs(out.amps[k] - amp) < 1e-15 for k in out.amps)


def lane_columns(state) -> dict:
    """Each key's amplitudes, one per lane, read from the columns."""
    return {key: tuple(map(complex, re, im))
            for key, re, im in zip(state.layout.decode(state.keys), state.re.tolist(),
                                   state.im.tolist())}


# (blocks, amplitudes): each party's mark is in superposition, so at every
# party some components pass through unchanged and others get the gate; the
# second state evolves two lanes at once, and the third, of three lanes,
# holds one block per mark string, each of one key
SUPERPOSED_CONTROL = [
    (None, {(0, 0, 1, 1): 0.6, (1, 0, 0, 1): 0.48j, (1, 1, 1, 0): -0.64}),
    (None, {(0, 0, 1, 1): (0.6, -0.8j), (1, 0, 0, 1): (0.48j, 0.36),
            (1, 1, 1, 0): (-0.64, 0.48)}),
    ("mark", {(0, 0, 1, 1): (0.6 + 0.8j, 1.0, -1j), (1, 0, 0, 1): (1j, -1.0, 0.6 - 0.8j),
              (1, 1, 1, 0): (-1.0, 0.8 + 0.6j, 1.0)}),
]


def test_controlled_gate_on_a_superposed_control_matches_a_dense_reference():
    controlled_h = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), H]])
    for blocks, amps in SUPERPOSED_CONTROL:
        st = SparseState(layout(2, [("mark", 2), ("q", 2)], blocks=blocks), amps)
        out = lane_columns(apply_all_parties(st, "q", gate(H), control=("mark", 1)))
        lanes = st.re.shape[1]
        vec = np.zeros((16, lanes), dtype=complex)
        for (m0, q0, m1, q1), amp in lane_columns(st).items():
            vec[8 * m0 + 4 * q0 + 2 * m1 + q1] = amp
        reference = np.kron(controlled_h, controlled_h) @ vec
        for index in range(16):
            key = tuple(int(b) for b in format(index, "04b"))
            got = out.get(key, (0j,) * lanes)
            assert all(abs(g - r) < 1e-12 for g, r in zip(got, reference[index]))


def test_phase_kick_two_conditions_matches_brute_force_count():
    # a scalar state, three lanes kicked by three phases, and a blocked state
    # whose blocks are the 8 mark strings, of 27 keys each
    for phases, blocks in (((0.37,), None), ((0.37, -1.1, 2.9), None), ((0.37,), "m")):
        lay = layout(3, [("m", 2), ("f", 3)], blocks=blocks)
        amp = 1 / math.sqrt(6 ** 3 if blocks is None else 27)
        st = SparseState(lay, dict.fromkeys(np.ndindex(*(2, 3) * 3), (amp,) * len(phases)))
        out = phase_kick_where(st, (("m", 1), ("f", 2)), phases if len(phases) > 1 else phases[0])
        kicked = lane_columns(out)
        assert set(kicked) == set(st.amps)
        for key in st.amps:
            count = sum(1 for p in range(3)
                        if key[lay.slots("m")[p]] == 1 and key[lay.slots("f")[p]] == 2)
            for got, phase in zip(kicked[key], phases):
                assert abs(got - amp * np.exp(1j * phase * count)) < 1e-15


def test_coherent_single_party_against_hand_outputs():
    topo = build_graph(1, [])
    lay = layout(1, [("q", 3), ("out", 3)])
    st = SparseState(lay, {(0, 0): 0.6, (1, 0): 0.0 + 0.8j})
    sub = local_program(lambda x: (x + 1) % 3, input_dims=(3,))
    mid, cost = apply_coherent_subroutine(st, sub, topo, ("q",), "out")
    assert mid.amps == {(0, 1): 0.6, (1, 2): 0.8j}
    assert (cost.rounds, cost.qubits_sent) == (0, 0)
    back, _cost = uncompute_subroutine(mid, sub, topo, "q", "out")
    assert back.amps == st.amps


def test_coherent_two_input_registers_against_hand_outputs():
    topo = catalog("complete", 2)
    lay = layout(2, [("a", 2), ("b", 2), ("out", 2)])
    seen = []

    def xor(pair):
        seen.append(pair)
        a, b = pair
        return a ^ b

    amp = 0.5
    # keys: (a0, b0, out0, a1, b1, out1)
    st = SparseState(lay, {(0, 0, 0, 1, 0, 0): amp, (0, 1, 0, 1, 1, 0): amp,
                           (1, 1, 0, 0, 1, 0): amp, (1, 0, 0, 0, 0, 0): amp})
    out, _cost = apply_coherent_subroutine(st, local_program(xor, input_dims=(2, 2)), topo,
                                      ("a", "b"), "out")
    assert out.amps == {(0, 0, 0, 1, 0, 1): amp, (0, 1, 1, 1, 1, 0): amp,
                        (1, 1, 0, 0, 1, 1): amp, (1, 0, 1, 0, 0, 0): amp}
    assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in seen)


def test_coherent_rejects_input_dependent_message_size():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2), ("out", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 0, 0, 0): amp, (1, 0, 1, 0): amp})
    sub = local_program(lambda x: 0, rounds=1, size=lambda x: 1 + x)
    with pytest.raises(SimulationError, match="input-dependent communication pattern"):
        apply_coherent_subroutine(st, sub, topo, "q", "out")
    # the same sizes on every input pass
    fixed = local_program(lambda x: 0, rounds=1, size=lambda x: 2)
    apply_coherent_subroutine(st, fixed, topo, "q", "out")


def test_coherent_checks_each_new_run_against_the_first():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2), ("out", 2)])
    sub = local_program(lambda x: 0, rounds=1, size=lambda x: 1 + x)
    # one component per call, so no single call sees two patterns
    apply_coherent_subroutine(SparseState(lay, {(0, 0, 0, 0): 1.0}), sub, topo, "q", "out")
    for _attempt in range(2):   # a refused run is not memoized
        with pytest.raises(SimulationError, match="input-dependent communication pattern"):
            apply_coherent_subroutine(SparseState(lay, {(1, 0, 1, 0): 1.0}),
                                      sub, topo, "q", "out")
    # an oblivious flood passes on every input; it keeps one first pattern
    # per topology, and a fresh instance keeps its own
    flood, ring, path = all_zeros_flooding(3), catalog("ring", 3), catalog("path", 3)
    for x in all_bit_vectors(3):
        run_row(flood, ring, x)
    run_row(flood, path, (0, 0, 0))
    assert len(flood.patterns) == 2
    assert len({p for _topo, p, _cost in flood.patterns.values()}) == 2
    fresh = all_zeros_flooding(3)
    run_row(fresh, ring, (1, 1, 1))
    assert list(fresh.patterns.values()) == [flood.patterns[id(ring)]]


def test_coherent_rejects_output_outside_register():
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 3), ("out", 2)])
    st = SparseState(lay, {(2, 0, 0, 0): 1.0})
    sub = local_program(lambda x: x, input_dims=(3,))
    with pytest.raises(SimulationError, match="outside register 'out'"):
        apply_coherent_subroutine(st, sub, topo, "q", "out")


def test_coherent_collision_raises():
    # uncomputing a copy of the register into itself maps both components
    # to the all-fiducial key
    topo = catalog("complete", 2)
    lay = layout(2, [("q", 2)])
    amp = 1 / math.sqrt(2)
    st = SparseState(lay, {(0, 0): amp, (1, 1): amp})
    with pytest.raises(SimulationError, match="collided"):
        uncompute_subroutine(st, local_program(lambda x: x), topo, "q", "q")


def test_phase_kick_without_conditions_kicks_every_party():
    st = SparseState(layout(2, [("m", 2)]), {(0, 1): 1.0})
    out = phase_kick_where(st, (), 0.5)
    assert set(out.amps) == {(0, 1)}
    assert abs(out.amps[(0, 1)] - np.exp(1j * 0.5 * 2)) < 1e-15


def test_agreed_returns_the_common_symbol():
    assert agreed((1, 1, 1), "flag") == 1
    assert agreed((0,), "flag") == 0
    with pytest.raises(ExactnessError, match="^verdict disagrees across parties$"):
        agreed((1, 1, 0), "verdict")


def test_sample_index_walks_the_running_sum():
    draw = random.Random(3).random()
    assert 0.125 < draw <= 0.375
    assert sample_index([0.125, 0.25, 0.625], seed=3) == 1
    # a running sum short of the draw leaves the last index
    assert sample_index([0.125, 0.0625], seed=3) == 1
    assert sample_index([1.0], seed=3) == 0


def test_sample_index_refuses_no_outcomes():
    with pytest.raises(ValueError, match="^no outcomes to sample$"):
        sample_index([], seed=0)


def test_joint_branches_match_the_scalar_product_bit_for_bit():
    rng = random.Random(11)
    Option = namedtuple("Option", "name probability")
    parts = [[Option((i, j), rng.random() / 3) for j in range(size)]
             for i, size in enumerate((3, 1, 4, 2))]
    picks, probabilities = joint_branches(parts)
    picks = list(picks)
    assert picks == list(itertools.product(*parts))
    expected = []
    for picked in picks:
        p = 1.0
        for option in picked:
            p *= option.probability
        expected.append(p)
    assert [type(p) for p in probabilities] == [float] * len(picks)
    assert [p.hex() for p in probabilities] == [p.hex() for p in expected]


def test_joint_branches_of_no_parts_and_of_an_empty_part():
    picks, probabilities = joint_branches([])
    assert (list(picks), probabilities) == ([()], [1.0])
    picks, probabilities = joint_branches([[qsim.MeasurementBranch((0,), 1.0, None)], []])
    assert (list(picks), probabilities) == ([], [])
