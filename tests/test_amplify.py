import cmath
import math

import numpy as np
import pytest

from anonqnet.amplify import SubroutineFlag, exact_amplify, flag_mass, phase_angle
from anonqnet.errors import ExactnessError
from anonqnet.qsim import SparseState, apply_all_parties, gate, init_state, layout
from anonqnet.runtime import PartyProgram
from anonqnet.subroutines import (ClassicalSubroutine, all_zeros_flooding,
                                  modular_sum_views)
from anonqnet.topology import catalog


# ---------------------------------------------------------------------------
# the independent two-dimensional model, plain matrix arithmetic only


def iterate_on_plane(a, theta, phi):
    """Apply -A F0(phi) A^{-1} Fchi(theta) to A|0> on span{bad, good}.

    Basis order (|0>=bad-ish axis, |1>=good axis); A maps |0> to
    sqrt(1-a)|0> + sqrt(a)|1> and is an involution.
    """
    prep = np.array([
        [math.sqrt(1 - a), math.sqrt(a)],
        [math.sqrt(a), -math.sqrt(1 - a)],
    ], dtype=complex)
    flag_good = np.diag([1.0, cmath.exp(1j * theta)])
    flag_zero = np.diag([cmath.exp(1j * phi), 1.0])
    start = prep @ np.array([1.0, 0.0], dtype=complex)
    return -(prep @ flag_zero @ np.linalg.inv(prep) @ flag_good) @ start


def test_plane_model_confirms_angle_formula():
    """The oracle run that justified wiring in arccos(1 - 1/(2a))."""
    for i in range(19):
        a = 0.26 + 0.04 * i
        if a > 1.0:
            break
        theta = phase_angle(a)
        out = iterate_on_plane(a, theta, theta)
        assert abs(out[0]) < 1e-10, f"bad amplitude {abs(out[0])} at a={a}"
        assert abs(abs(out[1]) - 1.0) < 1e-10
    out = iterate_on_plane(1.0, math.pi / 3, math.pi / 3)
    assert abs(out[0]) < 1e-12


def test_plane_model_rejects_wrong_angle():
    out = iterate_on_plane(0.5, 1.0, 1.0)  # arbitrary wrong phase
    assert abs(out[0]) > 1e-3


def test_quadratic_root_matches_closed_form():
    for a in (0.26, 0.3, 0.41, 0.5, 0.77, 0.99):
        roots = np.roots([a, 1 - 2 * a, a])
        candidates = [np.angle(z) for z in roots if z.imag > 0]
        assert candidates, f"no positive-imaginary root at a={a}"
        assert abs(candidates[0] - phase_angle(a)) < 1e-9


def test_anchor_values():
    assert abs(phase_angle(0.25) - math.pi) < 1e-12
    assert abs(phase_angle(0.5) - math.pi / 2) < 1e-12
    assert abs(phase_angle(1.0) - math.pi / 3) < 1e-12
    for a in (0.3, 0.6, 1.0):
        assert 0 <= phase_angle(a) <= 2 * math.pi


def test_domain_errors():
    with pytest.raises(ValueError):
        phase_angle(0.2)
    with pytest.raises(ValueError):
        phase_angle(1.1)
    with pytest.raises(ValueError):
        phase_angle(0.0)   # a flag that never fires has no exact iterate


# ---------------------------------------------------------------------------
# distributed assembly, cross-checked against dense linear algebra


def weight_one_subroutine(n: int) -> ClassicalSubroutine:
    """Exact Hamming-weight-one test from the modular-sum machinery."""
    base = modular_sum_views(n + 1, n)
    prog = base.program
    wrapped = PartyProgram(
        rounds=prog.rounds, symbol_dim=prog.symbol_dim,
        init=prog.init, send=prog.send, recv=prog.recv,
        finish=lambda st: [1 if total == 1 else 0 for total in prog.finish(st)],
        name=f"weight_one[{n}]",
    )
    return ClassicalSubroutine(wrapped)


def rotation(n):
    return np.array([[math.sqrt(n - 1), 1.0], [1.0, -math.sqrt(n - 1)]],
                    dtype=complex) / math.sqrt(n)


def dense_reference(n):
    """Dense Kronecker-product computation of the whole iterate."""
    gate = rotation(n)
    prep = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        prep = np.kron(prep, gate)
    dim = 2 ** n
    weights = [bin(i).count("1") for i in range(dim)]
    a = sum(abs(prep[i, 0]) ** 2 for i in range(dim) if weights[i] == 1)
    theta = phase_angle(a)
    flag_good = np.diag([cmath.exp(1j * theta) if w == 1 else 1.0
                         for w in weights])
    flag_zero = np.diag([cmath.exp(1j * theta) if i == 0 else 1.0
                         for i in range(dim)])
    start = prep[:, 0]
    return -(prep @ flag_zero @ prep.conj().T @ flag_good) @ start, a


@pytest.mark.parametrize("name,n", [("complete", 2), ("ring", 3)])
def test_exact_amplify_matches_dense_reference(name, n):
    topo = catalog(name, n)
    lay = layout(n, [("coin", 2), ("good", 2), ("zero", 2)])
    state = init_state(lay, {"coin": 0, "good": 1, "zero": 1})
    coin_gate = gate(rotation(n))

    def prepare(s):
        return apply_all_parties(s, "coin", coin_gate)

    chi = SubroutineFlag(weight_one_subroutine(n), topo, ("coin",), "good",
                         trigger=1, fiducial=1)
    zero = SubroutineFlag(all_zeros_flooding(n), topo, ("coin",), "zero",
                          trigger=1, fiducial=1)
    reference, a = dense_reference(n)
    state = prepare(state)
    state, cost = exact_amplify(state, prepare, chi, zero, a)

    for i in range(2 ** n):
        bits = tuple((i >> (n - 1 - p)) & 1 for p in range(n))
        key = []
        for p in range(n):
            key.extend((bits[p], 1, 1))
        got = state.amplitude(tuple(key))
        assert abs(got - reference[i]) < 1e-10, (bits, got, reference[i])
    support = {k for k in state.amps}
    for key in support:
        coin = lay.reader("coin")(key)
        assert sum(coin) == 1


def test_exact_amplify_cost_is_twice_each_flag():
    n = 3
    topo = catalog("ring", n)
    lay = layout(n, [("coin", 2), ("good", 2), ("zero", 2)])
    state = init_state(lay, {"coin": 0, "good": 1, "zero": 1})
    coin_gate = gate(rotation(n))

    def prepare(s):
        return apply_all_parties(s, "coin", coin_gate)

    chi_sub = weight_one_subroutine(n)
    zero_sub = all_zeros_flooding(n)
    chi = SubroutineFlag(chi_sub, topo, ("coin",), "good", trigger=1, fiducial=1)
    zero = SubroutineFlag(zero_sub, topo, ("coin",), "zero", trigger=1, fiducial=1)
    _, a = dense_reference(n)
    state = prepare(state)
    _state, cost = exact_amplify(state, prepare, chi, zero, a)

    from anonqnet.runtime import run_classical
    _o, chi_cost, _t = run_classical(topo, chi_sub.program, [[0] * n])
    _o, zero_cost, _t = run_classical(topo, zero_sub.program, [[0] * n])
    assert cost.qubits_sent == 2 * chi_cost.qubits_sent + 2 * zero_cost.qubits_sent
    assert cost.rounds == 2 * chi_cost.rounds + 2 * zero_cost.rounds


def test_success_probability_mismatch_detected():
    n = 2
    topo = catalog("complete", n)
    lay = layout(n, [("coin", 2), ("good", 2), ("zero", 2)])
    state = init_state(lay, {"coin": 0, "good": 1, "zero": 1})
    coin_gate = gate(rotation(n))

    def prepare(s):
        return apply_all_parties(s, "coin", coin_gate)

    chi = SubroutineFlag(weight_one_subroutine(n), topo, ("coin",), "good",
                         trigger=1, fiducial=1)
    zero = SubroutineFlag(all_zeros_flooding(n), topo, ("coin",), "zero",
                          trigger=1, fiducial=1)
    state = prepare(state)
    with pytest.raises(ExactnessError):
        exact_amplify(state, prepare, chi, zero, a=0.3)


def test_flag_mass_rejects_a_flag_the_parties_do_not_share():
    lay = layout(2, [("flag", 2)])
    shared = SparseState(lay, {(1, 1): 0.6, (0, 0): 0.8})
    assert abs(flag_mass(shared, "flag", 1) - 0.36) < 1e-12
    split = SparseState(lay, {(1, 1): 0.6, (1, 0): 0.8})
    with pytest.raises(ExactnessError, match="flag register 'flag' disagrees across parties"):
        flag_mass(split, "flag", 1)
