"""Sparse joint-state engine over party-owned qudit registers.

Basis states are tuples with one symbol per (party, register) slot, ordered
by party index first and registration order second.  Amplitudes live in a
dict keyed by those tuples, which keeps desk-scale networks cheap as long as
algorithms avoid needless superposition.

Every operation acts alike at every party, as the protocols do: one local
gate per party, one local addition mod d of a register into another, and the
measurement of one register at every party, enumerated branch by branch.
Classical subroutines run once per basis component with the engine checking
that their communication pattern never depends on the component.  A value
all parties must share, such as a flag or a measured sum, is read through
``agreed``, the one check that they do share it.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ExactnessError, SimulationError
from .subroutines import ClassicalSubroutine, run_cached
from .topology import Topology

PRUNE_EPS = 1e-14        # amplitudes below this are floating-point dust
NORM_DRIFT_EPS = 1e-12   # renormalize when pruning shifted the norm this much
NORM_EPS = 1e-10         # hard invariant on every produced state
UNITARY_EPS = 1e-12
FACTOR_EPS = 1e-9        # residual allowed where dropped registers must factor out
MIN_BRANCH_PROBABILITY = 1e-12   # lighter measurement branches are dropped


@dataclass(frozen=True)
class RegisterLayout:
    """Register names and dimensions, identical at every party."""

    n_parties: int
    regs: tuple  # ((name, dim), ...) in registration order

    def __post_init__(self):
        names = [name for name, _ in self.regs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register name")
        for name, dim in self.regs:
            if dim < 2:
                raise ValueError(f"register {name!r} needs dimension >= 2")

    @cached_property
    def width(self) -> int:
        return len(self.regs)

    @cached_property
    def _index(self) -> dict:
        return {name: i for i, (name, _dim) in enumerate(self.regs)}

    @cached_property
    def _slots(self) -> tuple:
        """The slot of each register at every party, in registration order."""
        w = self.width
        return tuple(tuple(range(i, self.n_parties * w, w)) for i in range(w))

    @cached_property
    def _readers(self) -> tuple:
        w = self.width
        return tuple(itemgetter(slice(i, None, w)) for i in range(w))

    def reg_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no register named {name!r}") from None

    def dim(self, name: str) -> int:
        return self.regs[self.reg_index(name)][1]

    def slot(self, party: int, name: str) -> int:
        if not (0 <= party < self.n_parties):
            raise KeyError(f"no party {party}")
        return party * self.width + self.reg_index(name)

    def slots(self, name: str) -> tuple:
        return self._slots[self.reg_index(name)]

    def reader(self, name: str):
        """A function from a basis key to ``name``'s symbol at each party.

        It reads one extended slice of the key, so it returns a tuple even
        for a single party.
        """
        return self._readers[self.reg_index(name)]


def layout(n_parties: int, regs: Iterable) -> RegisterLayout:
    return RegisterLayout(n_parties, tuple((str(n), int(d)) for n, d in regs))


class SparseState:
    """A normalized joint state: {basis tuple: complex amplitude}."""

    __slots__ = ("layout", "amps")

    def __init__(self, layout: RegisterLayout, amps: dict, *, normalize: bool = False):
        amps = {k: v for k, v in amps.items() if abs(v) > PRUNE_EPS}
        if not amps:
            raise SimulationError("state has no support left")
        norm2 = sum(abs(v) ** 2 for v in amps.values())
        if normalize:
            scale = 1.0 / math.sqrt(norm2)
            amps = {k: v * scale for k, v in amps.items()}
        elif abs(norm2 - 1.0) > NORM_EPS:
            raise SimulationError(f"state norm drifted to {norm2!r}")
        elif abs(norm2 - 1.0) > NORM_DRIFT_EPS:
            scale = 1.0 / math.sqrt(norm2)
            amps = {k: v * scale for k, v in amps.items()}
        self.layout = layout
        self.amps = amps

    def __len__(self) -> int:
        return len(self.amps)

    def norm_squared(self) -> float:
        return sum(abs(v) ** 2 for v in self.amps.values())

    def amplitude(self, key: tuple) -> complex:
        return self.amps.get(tuple(key), 0j)

    def symbols(self, key: tuple, name: str) -> tuple:
        return self.layout.reader(name)(key)


def agreed(symbols: Sequence, what: str):
    """The symbol every party holds in ``symbols``, one entry per party.

    Raises ``ExactnessError("<what> disagrees across parties")`` when two
    parties hold different symbols.
    """
    first = symbols[0]
    if symbols.count(first) != len(symbols):
        raise ExactnessError(f"{what} disagrees across parties")
    return first


def init_state(lay: RegisterLayout, fiducial: Union[dict, int] = 0) -> SparseState:
    """Point state with every register at its fiducial symbol."""
    if isinstance(fiducial, int):
        fiducial = {name: fiducial for name, _dim in lay.regs}
    key = []
    for _party in range(lay.n_parties):
        for name, dim in lay.regs:
            sym = fiducial.get(name, 0)
            if not (0 <= sym < dim):
                raise ValueError(f"fiducial {sym} out of range for register {name!r}")
            key.append(sym)
    return SparseState(lay, {tuple(key): 1.0 + 0j})


def drop_registers(state: SparseState, names: Sequence[str]) -> SparseState:
    """Remove registers, requiring them to factor out of the state.

    The kept/dropped split must have Schmidt rank one; the dropped factor is
    discarded and the kept factor is returned renormalized.  Raises
    ``ExactnessError`` when the cut is entangled beyond ``FACTOR_EPS``.
    """
    lay = state.layout
    drop_idx = {lay.reg_index(n) for n in names}
    kept_regs = tuple(r for i, r in enumerate(lay.regs) if i not in drop_idx)
    if not kept_regs:
        raise ValueError("cannot drop every register")
    new_lay = RegisterLayout(lay.n_parties, kept_regs)
    w = lay.width
    keep_slots = [p * w + i for p in range(lay.n_parties) for i in range(w) if i not in drop_idx]
    drop_slots = [p * w + i for p in range(lay.n_parties) for i in range(w) if i in drop_idx]
    rows: dict = {}
    for key, amp in state.amps.items():
        kk = tuple(key[s] for s in keep_slots)
        dk = tuple(key[s] for s in drop_slots)
        rows.setdefault(kk, {})[dk] = amp
    # rank-one check against the heaviest row
    ref_key = max(rows, key=lambda kk: sum(abs(a) ** 2 for a in rows[kk].values()))
    ref = rows[ref_key]
    ref_norm = math.sqrt(sum(abs(a) ** 2 for a in ref.values()))
    beta = {dk: a / ref_norm for dk, a in ref.items()}
    amps = {}
    for kk, row in rows.items():
        alpha = sum(a * beta[dk].conjugate() for dk, a in row.items() if dk in beta)
        residual = 0.0
        for dk in set(row) | set(beta):
            residual += abs(row.get(dk, 0j) - alpha * beta.get(dk, 0j)) ** 2
        if residual > FACTOR_EPS:
            raise ExactnessError(
                f"registers {tuple(names)} are entangled with the rest (residual {residual:.3e})"
            )
        amps[kk] = alpha
    return SparseState(new_lay, amps, normalize=True)


def rename_register(state: SparseState, old: str, new: str) -> SparseState:
    lay = state.layout
    regs = tuple((new if name == old else name, dim) for name, dim in lay.regs)
    return SparseState(RegisterLayout(lay.n_parties, regs), dict(state.amps))


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Product of two states over the same parties and disjoint registers."""
    if a.layout.n_parties != b.layout.n_parties:
        raise ValueError("party counts differ")
    la, lb = a.layout, b.layout
    new_lay = RegisterLayout(la.n_parties, la.regs + lb.regs)
    wa, wb = la.width, lb.width
    amps = {}
    for ka, va in a.amps.items():
        for kb, vb in b.amps.items():
            key = []
            for p in range(la.n_parties):
                key.extend(ka[p * wa:(p + 1) * wa])
                key.extend(kb[p * wb:(p + 1) * wb])
            amps[tuple(key)] = va * vb
    return SparseState(new_lay, amps)


@dataclass(frozen=True)
class Gate:
    """A single-qudit unitary checked once, ready for ``apply_all_parties``.

    ``columns[s]`` lists the ``(output symbol, coefficient)`` pairs of input
    symbol ``s`` with a nonzero coefficient, as Python ``complex`` numbers so
    that amplitudes never turn into numpy scalars.
    """

    dim: int
    columns: tuple


def _check_unitary(matrix) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix shape {mat.shape} is not square")
    # written so that a NaN entry fails too
    if not np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat)))) <= UNITARY_EPS:
        raise ValueError("matrix is not unitary")
    return mat


def gate(matrix) -> Gate:
    """The checked ``Gate`` of a square unitary matrix; ``ValueError`` otherwise."""
    mat = _check_unitary(matrix)
    dim = len(mat)
    columns = tuple(tuple((j, complex(mat[j, s])) for j in range(dim) if abs(mat[j, s]) > 0.0)
                    for s in range(dim))
    return Gate(dim, columns)


def _check_symbol(lay: RegisterLayout, name: str, symbol: int) -> None:
    if not (0 <= symbol < lay.dim(name)):
        raise ValueError(f"symbol {symbol} out of range for register {name!r}")


def apply_all_parties(
    state: SparseState,
    register: str,
    gate: Union[Gate, np.ndarray],
    *,
    control: Optional[tuple] = None,
) -> SparseState:
    """Apply one single-qudit unitary to ``register`` at each party.

    ``gate`` is a ``Gate`` built once by ``gate()``, whose check is not
    repeated here; a bare matrix is checked on every call.  A gate whose
    dimension differs from the register's raises ``ValueError``.
    ``control=(name, symbol)`` restricts the action at each party to the
    components where that party's control register holds ``symbol``; a
    party whose control holds it in no component is skipped.  A symbol
    outside the control register's range raises ``ValueError``.
    """
    lay = state.layout
    dim = lay.dim(register)
    if not isinstance(gate, Gate):
        gate = _gate_of(gate)
    if gate.dim != dim:
        raise ValueError(f"matrix shape {(gate.dim, gate.dim)} does not match "
                         f"register dimension {dim}")
    cols = gate.columns
    if control is not None:
        ctrl_name, ctrl_sym = control
        _check_symbol(lay, ctrl_name, ctrl_sym)
        ctrl_slots = lay.slots(ctrl_name)
    amps = state.amps
    for party, slot in enumerate(lay.slots(register)):
        if control is not None:
            ctrl_slot = ctrl_slots[party]
            if not any(key[ctrl_slot] == ctrl_sym for key in amps):
                continue
        out: dict = {}
        for key, amp in amps.items():
            if control is not None and key[ctrl_slot] != ctrl_sym:
                out[key] = out.get(key, 0j) + amp
                continue
            prefix, suffix = key[:slot], key[slot + 1:]
            for j, coeff in cols[key[slot]]:
                nk = prefix + (j,) + suffix
                out[nk] = out.get(nk, 0j) + coeff * amp
        amps = out
    return SparseState(lay, amps)


# apply_all_parties names its argument ``gate``, which hides the builder there
_gate_of = gate


def phase_kick_where(state: SparseState, conditions, phase_per_party: float) -> SparseState:
    """Phase per party whose registers satisfy all (register, symbol) pairs.

    Every party satisfies an empty condition list.  A symbol outside its
    register's range raises ``ValueError``.
    """
    lay = state.layout
    conditions = tuple(conditions)
    for reg, sym in conditions:
        _check_symbol(lay, reg, sym)
    if phase_per_party == 0.0:
        return state
    # zip pairs up each party's condition symbols, one tuple per party
    readers = [lay.reader(reg) for reg, _sym in conditions]
    wanted = tuple(sym for _reg, sym in conditions)
    kicks = [cmath.exp(1j * phase_per_party * count) for count in range(lay.n_parties + 1)]
    amps = {}
    for key, amp in state.amps.items():
        count = (list(zip(*[read(key) for read in readers])).count(wanted)
                 if readers else lay.n_parties)
        amps[key] = amp * kicks[count] if count else amp
    return SparseState(state.layout, amps)


def scale(state: SparseState, factor: complex) -> SparseState:
    """Multiply every amplitude by a unit-modulus scalar."""
    if abs(abs(factor) - 1.0) > 1e-12:
        raise ValueError("scalar must have unit modulus")
    return SparseState(state.layout, {k: v * factor for k, v in state.amps.items()})


def binary_op_all_parties(state: SparseState, source_reg: str, target_reg: str) -> SparseState:
    """Add ``source_reg`` into ``target_reg`` mod their dimension at every party."""
    lay = state.layout
    dim = lay.dim(target_reg)
    if source_reg == target_reg or lay.dim(source_reg) != dim:
        raise ValueError("modular addition needs two registers of equal dimension")
    pairs = list(zip(lay.slots(source_reg), lay.slots(target_reg)))
    amps = {}
    for key, amp in state.amps.items():
        nk = list(key)
        for src, tgt in pairs:
            nk[tgt] = (key[tgt] + key[src]) % dim
        nk = tuple(nk)
        if nk in amps:
            raise SimulationError("binary op collided two components; not reversible")
        amps[nk] = amp
    return SparseState(lay, amps)


# ---------------------------------------------------------------------------
# coherent classical subroutines


def apply_coherent_subroutine(
    state: SparseState,
    sub: ClassicalSubroutine,
    topology: Topology,
    in_regs: Sequence[str],
    out_reg: str,
    *,
    fiducial: int = 0,
    global_info=None,
) -> tuple:
    """Run a classical subroutine on every basis component of ``state``.

    Each party's ``out_reg`` (which must sit at ``fiducial`` in every
    component) is overwritten with that party's output for the component's
    ``in_regs`` values; amplitudes are untouched.  The communication pattern
    must be identical across components, and the returned cost is that of one
    execution.
    """
    return _coherent(state, sub, topology, in_regs, out_reg, fiducial,
                     global_info, inverse=False)


def uncompute_subroutine(
    state: SparseState,
    sub: ClassicalSubroutine,
    topology: Topology,
    in_regs: Sequence[str],
    out_reg: str,
    *,
    fiducial: int = 0,
    global_info=None,
) -> tuple:
    """Invert a previous coherent application, restoring ``out_reg``.

    Recomputes the subroutine per component, checks the recorded outputs
    match, and resets the register to ``fiducial``; the inverse pass is
    metered exactly like the forward pass.
    """
    return _coherent(state, sub, topology, in_regs, out_reg, fiducial,
                     global_info, inverse=True)


def _coherent(state, sub, topology, in_regs, out_reg, fiducial, global_info,
              inverse):
    lay = state.layout
    if topology.n != lay.n_parties:
        raise ValueError("topology and layout disagree on the party count")
    out_dim = lay.dim(out_reg)
    if not (0 <= fiducial < out_dim):
        raise ValueError("fiducial out of range")
    if isinstance(in_regs, str):
        in_regs = (in_regs,)
    # one input register: a party's input is its symbol; several: a tuple of
    # its symbols, one per register
    in_readers = [lay.reader(r) for r in in_regs]
    read_one = in_readers[0] if len(in_readers) == 1 else None
    held_at = lay.reader(out_reg)
    # the out register's slots are the extended slice out_first::width
    out_first, width = lay.reg_index(out_reg), lay.width
    resting = (fiducial,) * lay.n_parties
    pattern = None
    cost = None
    amps = {}
    for key, amp in state.amps.items():
        if read_one is not None:
            inputs = read_one(key)
        else:
            inputs = tuple(zip(*[read(key) for read in in_readers]))
        outputs, one_cost, one_pattern = run_cached(sub, topology, inputs, global_info)
        # run_cached interns patterns per subroutine, so equal is identical
        if one_pattern is not pattern:
            if pattern is not None:
                raise SimulationError(
                    f"subroutine {sub.name} has an input-dependent communication pattern"
                )
            pattern, cost = one_pattern, one_cost
        if min(outputs) < 0 or max(outputs) >= out_dim:
            bad = next(sym for sym in outputs if not 0 <= sym < out_dim)
            raise SimulationError(
                f"subroutine {sub.name} produced symbol {bad} outside register {out_reg!r}"
            )
        held = held_at(key)
        if inverse:
            if held != outputs:
                was, now = next((h, o) for h, o in zip(held, outputs) if h != o)
                raise ExactnessError(
                    f"uncompute mismatch in {out_reg!r}: held {was}, recomputed {now}"
                )
            written = resting
        else:
            if held != resting:
                raise SimulationError(
                    f"out register {out_reg!r} not at fiducial before {sub.name}"
                )
            written = outputs
        nk = list(key)
        nk[out_first::width] = written
        nk = tuple(nk)
        if nk in amps:
            raise SimulationError("coherent subroutine collided two components")
        amps[nk] = amp
    return SparseState(lay, amps), cost


# ---------------------------------------------------------------------------
# measurement


@dataclass(frozen=True)
class MeasurementBranch:
    outcome: tuple          # the measured symbol at each party
    probability: float
    post_state: SparseState


def branches(state: SparseState, register: str) -> list:
    """All branches of measuring ``register`` at every party, exactly enumerated.

    Branches come in lexicographic order of their outcomes.  Probabilities
    over the full enumeration sum to one; branches lighter than
    ``MIN_BRANCH_PROBABILITY`` are dropped.
    """
    outcome_of = state.layout.reader(register)
    grouped: dict = {}
    for key, amp in state.amps.items():
        grouped.setdefault(outcome_of(key), {})[key] = amp
    out = []
    for outcome in sorted(grouped):
        sub = grouped[outcome]
        prob = sum(abs(v) ** 2 for v in sub.values())
        if prob >= MIN_BRANCH_PROBABILITY:
            out.append(MeasurementBranch(outcome, prob,
                                         SparseState(state.layout, sub, normalize=True)))
    return out


def sample_index(probabilities, seed: Optional[int] = None) -> int:
    """Index of one outcome drawn with seeded randomness.

    One uniform draw from ``random.Random(seed)`` is compared against the
    running sum of ``probabilities``; the last index absorbs rounding.
    """
    draw = random.Random(seed).random()
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if draw <= acc:
            return i
    return len(probabilities) - 1


def joint_branches(per_part):
    """Every choice of one option per independent part, with its probability.

    Yields ``(picked, p)`` with ``picked`` one option per part, in
    lexicographic order of the option lists, and ``p`` the product of the
    picked options' ``probability`` taken left to right from 1.0.
    """
    for picked in product(*per_part):
        p = 1.0
        for option in picked:
            p *= option.probability
        yield picked, p


def fidelity(state: SparseState, reference: SparseState) -> float:
    """Squared overlap |<reference|state>|^2; layouts must match."""
    if state.layout != reference.layout:
        raise ValueError("layout mismatch")
    overlap = 0j
    small, big = state.amps, reference.amps
    if len(big) < len(small):
        small, big = big, small
        conj_small = False
    else:
        conj_small = True
    for key, amp in small.items():
        other = big.get(key)
        if other is not None:
            overlap += (other.conjugate() * amp) if conj_small else (amp.conjugate() * other)
    return abs(overlap) ** 2


# ---------------------------------------------------------------------------
# JSON round-trip


def dump_state(state: SparseState) -> dict:
    """JSON-ready dict with the layout and sorted amplitude entries."""
    lay = state.layout
    sep = "" if all(dim <= 10 for _n, dim in lay.regs) else ","
    entries = []
    for key, amp in sorted(state.amps.items()):
        entries.append({
            "basis": sep.join(str(s) for s in key),
            "re": float(amp.real),
            "im": float(amp.imag),
        })
    return {
        "n_parties": lay.n_parties,
        "registers": [[name, dim] for name, dim in lay.regs],
        "amplitudes": entries,
    }


def load_state(payload: dict) -> SparseState:
    lay = RegisterLayout(payload["n_parties"], tuple((n, d) for n, d in payload["registers"]))
    sep = "" if all(dim <= 10 for _n, dim in lay.regs) else ","
    amps = {}
    for entry in payload["amplitudes"]:
        text = entry["basis"]
        key = tuple(int(c) for c in (text if sep == "" else text.split(sep)))
        amps[key] = complex(entry["re"], entry["im"])
    return SparseState(lay, amps)

