"""Sparse joint-state engine over party-owned qudit registers.

Basis states are tuples with one symbol per (party, register) slot, ordered
by party index first and registration order second.  Amplitudes live in a
dict keyed by those tuples, which keeps desk-scale networks cheap as long as
algorithms avoid needless superposition.

Every operation acts alike at every party, as the protocols do: one local
gate per party, one local addition mod d of a register into another, and the
measurement of one register at every party, enumerated branch by branch.
Classical subroutines run once per distinct input, and ``run_cached`` checks
that each run's communication pattern equals the first run's.  A value
all parties must share, such as a flag or a measured sum, is read through
``agreed``, the one check that they do share it.
"""
from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ExactnessError, SimulationError
from .subroutines import ClassicalSubroutine, run_cached
from .topology import Topology

PRUNE_EPS = 1e-14        # amplitudes below this are floating-point dust
NORM_EPS = 1e-10         # hard invariant on every produced state
UNITARY_EPS = 1e-12
FACTOR_EPS = 1e-9        # residual allowed where dropped registers must factor out


@dataclass(frozen=True)
class RegisterLayout:
    """Register names and dimensions, identical at every party.

    ``blocks`` names a register that no operation writes.  Each of its values
    across the parties is a block: an independent state that shares the
    dict with the others and is normalized on its own.
    """

    n_parties: int
    regs: tuple  # ((name, dim), ...) in registration order
    blocks: Optional[str] = None

    def __post_init__(self):
        names = [name for name, _ in self.regs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register name")
        for name, dim in self.regs:
            if dim < 2:
                raise ValueError(f"register {name!r} needs dimension >= 2")
        if self.blocks is not None and self.blocks not in names:
            raise ValueError(f"no register named {self.blocks!r}")

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

    def slots(self, name: str) -> tuple:
        return self._slots[self.reg_index(name)]

    def reader(self, name: str):
        """A function from a basis key to ``name``'s symbol at each party.

        It reads one extended slice of the key, so it returns a tuple even
        for a single party.
        """
        return self._readers[self.reg_index(name)]


def layout(n_parties: int, regs: Iterable, blocks: Optional[str] = None) -> RegisterLayout:
    return RegisterLayout(n_parties, tuple((str(n), int(d)) for n, d in regs), blocks)


def _lanewise(op):
    """``op`` lane by lane, as a method and as its reflection.

    The reflection only ever sees a scalar on its left: a ``Lanes`` there
    takes the forward method.
    """
    def forward(self, other):
        if isinstance(other, Lanes):
            if len(other) != len(self):
                raise ValueError("lane counts differ")
            return Lanes(map(op, self, other))
        return Lanes(map(op, self, repeat(other)))

    def reflected(self, other):
        return Lanes(map(op, repeat(other), self))

    return forward, reflected


class Lanes(tuple):
    """One value per lane: several states that share every basis key.

    Lanes evolve side by side through the same operations, each as its own
    normalized state.  ``+``, ``*``, ``/`` and ``-`` act lane by lane, against
    another ``Lanes`` of the same width or against one scalar for every lane,
    with the operands in the order written, so each lane's arithmetic is the
    scalar arithmetic of a state run alone.
    """

    __slots__ = ()

    __add__, __radd__ = _lanewise(operator.add)
    __mul__, __rmul__ = _lanewise(operator.mul)
    __truediv__ = _lanewise(operator.truediv)[0]

    def __neg__(self):
        return Lanes(map(operator.neg, self))


def _block_norms(lay: RegisterLayout, amps: dict) -> dict:
    """The squared norm of each block of ``amps``, a ``Lanes`` of one per lane.

    Keys are the blocks' symbols, in order of their first basis key; a layout
    without blocks has the one block ``None``.  Each block's amplitudes are
    summed in dict order, as they would be in a state of that block alone.
    """
    if lay.blocks is None:
        groups = {None: amps.values()}
    else:
        block_of = lay.reader(lay.blocks)
        groups = {}
        for key, amp in amps.items():
            groups.setdefault(block_of(key), []).append(amp)
    if isinstance(next(iter(amps.values()), None), Lanes):
        return {block: Lanes(sum(abs(v) ** 2 for v in lane) for lane in zip(*group))
                for block, group in groups.items()}
    return {block: sum(abs(v) ** 2 for v in group) for block, group in groups.items()}


def _refuse_parts(state: "SparseState", operation: str) -> None:
    """Refuse a lane or blocked state to an operation on one scalar state."""
    if state.layout.blocks is not None or isinstance(next(iter(state.amps.values())), Lanes):
        raise ValueError(f"{operation} takes a scalar state, not lanes or blocks")


def _prune(amps: dict) -> dict:
    """``amps`` without floating-point dust.

    A scalar amplitude that is dust drops its key.  A ``Lanes`` amplitude
    sets each dust lane to an exact ``0j`` and drops its key only when every
    lane is dust.  Written so that a NaN is kept and fails the norm check.
    """
    if not isinstance(next(iter(amps.values()), None), Lanes):
        return {k: v for k, v in amps.items() if not abs(v) <= PRUNE_EPS}
    out = {}
    for k, v in amps.items():
        # min() keeps a NaN only when it comes first, and then fails this test
        # itself, so a dust lane never slips through beside a NaN
        if not min(map(abs, v), default=0.0) > PRUNE_EPS:
            v = Lanes(0j if abs(a) <= PRUNE_EPS else a for a in v)
            if not any(v):
                continue
        out[k] = v
    return out


def _rescaled(lay: RegisterLayout, amps: dict) -> "SparseState":
    """The scalar state of ``amps`` without dust, scaled to norm one.

    The squared norm is summed in dict order, after pruning.
    """
    amps = _prune(amps)
    if not amps:
        raise SimulationError("state has no support left")
    factor = 1.0 / math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return SparseState(lay, {k: v * factor for k, v in amps.items()})


class SparseState:
    """A normalized joint state: {basis tuple: complex amplitude}.

    Amplitudes are Python ``complex`` numbers, or ``Lanes`` of them for
    several states evolved side by side on one support.  With a blocked
    layout the dict holds several independent states, one per block.  Each
    lane of each block is checked for its norm on its own.
    """

    __slots__ = ("layout", "amps")

    def __init__(self, layout: RegisterLayout, amps: dict):
        amps = _prune(amps)
        if not amps:
            raise SimulationError("state has no support left")
        for norm2 in _block_norms(layout, amps).values():
            for lane_norm2 in norm2 if isinstance(norm2, Lanes) else (norm2,):
                if not math.isfinite(lane_norm2):
                    raise SimulationError(f"state norm is {lane_norm2!r}")
                if abs(lane_norm2 - 1.0) > NORM_EPS:
                    raise SimulationError(f"state norm drifted to {lane_norm2!r}")
        self.layout = layout
        self.amps = amps

    def __len__(self) -> int:
        return len(self.amps)

    def block_norms(self) -> dict:
        """The squared norm of each block, keyed by its symbols (``None``
        without blocks); a ``Lanes`` of one per lane for a lane state."""
        return _block_norms(self.layout, self.amps)

    def amplitude(self, key: tuple):
        """The amplitude at ``key``: zero, as a ``Lanes`` for lanes, when absent."""
        amp = self.amps.get(tuple(key))
        if amp is not None:
            return amp
        first = next(iter(self.amps.values()))
        return Lanes((0j,) * len(first)) if isinstance(first, Lanes) else 0j

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
    """Point state with every register at its fiducial symbol.

    ``fiducial`` is one symbol for every register or a dict from register
    name to symbol, 0 where omitted; a name that is no register raises
    ``ValueError``.
    """
    if isinstance(fiducial, int):
        fiducial = {name: fiducial for name, _dim in lay.regs}
    unknown = [name for name in fiducial if name not in lay._index]
    if unknown:
        raise ValueError(f"no register named {unknown[0]!r}")
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
    _refuse_parts(state, "drop_registers")
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
    return _rescaled(new_lay, amps)


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


def _check_writable(lay: RegisterLayout, name: str) -> None:
    if name == lay.blocks:
        raise ValueError(f"register {name!r} names the blocks and cannot be written")


def apply_all_parties(
    state: SparseState,
    register: str,
    gate: Gate,
    *,
    control: Optional[tuple] = None,
) -> SparseState:
    """Apply one single-qudit unitary to ``register`` at each party.

    ``gate`` is a ``Gate`` built once by ``gate()``, whose check is not
    repeated here.  A gate whose dimension differs from the register's
    raises ``ValueError``.
    ``control=(name, symbol)`` restricts the action at each party to the
    components where that party's control register holds ``symbol``.  A
    symbol outside the control register's range, or a control on
    ``register`` itself, which is not unitary, raises ``ValueError``.  A
    control-false amplitude is carried through unchanged and in order, as if
    its party were skipped.
    """
    lay = state.layout
    _check_writable(lay, register)
    dim = lay.dim(register)
    if gate.dim != dim:
        raise ValueError(f"matrix shape {(gate.dim, gate.dim)} does not match "
                         f"register dimension {dim}")
    cols = gate.columns
    if control is not None:
        ctrl_name, ctrl_sym = control
        _check_symbol(lay, ctrl_name, ctrl_sym)
        if ctrl_name == register:
            raise ValueError(f"register {register!r} cannot control a gate on itself")
        ctrl_slots = lay.slots(ctrl_name)
    amps = state.amps
    for party, slot in enumerate(lay.slots(register)):
        if control is not None:
            ctrl_slot = ctrl_slots[party]
        out: dict = {}
        for key, amp in amps.items():
            if control is not None and key[ctrl_slot] != ctrl_sym:
                # no control-true key maps here: it keeps its control symbol
                out[key] = amp
                continue
            prefix, suffix = key[:slot], key[slot + 1:]
            for j, coeff in cols[key[slot]]:
                nk = prefix + (j,) + suffix
                term = coeff * amp
                prev = out.get(nk)
                out[nk] = term if prev is None else prev + term
        amps = out
    return SparseState(lay, amps)


def phase_kick_where(state: SparseState, conditions, phase_per_party) -> SparseState:
    """Phase per party whose registers satisfy all (register, symbol) pairs.

    Every party satisfies an empty condition list.  A symbol outside its
    register's range raises ``ValueError``.  For a state of ``Lanes``
    amplitudes ``phase_per_party`` may be a ``Lanes`` of one phase per lane.
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
    counts = range(lay.n_parties + 1)
    if isinstance(phase_per_party, Lanes):
        kicks = [Lanes(cmath.exp(1j * phase * count) for phase in phase_per_party)
                 for count in counts]
    else:
        kicks = [cmath.exp(1j * phase_per_party * count) for count in counts]
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
    _check_writable(lay, target_reg)
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
) -> tuple:
    """Run a classical subroutine on every basis component of ``state``.

    Each party's ``out_reg`` (which must sit at ``fiducial`` in every
    component) is overwritten with that party's output for the component's
    ``in_regs`` values; amplitudes are untouched.  The communication pattern
    must not depend on the input (``run_cached`` checks it), and the returned
    cost is that of one execution.
    """
    return _coherent(state, sub, topology, in_regs, out_reg, fiducial, inverse=False)


def uncompute_subroutine(
    state: SparseState,
    sub: ClassicalSubroutine,
    topology: Topology,
    in_regs: Sequence[str],
    out_reg: str,
    *,
    fiducial: int = 0,
) -> tuple:
    """Invert a previous coherent application, restoring ``out_reg``.

    Recomputes the subroutine per component, checks the recorded outputs
    match, and resets the register to ``fiducial``; the inverse pass is
    metered exactly like the forward pass.
    """
    return _coherent(state, sub, topology, in_regs, out_reg, fiducial, inverse=True)


def _coherent(state, sub, topology, in_regs, out_reg, fiducial, inverse):
    lay = state.layout
    if topology.n != lay.n_parties:
        raise ValueError("topology and layout disagree on the party count")
    _check_writable(lay, out_reg)
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
    cost = None
    amps = {}
    for key, amp in state.amps.items():
        if read_one is not None:
            inputs = read_one(key)
        else:
            inputs = tuple(zip(*[read(key) for read in in_readers]))
        # run_cached refuses a differing pattern, so every run costs the same
        outputs, cost = run_cached(sub, topology, inputs)
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

    Branches come in lexicographic order of their outcomes, one for every
    outcome the state holds, however light; their probabilities sum to one.
    """
    _refuse_parts(state, "branches")
    outcome_of = state.layout.reader(register)
    grouped: dict = {}
    for key, amp in state.amps.items():
        grouped.setdefault(outcome_of(key), {})[key] = amp
    out = []
    for outcome in sorted(grouped):
        sub = grouped[outcome]
        prob = sum(abs(v) ** 2 for v in sub.values())
        out.append(MeasurementBranch(outcome, prob, _rescaled(state.layout, sub)))
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
    _refuse_parts(state, "fidelity")
    _refuse_parts(reference, "fidelity")
    overlap = 0j
    ref = reference.amps
    for key, amp in state.amps.items():
        other = ref.get(key)
        if other is not None:
            overlap += other.conjugate() * amp
    return abs(overlap) ** 2
