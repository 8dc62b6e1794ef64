"""Sparse joint-state engine over party-owned qudit registers.

Basis states are tuples with one symbol per (party, register) slot, ordered
by party index first and registration order second.  A state holds them in
columns: one int64 key per basis state, the tuple read as a number in the
layout's mixed radix, and the amplitudes as float64 columns of real and
imaginary parts, one column per lane.  Desk-scale networks stay cheap as long
as algorithms avoid needless superposition.

Every operation acts alike at every party, as the protocols do: one local
gate per party, one local addition mod d of a register into another, and the
measurement of one register at every party, enumerated branch by branch.
A coherent application hands a classical subroutine the inputs of every key
as one table (``run_cached``); the subroutine's memo runs each input it has
not seen once and checks that each run's communication pattern equals the
first run's.  A value all parties must share, such as a flag or a measured
sum, is read through ``agreed``, the one check that they do share it.

The columns reproduce, bit for bit, what Python ``complex`` arithmetic on one
amplitude at a time gives: products are written out in real arithmetic as
CPython computes them, ``abs`` is ``np.hypot``, squares are
``np.float_power(x, 2.0)`` (libm ``pow``, as ``x ** 2`` is), sums run left
to right in row order (``fold``, or ``np.bincount``, which adds in the same
order), and rows come out in the order in which a key first occurs.
"""
from __future__ import annotations

import cmath
import math
import random
from collections.abc import Mapping
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
NORM_EPS = 1e-10         # hard invariant on every produced state
UNITARY_EPS = 1e-12
FACTOR_EPS = 1e-9        # residual allowed where dropped registers must factor out
KEY_LIMIT = 2 ** 63      # basis keys are int64


def fold(values: Iterable, start=0.0):
    """The sum of ``values`` added one at a time, left to right, from ``start``.

    Every amplitude, norm and probability sum uses this order, as do the
    column kernels.  The built-in ``sum`` is not used: from Python 3.12 on it
    compensates float rounding, so it would give other last bits than
    earlier Pythons.
    """
    total = start
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class RegisterLayout:
    """Register names and dimensions, identical at every party.

    ``blocks`` names a register that no operation writes.  Each of its values
    across the parties is a block: an independent state that shares the
    columns with the others and is normalized on its own.

    A basis key is stored as an int64, so a layout whose key space (the
    product of the register dimensions, to the power of the party count)
    reaches 2**63 raises ``ValueError``.
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
        per_party = math.prod(dim for _name, dim in self.regs)
        if per_party ** self.n_parties >= KEY_LIMIT:
            raise ValueError(
                f"{self.n_parties} parties of {per_party} basis states each make "
                f"{per_party}**{self.n_parties} = {per_party ** self.n_parties:.3e} keys, "
                f"too many for int64 keys (2**63 at most)")

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

    @cached_property
    def _radix(self) -> np.ndarray:
        """The dimension of every slot."""
        return np.array([dim for _name, dim in self.regs] * self.n_parties, dtype=np.int64)

    @cached_property
    def _strides(self) -> np.ndarray:
        """The place value of every slot in a key; slot 0 is the most significant."""
        strides, place = [], 1
        for dim in reversed(self._radix.tolist()):
            strides.append(place)
            place *= dim
        return np.array(strides[::-1], dtype=np.int64)

    @cached_property
    def _reg_strides(self) -> tuple:
        return tuple(self._strides[list(slots)] for slots in self._slots)

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

    def strides(self, name: str) -> np.ndarray:
        """The place value of ``name``'s slot at each party."""
        return self._reg_strides[self.reg_index(name)]

    def digits(self, keys: np.ndarray, name: str) -> np.ndarray:
        """``name``'s symbol at each party of each key, one row per key."""
        return keys[:, None] // self.strides(name) % self.dim(name)

    def encode(self, basis: Sequence) -> np.ndarray:
        """The int64 key of each basis tuple; ``ValueError`` for one that does not fit."""
        radix = self._radix
        try:
            table = np.array(basis, dtype=np.int64).reshape(len(basis), len(radix))
        except ValueError:
            table = None
        if table is None or ((table < 0) | (table >= radix)).any():
            bad = next(key for key in basis if len(key) != len(radix)
                       or any(not 0 <= s < d for s, d in zip(key, radix.tolist())))
            raise ValueError(f"basis key {tuple(bad)} does not fit the layout")
        return table @ self._strides

    def decode(self, keys: np.ndarray) -> list:
        """The basis tuple of each int64 key, in Python ints."""
        table = keys[:, None] // self._strides % self._radix
        return list(map(tuple, table.tolist()))


def layout(n_parties: int, regs: Iterable, blocks: Optional[str] = None) -> RegisterLayout:
    return RegisterLayout(n_parties, tuple((str(n), int(d)) for n, d in regs), blocks)


# ---------------------------------------------------------------------------
# column kernels: each reproduces Python complex arithmetic bit for bit


def complex_product(ar, ai, br, bi) -> tuple:
    """The complex product (ar + i ai)(br + i bi), as CPython computes it.

    A real factor enters with its zero imaginary part, as CPython converts
    it, so signed zeros come out as they do there.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _squares(re, im) -> np.ndarray:
    """``abs(z) ** 2`` of every amplitude."""
    return np.float_power(np.hypot(re, im), 2.0)


def _group_sums(groups: np.ndarray, count: int, values: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``values`` in each of ``count`` groups, lane by lane.

    Each sum starts at 0.0 and adds its rows in row order, as ``fold`` does;
    ``np.bincount`` adds its weights in that order.
    """
    lanes = values.shape[1]
    cells = groups if lanes == 1 else (groups[:, None] * lanes + np.arange(lanes)).ravel()
    return np.bincount(cells, weights=values.ravel(), minlength=count * lanes).reshape(count, lanes)


def _runs(codes: np.ndarray) -> tuple:
    """``(order, starts)``: a stable sort of ``codes``, and where each run of
    equal codes starts in it; the rows of a run stay in row order."""
    order = np.argsort(codes, kind="stable")
    ordered = codes.take(order)
    opens = np.empty(len(codes), dtype=bool)
    opens[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    return order, opens.nonzero()[0]


def _groups(codes: np.ndarray) -> tuple:
    """Number equal ``codes`` by order of first occurrence.

    Returns ``(ids, firsts)``: the group of each row, and the first row of
    each group.
    """
    _uniq, firsts, inverse = np.unique(codes, return_index=True, return_inverse=True)
    by_first = firsts.argsort()
    rank = np.empty(len(firsts), dtype=np.intp)
    rank[by_first] = np.arange(len(firsts))
    return rank[inverse.ravel()], firsts[by_first]


def _collide(keys: np.ndarray) -> bool:
    """Whether two of ``keys`` are equal."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


def _merge(keys: np.ndarray, re: np.ndarray, im: np.ndarray) -> tuple:
    """Rows of equal keys merged into one, in order of first occurrence.

    A merged amplitude is its first row's plus each later row's, in row
    order, as a dict that adds each new term to what it holds.
    """
    order, starts = _runs(keys)
    if len(starts) == len(keys):
        return keys, re, im
    firsts = order.take(starts)
    out_re, out_im = re.take(firsts, axis=0), im.take(firsts, axis=0)
    sizes = np.empty(len(starts), dtype=np.intp)
    sizes[:-1] = starts[1:] - starts[:-1]
    sizes[-1:] = len(keys) - starts[-1:]
    # add each run's second rows, then its third rows, and so on
    grown, place = (sizes > 1).nonzero()[0], 1
    while len(grown):
        rows = order.take(starts.take(grown) + place)
        out_re[grown] += re.take(rows, axis=0)
        out_im[grown] += im.take(rows, axis=0)
        place += 1
        grown = grown.compress(sizes.take(grown) > place)
    by_first = firsts.argsort()
    return keys.take(firsts.take(by_first)), out_re.take(by_first, axis=0), out_im.take(by_first, axis=0)


class _Amplitudes(Mapping):
    """A read-only view of a state's amplitudes by basis tuple.

    Values are Python ``complex`` numbers, or for a state of several lanes a
    tuple of them, one per lane.  ``len`` reads the key column; any other
    access builds a dict of every key once.
    """

    __slots__ = ("_state", "_table")

    def __init__(self, state: "SparseState"):
        self._state = state
        self._table = None

    def __len__(self) -> int:
        return len(self._state.keys)

    def _dict(self) -> dict:
        if self._table is None:
            st = self._state
            lanes = st.re.shape[1]
            cells = map(complex, st.re.ravel().tolist(), st.im.ravel().tolist())
            values = cells if lanes == 1 else zip(*[cells] * lanes)
            self._table = dict(zip(st.layout.decode(st.keys), values))
        return self._table

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()


class SparseState:
    """A normalized joint state over the basis keys it holds.

    ``keys`` holds one int64 key per row, in the order the rows were made;
    ``re`` and ``im`` hold the real and imaginary amplitude parts, one row
    per key and one column per lane.  A lane is a state of its own that
    shares the keys with the other lanes; a scalar state has one lane.  With
    a blocked layout the rows hold several independent states, one per
    block.  Each lane of each block is checked for its norm on its own.

    ``SparseState(layout, amps)`` takes a dict from basis tuple to amplitude,
    or to a tuple of amplitudes, one per lane; ``amps`` reads it back.
    """

    __slots__ = ("layout", "keys", "re", "im", "_amps")

    def __init__(self, layout: RegisterLayout, amps: dict):
        keys = layout.encode(list(amps))
        values = (np.array(list(amps.values()), dtype=complex).reshape(len(keys), -1) if amps
                  else np.zeros((0, 1), dtype=complex))
        _checked(self, layout, keys, values.real.copy(), values.imag.copy())

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def amps(self) -> Mapping:
        """The amplitudes as a read-only mapping from basis tuple to ``complex``."""
        if self._amps is None:
            self._amps = _Amplitudes(self)
        return self._amps

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """The row holding each of ``keys``, or -1 for a key the state lacks."""
        order = np.argsort(self.keys)
        found = np.searchsorted(self.keys, keys, sorter=order).clip(max=len(order) - 1)
        rows = order[found]
        return np.where(self.keys[rows] == keys, rows, -1)

    def amplitude(self, key: tuple):
        """The amplitude at ``key``, zero where the state lacks it."""
        lanes = self.re.shape[1]
        return self.amps.get(tuple(key), 0j if lanes == 1 else (0j,) * lanes)

    def block_norms(self) -> dict:
        """The squared norm of each block, one float per lane.

        Keys are the blocks' symbols (``None`` without blocks); each norm
        adds the block's rows in row order.
        """
        lay = self.layout
        ids, count = _block_ids(lay, self.keys)
        norms = _group_sums(ids, count, _squares(self.re, self.im))
        if lay.blocks is None:
            names = [None]
        else:
            firsts = np.unique(ids, return_index=True)[1]
            names = map(tuple, lay.digits(self.keys[firsts], lay.blocks).tolist())
        return dict(zip(names, map(tuple, norms.tolist())))

    def symbols(self, key: tuple, name: str) -> tuple:
        return self.layout.reader(name)(key)


def _block_ids(lay: RegisterLayout, keys) -> tuple:
    """``(ids, count)``: each row's block, numbered in order of the block symbols."""
    if lay.blocks is None:
        return np.zeros(len(keys), dtype=np.intp), 1
    blocks, ids = np.unique(lay.digits(keys, lay.blocks) @ lay.strides(lay.blocks),
                            return_inverse=True)
    return ids.ravel(), len(blocks)


def _pruned_and_checked(keys, re, im, groups, count) -> tuple:
    """The columns without floating-point dust, once each lane of each of
    ``count`` groups has norm one; ``groups`` numbers each row's group.

    A dust amplitude becomes an exact zero, and a row goes only when every
    lane is dust.  Written so that a NaN is kept and fails the norm check.
    Returns the kept ``(keys, re, im, groups)``.
    """
    mags = np.hypot(re, im)
    dust = mags <= PRUNE_EPS
    if dust.any():
        keep = ~dust.all(axis=1)
        keys, groups, mags = keys[keep], groups[keep], np.where(dust, 0.0, mags)[keep]
        re, im = np.where(dust, 0.0, re)[keep], np.where(dust, 0.0, im)[keep]
    if not len(keys):
        raise SimulationError("state has no support left")
    # a group left without rows has norm zero and fails too
    norms = _group_sums(groups, count, np.float_power(mags, 2.0))
    bad = ~(np.abs(norms - 1.0) <= NORM_EPS)
    if bad.any():
        # the first lane that fails, of the first group that does, in row order
        group = groups[bad[groups].any(axis=1).argmax()]
        norm2 = norms[group, bad[group].argmax()].item()
        if not math.isfinite(norm2):
            raise SimulationError(f"state norm is {norm2!r}")
        raise SimulationError(f"state norm drifted to {norm2!r}")
    return keys, re, im, groups


def _checked(st: SparseState, lay: RegisterLayout, keys, re, im) -> SparseState:
    """``st`` set to the columns without dust, once each lane of each block
    has norm one."""
    keys, re, im, _blocks = _pruned_and_checked(keys, re, im, *_block_ids(lay, keys))
    return _holding(st, lay, keys, re, im)


def _holding(st: SparseState, lay: RegisterLayout, keys, re, im) -> SparseState:
    st.layout, st.keys, st.re, st.im, st._amps = lay, keys, re, im, None
    return st


def from_columns(lay: RegisterLayout, keys, re, im) -> SparseState:
    """The state of these columns: pruned, and checked for its norms."""
    return _checked(SparseState.__new__(SparseState), lay, keys, re, im)


def _moved(state: SparseState, keys: np.ndarray, lay: Optional[RegisterLayout] = None):
    """``state`` with new keys in its rows, amplitudes untouched.

    Nothing needs pruning or norm checking again: the rows keep their
    amplitudes and their order, and their blocks.
    """
    return _holding(SparseState.__new__(SparseState), lay or state.layout, keys,
                    state.re, state.im)


def _refuse_parts(state: SparseState, operation: str) -> None:
    """Refuse a lane or blocked state to an operation on one scalar state."""
    if state.layout.blocks is not None or state.re.shape[1] != 1:
        raise ValueError(f"{operation} takes a scalar state, not lanes or blocks")


def _rescaled(lay: RegisterLayout, keys, re, im, groups=None, count: int = 1) -> list:
    """The scalar state of the rows of each group, without dust, scaled to norm one.

    ``groups`` numbers each row's group, one of ``count``; without it every
    row is in one group.  Each state keeps its rows in order, and its
    squared norm adds them in order, after pruning.
    """
    if groups is None:
        groups = np.zeros(len(keys), dtype=np.intp)
    kept = ~(np.hypot(re[:, 0], im[:, 0]) <= PRUNE_EPS)
    keys, re, im, groups = keys[kept], re[kept], im[kept], groups[kept]
    if not len(keys):
        raise SimulationError("state has no support left")
    factors = 1.0 / np.sqrt(_group_sums(groups, count, _squares(re, im)))
    # an infinite amplitude makes a NaN here, which the norm check refuses
    with np.errstate(invalid="ignore"):
        re, im = complex_product(re, im, factors[groups], 0.0)
    keys, re, im, groups = _pruned_and_checked(keys, re, im, groups, count)
    order = np.argsort(groups, kind="stable")
    keys, re, im = keys[order], re[order], im[order]
    ends = np.cumsum(np.bincount(groups, minlength=count)).tolist()
    return [_holding(SparseState.__new__(SparseState), lay, keys[a:b], re[a:b], im[a:b])
            for a, b in zip([0] + ends, ends)]


def agreed_rows(table: np.ndarray, what: str) -> np.ndarray:
    """``agreed`` on every row of ``table``, one column per party."""
    if (table != table[:, :1]).any():
        raise ExactnessError(f"{what} disagrees across parties")
    return table[:, 0]


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
    dropped = np.array([slot % lay.width in drop_idx for slot in range(len(lay._radix))])
    digits = state.keys[:, None] // lay._strides % lay._radix
    # a row's key in the new layout, and its dropped symbols as one number
    kept_key = digits[:, ~dropped] @ new_lay._strides
    drop_key = digits[:, dropped] @ lay._strides[dropped]
    if (drop_key == drop_key[0]).all():
        # the dropped registers hold one value: each kept key is one row
        rows_of = firsts = np.arange(len(kept_key))
    else:
        rows_of, firsts = _groups(kept_key)
    count = len(firsts)
    re, im = state.re[:, 0], state.im[:, 0]
    weights = np.bincount(rows_of, weights=_squares(re, im), minlength=count)
    # the factor beta is the heaviest row, the first of equal ones, normalized
    ref = weights.argmax()
    ref_norm = math.sqrt(weights[ref])
    in_ref = (rows_of == ref).nonzero()[0]
    beta = np.array([complex(r, i) / ref_norm
                     for r, i in zip(re[in_ref].tolist(), im[in_ref].tolist())])
    beta_re, beta_im = beta.real, beta.imag
    # each row's partner in beta: the entry of the same dropped symbols
    by_key = np.argsort(drop_key[in_ref])
    at = by_key[np.searchsorted(drop_key[in_ref], drop_key, sorter=by_key).clip(max=len(in_ref) - 1)]
    paired = drop_key[in_ref][at] == drop_key
    # alpha adds a * conj(beta) over a row's paired amplitudes, in row order
    t_re, t_im = complex_product(re, im, beta_re[at], -beta_im[at])
    into = np.where(paired, rows_of, count)
    alpha_re = np.bincount(into, weights=t_re, minlength=count + 1)[:count]
    alpha_im = np.bincount(into, weights=t_im, minlength=count + 1)[:count]
    # beta has norm one, so what alpha beta leaves of a row is its weight
    # less |alpha|^2
    residual = weights - (alpha_re * alpha_re + alpha_im * alpha_im)
    if (residual > FACTOR_EPS).any():
        raise ExactnessError(
            f"registers {tuple(names)} are entangled with the rest "
            f"(residual {residual[(residual > FACTOR_EPS).argmax()]:.3e})")
    return _rescaled(new_lay, kept_key[firsts], alpha_re[:, None], alpha_im[:, None])[0]


def rename_register(state: SparseState, old: str, new: str) -> SparseState:
    lay = state.layout
    regs = tuple((new if name == old else name, dim) for name, dim in lay.regs)
    blocks = new if lay.blocks == old else lay.blocks
    return _moved(state, state.keys, RegisterLayout(lay.n_parties, regs, blocks))


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Product of two states over the same parties and disjoint registers."""
    if a.layout.n_parties != b.layout.n_parties:
        raise ValueError("party counts differ")
    la, lb = a.layout, b.layout
    new_lay = RegisterLayout(la.n_parties, la.regs + lb.regs)
    keys_a = sum(la.digits(a.keys, name) @ new_lay.strides(name) for name, _dim in la.regs)
    keys_b = sum(lb.digits(b.keys, name) @ new_lay.strides(name) for name, _dim in lb.regs)
    # every key of a, each followed by every key of b
    keys = (keys_a[:, None] + keys_b[None, :]).ravel()
    re, im = complex_product(a.re[:, None], a.im[:, None], b.re[None, :], b.im[None, :])
    lanes = re.shape[-1]
    return from_columns(new_lay, keys, re.reshape(-1, lanes), im.reshape(-1, lanes))


@dataclass(frozen=True)
class Gate:
    """A single-qudit unitary checked once, ready for ``apply_all_parties``.

    ``columns[s]`` lists the ``(output symbol, coefficient)`` pairs of input
    symbol ``s`` with a nonzero coefficient, as Python ``complex`` numbers.
    """

    dim: int
    columns: tuple

    @cached_property
    def _table(self) -> tuple:
        """``(width, outputs, coeff_re, coeff_im, emits)``: every column's
        nonzero coefficients in order, padded to one width and flattened, so
        that entry ``s * width + i`` is the i-th of input symbol ``s``, and
        which entries are not padding (``None`` when none are)."""
        width = max(map(len, self.columns))
        entries = [col[i] if i < len(col) else (0, 0j) for col in self.columns
                   for i in range(width)]
        coeffs = np.array([c for _j, c in entries], dtype=complex)
        emits = np.array([i < len(col) for col in self.columns for i in range(width)])
        return (width, np.array([j for j, _c in entries], dtype=np.int64),
                coeffs.real.copy(), coeffs.imag.copy(), None if emits.all() else emits)


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

    Each party's gate emits, row by row, one term per nonzero coefficient of
    the row's column; terms that land on one key are added in that order.
    """
    lay = state.layout
    _check_writable(lay, register)
    dim = lay.dim(register)
    if gate.dim != dim:
        raise ValueError(f"matrix shape {(gate.dim, gate.dim)} does not match "
                         f"register dimension {dim}")
    width, outputs, coeff_re, coeff_im, emits = gate._table
    if control is not None:
        ctrl_name, ctrl_sym = control
        _check_symbol(lay, ctrl_name, ctrl_sym)
        if ctrl_name == register:
            raise ValueError(f"register {register!r} cannot control a gate on itself")
        ctrl_strides = lay.strides(ctrl_name).tolist()
        ctrl_dim = lay.dim(ctrl_name)
    places = np.arange(width)
    keys, re, im = state.keys, state.re, state.im
    for party, stride in enumerate(lay.strides(register).tolist()):
        sym = keys // stride % dim
        # one term per row and entry of the row's column, in that order; no
        # control-true key maps onto a control-false one, which keeps its
        # control symbol, so a control-false row emits itself, once
        active = None
        if control is not None:
            active = keys // ctrl_strides[party] % ctrl_dim == ctrl_sym
            if active.all():
                active = None
        if active is None:
            rows, at = slice(None), None
        else:
            rows = active.nonzero()[0]
            emits_of = np.where(active, width, 1)
            first = np.cumsum(emits_of) - emits_of
            new_keys = np.empty(first[-1] + emits_of[-1], dtype=np.int64)
            t_re, t_im = np.empty((len(new_keys), re.shape[1])), np.empty((len(new_keys), re.shape[1]))
            passing = (~active).nonzero()[0]
            alone = first[passing]
            new_keys[alone], t_re[alone], t_im[alone] = keys[passing], re[passing], im[passing]
            at = np.add.outer(first[rows], places).ravel()
        entry = np.add.outer(sym[rows] * width, places).ravel()
        out_keys = np.repeat(keys[rows] - sym[rows] * stride, width) + outputs.take(entry) * stride
        out_re, out_im = complex_product(
            coeff_re.take(entry)[:, None], coeff_im.take(entry)[:, None],
            np.repeat(re[rows], width, axis=0), np.repeat(im[rows], width, axis=0))
        if at is None:
            new_keys, t_re, t_im = out_keys, out_re, out_im
        else:
            new_keys[at], t_re[at], t_im[at] = out_keys, out_re, out_im
        if emits is not None:
            emitted = np.ones(len(new_keys), dtype=bool)
            emitted[slice(None) if at is None else at] = emits.take(entry)
            new_keys, t_re, t_im = new_keys[emitted], t_re[emitted], t_im[emitted]
        keys, re, im = _merge(new_keys, t_re, t_im)
    return from_columns(lay, keys, re, im)


def phase_kick_where(state: SparseState, conditions, phase_per_party) -> SparseState:
    """Phase per party whose registers satisfy all (register, symbol) pairs.

    Every party satisfies an empty condition list.  A symbol outside its
    register's range raises ``ValueError``.  ``phase_per_party`` is one
    angle for every lane, or a sequence of one angle per lane.
    """
    lay = state.layout
    conditions = tuple(conditions)
    for reg, sym in conditions:
        _check_symbol(lay, reg, sym)
    phases = np.atleast_1d(np.asarray(phase_per_party, dtype=float))
    if not phases.any():
        return state
    count = np.full(len(state.keys), lay.n_parties)
    if conditions:
        met = np.logical_and.reduce([lay.digits(state.keys, reg) == sym
                                     for reg, sym in conditions])
        count = met.sum(axis=1)
    kicks = np.array([[cmath.exp(1j * phase * c) for phase in phases.tolist()]
                      for c in range(lay.n_parties + 1)])
    kicked = count > 0
    re, im = state.re.copy(), state.im.copy()
    k = kicks[count[kicked]]
    re[kicked], im[kicked] = complex_product(re[kicked], im[kicked], k.real, k.imag)
    return from_columns(lay, state.keys, re, im)


def scale(state: SparseState, factor: complex) -> SparseState:
    """Multiply every amplitude by a unit-modulus scalar."""
    if abs(abs(factor) - 1.0) > 1e-12:
        raise ValueError("scalar must have unit modulus")
    factor = complex(factor)
    re, im = complex_product(state.re, state.im, factor.real, factor.imag)
    return from_columns(state.layout, state.keys, re, im)


def binary_op_all_parties(state: SparseState, source_reg: str, target_reg: str) -> SparseState:
    """Add ``source_reg`` into ``target_reg`` mod their dimension at every party."""
    lay = state.layout
    _check_writable(lay, target_reg)
    dim = lay.dim(target_reg)
    if source_reg == target_reg or lay.dim(source_reg) != dim:
        raise ValueError("modular addition needs two registers of equal dimension")
    held = lay.digits(state.keys, target_reg)
    added = (held + lay.digits(state.keys, source_reg)) % dim
    keys = state.keys + (added - held) @ lay.strides(target_reg)
    if _collide(keys):
        raise SimulationError("binary op collided two components; not reversible")
    return _moved(state, keys)


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
    keys = state.keys
    # one row per key, one input per party, one symbol per input register;
    # the subroutine refuses a differing pattern, so every row costs the same
    outputs, cost = run_cached(sub, topology,
                              np.stack([lay.digits(keys, r) for r in in_regs], axis=-1))
    outside = (outputs < 0) | (outputs >= out_dim)
    if outside.any():
        row = outside.any(axis=1).argmax()
        raise SimulationError(f"subroutine {sub.name} produced symbol "
                              f"{outputs[row][outside[row]][0]} outside register {out_reg!r}")
    held = lay.digits(keys, out_reg)
    if inverse:
        wrong = held != outputs
        if wrong.any():
            row = wrong.any(axis=1).argmax()
            party = wrong[row].argmax()
            raise ExactnessError(
                f"uncompute mismatch in {out_reg!r}: held {held[row, party]}, "
                f"recomputed {outputs[row, party]}"
            )
        written = fiducial
    else:
        if (held != fiducial).any():
            raise SimulationError(
                f"out register {out_reg!r} not at fiducial before {sub.name}"
            )
        written = outputs
    new_keys = keys + (written - held) @ lay.strides(out_reg)
    if _collide(new_keys):
        raise SimulationError("coherent subroutine collided two components")
    return _moved(state, new_keys), cost


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
    lay = state.layout
    seen = lay.digits(state.keys, register)
    # outcome codes order as the outcome tuples do
    outcomes, firsts, ids = np.unique(seen @ lay.strides(register), return_index=True,
                                      return_inverse=True)
    ids = ids.ravel()
    probs = _group_sums(ids, len(outcomes), _squares(state.re, state.im))[:, 0].tolist()
    posts = _rescaled(lay, state.keys, state.re, state.im, ids, len(outcomes))
    return [MeasurementBranch(tuple(outcome), prob, post)
            for outcome, prob, post in zip(seen[firsts].tolist(), probs, posts)]


def sample_index(probabilities, seed: Optional[int] = None) -> int:
    """Index of one outcome drawn with seeded randomness.

    One uniform draw from ``random.Random(seed)`` is compared against the
    running sum of ``probabilities``, added left to right; the last index
    absorbs rounding.  No outcomes raise ``ValueError``.
    """
    if not len(probabilities):
        raise ValueError("no outcomes to sample")
    draw = random.Random(seed).random()
    acc = 0.0
    for i, p in enumerate(probabilities):
        acc += p
        if draw <= acc:
            return i
    return len(probabilities) - 1


def joint_branches(per_part) -> tuple:
    """Every choice of one option per independent part, with its probability.

    Returns ``(picks, probabilities)``: ``picks`` iterates over the choices,
    one option per part, in lexicographic order of the option lists, and
    ``probabilities`` lists their joint probabilities as Python floats, in
    the same order.  Each is the product of the picked options'
    ``probability``, taken left to right from 1.0: the outer product of the
    columns multiplies in that order, so it has the bits of the scalar loop.
    """
    joint = np.ones(())
    for options in per_part:
        joint = np.multiply.outer(joint, [option.probability for option in options])
    return product(*per_part), joint.ravel().tolist()


def fidelity(state: SparseState, reference: SparseState) -> float:
    """Squared overlap |<reference|state>|^2; layouts must match."""
    if state.layout != reference.layout:
        raise ValueError("layout mismatch")
    _refuse_parts(state, "fidelity")
    _refuse_parts(reference, "fidelity")
    rows = reference.rows(state.keys)
    shared = rows >= 0
    # conj(other) * amp over the shared keys, added in the state's row order
    terms = complex_product(reference.re[rows[shared], 0], -reference.im[rows[shared], 0],
                            state.re[shared, 0], state.im[shared, 0])
    # the real and imaginary parts are summed as two lanes of one group
    overlap = _group_sums(np.zeros(int(shared.sum()), dtype=np.intp), 1,
                          np.stack(terms, axis=1))[0].tolist()
    return abs(complex(*overlap)) ** 2
