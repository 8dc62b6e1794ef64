"""Single-iteration exact amplitude amplification, assembled distributedly.

The operator is -A F0(theta) A^{-1} Fchi(theta): flag the good components
and phase them, undo the state preparation, phase the all-fiducial component,
redo the preparation, and negate.  With theta = arccos(1 - 1/(2a)) the
bad-subspace amplitude of the result is exactly zero whenever the initial
good probability a is known and at least 1/4.

Flags are computed by distributed subroutines into per-party registers and
inverted afterwards; the collective phase is collected as local kicks whose
distribution over parties is the flag's kick policy (by default each of the n
parties contributes 1/n of the angle).  The iterate uncomputes the chi flag
before it computes the zero flag, so the two may share one register when
their fiducials are equal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import ExactnessError
from .qsim import (SparseState, agreed_rows, apply_coherent_subroutine, fold,
                   phase_kick_where, scale, uncompute_subroutine)
from .runtime import CostReport, sequential
from .subroutines import ClassicalSubroutine
from .topology import Topology

PROBABILITY_EPS = 1e-10   # allowed gap between measured and promised success odds


def phase_angle(a: float) -> float:
    """The angle that zeros the bad amplitude of one generalized Grover iterate.

    Both reflections kick this one angle theta.  Solves
    1 + (e^{i theta} - 1)(a e^{i theta} + 1 - a) = 0: the quadratic
    a z^2 + (1-2a) z + a = 0 has two unit-modulus roots for a > 1/4; we take
    the one with positive imaginary part, theta = arccos(1 - 1/(2a)).  At
    a = 1/4 this degenerates to the plain Grover iterate (theta = pi).
    """
    if not (0.25 - 1e-12 <= a <= 1.0 + 1e-12):
        raise ValueError(f"success probability {a} outside [1/4, 1]")
    a = min(max(a, 0.25), 1.0)
    return math.acos(1.0 - 1.0 / (2.0 * a))


@dataclass(frozen=True)
class Flag:
    """A predicate computed invertibly into a per-party register.

    ``apply`` and ``invert`` map a state to ``(state, cost)``.  ``kick``
    collects a collective phase on the flagged components: every party whose
    ``register`` shows ``trigger`` and whose registers meet the extra
    ``conditions`` contributes ``1/divisor`` of the angle.  With no extra
    conditions and ``divisor`` the party count the register must agree across
    parties, which it does for the global predicates used here.

    For a state of several lanes, ``divisor`` and the kicked angle may be
    arrays of one per lane; ``kick`` then divides lane by lane.
    """

    apply: Callable[[SparseState], tuple]
    invert: Callable[[SparseState], tuple]
    register: str
    trigger: int
    divisor: ArrayLike
    conditions: tuple = ()

    def kick(self, state: SparseState, total_angle) -> SparseState:
        return phase_kick_where(state, self.conditions + ((self.register, self.trigger),),
                                total_angle / self.divisor)


def SubroutineFlag(sub: ClassicalSubroutine, topology: Topology,
                   in_regs: Sequence[str], out_reg: str, trigger: int,
                   fiducial: int, *, divisor: Optional[ArrayLike] = None,
                   conditions=()) -> Flag:
    """The flag a classical subroutine computes when run coherently.

    ``divisor`` defaults to the party count, so every party contributes an
    equal share of the phase.
    """
    in_regs = (in_regs,) if isinstance(in_regs, str) else tuple(in_regs)
    args = (sub, topology, in_regs, out_reg)
    return Flag(
        apply=lambda s: apply_coherent_subroutine(s, *args, fiducial=fiducial),
        invert=lambda s: uncompute_subroutine(s, *args, fiducial=fiducial),
        register=out_reg, trigger=trigger,
        divisor=topology.n if divisor is None else divisor,
        conditions=tuple(conditions))


@dataclass(frozen=True)
class Step:
    """One reversible stage of a quantum procedure, with measured costs."""

    name: str
    forward: Callable[[SparseState], tuple]
    backward: Callable[[SparseState], tuple]


def local_step(fn: Callable[[SparseState], SparseState]):
    """A communication-free state map as a step function with zero cost."""
    def wrapped(state):
        return fn(state), CostReport.zero()
    return wrapped


def amplification_steps(
    prepare: Callable[[SparseState], SparseState],
    chi,
    zero,
    theta,
) -> list:
    """The iterate as a reversible step list (applied left to right).

    ``prepare`` must be its own inverse: the "unprepare" step applies it too.
    Both phase steps kick ``theta``, which may be an array of angles, one
    per lane of the state.
    """
    flip = local_step(prepare)
    return [
        Step("flag_good", chi.apply, chi.invert),
        Step("phase_good",
             local_step(lambda s: chi.kick(s, theta)),
             local_step(lambda s: chi.kick(s, -theta))),
        Step("unflag_good", chi.invert, chi.apply),
        Step("unprepare", flip, flip),
        Step("flag_zero", zero.apply, zero.invert),
        Step("phase_zero",
             local_step(lambda s: zero.kick(s, theta)),
             local_step(lambda s: zero.kick(s, -theta))),
        Step("unflag_zero", zero.invert, zero.apply),
        Step("prepare", flip, flip),
        Step("negate", local_step(lambda s: scale(s, -1)), local_step(lambda s: scale(s, -1))),
    ]


def run_steps(state: SparseState, steps, *, backward: bool = False) -> tuple:
    costs = []
    ordered = reversed(steps) if backward else steps
    for step in ordered:
        fn = step.backward if backward else step.forward
        state, cost = fn(state)
        costs.append(cost)
    return state, sequential(*costs)


def flag_mass(state: SparseState, register: str, trigger: int) -> float:
    """Probability mass on components whose flag shows ``trigger`` everywhere.

    Also checks the flag is shared: a component with disagreeing flag values
    across parties means the flag subroutine is broken.
    """
    flags = agreed_rows(state.layout.digits(state.keys, register), f"flag register {register!r}")
    flagged = flags == trigger
    return fold(np.float_power(np.hypot(state.re[flagged, 0], state.im[flagged, 0]), 2.0).tolist())


def exact_amplify(
    state: SparseState,
    prepare: Callable[[SparseState], SparseState],
    chi,
    zero,
    a: float,
    *,
    check_success: bool = True,
) -> tuple:
    """Apply one exact amplification iterate to ``state``.

    ``state`` must be ``prepare`` applied to the all-fiducial state, with the
    good-subspace probability equal to ``a``, and ``prepare`` must be its own
    inverse; afterwards the good probability is exactly one.
    ``check_success=False`` skips the precondition check and applies the
    iterate regardless, for callers that amplify on a guess.
    Cost is exactly two executions of each flag subroutine.
    """
    steps = amplification_steps(prepare, chi, zero, phase_angle(a))
    # run the first flag, optionally audit the promised success probability,
    # then run the rest
    state, c0 = steps[0].forward(state)
    if check_success:
        measured = flag_mass(state, chi.register, chi.trigger)
        if abs(measured - a) > PROBABILITY_EPS:
            raise ExactnessError(
                f"good probability {measured!r} differs from promised {a!r}"
            )
    state, rest = run_steps(state, steps[1:])
    return state, sequential(c0, rest)
