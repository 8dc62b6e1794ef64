"""Exact anonymous leader election and the unique-one test backing it.

The election prepares every party's coin in sqrt(1-1/n)|0> + sqrt(1/n)|1>,
then runs one exact amplification iterate whose good subspace is the strings
of Hamming weight one: the flag is computed by the unique-one procedure, the
all-zero reflection by OR-flooding.  Measuring the coins then yields exactly
one eligible party in every branch.

The unique-one procedure follows a two-test structure: an all-zeros flood
handles weight 0, and for every guess t of the weight a bank of registers
runs one amplification that, precisely when t matches the true weight (and
the weight is at least 2), leaves only inconsistent coin strings, which a
consistency check then reports.  Banks touch disjoint registers and stay
unentangled for a basis input, so the engine evolves each bank as its own
small sparse state; exactness is asserted numerically per bank and any
residue raises instead of being rounded away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product
from typing import NamedTuple, Optional

import numpy as np

from .amplify import (Flag, Step, SubroutineFlag, amplification_steps,
                      exact_amplify, local_step, phase_angles, run_steps)
from .errors import ExactnessError, SimulationError
from .qsim import (SparseState, agreed, apply_all_parties, branches, gate,
                   init_state, joint_branches, layout, sample_index)
from .runtime import CostReport, parallel, sequential
from .subroutines import (FALSE, TRUE, all_zeros_flooding,
                          consistency_from_all_zeros, run_cached)
from .topology import Topology

MARKED, UNMARKED = 1, 0
CONSISTENT, INCONSISTENT = 1, 0

#: how clean "exactly zero amplitude" must be in classifications and ancilla
#: restoration before the engine refuses to continue
RESIDUE_TOL = 1e-10

#: the Hadamard every guess bank applies to its marked coins
BANK_HADAMARD = gate(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0))


def success_probability(n: int) -> float:
    """Chance that exactly one of n fair-ish coins (heads odds 1/n) is heads."""
    if n < 2:
        raise ValueError("need at least two parties")
    return (1.0 - 1.0 / n) ** (n - 1)


def guess_success_probability(t: int) -> float:
    """Chance of seeing both outcomes among t fair coin flips."""
    if t < 2:
        raise ValueError("guess must be at least 2")
    return 1.0 - 2.0 * 0.5 ** t


def rotation_matrix(n: int) -> np.ndarray:
    """The involution sending |0> to sqrt(1-1/n)|0> + sqrt(1/n)|1>."""
    if n < 2:
        raise ValueError("need at least two parties")
    root = math.sqrt(n - 1)
    return np.array([[root, 1.0], [1.0, -root]], dtype=complex) / math.sqrt(n)


# ---------------------------------------------------------------------------
# the unique-one procedure


@dataclass(frozen=True)
class BankReport:
    """What one guess bank of the unique-one procedure did to one input."""

    guess: int
    max_consistent_amp: float
    max_inconsistent_amp: float
    inversion_residual: float      # mass off the restored basis state
    inversion_phase_error: float   # |restored_amp - 1|
    restored_amp: complex          # final amplitude of the bank's start state
    cost: CostReport               # forward and backward passes

    @property
    def purely_inconsistent(self) -> bool:
        return self.max_consistent_amp < RESIDUE_TOL

    @property
    def purely_consistent(self) -> bool:
        return self.max_inconsistent_amp < RESIDUE_TOL


@dataclass(frozen=True)
class InputReport:
    """The unique-one procedure's action on one classical input.

    ``value`` is the weight-one predicate (TRUE or FALSE), ``phase`` the
    factor the input's amplitude picks up and ``cost`` that of one execution.
    """

    value: int
    phase: complex
    cost: CostReport
    zeros_flag: int
    banks: tuple                   # one BankReport per guess


class ExactlyOneProcedure:
    """Measurement-free test that the parties' bits have Hamming weight one.

    ``apply`` maps each basis component |x>|y> to |x>|y xor not H(x)> where
    H(x) is the weight-one predicate, leaving every working register back at
    its fiducial.  Applying it twice is the identity, which is also how the
    inverse is realized.  ``evaluate`` gives the memoized ``InputReport`` of
    one classical input; ``apply`` and ``elect_with_bound`` read it.
    """

    def __init__(self, topology: Topology, n_known: Optional[int] = None):
        self.topology = topology
        self.n_known = topology.n if n_known is None else n_known
        if self.n_known < topology.n:
            raise ValueError("known bound below the true party count")
        self.guesses = tuple(range(2, self.n_known + 1))
        self.zeros = all_zeros_flooding(self.n_known)
        self.cons = consistency_from_all_zeros(self.zeros)
        self._tapes = {t: self._bank_tape(t) for t in self.guesses}
        self._bank_layout = layout(topology.n, [("mark", 2), ("coin", 2), ("flag", 2)])
        self._memo: dict = {}
        self._cost: Optional[CostReport] = None   # the first report's

    # -- per-guess bank ----------------------------------------------------

    def _bank_tape(self, guess: int) -> list:
        topo = self.topology

        def spread(s):
            return apply_all_parties(s, "coin", BANK_HADAMARD, control=("mark", MARKED))

        # only marked parties kick, 1/guess each: when the guess equals the
        # number of marked parties the collected phase is exact, which keeps
        # the procedure exact when the parties know only a bound on n
        marked = dict(divisor=guess, conditions=(("mark", MARKED),))
        chi = SubroutineFlag(self.cons, topo, ("coin", "mark"), "flag",
                             trigger=INCONSISTENT, fiducial=CONSISTENT, **marked)
        zero = SubroutineFlag(self.zeros, topo, ("coin",), "flag",
                              trigger=TRUE, fiducial=TRUE, **marked)
        angles = phase_angles(guess_success_probability(guess))

        # chi, zero and the final verdict (chi once more, on the amplified
        # coins) share the bank's one flag register; this is exact because the
        # iterate returns each flag to its fiducial before the next one is
        # computed, and every fiducial is 1 (CONSISTENT == TRUE)
        tape = [Step("spread", local_step(spread), local_step(spread))]
        tape += amplification_steps(spread, chi, zero, angles)
        tape.append(Step("final_flag", chi.apply, chi.invert))
        return tape

    def _run_bank(self, x: tuple, guess: int) -> BankReport:
        lay = self._bank_layout
        key = []
        for bit in x:
            key.extend((MARKED if bit else UNMARKED, 0, CONSISTENT))
        start = tuple(key)
        bank = SparseState(lay, {start: 1.0 + 0j})
        tape = self._tapes[guess]
        bank, fwd_cost = run_steps(bank, tape)

        verdicts = lay.reader("flag")
        peak = {CONSISTENT: 0.0, INCONSISTENT: 0.0}
        for comp, amp in bank.amps.items():
            verdict = agreed(verdicts(comp), "consistency verdict")
            peak[verdict] = max(peak[verdict], abs(amp))

        bank, bwd_cost = run_steps(bank, tape, backward=True)
        fid_amp = bank.amplitude(start)
        residual = bank.norm_squared() - abs(fid_amp) ** 2
        phase_err = abs(fid_amp - 1.0)
        # written so that a NaN fails too
        if not (residual <= RESIDUE_TOL and phase_err <= RESIDUE_TOL):
            raise ExactnessError(
                f"guess bank t={guess} failed to disentangle "
                f"(residual {residual:.3e}, phase error {phase_err:.3e})"
            )
        return BankReport(
            guess=guess,
            max_consistent_amp=peak[CONSISTENT],
            max_inconsistent_amp=peak[INCONSISTENT],
            inversion_residual=residual,
            inversion_phase_error=phase_err,
            restored_amp=fid_amp,
            cost=sequential(fwd_cost, bwd_cost),
        )

    # -- whole procedure on one classical input ----------------------------

    def evaluate(self, x: tuple) -> InputReport:
        """The memoized record of the procedure on one classical input.

        The procedure's communication does not depend on the input, so a new
        report whose cost differs from the first one's raises
        ``SimulationError``.
        """
        report = self._memo.get(x)
        if report is not None:
            return report
        zeros_out, zeros_cost = run_cached(self.zeros, self.topology,
                                           tuple(int(b) for b in x))
        s0 = agreed(zeros_out, "all-zeros flood")
        banks = tuple(self._run_bank(x, t) for t in self.guesses)

        flips = s0 == TRUE or any(b.purely_inconsistent for b in banks)
        if not flips:
            undecided = [b for b in banks if not b.purely_consistent]
            if undecided:
                worst = max(b.max_inconsistent_amp for b in undecided)
                raise ExactnessError(
                    f"unique-one outcome undetermined for input {x}: a guess bank "
                    f"kept inconsistent amplitude {worst:.3e} without deciding"
                )

        # the flood is metered twice (computing the zeros flag and undoing
        # it); the banks already include their own inversion passes
        cost = sequential(zeros_cost, zeros_cost, parallel(*(b.cost for b in banks)))
        if self._cost is None:
            self._cost = cost
        elif (cost.rounds, cost.qubits_sent) != (self._cost.rounds, self._cost.qubits_sent):
            raise SimulationError("unique-one cost varied with the input")
        report = InputReport(
            value=FALSE if flips else TRUE,
            phase=math.prod((b.restored_amp for b in banks), start=1.0 + 0j),
            cost=cost, zeros_flag=s0, banks=banks,
        )
        self._memo[x] = report
        return report

    def apply(self, state: SparseState, x_reg: str, y_reg: str,
              run_cache: Optional[dict] = None) -> tuple:
        """Coherently fold the weight-one predicate of x_reg into y_reg.

        Returns ``(state, cost)``; the cost is that of one execution, which
        ``evaluate`` checks is the same for every input.
        ``run_cache`` is accepted and ignored: the subroutines memoize their
        own runs.
        """
        lay = state.layout
        x_of = lay.reader(x_reg)
        y_slots = lay.slots(y_reg)
        reports = [self.evaluate(x_of(key)) for key in state.amps]
        amps = {}
        for (key, amp), report in zip(state.amps.items(), reports):
            nk = list(key)
            if report.value == FALSE:
                for s in y_slots:
                    nk[s] ^= 1
            amps[tuple(nk)] = amp * report.phase
        return SparseState(lay, amps), reports[0].cost


def exactly_one_algorithm(topology: Topology, n_known: Optional[int] = None) -> ExactlyOneProcedure:
    """Build the unique-one test for a network of known (or bounded) size."""
    return ExactlyOneProcedure(topology, n_known)


def unique_one_state(amplitudes: dict) -> SparseState:
    """Input state of the unique-one procedure over registers "bit" and "res".

    ``amplitudes`` maps bit vectors to their amplitudes; "res" starts at TRUE.
    """
    n = len(next(iter(amplitudes)))
    lay = layout(n, [("bit", 2), ("res", 2)])
    return SparseState(lay, {tuple(sym for bit in x for sym in (bit, TRUE)): amp
                             for x, amp in amplitudes.items()})


# ---------------------------------------------------------------------------
# election results


@dataclass(frozen=True)
class ElectionBranch:
    outcomes: tuple          # final coin bit per party
    probability: float
    leaders: tuple           # parties left eligible
    winner_guess: Optional[int] = None
    guess_outcomes: Optional[tuple] = None   # ((guess, outcome tuple), ...)
    verified: Optional[tuple] = None

    @property
    def leader_count(self) -> int:
        return len(self.leaders)

    def statuses(self) -> tuple:
        return tuple("eligible" if bit == 1 else "ineligible" for bit in self.outcomes)


@dataclass
class ElectionResult:
    n: int
    branches: list
    cost: CostReport
    sampled_index: Optional[int] = None

    @property
    def sampled(self) -> Optional[ElectionBranch]:
        if self.sampled_index is None:
            return None
        return self.branches[self.sampled_index]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def to_json(self) -> dict:
        payload = {
            "n": self.n,
            "cost": self.cost.to_json(),
            "branches": [
                {
                    "outcomes": list(b.outcomes),
                    "probability": b.probability,
                    "leader_party": b.leaders[0] if b.leader_count == 1 else None,
                    "leaders": list(b.leaders),
                    "statuses": list(b.statuses()),
                    **({"winner_guess": b.winner_guess} if b.winner_guess is not None else {}),
                }
                for b in self.branches
            ],
        }
        if self.sampled_index is not None:
            payload["sampled_index"] = self.sampled_index
        return payload


def _leaders(outcome: tuple) -> tuple:
    """The parties whose coin came up 1."""
    return tuple(p for p, bit in enumerate(outcome) if bit == 1)


def _trivial_result(all_branches: bool) -> ElectionResult:
    branch = ElectionBranch(outcomes=(1,), probability=1.0, leaders=(0,))
    return ElectionResult(n=1, branches=[branch], cost=CostReport.zero(),
                          sampled_index=None if all_branches else 0)


# ---------------------------------------------------------------------------
# the election itself


def elect(topology: Topology, *, seed: Optional[int] = None,
          all_branches: bool = False) -> ElectionResult:
    """Exact leader election when every party knows the true party count.

    Enumerates every measurement branch; exactly one party measures 1 in each
    of them, and a branch with any other leader count, however light, raises
    ``ExactnessError``.  With ``all_branches`` false a branch is additionally sampled
    with seeded randomness and exposed as ``result.sampled``.

    The branches and the cost depend only on the topology, so the election is
    simulated once per ``Topology`` object and kept in ``topology.memo``;
    later calls only sample.  Every call reports the full election cost.
    """
    n = topology.n
    if n == 1:
        return _trivial_result(all_branches)
    memo = topology.memo.get("elect")
    if memo is None:
        state, cost = _amplified_coins(exactly_one_algorithm(topology), n,
                                       check_success=True)
        out = []
        for br in branches(state, "coin"):
            leaders = _leaders(br.outcome)
            if len(leaders) != 1:
                raise ExactnessError(
                    f"election branch {br.outcome} of probability {br.probability!r} "
                    f"has {len(leaders)} leaders")
            out.append(ElectionBranch(outcomes=br.outcome, probability=br.probability,
                                      leaders=leaders))
        memo = topology.memo.setdefault("elect", (tuple(out), cost))
    out, cost = memo
    sampled = None if all_branches else sample_index([b.probability for b in out], seed)
    return ElectionResult(n=n, branches=list(out), cost=cost, sampled_index=sampled)


def _amplified_coins(procedure: ExactlyOneProcedure, guess: int,
                     check_success: bool) -> tuple:
    """The coins after one exact amplification towards weight one, for n = guess.

    The all-zeros flood runs for the procedure's known bound on n; both flags
    kick 1/guess of each angle per party.  Returns ``(state, cost)``.
    """
    topology = procedure.topology
    # one flag register for both flags, as in a guess bank
    lay = layout(topology.n, [("coin", 2), ("flag", 2)])
    state = init_state(lay, {"coin": 0, "flag": TRUE})
    rotation = gate(rotation_matrix(guess))

    def prepare(s):
        return apply_all_parties(s, "coin", rotation)

    def weight_one(s):
        return procedure.apply(s, "coin", "flag")

    # applying the unique-one procedure twice is the identity
    chi = Flag(apply=weight_one, invert=weight_one, register="flag",
               trigger=TRUE, divisor=guess)
    zero = SubroutineFlag(procedure.zeros, topology, ("coin",), "flag",
                          trigger=TRUE, fiducial=TRUE, divisor=guess)
    return exact_amplify(prepare(state), prepare, chi, zero,
                         a=success_probability(guess), check_success=check_success)


class _GuessOption(NamedTuple):
    """One measured outcome of one guess's attempt, built once per outcome."""

    pair: tuple              # (guess, outcome)
    probability: float
    verified: bool
    leaders: tuple


def elect_with_bound(topology: Topology, upper_bound: int, *,
                     seed: Optional[int] = None,
                     all_branches: bool = False) -> ElectionResult:
    """Exact leader election when only an upper bound on n is known.

    The election is attempted for every guess of the party count in parallel,
    each attempt is verified with the unique-one test (which works given only
    the bound), and the smallest verified guess provides the leader.  The
    verification flags are common to all parties, so the tie-break is safe in
    an anonymous network.
    """
    n = topology.n
    if upper_bound < n:
        raise ValueError("upper bound below the true party count")
    if n == 1:
        return _trivial_result(all_branches)
    procedure = exactly_one_algorithm(topology, n_known=upper_bound)

    guesses = tuple(range(2, upper_bound + 1))
    options, guess_costs = [], []
    for guess in guesses:
        state, attempt_cost = _amplified_coins(procedure, guess, check_success=False)
        measured = branches(state, "coin")
        checks = [procedure.evaluate(br.outcome) for br in measured]
        guess_costs.append(sequential(attempt_cost, checks[0].cost))
        options.append([_GuessOption((guess, br.outcome), br.probability,
                                     check.value == TRUE, _leaders(br.outcome))
                         for br, check in zip(measured, checks)])

    cost = parallel(*guess_costs)
    # the joint tuples come from product over per-option fields, in step with
    # joint_branches; branches() sorts each guess's outcomes, so the joint
    # branches come sorted by guess_outcomes
    pairs = product(*([o.pair for o in guess_options] for guess_options in options))
    marks = product(*([o.verified for o in guess_options] for guess_options in options))
    out = []
    for (picked, prob), guess_outcomes, verified_marks in zip(joint_branches(options),
                                                               pairs, marks):
        verified = tuple(compress(guesses, verified_marks))
        if not verified:
            raise ExactnessError("no guess verified a unique leader in some branch")
        winner = picked[verified[0] - 2]
        out.append(ElectionBranch(
            outcomes=winner.pair[1], probability=prob, leaders=winner.leaders,
            winner_guess=verified[0], guess_outcomes=guess_outcomes, verified=verified,
        ))
    sampled = None if all_branches else sample_index([b.probability for b in out], seed)
    return ElectionResult(n=n, branches=out, cost=cost, sampled_index=sampled)


def cost_breakdown(topology: Topology) -> dict:
    """Metered cost of each layer of the election on ``topology``.

    ``h0`` is one all-zeros flood, ``cs`` one consistency test, ``h1`` one
    run of the unique-one procedure and ``qle`` the whole election, which
    costs exactly 2 h0 + 2 h1.
    """
    n = topology.n
    zeros = all_zeros_flooding(n)
    _out, h0 = run_cached(zeros, topology, (0,) * n)
    _out, cs = run_cached(consistency_from_all_zeros(zeros), topology, ((0, 1),) * n)
    h1 = exactly_one_algorithm(topology).evaluate((0,) * n).cost
    return {"h0": h0, "cs": cs, "h1": h1, "qle": elect(topology, all_branches=True).cost}
