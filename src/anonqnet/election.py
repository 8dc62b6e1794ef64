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
unentangled for a basis input, and every bank runs the same steps on the same
basis keys; only its kick angle and divisor depend on its guess.  So the
engine evolves the banks of one input as lanes of one small sparse state,
each lane its own normalized bank state.  No step writes a bank's "mark"
register, which holds the input, so the banks of every input a coherent
application needs run together as blocks of that one state, one block per
input.  Exactness is asserted numerically per input and bank, and any
residue raises instead of being rounded away.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .amplify import (Flag, Step, SubroutineFlag, amplification_steps, exact_amplify,
                      local_step, phase_angle, run_steps)
from .errors import ExactnessError, SimulationError
from .qsim import (SparseState, agreed_rows, apply_all_parties, branches,
                   complex_product, fold, from_columns, gate, init_state, joint_branches,
                   layout, sample_index)
from .runtime import CostReport, parallel, sequential
from .subroutines import (FALSE, TRUE, all_zeros_flooding,
                          consistency_from_all_zeros, run_cached, run_row)
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
    inverse is realized.  ``evaluate_many`` gives the memoized
    ``InputReport`` of each of several classical inputs; ``apply`` and
    ``elect_with_bound`` read them.
    """

    def __init__(self, topology: Topology, n_known: Optional[int] = None):
        self.topology = topology
        self.n_known = topology.n if n_known is None else n_known
        if self.n_known < topology.n:
            raise ValueError("known bound below the true party count")
        self.guesses = tuple(range(2, self.n_known + 1))
        self.zeros = all_zeros_flooding(self.n_known)
        self.cons = consistency_from_all_zeros(self.zeros)
        self._tape = self._bank_tape()
        self._bank_layout = layout(topology.n, [("mark", 2), ("coin", 2), ("flag", 2)],
                                   blocks="mark")
        self._memo: dict = {}
        self._cost: Optional[CostReport] = None   # the first report's

    # -- the guess banks -----------------------------------------------------

    def _bank_tape(self) -> list:
        """One tape for every guess bank, each guess a lane of the state."""
        topo = self.topology

        def spread(s):
            return apply_all_parties(s, "coin", BANK_HADAMARD, control=("mark", MARKED))

        # only marked parties kick, 1/guess each: when the guess equals the
        # number of marked parties the collected phase is exact, which keeps
        # the procedure exact when the parties know only a bound on n
        marked = dict(divisor=np.array(self.guesses), conditions=(("mark", MARKED),))
        chi = SubroutineFlag(self.cons, topo, ("coin", "mark"), "flag",
                             trigger=INCONSISTENT, fiducial=CONSISTENT, **marked)
        zero = SubroutineFlag(self.zeros, topo, ("coin",), "flag",
                              trigger=TRUE, fiducial=TRUE, **marked)
        theta = np.array([phase_angle(guess_success_probability(t)) for t in self.guesses])

        # chi, zero and the final verdict (chi once more, on the amplified
        # coins) share the bank's one flag register; this is exact because the
        # iterate returns each flag to its fiducial before the next one is
        # computed, and every fiducial is 1 (CONSISTENT == TRUE)
        tape = [Step("spread", local_step(spread), local_step(spread))]
        tape += amplification_steps(spread, chi, zero, theta)
        tape.append(Step("final_flag", chi.apply, chi.invert))
        return tape

    def _run_bank(self, xs: Sequence[tuple]) -> list:
        """One ``BankReport`` per guess for each input of ``xs``, in order.

        Every input is a block of one state, told apart by its "mark"
        register, and every guess a lane; each block keeps the relative order
        of its keys, so its reports are those of the input run alone.
        """
        lay = self._bank_layout
        starts = [tuple(sym for bit in x for sym in (MARKED if bit else UNMARKED, 0, CONSISTENT))
                  for x in xs]
        width = len(self.guesses)
        bank = SparseState(lay, dict.fromkeys(starts, (1.0 + 0j,) * width))
        start_keys = bank.keys
        bank, fwd_cost = run_steps(bank, self._tape)
        verdicts = agreed_rows(lay.digits(bank.keys, "flag"), "consistency verdict")
        # the input of a row is the one whose marks it holds
        marks = lay.strides("mark")
        start_marks = lay.digits(start_keys, "mark") @ marks
        by_marks = np.argsort(start_marks)
        held = lay.digits(bank.keys, "mark") @ marks
        inputs = by_marks[np.searchsorted(start_marks, held, sorter=by_marks)]
        # the largest amplitude of each input, verdict and lane
        peaks = np.zeros((len(xs), 2, width))
        np.maximum.at(peaks, (inputs, verdicts), np.hypot(bank.re, bank.im))

        bank, bwd_cost = run_steps(bank, self._tape, backward=True)
        cost = sequential(fwd_cost, bwd_cost)
        norms = bank.block_norms()
        rows = bank.rows(start_keys)
        found = (rows >= 0)[:, None]
        restored = zip(np.where(found, bank.re[rows], 0.0).tolist(),
                       np.where(found, bank.im[rows], 0.0).tolist())
        block_of = lay.reader("mark")
        out = []
        for x, start, peak, (fid_re, fid_im) in zip(xs, starts, peaks.tolist(), restored):
            lanes = zip(self.guesses, peak[CONSISTENT], peak[INCONSISTENT],
                        norms[block_of(start)], map(complex, fid_re, fid_im))
            reports = []
            for guess, max_consistent, max_inconsistent, norm2, fid_amp in lanes:
                residual = norm2 - abs(fid_amp) ** 2
                phase_err = abs(fid_amp - 1.0)
                # written so that a NaN fails too
                if not (residual <= RESIDUE_TOL and phase_err <= RESIDUE_TOL):
                    raise ExactnessError(
                        f"guess bank t={guess} failed to disentangle for input {x} "
                        f"(residual {residual:.3e}, phase error {phase_err:.3e})"
                    )
                reports.append(BankReport(
                    guess=guess,
                    max_consistent_amp=max_consistent,
                    max_inconsistent_amp=max_inconsistent,
                    inversion_residual=residual,
                    inversion_phase_error=phase_err,
                    restored_amp=fid_amp,
                    cost=cost,
                ))
            out.append(tuple(reports))
        return out

    # -- whole procedure on classical inputs -------------------------------

    def evaluate_many(self, xs: Sequence[tuple]) -> list:
        """The memoized record of the procedure on each input of ``xs``, in order.

        The guess banks of every input not yet memoized run together, each
        input a block of one state, and one table lookup reads the all-zeros
        flood of each.  The procedure's communication does not depend on the
        input, so an input whose cost differs from the first one's raises
        ``SimulationError``.  An input whose length is not the party count,
        or an entry other than 0 or 1, raises ``ValueError``.
        """
        missing = [x for x in dict.fromkeys(xs) if x not in self._memo]
        for x in missing:
            if len(x) != self.topology.n:
                raise ValueError(f"input {x} has {len(x)} entries for {self.topology.n} parties")
            for bit in x:
                if bit not in (0, 1):
                    raise ValueError(f"input entry {bit} is not a bit")
        if missing:
            banks_of = self._run_bank(missing) if self.guesses else [()] * len(missing)
            zeros_out, zeros_cost = run_cached(self.zeros, self.topology, missing)
            flags = agreed_rows(zeros_out, "all-zeros flood").tolist()
            # one cost per distinct set of bank costs: once per batch, as the
            # banks of one batch share one cost
            costs: dict = {}
            for x, banks, s0 in zip(missing, banks_of, flags):
                bank_costs = tuple(b.cost for b in banks)
                cost = costs.get(bank_costs)
                if cost is None:
                    cost = costs[bank_costs] = self._cost_of(zeros_cost, bank_costs)
                self._memo[x] = self._report(x, banks, s0, cost)
        return [self._memo[x] for x in xs]

    def _cost_of(self, zeros_cost: CostReport, bank_costs: tuple) -> CostReport:
        """One execution's cost from the all-zeros flood's and the banks'."""
        # the flood is metered twice (computing the zeros flag and undoing
        # it); the banks already include their own inversion passes
        cost = sequential(zeros_cost, zeros_cost, parallel(*bank_costs))
        if self._cost is None:
            self._cost = cost
        elif (cost.rounds, cost.qubits_sent) != (self._cost.rounds, self._cost.qubits_sent):
            raise SimulationError("unique-one cost varied with the input")
        return cost

    def _report(self, x: tuple, banks: tuple, s0: int, cost: CostReport) -> InputReport:
        """One input's record from its guess banks and its all-zeros flag."""
        flips = s0 == TRUE or any(b.purely_inconsistent for b in banks)
        if not flips:
            undecided = [b for b in banks if not b.purely_consistent]
            if undecided:
                worst = max(b.max_inconsistent_amp for b in undecided)
                raise ExactnessError(
                    f"unique-one outcome undetermined for input {x}: a guess bank "
                    f"kept inconsistent amplitude {worst:.3e} without deciding"
                )
        return InputReport(
            value=FALSE if flips else TRUE,
            phase=math.prod((b.restored_amp for b in banks), start=1.0 + 0j),
            cost=cost, zeros_flag=s0, banks=banks,
        )

    def apply(self, state: SparseState, x_reg: str, y_reg: str,
              run_cache: Optional[dict] = None) -> tuple:
        """Coherently fold the weight-one predicate of x_reg into y_reg.

        Returns ``(state, cost)``; the cost is that of one execution, which
        ``evaluate_many`` checks is the same for every input.
        ``run_cache`` is accepted and ignored: the subroutines memoize their
        own runs.  A state laid out for another party count raises
        ``ValueError``, as its inputs have the wrong length.
        """
        lay = state.layout
        reports = self.evaluate_many(list(map(tuple, lay.digits(state.keys, x_reg).tolist())))
        flips = np.array([report.value == FALSE for report in reports])[:, None]
        held = lay.digits(state.keys, y_reg)
        keys = state.keys + np.where(flips, (held ^ 1) - held, 0) @ lay.strides(y_reg)
        phases = np.array([report.phase for report in reports])[:, None]
        re, im = complex_product(state.re, state.im, phases.real, phases.imag)
        return from_columns(lay, keys, re, im), reports[0].cost


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
        return fold(b.probability for b in self.branches)


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

    outcome: tuple
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
        checks = procedure.evaluate_many([br.outcome for br in measured])
        guess_costs.append(sequential(attempt_cost, checks[0].cost))
        options.append([_GuessOption(br.outcome, br.probability, check.value == TRUE,
                                     _leaders(br.outcome))
                         for br, check in zip(measured, checks)])

    cost = parallel(*guess_costs)
    # a joint branch's verification pattern alone decides its verified
    # guesses and winner, so each pattern that occurs is decided once
    decided = {}
    for pattern in product(*(dict.fromkeys(o.verified for o in guess_options)
                             for guess_options in options)):
        verified = tuple(compress(guesses, pattern))
        if not verified:
            raise ExactnessError("no guess verified a unique leader in some branch")
        decided[pattern] = verified, verified[0], verified[0] - guesses[0]

    # the joint tuples come from product over per-option fields, in step with
    # joint_branches; branches() sorts each guess's outcomes, so the joint
    # branches come sorted by guess_outcomes
    picks, probabilities = joint_branches(options)
    pairs = product(*([(guess, o.outcome) for o in guess_options]
                      for guess, guess_options in zip(guesses, options)))
    marks = product(*([o.verified for o in guess_options] for guess_options in options))
    out = []
    for picked, prob, guess_outcomes, pattern in zip(picks, probabilities, pairs, marks):
        verified, winner_guess, index = decided[pattern]
        winner = picked[index]
        # positional fields: keywords cost a third more per branch
        out.append(ElectionBranch(winner.outcome, prob, winner.leaders, winner_guess,
                                  guess_outcomes, verified))
    sampled = None if all_branches else sample_index(probabilities, seed)
    return ElectionResult(n=n, branches=out, cost=cost, sampled_index=sampled)


def cost_breakdown(topology: Topology) -> dict:
    """Metered cost of each layer of the election on ``topology``.

    ``h0`` is one all-zeros flood, ``cs`` one consistency test, ``h1`` one
    run of the unique-one procedure and ``qle`` the whole election, which
    costs exactly 2 h0 + 2 h1.
    """
    n = topology.n
    zeros = all_zeros_flooding(n)
    _out, h0 = run_row(zeros, topology, (0,) * n)
    _out, cs = run_row(consistency_from_all_zeros(zeros), topology, ((0, 1),) * n)
    h1 = exactly_one_algorithm(topology).evaluate_many([(0,) * n])[0].cost
    return {"h0": h0, "cs": cs, "h1": h1, "qle": elect(topology, all_branches=True).cost}
