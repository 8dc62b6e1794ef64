"""Sharing a generalized GHZ (cat) state over k-level qudits.

Every party applies the Fourier gate over Z_k to a fresh qudit, the network
coherently computes the sum of all qudits mod k, and measuring that shared
sum collapses the qudits to a cat state whose phase index is determined by
the outcome.  k such attempts run in parallel; if none lands on phase index
zero, two attempts that landed on the same index are distilled into the
target state with one local modular addition and one more measurement.
Communication happens only inside the mod-k sum, so the whole procedure gets
by with a constant gate inventory plus that one black box.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SimulationError
from .qsim import (SparseState, agreed, apply_all_parties, apply_coherent_subroutine,
                   binary_op_all_parties, branches, drop_registers, gate,
                   init_state, joint_branches, layout, rename_register,
                   sample_index, tensor)
from .runtime import CostReport, parallel
from .subroutines import modular_sum_views
from .topology import Topology


def fourier_gate(k: int) -> np.ndarray:
    """The Fourier matrix over Z_k; the Hadamard gate for k = 2."""
    if k < 2:
        raise ValueError("qudit dimension must be at least 2")
    omega = cmath.exp(2j * math.pi / k)
    mat = np.array([[omega ** (x * j) for x in range(k)] for j in range(k)], dtype=complex)
    return mat / math.sqrt(k)


def cat_state(k: int, t: int, n: int, register: str = "share") -> SparseState:
    """Reference cat state: sum_x omega^{t x} |x...x> / sqrt(k) over n parties."""
    if not (0 <= t < k):
        raise ValueError(f"phase index {t} outside 0..{k - 1}")
    omega = cmath.exp(2j * math.pi / k)
    lay = layout(n, [(register, k)])
    amps = {
        (x,) * n: omega ** (t * x) / math.sqrt(k)
        for x in range(k)
    }
    return SparseState(lay, amps)


@dataclass(frozen=True)
class AttemptBranch:
    """One measurement branch of a single cat-preparation attempt."""

    outcome: int
    probability: float
    state: SparseState   # over register "share"


def _attempt(topology: Topology, k: int, fk, audit: list) -> tuple:
    """Run one attempt up to its measurement; enumerate all its branches."""
    n = topology.n
    lay = layout(n, [("share", k), ("sum", k)])
    state = init_state(lay, 0)
    fourier = fourier_gate(k)
    forward, dagger = gate(fourier), gate(fourier.conj().T)
    audit.append(f"fourier[{k}]")
    state = apply_all_parties(state, "share", forward)
    audit.append(f"sum_mod_{k}_blackbox")
    state, cost = apply_coherent_subroutine(
        state, fk, topology, ("share",), "sum",
        fiducial=0, global_info=n)
    audit.append("measure")
    audit.append(f"fourier_dag[{k}]")
    out = []
    for br in branches(state, "sum"):
        outcome = agreed(br.outcome, "sum register")
        post = apply_all_parties(br.post_state, "share", dagger)
        post = drop_registers(post, ["sum"])
        out.append(AttemptBranch(outcome=outcome, probability=br.probability, state=post))
    return out, cost


def phase1(topology: Topology, k: int, *, audit: Optional[list] = None) -> tuple:
    """All k parallel attempts, fully branch-enumerated.

    Returns ``(attempts, cost)`` where ``attempts[i]`` lists the branches of
    attempt i; measuring the shared sum of attempt i leaves its qudits in the
    cat state of phase index (-outcome) mod k.  The attempts run the same
    gates and subroutine on the same topology and inputs, so one is simulated
    and its branches stand for all k; the cost still meters k in parallel.
    """
    if audit is None:
        audit = []
    fk = modular_sum_views(k, 2 * (topology.n - 1))
    branches_0, cost_0 = _attempt(topology, k, fk, audit)
    return [branches_0] * k, parallel(*[cost_0] * k)


def phase2(state: SparseState, k: int, keep_reg: str, add_reg: str,
           audit: Optional[list] = None) -> list:
    """Distill one cat state of phase index zero from two of equal index.

    ``state`` holds two cat registers with the same nonzero phase index.
    Each party adds its ``keep_reg`` qudit into its ``add_reg`` qudit mod k
    and the ``add_reg`` qudits are measured; every branch leaves ``keep_reg``
    in the index-zero cat state up to a global phase.
    """
    if audit is None:
        audit = []
    audit.append(f"add_mod_{k}")
    state = binary_op_all_parties(state, keep_reg, add_reg)
    audit.append("measure")
    out = []
    for br in branches(state, add_reg):
        outcome = agreed(br.outcome, "distillation outcome")
        post = drop_registers(br.post_state, [add_reg])
        out.append(AttemptBranch(outcome=outcome, probability=br.probability, state=post))
    return out


@dataclass(frozen=True)
class GhzBranch:
    attempt_outcomes: tuple              # measured sums, one per attempt
    probability: float
    state: SparseState                   # final shared state, register "share"
    source_attempt: int                  # 0-based attempt the state came from
    pair: Optional[tuple] = None         # (l, m) used for distillation
    distill_outcome: Optional[int] = None

    def to_json(self) -> dict:
        from .qsim import dump_state
        return {
            "attempt_outcomes": list(self.attempt_outcomes),
            "probability": self.probability,
            "source_attempt": self.source_attempt,
            "pair": list(self.pair) if self.pair else None,
            "distill_outcome": self.distill_outcome,
            "state": dump_state(self.state),
        }


@dataclass
class GhzShareResult:
    k: int
    n: int
    branches: list
    cost: CostReport
    gates_used: tuple
    sampled_index: Optional[int] = None

    @property
    def sampled(self) -> Optional[GhzBranch]:
        if self.sampled_index is None:
            return None
        return self.branches[self.sampled_index]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def to_json(self) -> dict:
        payload = {
            "k": self.k,
            "n": self.n,
            "cost": self.cost.to_json(),
            "gates_used": list(self.gates_used),
            "branches": [b.to_json() for b in self.branches],
        }
        if self.sampled_index is not None:
            payload["sampled_index"] = self.sampled_index
        return payload


def _first_equal_pair(outcomes) -> tuple:
    k = len(outcomes)
    for l in range(k):
        for m in range(l + 1, k):
            if outcomes[l] == outcomes[m]:
                return l, m
    raise SimulationError("no two attempts agree; pigeonhole violated")


def ghz_share(topology: Topology, k: int, *, seed: Optional[int] = None,
              all_branches: bool = False) -> GhzShareResult:
    """Share the n-party index-zero cat state over k-level qudits, exactly.

    Enumerates every combination of the k attempts' outcomes (and, where
    distillation runs, its outcome too); each resulting branch carries the
    final shared state.  A branch is sampled unless ``all_branches`` is set.
    """
    n = topology.n
    if k < 2:
        raise ValueError("qudit dimension must be at least 2")
    audit: list = []
    attempts, cost = phase1(topology, k, audit=audit)

    # the k attempts are one attempt repeated, so two attempts that landed on
    # the same nonzero index t hold the same state: distill each t once
    distilled = {}
    for br in attempts[0]:
        if br.outcome != 0:
            joint = tensor(rename_register(br.state, "share", "keep"),
                           rename_register(br.state, "share", "aux"))
            distilled[br.outcome] = [
                (d, rename_register(d.state, "keep", "share"))
                for d in phase2(joint, k, "keep", "aux", audit=audit)]

    out = []
    for picked, prob in joint_branches(attempts):
        outcomes = tuple(br.outcome for br in picked)
        zero_hits = [i for i, s in enumerate(outcomes) if s == 0]
        if zero_hits:
            i0 = zero_hits[0]
            out.append(GhzBranch(
                attempt_outcomes=outcomes, probability=prob,
                state=picked[i0].state, source_attempt=i0))
            continue
        l, m = _first_equal_pair(outcomes)
        for d, state in distilled[outcomes[l]]:
            out.append(GhzBranch(
                attempt_outcomes=outcomes,
                probability=prob * d.probability,
                state=state, source_attempt=l, pair=(l, m),
                distill_outcome=d.outcome))

    gates = tuple(sorted(set(audit)))
    sampled = None if all_branches else sample_index([b.probability for b in out], seed)
    return GhzShareResult(k=k, n=n, branches=out, cost=cost,
                          gates_used=gates, sampled_index=sampled)
