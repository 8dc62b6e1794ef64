"""Exactness checks on every result the benchmark receives.

Each check returns a list of problems (empty when the result is exact).  The
checks look only at what a result promises to a user: who leads in each
branch, the branch probabilities, the shared state, the computed value.  They
do not depend on the order in which branches are enumerated or on how the
protocol is metered, so they stay valid when either changes.
"""
from __future__ import annotations

import math

from anonqnet import election, qsim, runtime, subroutines

PROB_TOL = 1e-9
FIDELITY_TOL = 1e-9


def _total_probability(result) -> list:
    total = sum(b.probability for b in result.branches)
    if abs(total - 1.0) > PROB_TOL:
        return [f"total probability {total!r} is not 1"]
    return []


def check_election(result, n: int) -> list:
    """Exactly one leader per branch, probability 1, uniform leader marginal."""
    if result.n != n:
        return [f"result is for n={result.n}, expected n={n}"]
    problems = _total_probability(result)
    marginal = [0.0] * n
    for b in result.branches:
        ones = tuple(p for p, bit in enumerate(b.outcomes) if bit == 1)
        if len(ones) != 1 or tuple(b.leaders) != ones:
            problems.append(f"branch {b.outcomes} has leaders {b.leaders}")
            continue
        marginal[ones[0]] += b.probability
    for p, mass in enumerate(marginal):
        if abs(mass - 1.0 / n) > PROB_TOL:
            problems.append(f"party {p} leads with probability {mass!r}, not 1/{n}")
    return problems


def cat_fidelity(state, k: int, n: int) -> float:
    """|<cat|state>|^2 against sum_x |x...x> / sqrt(k), built independently."""
    lay = state.layout
    if lay.n_parties != n or tuple(lay.regs) != (("share", k),):
        return 0.0
    overlap = sum(state.amps.get((x,) * n, 0j) for x in range(k)) / math.sqrt(k)
    return abs(overlap) ** 2


def check_ghz(result, k: int, n: int) -> list:
    """Probability 1, and every branch holds the index-zero cat state."""
    if (result.k, result.n) != (k, n):
        return [f"result is for k={result.k}, n={result.n}"]
    problems = _total_probability(result)
    for i, b in enumerate(result.branches):
        norm2 = sum(abs(a) ** 2 for a in b.state.amps.values())
        fid = cat_fidelity(b.state, k, n)
        if abs(norm2 - 1.0) > FIDELITY_TOL or fid < 1.0 - FIDELITY_TOL:
            problems.append(f"branch {i} has fidelity {fid!r} (norm^2 {norm2!r})")
    return problems


# ---------------------------------------------------------------------------
# direct oracles for the built-in functions of the compute pipeline; they
# read the labels by party and the edges of the topology, never identifiers


def _has_labeled_cycle(topology, labels) -> bool:
    keep = {v for v in range(topology.n) if labels[v] == 1}
    edges = [tuple(e) for e in topology.edges if set(e) <= keep]
    seen, components = set(), 0
    adj = {v: [] for v in keep}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in keep:
        if v in seen:
            continue
        components += 1
        stack = [v]
        seen.add(v)
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    # a forest on |keep| nodes with c components has exactly |keep| - c edges
    return len(edges) > len(keep) - components


ORACLES = {
    "majority": lambda topo, x: int(2 * sum(x) > len(x)),
    "parity": lambda topo, x: sum(x) % 2,
    "all-equal": lambda topo, x: int(len(set(x)) == 1),
    "labeled-cycle": lambda topo, x: int(_has_labeled_cycle(topo, x)),
}


def check_compute(run, topology, inputs, fn_name: str) -> list:
    """Every party holds the value the direct oracle gives."""
    expected = ORACLES[fn_name](topology, inputs)
    if len(run.values) != topology.n or set(run.values) != {expected}:
        return [f"{fn_name}{tuple(inputs)} gave {run.values}, expected {expected}"]
    return []


def election_identity(topology, cost) -> list:
    """cost(elect) = 2 cost(all-zeros flood) + 2 cost(unique-one), exactly."""
    n = topology.n
    zeros = subroutines.all_zeros_flooding(n)
    _out, h0, _trace = runtime.run_classical(topology, zeros.program, [0] * n)
    lay = qsim.layout(n, [("bit", 2), ("res", 2)])
    key = tuple(sym for _v in range(n) for sym in (0, subroutines.TRUE))
    _state, h1 = election.exactly_one_algorithm(topology).apply(
        qsim.SparseState(lay, {key: 1.0 + 0j}), "bit", "res", run_cache={})
    problems = []
    for field in ("qubits_sent", "rounds"):
        want = 2 * getattr(h0, field) + 2 * getattr(h1, field)
        if getattr(cost, field) != want:
            problems.append(f"elect {field} {getattr(cost, field)} != 2*flood + 2*unique-one = {want}")
    return problems
